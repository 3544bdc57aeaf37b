#include "heap/HeapVerifier.h"

#include "runtime/ObjectModel.h"

#include <cstdint>

using namespace jvolve;

std::vector<std::string> HeapVerifier::verify(
    const std::function<void(const std::function<void(Ref &)> &)>
        &EnumerateRoots) {
  std::vector<std::string> Problems;
  auto Report = [&Problems](const std::string &Msg) {
    if (Problems.size() < 32) // cap the flood on catastrophic corruption
      Problems.push_back(Msg);
  };

  // Pass 1: linear walk; mark every valid object start in a bitmap with
  // one bit per 8-byte granule (every object starts 8-byte aligned).
  uint8_t *Base = TheHeap.currentSpaceStart();
  size_t Allocated = TheHeap.bytesAllocated();
  std::vector<bool> Starts((Allocated + 7) / 8);
  size_t Offset = 0;
  while (Offset < Allocated) {
    Ref Obj = Base + Offset;
    ObjectHeader *H = header(Obj);
    if (H->Class >= Registry.numClasses()) {
      Report("object at +" + std::to_string(Offset) +
             " has invalid class id " + std::to_string(H->Class));
      break; // cannot size it; the walk is lost
    }
    const RtClass &Cls = Registry.cls(H->Class);
    if (H->Flags & FlagForwarded)
      Report("object at +" + std::to_string(Offset) + " (" + Cls.Name +
             ") is forwarded outside a collection");
    if (H->Flags & FlagUninitialized) {
      // Lazy mode: a shell may stay uninitialized while the engine still
      // lists it as pending — it must then also carry the barrier flag.
      bool PendingShell = (H->Flags & FlagLazyPending) &&
                          LazyIsPendingShell && LazyIsPendingShell(Obj);
      if (!PendingShell)
        Report("object at +" + std::to_string(Offset) + " (" + Cls.Name +
               ") is uninitialized outside an update");
    } else if (H->Flags & FlagLazyPending) {
      Report("object at +" + std::to_string(Offset) + " (" + Cls.Name +
             ") carries a lazy-pending flag but is initialized");
    }
    if (Cls.IsArray != ((H->Flags & FlagArray) != 0))
      Report("object at +" + std::to_string(Offset) +
             " array flag disagrees with class " + Cls.Name);
    if (Cls.IsArray &&
        Cls.ElemIsRef != ((H->Flags & FlagRefArray) != 0))
      Report("array at +" + std::to_string(Offset) +
             " ref-array flag disagrees with element kind of " + Cls.Name);

    // An array's size comes from its length word, so validate that before
    // sizing: a negative or oversized length would wrap objectBytes.
    size_t Avail = Allocated - Offset;
    size_t Bytes = Cls.IsArray ? ArrayElemsOffset : Cls.InstanceSize;
    if (Cls.IsArray && Bytes <= Avail) {
      int64_t Len = arrayLength(Obj);
      if (Len < 0 || static_cast<uint64_t>(Len) > (Avail - Bytes) / SlotBytes) {
        Report("array at +" + std::to_string(Offset) +
               " has corrupt length " + std::to_string(Len));
        break;
      }
      Bytes = arrayBytes(Len);
    }
    if (Bytes > Avail) {
      Report("object at +" + std::to_string(Offset) + " (" + Cls.Name +
             ") extends past the allocated heap");
      break;
    }
    Starts[Offset / 8] = true;
    Offset += (Bytes + 7) & ~size_t(7);
  }
  size_t WalkEnd = Offset; // every object below it is marked in Starts

  /// \returns the problem with reference \p Val (the text after its
  /// location label), or null when it is null or an object start. The
  /// label itself is built only for a failing check.
  auto BadRef = [&](Ref Val) -> const char * {
    if (!Val)
      return nullptr;
    uintptr_t Off = reinterpret_cast<uintptr_t>(Val) -
                    reinterpret_cast<uintptr_t>(Base); // wraps below Base
    if (Off >= Allocated)
      return " points outside the live heap";
    if (Off % 8 || !Starts[Off / 8])
      return " points into the middle of an object";
    return nullptr;
  };

  // The class focus by class id, resolved once instead of per object.
  std::vector<char> Focused;
  if (HasClassFocus) {
    Focused.resize(Registry.numClasses());
    for (size_t Id = 0; Id < Focused.size(); ++Id)
      Focused[Id] =
          ClassFocus.count(Registry.cls(static_cast<ClassId>(Id)).Name) != 0;
  }

  // Pass 2: every reference field/element, re-walking pass 1's objects in
  // address order. A class focus (partial certification) narrows the
  // non-array field checks to the impacted classes; arrays are always
  // checked because element stores are cheap to validate and arrays carry
  // no per-class layout to have changed.
  NumSkipped = 0;
  for (Offset = 0; Offset < WalkEnd;) {
    Ref Obj = Base + Offset;
    ClassId Id = classOf(Obj);
    const RtClass &Cls = Registry.cls(Id);
    Offset += (objectBytes(Cls, Obj) + 7) & ~size_t(7);
    if (HasClassFocus && !Cls.IsArray && !Focused[Id]) {
      ++NumSkipped;
      continue;
    }
    if (Cls.IsArray) {
      if (!Cls.ElemIsRef)
        continue;
      int64_t Len = arrayLength(Obj);
      for (int64_t I = 0; I < Len; ++I)
        if (const char *Bad = BadRef(getRefAt(Obj, arrayElemOffset(I))))
          Report(Cls.Name + "[" + std::to_string(I) + "]" + Bad);
    } else {
      for (const RtField &F : Cls.InstanceFields)
        if (F.IsRef)
          if (const char *Bad = BadRef(getRefAt(Obj, F.Offset)))
            Report(Cls.Name + "." + F.Name + Bad);
    }
  }

  // Pass 3: roots.
  size_t RootIndex = 0;
  EnumerateRoots([&](Ref &R) {
    if (const char *Bad = BadRef(R))
      Report("root #" + std::to_string(RootIndex) + Bad);
    ++RootIndex;
  });

  // The old-copy block must be released once nothing legitimately holds
  // it (eager updates release it right after the transformers; a lazy
  // engine at barrier retirement).
  if (TheHeap.hasOldCopySpace() && !AllowOldCopyReserved)
    Report("old-copy space still reserved (" +
           std::to_string(TheHeap.oldCopyBytesUsed()) +
           " bytes) with no update draining");

  return Problems;
}
