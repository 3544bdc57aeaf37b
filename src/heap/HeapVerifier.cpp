#include "heap/HeapVerifier.h"

#include "runtime/ObjectModel.h"

#include <cstdint>

using namespace jvolve;

namespace {

/// One linearly allocated region the verifier walks: the current
/// semi-space, or the old-copy block while a lazy update legitimately
/// holds it. Starts has one bit per 8-byte granule (every object starts
/// 8-byte aligned), set at each object start pass 1 validated.
struct Region {
  uint8_t *Base = nullptr;
  size_t Allocated = 0;
  /// Prefixes each location: "" for the current space, "old-copy " for
  /// the block.
  const char *Prefix = nullptr;
  std::vector<bool> Starts;
  size_t WalkEnd = 0; ///< every object below it is marked in Starts

  Region(uint8_t *Base, size_t Allocated, const char *Prefix)
      : Base(Base), Allocated(Allocated), Prefix(Prefix),
        Starts((Allocated + 7) / 8) {}

  /// The offset of \p Val in this region, or SIZE_MAX outside it.
  size_t offsetOf(Ref Val) const {
    uintptr_t Off = reinterpret_cast<uintptr_t>(Val) -
                    reinterpret_cast<uintptr_t>(Base); // wraps below Base
    return Off < Allocated ? Off : SIZE_MAX;
  }
};

} // namespace

std::vector<std::string> HeapVerifier::verify(
    const std::function<void(const std::function<void(Ref &)> &)>
        &EnumerateRoots) {
  std::vector<std::string> Problems;
  auto Report = [&Problems](const std::string &Msg) {
    if (Problems.size() < 32) // cap the flood on catastrophic corruption
      Problems.push_back(Msg);
  };

  // The current space, plus the old-copy block while a draining lazy
  // update holds it: pending entries' old copies live there and are roots.
  std::vector<Region> Regions;
  Regions.emplace_back(TheHeap.currentSpaceStart(), TheHeap.bytesAllocated(),
                       "");
  if (TheHeap.hasOldCopySpace() && AllowOldCopyReserved)
    Regions.emplace_back(TheHeap.oldCopyStart(), TheHeap.oldCopyBytesUsed(),
                         "old-copy ");

  // Pass 1: per region, a linear walk that validates each header and
  // marks every valid object start.
  for (Region &R : Regions) {
    size_t Offset = 0;
    while (Offset < R.Allocated) {
      Ref Obj = R.Base + Offset;
      ObjectHeader *H = header(Obj);
      // The location label, built only for a failing check.
      auto Where = [&](const char *Kind) {
        return R.Prefix + std::string(Kind) + " at +" +
               std::to_string(Offset);
      };
      if (H->Class >= Registry.numClasses()) {
        Report(Where("object") + " has invalid class id " +
               std::to_string(H->Class));
        break; // cannot size it; the walk is lost
      }
      const RtClass &Cls = Registry.cls(H->Class);
      if (H->Flags & FlagForwarded)
        Report(Where("object") + " (" + Cls.Name +
               ") is forwarded outside a collection");
      if (H->Flags & FlagUninitialized) {
        // Lazy mode: a shell may stay uninitialized while the engine still
        // lists it as pending — it must then also carry the barrier flag.
        bool PendingShell = (H->Flags & FlagLazyPending) &&
                            LazyIsPendingShell && LazyIsPendingShell(Obj);
        if (!PendingShell)
          Report(Where("object") + " (" + Cls.Name +
                 ") is uninitialized outside an update");
      } else if (H->Flags & FlagLazyPending) {
        Report(Where("object") + " (" + Cls.Name +
               ") carries a lazy-pending flag but is initialized");
      }
      if (Cls.IsArray != ((H->Flags & FlagArray) != 0))
        Report(Where("object") + " array flag disagrees with class " +
               Cls.Name);
      if (Cls.IsArray && Cls.ElemIsRef != ((H->Flags & FlagRefArray) != 0))
        Report(Where("array") +
               " ref-array flag disagrees with element kind of " + Cls.Name);

      // An array's size comes from its length word, so validate that
      // before sizing: a negative or oversized length would wrap
      // objectBytes.
      size_t Avail = R.Allocated - Offset;
      size_t Bytes = Cls.IsArray ? ArrayElemsOffset : Cls.InstanceSize;
      if (Cls.IsArray && Bytes <= Avail) {
        int64_t Len = arrayLength(Obj);
        if (Len < 0 ||
            static_cast<uint64_t>(Len) > (Avail - Bytes) / SlotBytes) {
          Report(Where("array") + " has corrupt length " +
                 std::to_string(Len));
          break;
        }
        Bytes = arrayBytes(Len);
      }
      if (Bytes > Avail) {
        Report(Where("object") + " (" + Cls.Name +
               ") extends past the allocated heap");
        break;
      }
      R.Starts[Offset / 8] = true;
      Offset += (Bytes + 7) & ~size_t(7);
    }
    R.WalkEnd = Offset;
  }

  /// \returns the problem with reference \p Val (the text after its
  /// location label), or null when it is null or an object start of a
  /// walked region. The label itself is built only for a failing check.
  auto BadRef = [&](Ref Val) -> const char * {
    if (!Val)
      return nullptr;
    for (const Region &R : Regions) {
      size_t Off = R.offsetOf(Val);
      if (Off == SIZE_MAX)
        continue;
      if (Off % 8 || !R.Starts[Off / 8])
        return " points into the middle of an object";
      return nullptr;
    }
    return " points outside the live heap";
  };

  // Pass 2: every reference field/element, re-walking pass 1's objects in
  // address order.
  for (const Region &R : Regions) {
    for (size_t Offset = 0; Offset < R.WalkEnd;) {
      Ref Obj = R.Base + Offset;
      const RtClass &Cls = Registry.cls(classOf(Obj));
      Offset += (objectBytes(Cls, Obj) + 7) & ~size_t(7);
      if (Cls.IsArray) {
        if (!Cls.ElemIsRef)
          continue;
        int64_t Len = arrayLength(Obj);
        for (int64_t I = 0; I < Len; ++I)
          if (const char *Bad = BadRef(getRefAt(Obj, arrayElemOffset(I))))
            Report(Cls.Name + "[" + std::to_string(I) + "]" + Bad);
      } else {
        for (uint32_t FieldOffset : Cls.RefOffsets)
          if (const char *Bad = BadRef(getRefAt(Obj, FieldOffset))) {
            const RtField *F = nullptr;
            for (const RtField &Candidate : Cls.InstanceFields)
              if (Candidate.Offset == FieldOffset)
                F = &Candidate;
            Report(Cls.Name + "." + F->Name + Bad);
          }
      }
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
  // engine at barrier retirement, or at commit when nothing is pending).
  if (TheHeap.hasOldCopySpace() && !AllowOldCopyReserved)
    Report("old-copy space still reserved (" +
           std::to_string(TheHeap.oldCopyBytesUsed()) +
           " bytes) with no update draining");

  return Problems;
}
