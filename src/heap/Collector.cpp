#include "heap/Collector.h"

#include "runtime/ObjectModel.h"
#include "support/Error.h"
#include "support/Stopwatch.h"
#include "support/Telemetry.h"

#include <cassert>
#include <cstring>

using namespace jvolve;

Ref Collector::dsuAllocate(size_t Bytes, const char *What) {
  if (Faults && Faults->probe(FaultInjector::Site::GcAllocExhaustion))
    throw UpdateError("dsu-gc", std::string("injected to-space exhaustion "
                                            "while allocating ") +
                                    What);
  Ref Obj = TheHeap.tryAllocateInOtherSpace(Bytes);
  if (!Obj)
    throw UpdateError("dsu-gc",
                      std::string("to-space exhausted while allocating ") +
                          What +
                          "; the live heap plus duplicate old copies does "
                          "not fit (enlarge the heap or enable the "
                          "old-copy space)");
  return Obj;
}

Ref Collector::forward(Ref Obj, const DsuRemap *Remap,
                       std::vector<UpdateLogEntry> *UpdateLog,
                       CollectionStats &Stats) {
  if (!Obj)
    return nullptr;
  ObjectHeader *H = header(Obj);
  if (H->Flags & FlagForwarded)
    return H->Forward;

  const RtClass &Cls = Registry.cls(H->Class);
  size_t Bytes = objectBytes(Cls, Obj);

  if (Remap) {
    ClassId NewId = Remap->newClassOf(H->Class);
    if (NewId != InvalidClassId) {
      assert(UpdateLog && "DSU collection requires an update log");
      const RtClass &NewCls = Registry.cls(NewId);
      assert(!NewCls.IsArray && "array classes are never remapped");

      // Uninitialized new-version object: new class, zeroed fields.
      Ref NewObj = dsuAllocate(NewCls.InstanceSize, "a new-version object");
      std::memset(NewObj, 0, NewCls.InstanceSize);
      ObjectHeader *NewH = header(NewObj);
      NewH->Class = NewCls.Id;
      NewH->Flags =
          FlagUninitialized | (Remap->LazyShells ? FlagLazyPending : 0u);

      // Duplicate of the old version, scanned like any live object so its
      // fields get forwarded into to-space. Placement depends on the
      // §3.5 old-copy-space option.
      Ref OldCopy;
      if (Remap->OldCopiesInSeparateSpace) {
        OldCopy = TheHeap.tryAllocateInOldCopySpace(Bytes);
        if (!OldCopy)
          throw UpdateError(
              "dsu-gc",
              "old-copy space exhausted while allocating an old-version "
              "duplicate; raise OldCopyReserveLimitBytes or let the "
              "collector reserve the worst case");
      } else {
        OldCopy = dsuAllocate(Bytes, "an old-version duplicate");
      }
      std::memcpy(OldCopy, Obj, Bytes);
      header(OldCopy)->Flags &= ~FlagForwarded;

      H->Flags |= FlagForwarded;
      H->Forward = NewObj;

      setLogIndex(NewObj, UpdateLog->size());
      UpdateLog->push_back({OldCopy, NewObj, UpdateLogEntry::State::Pending});

      ++Stats.ObjectsRemapped;
      Stats.ObjectsCopied += 2;
      Stats.BytesCopied += Bytes + NewCls.InstanceSize;
      return NewObj;
    }
  }

  Ref Copy = Remap ? dsuAllocate(Bytes, "a live-object copy")
                   : TheHeap.allocateInOtherSpace(Bytes);
  std::memcpy(Copy, Obj, Bytes);
  H->Flags |= FlagForwarded;
  H->Forward = Copy;
  ++Stats.ObjectsCopied;
  Stats.BytesCopied += Bytes;
  return Copy;
}

CollectionStats Collector::collect(const RootEnumerator &EnumerateRoots,
                                   const DsuRemap *Remap,
                                   std::vector<UpdateLogEntry> *UpdateLog) {
  Stopwatch Timer;
  CollectionStats Stats;
  size_t LiveBeforeBytes = TheHeap.bytesAllocated();

  assert(TheHeap.otherBytesAllocated() == 0 &&
         "to-space must be empty at the start of a collection");

  bool UseOldSpace = Remap && Remap->OldCopiesInSeparateSpace;
  if (UseOldSpace) {
    // Worst case: every live object is a duplicate candidate. An explicit
    // limit trades that guarantee for a smaller block (and a recoverable
    // UpdateError when it proves too small).
    size_t Reserve = TheHeap.bytesAllocated();
    if (Remap->OldCopyReserveLimitBytes &&
        Remap->OldCopyReserveLimitBytes < Reserve)
      Reserve = Remap->OldCopyReserveLimitBytes;
    TheHeap.reserveOldCopySpace(Reserve);
  }

  auto Fwd = [&](Ref &Loc) {
    Loc = forward(Loc, Remap, UpdateLog, Stats);
  };

  EnumerateRoots(Fwd);

  /// Forwards every reference field of \p Obj; \returns its aligned size.
  auto ScanObject = [&](Ref Obj) -> size_t {
    ObjectHeader *H = header(Obj);
    const RtClass &Cls = Registry.cls(H->Class);
    size_t Bytes = objectBytes(Cls, Obj);

    if (H->Flags & FlagUninitialized) {
      // Fresh new-version object: all fields zero; nothing to scan. The
      // transformers populate it after the collection ends.
    } else if (Cls.IsArray) {
      if (Cls.ElemIsRef) {
        int64_t Len = arrayLength(Obj);
        for (int64_t I = 0; I < Len; ++I) {
          Ref Elem = getRefAt(Obj, arrayElemOffset(I));
          if (Elem)
            setRefAt(Obj, arrayElemOffset(I),
                     forward(Elem, Remap, UpdateLog, Stats));
        }
      }
    } else {
      for (const RtField &F : Cls.InstanceFields) {
        if (!F.IsRef)
          continue;
        Ref Val = getRefAt(Obj, F.Offset);
        if (Val)
          setRefAt(Obj, F.Offset, forward(Val, Remap, UpdateLog, Stats));
      }
    }
    return (Bytes + 7) & ~size_t(7);
  };

  // Cheney scan. Copies extend to-space; old duplicates may extend the
  // old-copy space; both regions are scanned to a joint fixpoint.
  size_t ScanTo = 0, ScanOld = 0;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    while (ScanTo < TheHeap.otherBytesAllocated()) {
      ScanTo += ScanObject(TheHeap.otherSpaceStart() + ScanTo);
      Progress = true;
    }
    while (UseOldSpace && ScanOld < TheHeap.oldCopyBytesUsed()) {
      ScanOld += ScanObject(TheHeap.oldCopyStart() + ScanOld);
      Progress = true;
    }
  }

  if (UseOldSpace)
    Stats.OldCopySpaceBytes = TheHeap.oldCopyBytesUsed();
  TheHeap.flip();
  Stats.GcMs = Timer.elapsedMs();

  if (Telemetry::isEnabled()) {
    Telemetry &Tel = Telemetry::global();
    Tel.counter(metrics::GcCollections).inc();
    Tel.histogram(metrics::GcPauseMs).record(Stats.GcMs);
    Tel.counter(metrics::GcBytesCopied).add(Stats.BytesCopied);
    Tel.counter(metrics::GcObjectsCopied).add(Stats.ObjectsCopied);
    if (LiveBeforeBytes > 0)
      Tel.histogram(metrics::GcSurvivorRate)
          .record(static_cast<double>(Stats.BytesCopied) /
                  static_cast<double>(LiveBeforeBytes));
    if (Remap) {
      Tel.counter(metrics::GcDsuCollections).inc();
      Tel.histogram(metrics::GcDsuPauseMs).record(Stats.GcMs);
      Tel.counter(metrics::GcDsuBytesCopied).add(Stats.BytesCopied);
      Tel.counter(metrics::GcDsuObjectsRemapped).add(Stats.ObjectsRemapped);
    }
  }
  return Stats;
}
