#include "heap/Collector.h"

#include "runtime/ObjectModel.h"
#include "support/Error.h"
#include "support/Stopwatch.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace jvolve;

/// How far ahead of each Cheney scan pointer the prefetch cursor runs: far
/// enough that a target's header has arrived when the scan forwards it,
/// near enough that it is still cached.
static constexpr size_t PrefetchDistance = 1024;
/// The same distance inside a reference array, in elements.
static constexpr int64_t PrefetchSlots = PrefetchDistance / SlotBytes;

Ref Collector::dsuAllocate(size_t Bytes, const char *What,
                           bool InOldCopySpace) {
  const char *Space = InOldCopySpace ? "old-copy space" : "to-space";
  if (Faults && Faults->probe(FaultInjector::Site::GcAllocExhaustion))
    throw UpdateError("dsu-gc", std::string("injected ") + Space +
                                    " exhaustion while allocating " + What);
  Ref Obj = InOldCopySpace ? TheHeap.tryAllocateInOldCopySpace(Bytes)
                           : TheHeap.tryAllocateInOtherSpace(Bytes);
  if (Obj)
    return Obj;
  if (InOldCopySpace)
    throw UpdateError("dsu-gc",
                      std::string("old-copy space exhausted while "
                                  "allocating ") +
                          What +
                          "; raise OldCopyReserveLimitBytes or let the "
                          "collector reserve the worst case");
  throw UpdateError("dsu-gc",
                    std::string("to-space exhausted while allocating ") +
                        What +
                        "; the live heap plus the update's copies does not "
                        "fit (enlarge the heap)");
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
      Ref NewObj =
          dsuAllocate(NewCls.InstanceSize, "a new-version object", false);
      std::memset(NewObj, 0, NewCls.InstanceSize);
      ObjectHeader *NewH = header(NewObj);
      NewH->Class = NewCls.Id;
      NewH->Flags =
          FlagUninitialized | (Remap->LazyShells ? FlagLazyPending : 0u);

      // Duplicate of the old version, scanned like any live object so its
      // fields get forwarded into to-space. It goes to the §3.5 old-copy
      // block unless the remap asks for the to-space placement.
      bool InBlock = Remap->OldCopiesInSeparateSpace;
      Ref OldCopy = dsuAllocate(Bytes, "an old-version duplicate", InBlock);
      std::memcpy(OldCopy, Obj, Bytes);
      header(OldCopy)->Flags &= ~FlagForwarded;

      H->Flags |= FlagForwarded;
      H->Forward = NewObj;

      setLogIndex(NewObj, UpdateLog->size());
      UpdateLog->push_back({OldCopy, NewObj, UpdateLogEntry::State::Pending});

      ++Stats.ObjectsRemapped;
      Stats.ObjectsCopied += 2;
      Stats.BytesCopied += NewCls.InstanceSize + (InBlock ? 0 : Bytes);
      return NewObj;
    }
  }

  Ref Copy = Remap ? dsuAllocate(Bytes, "a live-object copy", false)
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
  if (Remap) {
    // Reserve the log once: every remapped object occupies at least the
    // smallest remapped class's instance size of from-space, so the live
    // bytes bound the entry count. Pages never written never become
    // resident.
    uint32_t MinSize = UINT32_MAX;
    for (ClassId Old = 0; Old < Remap->OldToNew.size(); ++Old)
      if (Remap->OldToNew[Old] != InvalidClassId)
        MinSize = std::min(MinSize, Registry.cls(Old).InstanceSize);
    if (MinSize != UINT32_MAX)
      UpdateLog->reserve(UpdateLog->size() + LiveBeforeBytes / MinSize);
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
          if (I + PrefetchSlots < Len)
            if (Ref Ahead = getRefAt(Obj, arrayElemOffset(I + PrefetchSlots)))
              __builtin_prefetch(Ahead);
          Ref Elem = getRefAt(Obj, arrayElemOffset(I));
          if (Elem)
            setRefAt(Obj, arrayElemOffset(I),
                     forward(Elem, Remap, UpdateLog, Stats));
        }
      }
    } else {
      for (uint32_t Offset : Cls.RefOffsets) {
        Ref Val = getRefAt(Obj, Offset);
        if (Val)
          setRefAt(Obj, Offset, forward(Val, Remap, UpdateLog, Stats));
      }
    }
    return (Bytes + 7) & ~size_t(7);
  };

  /// Moves a region's prefetch cursor \p At to PrefetchDistance bytes past
  /// its scan pointer \p Scan (or to the region's end), prefetching the
  /// headers the grey objects it passes point to: the lines forward() reads
  /// when the scan reaches those objects. Arrays are prefetched by their
  /// own element loop.
  auto Prefetch = [&](uint8_t *Base, size_t Scan, size_t End, size_t &At) {
    size_t Limit = std::min(Scan + PrefetchDistance, End);
    while (At < Limit) {
      Ref Obj = Base + At;
      ObjectHeader *H = header(Obj);
      const RtClass &Cls = Registry.cls(H->Class);
      if (!Cls.IsArray && !(H->Flags & FlagUninitialized))
        for (uint32_t Offset : Cls.RefOffsets)
          if (Ref Val = getRefAt(Obj, Offset))
            __builtin_prefetch(Val);
      At += (objectBytes(Cls, Obj) + 7) & ~size_t(7);
    }
  };

  // Cheney scan. Copies extend to-space; old duplicates may extend the
  // old-copy space; both regions are scanned to a joint fixpoint.
  size_t ScanTo = 0, ScanOld = 0, AheadTo = 0, AheadOld = 0;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    while (ScanTo < TheHeap.otherBytesAllocated()) {
      Prefetch(TheHeap.otherSpaceStart(), ScanTo,
               TheHeap.otherBytesAllocated(), AheadTo);
      ScanTo += ScanObject(TheHeap.otherSpaceStart() + ScanTo);
      Progress = true;
    }
    while (UseOldSpace && ScanOld < TheHeap.oldCopyBytesUsed()) {
      Prefetch(TheHeap.oldCopyStart(), ScanOld, TheHeap.oldCopyBytesUsed(),
               AheadOld);
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
