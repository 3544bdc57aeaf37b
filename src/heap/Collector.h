//===----------------------------------------------------------------------===//
///
/// \file
/// Semi-space copying collector with the Jvolve DSU extension (paper §3.4).
///
/// A normal collection performs a Cheney traversal: roots are forwarded
/// into to-space, then to-space is scanned linearly, forwarding every
/// reference field.
///
/// When a DsuRemap is supplied (during a dynamic update), objects whose
/// class signature changed are handled specially: the collector allocates
/// an *uninitialized new-version object* (new class, new size) plus a
/// *duplicate of the old object* in to-space, installs the forwarding
/// pointer to the new version, and appends the (old copy, new object) pair
/// to the update log; the new object's header records its log index
/// (setLogIndex in runtime/ObjectModel.h), so the transformer runtime finds
/// a referenced object's entry without a side table. The old copy is
/// scanned normally, so its fields end up pointing at to-space
/// (new-version) objects — exactly the state the object transformer
/// functions expect. After the collection the DSU layer runs the
/// transformers over the log. By default the old copies live in the
/// heap's §3.5 old-copy block, which the DSU layer frees as soon as the
/// transformers are done; with the to-space placement, clearing the log
/// makes them unreachable and the *next* collection reclaims them.
///
/// The scan traces each class's RtClass::RefOffsets, and a cursor a fixed
/// distance ahead of each scan pointer prefetches the headers the grey
/// objects point to.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_HEAP_COLLECTOR_H
#define JVOLVE_HEAP_COLLECTOR_H

#include "heap/Heap.h"
#include "runtime/ClassRegistry.h"
#include "support/FaultInjector.h"

#include <functional>
#include <vector>

namespace jvolve {

/// Classes whose instances must be transformed during a DSU collection.
struct DsuRemap {
  /// Indexed by old class id: the new class id its instances become, or
  /// InvalidClassId for classes the update leaves alone.
  std::vector<ClassId> OldToNew;

  void add(ClassId Old, ClassId New) {
    if (Old >= OldToNew.size())
      OldToNew.resize(Old + 1, InvalidClassId);
    OldToNew[Old] = New;
  }
  ClassId newClassOf(ClassId Old) const {
    return Old < OldToNew.size() ? OldToNew[Old] : InvalidClassId;
  }

  /// §3.5 optimization: place the duplicates of old-version objects in a
  /// dedicated block (Heap's old-copy space) instead of to-space, so the
  /// DSU layer can reclaim it the moment the transformers finish rather
  /// than waiting for the next collection. The updater sets it from
  /// UpdateOptions::UseOldCopySpace (on by default).
  bool OldCopiesInSeparateSpace = false;

  /// Lazy-transform mode: mark every new-version shell FlagLazyPending in
  /// addition to FlagUninitialized. The LazyTransformEngine adopts the
  /// update log after the collection and transforms shells on first touch.
  bool LazyShells = false;
};

/// One pending object transformation recorded during a DSU collection.
struct UpdateLogEntry {
  /// Duplicate of the old-version object (old-copy block or to-space).
  Ref OldCopy = nullptr;
  Ref NewObj = nullptr;  ///< uninitialized new-version object (to-space)

  /// Transformer progress, used for the recursive force-transform path and
  /// its cycle detection (paper §3.4). Failed marks an entry whose lazy
  /// post-commit transformer threw: the update cannot roll back anymore, so
  /// the shell stays a valid default-initialized object and is never
  /// retried (the update is reported degraded instead).
  enum class State : uint8_t { Pending, InProgress, Done, Failed };
  State St = State::Pending;
};

/// Measurements for one collection.
struct CollectionStats {
  double GcMs = 0; ///< wall-clock time of the copying phase
  /// Objects the collection copied: live objects, new-version shells and
  /// old-version duplicates, wherever they were placed.
  uint64_t ObjectsCopied = 0;
  /// Bytes copied into to-space only; duplicates placed in the old-copy
  /// block count in OldCopySpaceBytes instead.
  uint64_t BytesCopied = 0;
  uint64_t ObjectsRemapped = 0; ///< objects queued for transformation
  /// Bytes of old-version duplicates placed in the separate old-copy
  /// space (0 when the default to-space placement was used).
  uint64_t OldCopySpaceBytes = 0;
};

/// The collector. Stateless between collections; borrows the heap and
/// registry.
class Collector {
public:
  Collector(Heap &TheHeap, ClassRegistry &Registry)
      : TheHeap(TheHeap), Registry(Registry) {}

  /// Installs the VM's fault injector. Only DSU collections probe it
  /// (Site::GcAllocExhaustion); normal collections are never failed.
  void setFaultInjector(FaultInjector *FI) { Faults = FI; }

  /// Enumerator over every root reference location. Implementations call
  /// the supplied callback once per root slot holding a non-null Ref.
  using RootEnumerator =
      std::function<void(const std::function<void(Ref &)> &)>;

  /// Runs one full-heap collection.
  ///
  /// \param EnumerateRoots visits statics, thread stacks, and VM handles.
  /// \param Remap non-null during a dynamic update.
  /// \param UpdateLog receives (old copy, new object) pairs; required when
  ///        \p Remap is non-null. It is reserved once, for as many entries
  ///        as the live bytes can hold remapped objects, so it never
  ///        regrows during the pause. Each new object's header carries its
  ///        entry's index, so the transformer runtime can force-transform a
  ///        referenced object in O(1) (the paper caches a pointer to the old
  ///        version instead of scanning the log).
  ///
  /// A DSU collection (\p Remap non-null) throws UpdateError("dsu-gc", ...)
  /// when to-space or the old-copy block cannot hold its copies, or when
  /// the gc-alloc-exhaustion fault site fires — the heap is left mid-copy
  /// and the updater must txRollback. Normal collections never throw;
  /// to-space exhaustion there is a fatal VM bug.
  CollectionStats collect(const RootEnumerator &EnumerateRoots,
                          const DsuRemap *Remap = nullptr,
                          std::vector<UpdateLogEntry> *UpdateLog = nullptr);

private:
  Ref forward(Ref Obj, const DsuRemap *Remap,
              std::vector<UpdateLogEntry> *UpdateLog, CollectionStats &Stats);

  /// Allocates \p Bytes for a DSU copy, in the old-copy block when
  /// \p InOldCopySpace and in to-space otherwise. Either placement probes
  /// the gc-alloc-exhaustion site first and throws UpdateError("dsu-gc")
  /// on exhaustion or an injected fault.
  Ref dsuAllocate(size_t Bytes, const char *What, bool InOldCopySpace);

  Heap &TheHeap;
  ClassRegistry &Registry;
  FaultInjector *Faults = nullptr;
};

} // namespace jvolve

#endif // JVOLVE_HEAP_COLLECTOR_H
