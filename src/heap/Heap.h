//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniVM heap: two equally sized semi-spaces with bump-pointer
/// allocation, as used by the Jikes RVM semi-space copying collector the
/// paper builds on (§3.4).
///
/// Mutators allocate in the current space. During a collection the
/// collector copies live objects into the other space and then flips.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_HEAP_HEAP_H
#define JVOLVE_HEAP_HEAP_H

#include "runtime/ClassRegistry.h"
#include "runtime/Slot.h"
#include "support/Telemetry.h"

#include <cstddef>
#include <memory>

namespace jvolve {

/// Two semi-spaces plus typed allocation helpers.
class Heap {
public:
  /// Creates a heap whose semi-spaces hold \p SpaceBytes each (total
  /// footprint is 2 * SpaceBytes, like any semi-space collector).
  explicit Heap(size_t SpaceBytes);

  /// Raw bump allocation in the current space; returns nullptr when full
  /// (the VM then triggers a collection and retries).
  Ref allocateRaw(size_t Bytes);

  /// Raw bump allocation in the other space; used only by the collector
  /// while copying. Aborts on exhaustion: a collection that overflows
  /// to-space cannot make progress.
  Ref allocateInOtherSpace(size_t Bytes);

  /// Like allocateInOtherSpace, but returns nullptr on exhaustion instead
  /// of aborting. DSU collections use this: overflowing to-space with
  /// duplicate + new-version copies is a recoverable update failure, not a
  /// VM bug.
  Ref tryAllocateInOtherSpace(size_t Bytes);

  //===--------------------------------------------------------------------===//
  // Update transaction support. A DSU collection moves the live heap into
  // the other space and flips, but never mutates from-space object bodies
  // (only header forwarding marks) — so from-space doubles as the undo
  // log. A TxSnapshot taken before the update records which space was
  // current and how full it was; txRollback() makes that space current
  // again, discards everything the update copied or allocated, and frees
  // any old-copy block. The caller must then clear the forwarding marks
  // and restore the root set from its own snapshot.
  //===--------------------------------------------------------------------===//

  struct TxSnapshot {
    int CurrentIndex = 0;
    size_t BumpBytes = 0;
  };

  TxSnapshot txSnapshot() const { return {Current, Bump[Current]}; }

  void txRollback(const TxSnapshot &S);

  //===--------------------------------------------------------------------===//
  // Old-copy space (paper §3.5): "We could instead copy the old versions
  // to a special block of memory and reclaim it when the collection
  // completes." DSU collections place the duplicates of old-version
  // objects here by default (to-space is the reference placement); the
  // DSU layer releases the block as soon as the transformers have run, or
  // when a lazy update's engine retires, instead of waiting for the next
  // collection to reclaim the duplicates.
  //===--------------------------------------------------------------------===//

  /// Reserves an old-copy block of at least \p Bytes. Idempotent per
  /// update; aborts if a block is already in use.
  void reserveOldCopySpace(size_t Bytes);

  /// Bump allocation inside the reserved block; aborts on exhaustion.
  Ref allocateInOldCopySpace(size_t Bytes);

  /// Like allocateInOldCopySpace, but returns nullptr on exhaustion. DSU
  /// collections use this: an undersized old-copy reserve is a recoverable
  /// update failure (rollback), not a VM bug.
  Ref tryAllocateInOldCopySpace(size_t Bytes);

  /// Frees the block (all old copies die instantly).
  void releaseOldCopySpace();

  bool hasOldCopySpace() const { return OldCopy != nullptr; }
  size_t oldCopyBytesUsed() const { return OldCopyBump; }
  uint8_t *oldCopyStart() const { return OldCopy.get(); }

  /// Allocates and zero-initializes an instance of \p Cls (non-array).
  /// Returns nullptr when the current space is full.
  Ref allocateObject(const RtClass &Cls);

  /// Allocates a zeroed array of \p Length elements of class \p ArrCls.
  Ref allocateArray(const RtClass &ArrCls, int64_t Length);

  /// Swaps the roles of the spaces. The bytes the collector wrote to the
  /// other space become the live heap; the old space becomes free.
  void flip();

  /// \returns true if \p Obj points into the space mutators currently
  /// allocate from.
  bool inCurrentSpace(Ref Obj) const;
  /// \returns true if \p Obj points into the copy space.
  bool inOtherSpace(Ref Obj) const;

  uint8_t *currentSpaceStart() const { return Spaces[Current].get(); }
  uint8_t *otherSpaceStart() const { return Spaces[1 - Current].get(); }

  size_t bytesAllocated() const { return Bump[Current]; }
  size_t otherBytesAllocated() const { return Bump[1 - Current]; }
  size_t spaceBytes() const { return SpaceBytes; }

  /// Number of objects allocated by mutators since construction.
  uint64_t objectsAllocated() const { return NumAllocated; }

private:
  size_t SpaceBytes;
  std::unique_ptr<uint8_t[]> Spaces[2];
  size_t Bump[2] = {0, 0};
  int Current = 0;
  uint64_t NumAllocated = 0;

  std::unique_ptr<uint8_t[]> OldCopy;
  size_t OldCopyBump = 0;
  size_t OldCopyCapacity = 0;

  // Telemetry handles, resolved once at construction (allocation paths
  // must not do name lookups).
  TelCounter &TelObjectsAllocated;
  TelCounter &TelBytesAllocated;
};

} // namespace jvolve

#endif // JVOLVE_HEAP_HEAP_H
