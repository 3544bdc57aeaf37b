//===----------------------------------------------------------------------===//
///
/// \file
/// Heap-invariant verifier: a debug pass that walks the live heap and
/// every root set, checking the invariants the collector and the DSU
/// update machinery must preserve. Tests run it after collections and
/// after dynamic updates.
///
/// Checked invariants:
///  * every object header carries a valid, loaded class id;
///  * no object is marked forwarded or uninitialized outside a collection
///    (uninitialized objects only exist between the DSU copy phase and
///    the transformer phase);
///  * array lengths are non-negative and object extents stay inside the
///    current semi-space;
///  * every reference field/element/root is null or points to the start
///    of a live object in the current space;
///  * reference-array flags agree with the array class's element kind.
///
/// While a draining lazy update legitimately holds the §3.5 old-copy
/// block, the block is walked as a second region under the same checks,
/// and a reference into it is valid only at one of its object starts.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_HEAP_HEAPVERIFIER_H
#define JVOLVE_HEAP_HEAPVERIFIER_H

#include "heap/Heap.h"
#include "runtime/ClassRegistry.h"

#include <functional>
#include <set>
#include <string>
#include <vector>

namespace jvolve {

/// Walks the heap and roots; returns human-readable invariant violations
/// (empty = healthy heap).
class HeapVerifier {
public:
  HeapVerifier(Heap &TheHeap, ClassRegistry &Registry)
      : TheHeap(TheHeap), Registry(Registry) {}

  /// Relaxes the invariants for a draining lazy update. \p IsPendingShell
  /// says whether an object is an untransformed shell registered with the
  /// live engine — only those may stay uninitialized (and must also carry
  /// FlagLazyPending); anything else uninitialized is still corruption, so
  /// once the engine reports drained every leftover shell is flagged.
  /// \p AllowOldCopyReserved tolerates a still-reserved old-copy block
  /// (the engine holds it until barrier retirement) and walks it: pending
  /// entries' old copies live there and are roots. When false a reserved
  /// block is reported as leaked.
  void setLazyContext(std::function<bool(Ref)> IsPendingShell,
                      bool AllowOldCopyReserved) {
    LazyIsPendingShell = std::move(IsPendingShell);
    this->AllowOldCopyReserved = AllowOldCopyReserved;
  }

  /// Partial certification (impact-bounded updates): when set, the per-field
  /// reference checks of pass 2 run only for non-array objects whose class
  /// name is in \p Classes (resolved to class ids once per verify()).
  /// Every object still gets the structural pass-1 checks (header flags,
  /// class ids, sizing, linear-walk integrity), arrays are always checked
  /// in full, and root checking is unaffected — the update-impact closure
  /// proves the skipped classes' field graphs are byte-identical to the
  /// already-certified pre-update heap.
  void setClassFocus(std::set<std::string> Classes) {
    ClassFocus = std::move(Classes);
    HasClassFocus = true;
  }

  /// Non-array objects whose field checks the class focus skipped during
  /// the last verify() run.
  size_t objectsSkipped() const { return NumSkipped; }

  /// Verifies the linear heap layout and every object's fields.
  /// \p EnumerateRoots visits every root reference (same contract as the
  /// collector's root enumerator); pass the VM's enumerator.
  std::vector<std::string>
  verify(const std::function<void(const std::function<void(Ref &)> &)>
             &EnumerateRoots);

private:
  Heap &TheHeap;
  ClassRegistry &Registry;
  std::function<bool(Ref)> LazyIsPendingShell;
  bool AllowOldCopyReserved = false;
  std::set<std::string> ClassFocus;
  bool HasClassFocus = false;
  size_t NumSkipped = 0;
};

} // namespace jvolve

#endif // JVOLVE_HEAP_HEAPVERIFIER_H
