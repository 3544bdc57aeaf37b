//===----------------------------------------------------------------------===//
///
/// \file
/// Lazy object transformation: read-barrier-mediated on-demand transforms
/// with background draining.
///
/// The paper's updater (§3.4) runs every object transformer inside the
/// stop-the-world DSU collection, so the pause grows with the number of
/// changed-class instances. The paper discusses the alternative the
/// production JikesRVM-based systems explored: commit the update with
/// *untransformed* shells and transform each object the first time the
/// program touches it. This engine implements that mode.
///
/// The DSU collection still allocates a zeroed new-version shell plus an
/// old-version duplicate per remapped object (reusing the update log and
/// the §3.5 old-copy space), but marks each shell FlagLazyPending and
/// defers the transformer. After commit:
///
///  - interpreter object-access paths run a read barrier: a header-flag
///    check on the fast path, LazyTransformEngine::onBarrierHit on the
///    slow path, which runs the transformer (cycle-safe, recursive via
///    TransformCtx::ensureTransformed) before the access proceeds;
///  - a background drainer — a cooperative VM thread scheduled like any
///    other — transforms a bounded batch per quantum so the table empties
///    even if the program never touches some shells;
///  - once every entry settles the engine *retires* the barrier: the
///    LazyBarriers bit is cleared from all compiled code and the old-copy
///    block is released, so steady-state cost returns to exactly zero
///    (unlike the permanent indirection-table ablation).
///
/// Post-commit failure policy: a transformer that throws after commit
/// cannot roll the update back. The affected entries settle as Failed
/// (their shells stay valid default-initialized objects), the touching
/// thread receives a structured LazyTransformError diagnostic, and the
/// update is reported degraded: the failed transforms are counted
/// (dsu.lazy.failed_transforms) and named by the engine.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_LAZYTRANSFORM_H
#define JVOLVE_DSU_LAZYTRANSFORM_H

#include "dsu/Transformers.h"
#include "dsu/UpdateBundle.h"
#include "heap/Collector.h"
#include "vm/VM.h"

#include <string>
#include <vector>

namespace jvolve {

/// Structured diagnostic for one failed post-commit transform.
struct LazyTransformError {
  std::string ClassName; ///< new-version class of the failed shell
  size_t LogIndex = 0;   ///< update-log entry that failed
  std::string Message;   ///< the transformer's UpdateError message
  bool OnDemand = false; ///< barrier hit (true) or background drain (false)
  uint64_t Tick = 0;     ///< virtual time of the failure

  std::string str() const;
};

/// The engine. Owns the DSU collection's update log and a copy of the
/// update bundle (so transformer bodies stay callable for the engine's
/// whole lifetime); each shell finds its log entry through the index in
/// its own header (TransformerRunner::entryOf). The VM owns the engine
/// through the VmLazyEngine interface from commit until the next update
/// replaces it.
class LazyTransformEngine : public VmLazyEngine {
public:
  /// \p OwnsOldCopySpace: the update placed old-version duplicates in the
  /// heap's old-copy block and left it reserved; the engine releases it at
  /// barrier retirement (or hands the copies to a regular GC first).
  /// \p DrainBatch: background transforms per drainer quantum.
  /// \p ImpactBounded: at arm time, bulk-settle every pending shell whose
  /// class is provably untouched (its TransformPlan is the identity and no
  /// custom object transformer replaces it) — those objects are pure
  /// bitwise copies, so the drain loop and the read barrier skip them
  /// entirely.
  LazyTransformEngine(VM &TheVM, UpdateBundle Bundle,
                      std::vector<UpdateLogEntry> Log, bool OwnsOldCopySpace,
                      size_t DrainBatch, bool ImpactBounded = false);

  /// Sets the LazyBarriers bit on every compiled method (registry and
  /// active frames) and on future compilations, and publishes the initial
  /// pending gauge. Called once, right after commit. In impact-bounded
  /// mode, first settles the provably-untouched classes in bulk.
  void arm();

  //===--- VmLazyEngine -----------------------------------------------------//
  bool onBarrierHit(Ref Obj, std::string *Err) override;
  size_t drainSome(size_t BudgetTicks) override;
  bool drained() const override { return pendingCount() == 0; }
  size_t pendingCount() const override;
  uint64_t transformedCount() const override {
    return NumOnDemand + NumBackground;
  }
  /// True when \p Obj is a shell whose entry has not settled yet — the
  /// heap verifier's lazy context (a drained engine returns false for
  /// everything, so leftover shells are reported as corruption).
  bool isPendingShell(Ref Obj) const override;
  void retire() override;
  void visitRoots(const std::function<void(Ref &)> &Visit) override;
  void onHeapMoved() override;

  //===--- Introspection (jvolve-serve stats, tests, benches) ---------------//
  bool retired() const { return Retired; }
  uint64_t barrierHits() const { return NumBarrierHits; }
  uint64_t onDemandTransforms() const { return NumOnDemand; }
  uint64_t backgroundTransforms() const { return NumBackground; }
  uint64_t drainTicks() const { return NumDrainTicks; }
  uint64_t failedTransforms() const { return NumFailed; }
  /// Entries settled in bulk at arm time (impact-bounded mode only).
  uint64_t bulkSettled() const { return NumBulkSettled; }
  const std::vector<LazyTransformError> &failures() const { return Failures; }

private:
  /// Settles the entry at \p Index: runs its transformer (and whatever it
  /// recursively forces) with collection held off. On failure, sweeps every
  /// in-progress entry to Failed, clears the shells' flags, and records the
  /// structured diagnostic. \returns false on failure with \p Err set.
  bool transformIndex(size_t Index, bool OnDemand, std::string *Err);

  /// Bulk-settles every pending entry of a provably-untouched class (the
  /// runtime mirror of SynthesisReport::UntouchedClasses): the runner's
  /// plan is the identity and no custom object transformer replaces it,
  /// so the default copy is the whole transform.
  void settleUntouched();

  /// Applies \p V to the LazyBarriers bit of all compiled code: registry
  /// methods, every frame on every thread stack (catches OSR-synthesized
  /// code objects not in the registry), and the compiler option.
  void setAllBarriers(bool V);

  void publishPendingGauge() const;

  VM &TheVM;
  UpdateBundle Bundle;
  std::vector<UpdateLogEntry> UpdateLog;
  /// Constructed after the members above — it holds references to them.
  TransformerRunner Runner;

  bool OwnsOldCopySpace;
  size_t DrainBatch;
  bool ImpactBounded = false;
  uint64_t NumBulkSettled = 0;
  size_t NextDrainIndex = 0;
  /// Entries already settled at handoff (a class transformer may have
  /// force-transformed objects through its statics before commit).
  size_t PreSettled = 0;
  bool Retired = false;

  uint64_t NumBarrierHits = 0;
  uint64_t NumOnDemand = 0;
  uint64_t NumBackground = 0;
  uint64_t NumDrainTicks = 0;
  uint64_t NumFailed = 0;
  std::vector<LazyTransformError> Failures;
};

} // namespace jvolve

#endif // JVOLVE_DSU_LAZYTRANSFORM_H
