//===----------------------------------------------------------------------===//
///
/// \file
/// Revert mechanics: everything a canary window needs to undo a committed
/// update through the normal five-step pipeline.
///
/// The paper's safety story (§3) ends at commit; this module supplies the
/// post-commit half. A reverse update is just a forward update whose "new"
/// program is the retained pre-update version, so it flows through the
/// same safe-point hunt, class install, DSU collection, and transformer
/// run — no second code path. What commit destroys, the undo log retains:
/// values of fields and statics the forward update removed, extracted
/// from the forward DSU collection's old copies and kept alive as GC
/// roots for the length of the observation window (the way the lazy
/// engine holds old-copy space). Reverse transformers are the registered
/// inverses where the developer supplied them, and otherwise the reverse
/// runner's default plan (the forward renames inverted) plus an undo-log
/// restore.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_REVERT_H
#define JVOLVE_DSU_REVERT_H

#include "dsu/UpdateBundle.h"
#include "runtime/Slot.h"
#include "vm/VM.h"

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace jvolve {

/// SLO thresholds for one post-commit observation window
/// (UpdateOptions::CanaryWindow). The window is bounded by ticks and/or
/// responses — whichever bound is hit first retires it. Deltas are
/// measured from the moment the window arms; -1 disables a monitor.
struct CanaryPolicy {
  /// Window length in virtual ticks (0 = not tick-bounded).
  uint64_t WindowTicks = 0;
  /// Window length in served responses (0 = not request-bounded).
  uint64_t WindowRequests = 0;
  /// Virtual ticks between health checks.
  uint64_t CheckIntervalTicks = 500;
  /// Interpreter traps tolerated within the window (0 = any trap reverts).
  int64_t MaxTrapDelta = 0;
  /// Failed post-commit lazy transforms tolerated within the window.
  int64_t MaxFailedTransforms = 0;
  /// Requests shed by admission control tolerated within the window
  /// (-1 = not monitored; post-commit load spikes are usually not the
  /// update's fault).
  int64_t MaxShedDelta = -1;
  /// Mean request latency within the window may exceed the pre-update
  /// baseline mean by at most this many percent (-1 = not monitored).
  double MaxLatencyDeltaPct = -1;

  bool enabled() const { return WindowTicks > 0 || WindowRequests > 0; }
};

/// One observation of the health signals the canary monitors. All fields
/// are cumulative-since-boot, so any two samples give window deltas.
struct CanaryHealthSample {
  uint64_t Traps = 0;
  uint64_t Shed = 0;
  uint64_t LazyFailed = 0;
  uint64_t Responses = 0;
  uint64_t LatencySumTicks = 0;

  static CanaryHealthSample take(VM &TheVM);
};

/// One monitor crossing its threshold.
struct CanaryBreach {
  std::string Monitor; ///< "traps", "failed-transforms", "shed",
                       ///< "latency", or "fault-injector"
  std::string Detail;
};

/// Evaluates \p Policy over the window [\p AtArm, \p Now]. \p Baseline is
/// the pre-update sample the latency monitor compares means against.
std::vector<CanaryBreach> evaluateCanaryHealth(const CanaryPolicy &Policy,
                                               const CanaryHealthSample &Baseline,
                                               const CanaryHealthSample &AtArm,
                                               const CanaryHealthSample &Now);

/// Values the forward update destroyed, retained for the window: removed
/// instance fields per transformed object, and removed statics per
/// updated (or deleted) class. Ref-typed values and the new-version
/// objects themselves are GC roots until the log is released.
class CanaryUndoLog {
public:
  struct UndoField {
    std::string Name;
    bool IsRef = false;
    int64_t IntVal = 0;
    Ref RefVal = nullptr;
  };
  struct UndoEntry {
    /// The forward update's new-version object; the reverse collection
    /// forwards this to the old-shape shell the reverse transformer gets
    /// as its To argument.
    Ref Obj = nullptr;
    std::vector<UndoField> Fields;
  };
  struct UndoStatics {
    std::string ClassName; ///< original (un-renamed) class name
    std::vector<UndoField> Fields;
  };

  /// Extracts dropped-field values for one forward (OldCopy, NewObj)
  /// pair: every instance field of \p OldCopy that \p Plan, the pair's
  /// forward transform plan, drops.
  void captureObject(VM &TheVM, Ref OldCopy, Ref NewObj,
                     const struct TransformPlan &Plan);

  /// Extracts removed statics of \p ClassName: declared statics of the
  /// renamed old class \p RenamedOld with no same-name same-type match in
  /// the (current) new version — or all of them when the class was
  /// deleted outright.
  void captureStatics(VM &TheVM, const std::string &ClassName,
                      const std::string &RenamedOld);

  /// Reverse object transformer's restore: writes the retained removed
  /// fields into \p To (the reinstated old-shape object). No-op when \p To
  /// has no entry (e.g. objects allocated after commit).
  void restoreInto(class TransformCtx &Ctx, Ref To) const;

  /// Reverse class transformer's restore for \p ClassName's statics.
  void restoreStatics(class TransformCtx &Ctx,
                      const std::string &ClassName) const;

  /// Post-revert restore for classes the forward update deleted and the
  /// revert re-added: no class transformer runs for additions, so their
  /// retained statics are written straight into the registry.
  void restoreStaticsDirect(VM &TheVM, const std::string &ClassName) const;

  /// GC integration (the VM calls these through the canary controller).
  void visitRoots(const std::function<void(Ref &)> &Visit);
  void reindex();

  void clear();
  bool empty() const { return Entries.empty() && Statics.empty(); }
  size_t objectCount() const { return Entries.size(); }
  const std::vector<UndoStatics> &statics() const { return Statics; }

private:
  std::vector<UndoEntry> Entries;
  std::vector<UndoStatics> Statics;
  std::unordered_map<Ref, size_t> Index; ///< Obj -> Entries position
};

/// Synthesizes the reverse bundle: a normal UpdateBundle whose "new"
/// program is \p OldProgram, whose spec is recomputed by the UPT against
/// the running program, and whose transformers are \p Forward's
/// registered inverses — falling back to the default plan, with the
/// renames of \p Forward that \p OldProgram declares inverted, plus
/// \p Undo restores. Forward ActiveMethodMappings are inverted (PC maps
/// swapped) unless explicit inverses exist, so on-stack methods the
/// forward update replaced can be walked back the same way.
UpdateBundle synthesizeReverseBundle(VM &TheVM, const ClassSet &OldProgram,
                                     const UpdateBundle &Forward,
                                     const CanaryUndoLog &Undo,
                                     const std::string &ReverseTag);

/// \returns \p M with its PC map swapped (new pc -> old pc). The frame
/// transformer is dropped: locals carry over by slot, the default.
ActiveMethodMapping invertActiveMapping(const ActiveMethodMapping &M);

/// Walks the heap and counts live instances whose class id is in
/// \p NewVersionClassIds — the residual the revert-convergence gate
/// requires to be zero after a completed revert.
uint64_t countResidualNewVersionObjects(VM &TheVM,
                                        const std::vector<ClassId> &NewVersionClassIds);

} // namespace jvolve

#endif // JVOLVE_DSU_REVERT_H
