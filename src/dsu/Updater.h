//===----------------------------------------------------------------------===//
///
/// \file
/// The Jvolve updater: applies an UpdateBundle to a running VM.
///
/// The five-step process of paper §3: (1) the UPT prepared the bundle;
/// (2) the user signals the VM (schedule()); (3) the VM stops threads at a
/// DSU safe point — yield flag, stack scans for restricted methods, return
/// barriers on the topmost restricted frame of each thread, on-stack
/// replacement for base-compiled category-(2) methods, and a configurable
/// timeout (the paper uses 15 seconds); (4) modified classes are loaded and
/// installed (old versions renamed with the version prefix, stale compiled
/// code invalidated); (5) a DSU-extended whole-heap collection finds every
/// instance of an updated class and the class/object transformers
/// initialize the new versions.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_UPDATER_H
#define JVOLVE_DSU_UPDATER_H

#include "dsu/Analysis.h"
#include "dsu/Quiescence.h"
#include "dsu/Revert.h"
#include "dsu/UpdateBundle.h"
#include "dsu/UpdateTrace.h"
#include "heap/Collector.h"
#include "support/Error.h"
#include "support/Stopwatch.h"
#include "vm/VM.h"

#include <functional>
#include <set>
#include <string>

namespace jvolve {

/// Outcome of an update request.
enum class UpdateStatus {
  None,
  Pending,               ///< scheduled, waiting for a DSU safe point
  Applied,               ///< installed successfully
  TimedOut,              ///< no DSU safe point within the timeout
  RejectedNotVerifiable, ///< the new program version fails verification
  RejectedHierarchy,     ///< class hierarchy permutation (unsupported, §2.2)
  RolledBack,            ///< install failed; snapshot restored, old version runs
  FailedTransformer,     ///< a transformer failed; rolled back to old version
  RejectedByAnalysis,    ///< static analysis predicted the update impossible
  Reverted,              ///< canary window reverted; old version reinstalled
  RevertFailed,          ///< canary revert could not be applied
  RejectedCanaryBusy,    ///< refused: a canary revert is already in flight
};

/// Total number of UpdateStatus values (for exhaustive round-trip tests).
inline constexpr size_t NumUpdateStatuses = 12;

const char *updateStatusName(UpdateStatus S);

/// Parses a status name back to the enum. \returns false when unknown.
bool updateStatusByName(const std::string &Name, UpdateStatus &Out);

/// Updater knobs.
struct UpdateOptions {
  /// Virtual-tick budget for reaching a DSU safe point (the paper's
  /// configurable 15-second timeout).
  uint64_t TimeoutTicks = 2'000'000;
  /// Use on-stack replacement to lift category-(2) restrictions for
  /// base-compiled methods (paper §3.2). Off = return barriers only.
  bool EnableOsr = true;
  /// §3.5 optimization: place old-version duplicates in a dedicated block
  /// reclaimed right after transformation (eager) or when the lazy engine
  /// retires. Off selects the to-space placement, where the next
  /// collection reclaims them; it remains as the reference the old-copy
  /// tests and bench_ablation_oldcopy compare against.
  bool UseOldCopySpace = true;
  /// Lazy object transformation (dsu/LazyTransform.h): commit the update
  /// with untransformed shells, run each object transformer on first touch
  /// behind a read barrier, and drain the remainder from a background VM
  /// thread. Trades the eager transform pause for a transient per-access
  /// overhead that decays to exactly zero once the barrier retires.
  /// The tools' --lazy flag (jvolve-serve, jvolve-chaos) sets it.
  bool LazyTransform = false;
  /// Lazy mode: background transforms per drainer quantum.
  size_t LazyDrainBatch = 32;
  /// Observes the registry at the edges of the install transaction: with
  /// Restored = false as the pause begins, before install writes anything,
  /// and with Restored = true once a failed install put the registry back,
  /// before any thread resumes. The chaos campaign's registry-restored
  /// oracle fingerprints it there. Unset by default.
  std::function<void(const ClassRegistry &, bool Restored)> OnRegistryEdge;
  /// Escalation ladder's Rescue rung: when the deadline expires,
  /// force-yield sleeping/blocked threads pinned by restricted frames and
  /// synthesize identity ActiveMethodMappings for changed-but-body-
  /// compatible methods (same instruction count, base-compiled, nothing
  /// inlined), then grant one more deadline. Off by default: the paper's
  /// protocol never touches a thread it cannot park.
  bool EnableRescue = false;
  /// Put the VM's network into drain mode while the update is pending:
  /// accepts are gated, in-flight connections run to request boundaries,
  /// and jvolve-serve-style admission limits shed the overflow. Off by
  /// default.
  bool DrainNetwork = false;
  /// Run the static update-safety analyzer (dsu/Analysis.h) before
  /// scheduling, seeding entry reachability from the methods currently on
  /// live thread stacks. A predicted-impossible update is refused with the
  /// analysis report (RejectedByAnalysis) instead of burning a pause
  /// attempt and timing out. Off by default: the paper's protocol always
  /// tries.
  bool AnalyzeFirst = false;
  /// Post-commit canary window (dsu/Canary.h): when enabled (a nonzero
  /// tick or request bound), a successful commit arms a CanaryController
  /// on the VM that watches trap rate, failed lazy transforms, shed
  /// counts, and latency deltas against these SLO thresholds, and
  /// automatically reverts the update through the normal pipeline on a
  /// breach. Disabled by default.
  CanaryPolicy CanaryWindow;
  /// Per-method code versioning (dsu/CodeVersion.h): a strictly body-only
  /// bundle — no class/field/signature changes, no removed methods, the
  /// shape UpdateSummary::editAndContinueSupported accepts and the
  /// analyzer's EC verdict identifies — commits through the
  /// CodeVersionManager: one atomic active-version switch observed at the
  /// existing call-entry and back-edge poll points, no VM-wide safe point,
  /// no DSU collection.
  /// Bundles with class-shape changes ignore this flag and take the full
  /// stop-the-world pipeline. The tools' --codeversion flag (jvolve-serve,
  /// jvolve-chaos) sets it.
  bool CodeVersioning = false;
};

/// Everything measured while applying one update.
struct UpdateResult {
  UpdateStatus Status = UpdateStatus::None;
  std::string Message;

  int SafePointAttempts = 0;
  int ReturnBarriersInstalled = 0;
  int OsrReplacements = 0;
  /// §3.5 extension: changed methods replaced while running via a
  /// user-supplied ActiveMethodMapping.
  int ActiveFramesRemapped = 0;
  uint64_t TicksToSafePoint = 0;

  double ClassLoadMs = 0;  ///< rename + metadata install + invalidation
  double GcMs = 0;         ///< DSU collection (copying phase)
  double TransformMs = 0;  ///< running class + object transformers
  double TotalPauseMs = 0; ///< full disruption: install + GC + transform
  /// Wall time of the admission verification gate. 0 when the update was
  /// refused before reaching it (a truncated bundle, a canary revert in
  /// flight).
  double VerifyMs = 0;
  /// How the gate split the new version's classes: verified again (their
  /// definition or a recorded lookup changed) or reused from the running
  /// program's record.
  int ClassesVerified = 0;
  int ClassesReused = 0;
  uint64_t ObjectsTransformed = 0;
  CollectionStats Gc;

  /// Certification outcome. Every applied *or rolled-back* update is
  /// certified: HeapVerifier over the whole heap plus a registry-
  /// consistency check (an applied update's covers what install wrote,
  /// the registry's update log; a rollback's covers the whole registry).
  /// Certified is false there only when problems were found, listed in
  /// CertificationProblems; CertifyMs is the check's share of the pause.
  bool Certified = false;
  std::vector<std::string> CertificationProblems;
  double CertifyMs = 0;

  /// Transaction bookkeeping: time spent restoring the snapshot after a
  /// failed install.
  double RollbackMs = 0;

  /// Watchdog findings from the last deadline expiry (empty when the
  /// update quiesced before the deadline), and the highest escalation
  /// ladder rung the update climbed to.
  QuiescenceReport Quiescence;
  QuiescenceRung ResolvedRung = QuiescenceRung::None;
  /// Rescue rung bookkeeping: frames released via synthesized identity
  /// mappings, and sleeping/blocked threads whose wake was cut short.
  int RescuedFrames = 0;
  int ForcedYields = 0;
  /// Drain bookkeeping (DrainNetwork option): requests shed while this
  /// update held the network in drain mode, and the wall-clock duration of
  /// the drain window.
  uint64_t RequestsShed = 0;
  double DrainMs = 0;

  /// Pre-update static analysis (AnalyzeFirst option): the report, and
  /// whether the gate ran at all.
  AnalysisReport Analysis;
  bool AnalysisRan = false;

  /// Lazy mode (LazyTransform option): the update committed with this many
  /// untransformed shells still registered; the engine installed on the VM
  /// drains them after the pause. ObjectsTransformed stays 0 at commit —
  /// the dsu.lazy.* metrics account for the deferred work.
  bool LazyInstalled = false;
  uint64_t LazyPendingAtCommit = 0;

  /// Canary mode (CanaryWindow option): the commit armed an observation
  /// window on the VM; query VM::canary() for its progress and outcome.
  bool CanaryArmed = false;

  /// Code-versioning fast path (CodeVersioning option): the bundle was
  /// strictly body-only and committed through the CodeVersionManager —
  /// SafePointAttempts stays 0 and TotalPauseMs measures only the
  /// per-method switch, independent of heap size.
  bool CodeVersioned = false;
  int CodeVersionedMethods = 0;

  /// Structured event log of the whole update lifecycle.
  UpdateTrace Trace;
};

/// Applies dynamic updates to one VM.
class Updater {
public:
  explicit Updater(VM &TheVM) : TheVM(TheVM) {}
  ~Updater();

  /// Signals the VM that an update is available. Validation failures
  /// resolve immediately (result() holds the rejection); otherwise the
  /// update is applied during subsequent VM execution.
  void schedule(UpdateBundle Bundle, UpdateOptions Opts);
  void schedule(UpdateBundle Bundle) { schedule(std::move(Bundle), UpdateOptions()); }

  bool pending() const { return Result.Status == UpdateStatus::Pending; }
  const UpdateResult &result() const { return Result; }

  /// schedule() plus driving the VM until the update resolves. Application
  /// threads keep processing their work while the safe point is sought. If
  /// the VM goes idle with barriers still armed, the update times out.
  UpdateResult applyNow(UpdateBundle Bundle, UpdateOptions Opts,
                        uint64_t MaxDriveTicks = 50'000'000);
  UpdateResult applyNow(UpdateBundle Bundle) {
    return applyNow(std::move(Bundle), UpdateOptions());
  }

  /// Explicit operator revert: asks the VM's open canary window (if any)
  /// to revert now and drives the VM until the revert resolves. \returns
  /// the revert's result — Reverted on success, RevertFailed when there is
  /// no open window or the reverse update could not be applied.
  UpdateResult revert(const std::string &Reason = "explicit operator revert",
                      uint64_t MaxDriveTicks = 50'000'000);

private:
  /// The frame classifier and diagnosis for the pending update.
  QuiescenceWatchdog watchdog() const {
    return {TheVM, Bundle, RestrictedMethodIds, UpdatedOldClassIds,
            Opts.EnableOsr};
  }

  void onSafePoint();
  void onTick(uint64_t Now);
  void onReturnBarrier(VMThread &T);

  /// One DSU-safe-point attempt with every thread parked.
  void attempt();
  /// Full installation (all stacks clear modulo OSR-able frames), run as a
  /// transaction: snapshot, install, and roll back on any UpdateError.
  /// Mapped frames carry the ActiveMethodMapping resolved at scan time
  /// (the owner class name changes during installation). They are named by
  /// thread and frame index: a remap that changes a frame's local count
  /// shifts the frames above it within the thread's slot stack.
  struct MappedFrame {
    VMThread *Thread;
    size_t Index;
    const ActiveMethodMapping *Mapping;
  };
  void install(const std::vector<Frame *> &OsrFrames,
               const std::vector<MappedFrame> &MappedFrames);
  void abortUpdate(UpdateStatus Status, const std::string &Message);
  void finish(UpdateStatus Status, const std::string &Message);

  /// The escalation ladder, entered when the safe-point deadline expires
  /// (or the quiescence-watchdog-expiry fault forces it): diagnose, then
  /// Rescue (opt-in, once) -> Abort. The update installs whole or not at
  /// all.
  void escalate(uint64_t Now, bool Forced,
                const char *AbortReason =
                    "no DSU safe point reached within the timeout");
  /// The Rescue rung: synthesize identity mappings for changed-but-body-
  /// compatible pinned frames and cut short the waits of pinned
  /// sleeping/blocked-recv threads so their barriers can fire.
  void rescue(uint64_t Now);
  /// Code-versioning fast path (CodeVersioning option): commits a strictly
  /// body-only bundle through the CodeVersionManager, synchronously inside
  /// schedule() — no safe-point hunt, no hooks, no snapshot. Resolves the
  /// update Applied (or RolledBack when the codeversion-install fault
  /// unwound the batch).
  void installVersioned();

  /// Begins/ends the DrainNetwork window around a pending update.
  void beginDrain();
  void endDrain();

  /// Re-resolves name-level restriction sets to current method/class ids.
  void resolveIdSets();

  //===--- Transaction machinery -------------------------------------------===//

  /// Value snapshot of every root location the DSU collection rewrites:
  /// thread frames (including code pointers OSR replaces and windows an
  /// active remap moves) with their live slots, exit values, and pinned
  /// handles. Statics are in the registry's update log.
  struct ThreadSnapshot {
    VMThread *Thread = nullptr;
    std::vector<Frame> Frames;
    /// The live prefix of the thread's slot stack: [0, top frame's Sp).
    std::vector<Slot> Slots;
    Slot ExitValue;
    bool HasExitValue = false;
  };
  struct RootSnapshot {
    std::vector<ThreadSnapshot> Threads;
    std::vector<Ref> Pinned;
    /// Values of an open canary window's undo-log refs, in visit order; an
    /// aborted collection forwards them into the discarded to-space.
    std::vector<Ref> CanaryRefs;
  };

  RootSnapshot snapshotRoots() const;
  void restoreRoots(const RootSnapshot &S);

  /// The install steps proper (4a–5); throws UpdateError on failure.
  void installSteps(const std::vector<Frame *> &OsrFrames,
                    const std::vector<MappedFrame> &MappedFrames);

  /// Restores the heap and root snapshots, undoes the registry's update
  /// log, clears forwarding marks left in the surviving from-space,
  /// certifies, and resolves the update to RolledBack or
  /// FailedTransformer.
  void rollback(const Heap::TxSnapshot &HeapSnap, const RootSnapshot &Roots,
                const UpdateError &E);

  /// Clears FlagForwarded from every object in the (restored) current
  /// space; the aborted collection left marks on everything it visited.
  void clearForwardingMarks();

  /// Runs HeapVerifier plus the registry check and records the outcome in
  /// Result and the trace. \p Committed selects the registry check over
  /// what the update log saw; otherwise the whole registry is checked.
  void certify(bool Committed);

  /// Records the telemetry span for the phase ending now. Phases are
  /// delimited by consecutive marks against one clock (PhaseClock, started
  /// at install() entry), so the emitted spans tile the pause: their sum
  /// matches TotalPauseMs up to the bookkeeping after the last mark.
  void markPhase(const std::string &Phase, int64_t Value = 0,
                 const std::string &Detail = "");

  Stopwatch PhaseClock;
  double LastPhaseMark = 0;

  VM &TheVM;
  UpdateBundle Bundle;
  UpdateOptions Opts;
  UpdateResult Result;
  /// The admitted new version's verification record, handed to the VM
  /// with the program at commit.
  VerificationRecord AdmittedRecord;

  uint64_t ScheduleTick = 0;
  uint64_t DeadlineTick = 0;
  /// When non-zero, re-request a yield at this tick (set after an injected
  /// safe-point starvation resumed the application).
  uint64_t ReattemptTick = 0;

  /// Ladder state for the pending update.
  bool RescueTried = false;
  /// Drain state: active flag, wall clock, and the shed baseline at drain
  /// start (shedTotal is cumulative per Network).
  bool DrainActive = false;
  Stopwatch DrainWatch;
  uint64_t DrainStartTick = 0;
  uint64_t ShedAtDrainStart = 0;

  /// Lazy-mode handoff from installSteps (which owns the DSU collection's
  /// update log) to the commit point in install(), where the engine is
  /// built and adopted by the VM.
  std::vector<UpdateLogEntry> LazyLog;
  bool LazyCommitPending = false;

  /// Canary-mode staging (CanaryWindow option), captured between schedule
  /// and commit, handed to the CanaryController armed at commit: the
  /// pre-update program and health baseline, removed-field/static values
  /// extracted from the forward collection's old copies, and the ids of
  /// every new-version class (for the residual-object convergence count).
  ClassSet CanaryPreProgram;
  CanaryHealthSample CanaryBaseline;
  CanaryUndoLog CanaryUndo;
  std::vector<ClassId> CanaryNewClassIds;
  /// Arms the controller at commit (install() calls this after certify).
  void armCanary();
  /// Extracts the undo log and new-version id set from a just-collected
  /// update (installSteps calls this before obsolete statics drop): per
  /// entry of \p Runner's log, the old fields its plan drops; \p Runner
  /// is null when the update remapped no instances.
  void stageCanaryUndo(class TransformerRunner *Runner);

  // Id-level views of the spec, resolved against the current registry.
  std::set<MethodId> RestrictedMethodIds; ///< categories (1) and (3)
  std::set<MethodId> IndirectMethodIds;   ///< category (2)
  std::set<ClassId> UpdatedOldClassIds;   ///< class updates + deletions
};

} // namespace jvolve

#endif // JVOLVE_DSU_UPDATER_H
