#include "dsu/Updater.h"

#include "bytecode/Builtins.h"
#include "bytecode/Verifier.h"
#include "dsu/Canary.h"
#include "dsu/CodeVersion.h"
#include "dsu/LazyTransform.h"
#include "dsu/Transformers.h"
#include "heap/HeapVerifier.h"
#include "runtime/ObjectModel.h"
#include "support/Error.h"
#include "support/Stopwatch.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>
#include <unordered_map>
#include <utility>

using namespace jvolve;

static void bumpDsuCounter(const char *Name) {
  if (Telemetry::isEnabled())
    Telemetry::global().counter(Name).inc();
}

void Updater::markPhase(const std::string &Phase, int64_t Value,
                        const std::string &Detail) {
  double Now = PhaseClock.elapsedMs();
  double Ms = Now - LastPhaseMark;
  LastPhaseMark = Now;
  if (!Telemetry::isEnabled())
    return;
  Telemetry &Tel = Telemetry::global();
  Tel.histogram(metrics::dsuPhaseMs(Phase)).record(Ms);
  // Virtual time stands still while the world is stopped, so the span's
  // tick interval collapses; Ms carries the wall-clock duration.
  uint64_t Tick = TheVM.scheduler().ticks();
  Tel.emit({"dsu.update.phase", Phase, Tick, Tick, Ms, Value, Detail});
}

const char *jvolve::updateStatusName(UpdateStatus S) {
  switch (S) {
  case UpdateStatus::None: return "none";
  case UpdateStatus::Pending: return "pending";
  case UpdateStatus::Applied: return "applied";
  case UpdateStatus::TimedOut: return "timed-out";
  case UpdateStatus::RejectedNotVerifiable: return "rejected (verification)";
  case UpdateStatus::RejectedHierarchy: return "rejected (hierarchy)";
  case UpdateStatus::RolledBack: return "rolled-back";
  case UpdateStatus::FailedTransformer: return "failed-transformer";
  case UpdateStatus::RejectedByAnalysis: return "rejected (analysis)";
  case UpdateStatus::Reverted: return "reverted";
  case UpdateStatus::RevertFailed: return "revert-failed";
  case UpdateStatus::RejectedCanaryBusy: return "rejected (canary-busy)";
  }
  unreachable("bad update status");
}

bool jvolve::updateStatusByName(const std::string &Name, UpdateStatus &Out) {
  for (size_t I = 0; I < NumUpdateStatuses; ++I) {
    UpdateStatus S = static_cast<UpdateStatus>(I);
    if (Name == updateStatusName(S)) {
      Out = S;
      return true;
    }
  }
  return false;
}

Updater::~Updater() {
  // Never leave dangling callbacks into a destroyed updater — but only
  // our own: a canary revert's updater may have claimed the hooks since.
  TheVM.releaseDsuHooks(this);
}

/// Detects class-hierarchy permutations (e.g. reversing a superclass
/// relationship), which Jvolve does not support (§2.2), among \p Classes of
/// \p New: those admission verified anew. A class whose prior record held
/// has the superclass chain it had in \p Old, which verified without a
/// cycle, so it cannot take part in a permutation.
static bool hierarchyPermuted(const ClassSet &Old, const ClassSet &New,
                              const std::vector<const ClassDef *> &Classes) {
  for (const ClassDef *Cls : Classes) {
    const std::string &Name = Cls->Name;
    if (isBuiltinClass(Name) || !Old.contains(Name))
      continue;
    for (const std::string &NewAncestor : New.superChain(Name)) {
      if (NewAncestor == Name || isBuiltinClass(NewAncestor))
        continue;
      // Name extends NewAncestor in the new version; if the old version
      // had the opposite relationship, the update permutes the hierarchy.
      if (Old.contains(NewAncestor) && Old.isSubclassOf(NewAncestor, Name))
        return true;
    }
  }
  return false;
}

void Updater::schedule(UpdateBundle InBundle, UpdateOptions InOpts) {
  if (pending())
    fatalError("an update is already pending");
  Bundle = std::move(InBundle);
  Opts = InOpts;
  Result = UpdateResult();
  ensureBuiltins(Bundle.NewProgram);

  // A torn/truncated bundle must be rejected at ingest, before any
  // snapshot or pipeline state exists — nothing to roll back.
  if (TheVM.faults().probe(FaultInjector::Site::BundleTruncated)) {
    std::string Msg = "update bundle truncated (injected): rejected before "
                      "verification";
    Result.Trace.record(UpdateEventKind::Rejected,
                        TheVM.scheduler().ticks(), 0, Msg);
    bumpDsuCounter(metrics::DsuUpdatesRejected);
    finish(UpdateStatus::RejectedNotVerifiable, Msg);
    return;
  }

  // Stacked-update discipline for an open canary window: a foreign update
  // arriving while the window observes supersedes it (the operator chose
  // to move forward; the window settles without reverting, once the update
  // is admitted below), but one arriving mid-revert is refused — the heap
  // is on its way back to the predecessor and a concurrent forward update
  // has no consistent base.
  auto *Canary = static_cast<CanaryController *>(TheVM.canary());
  bool ForeignWindow =
      Canary && Canary->windowOpen() && !Canary->ownsUpdater(this);
  if (ForeignWindow && Canary->reverting()) {
    std::string Msg =
        "a canary revert is in flight; retry after it settles\n" +
        Canary->report().str();
    Result.Trace.record(UpdateEventKind::Rejected, TheVM.scheduler().ticks(),
                        0, Msg);
    bumpDsuCounter(metrics::DsuUpdatesRejected);
    finish(UpdateStatus::RejectedCanaryBusy, Msg);
    return;
  }

  // The three admission gates only read the bundle and the running
  // program, so they run before anything is settled: a rejected update
  // leaves the previous update's canary window observing and its lazy
  // drain running.
  //
  // Safety gate 1: the complete new program version must verify (§2.2).
  // Classes whose definition and recorded lookups are the running
  // program's reuse its verification record; the rest verify again.
  Stopwatch VerifyClock;
  VerifyOutcome Verified =
      Verifier(Bundle.NewProgram).verify(TheVM.verificationRecord());
  Result.VerifyMs = VerifyClock.elapsedMs();
  Result.ClassesVerified = static_cast<int>(Verified.Verified.size());
  Result.ClassesReused = static_cast<int>(Verified.Reused);
  if (!Verified.Errors.empty()) {
    std::string Msg =
        "new version fails verification: " + Verified.Errors.front().str();
    Result.Trace.record(UpdateEventKind::Rejected,
                        TheVM.scheduler().ticks(), 0, Msg);
    bumpDsuCounter(metrics::DsuUpdatesRejected);
    finish(UpdateStatus::RejectedNotVerifiable, Msg);
    return;
  }
  // Safety gate 2: no hierarchy permutations.
  if (hierarchyPermuted(TheVM.program(), Bundle.NewProgram,
                        Verified.Verified)) {
    Result.Trace.record(UpdateEventKind::Rejected,
                        TheVM.scheduler().ticks(), 0,
                        "hierarchy permutation");
    bumpDsuCounter(metrics::DsuUpdatesRejected);
    finish(UpdateStatus::RejectedHierarchy,
           "update permutes the class hierarchy");
    return;
  }

  // Optional gate 3: static update-safety analysis. Entry reachability is
  // seeded from the methods currently on live stacks — exactly the code
  // that could still be running when the pause is attempted.
  if (Opts.AnalyzeFirst) {
    AnalysisOptions AOpts;
    ClassRegistry &Reg = TheVM.registry();
    for (const auto &T : TheVM.scheduler().threads()) {
      if (T->stopped())
        continue;
      for (const Frame &F : T->Frames) {
        const RtMethod &M = Reg.method(F.Method);
        AOpts.EntryPoints.insert(
            MethodRef{Reg.cls(M.Owner).Name, M.Name, M.Sig}.key());
      }
    }
    UpdateAnalysis An(TheVM.program(), Bundle.NewProgram);
    Result.Analysis = An.analyzeBundle(Bundle, AOpts);
    Result.AnalysisRan = true;
    recordAnalysisMetrics(Result.Analysis);
    if (Result.Analysis.Verdict == Applicability::Impossible) {
      std::string Msg =
          "analysis predicts the update cannot reach quiescence: " +
          Result.Analysis.Reason;
      Result.Trace.record(UpdateEventKind::Rejected,
                          TheVM.scheduler().ticks(), 0, Msg);
      bumpDsuCounter(metrics::DsuUpdatesRejected);
      finish(UpdateStatus::RejectedByAnalysis, Msg);
      return;
    }
  }

  AdmittedRecord = std::move(Verified.Record);

  if (ForeignWindow)
    Canary->settle("superseded by stacked update '" + Bundle.VersionTag +
                   "'");
  // A stacked update must not race a still-draining predecessor: its DSU
  // collection assumes no pending shells remain. Settle them now,
  // synchronously, and drop the old engine.
  TheVM.drainLazyEngineNow();

  // Canary staging: retain what a revert would need — the running program
  // version (the reverse bundle's "new" program) and the pre-update health
  // sample the latency monitor uses as its baseline.
  CanaryUndo.clear();
  CanaryNewClassIds.clear();
  if (Opts.CanaryWindow.enabled()) {
    CanaryPreProgram = TheVM.program();
    CanaryBaseline = CanaryHealthSample::take(TheVM);
  }

  // Body-only fast path (CodeVersioning option): a bundle that touches
  // nothing but method bodies — no class-shape changes, no removed
  // methods — needs neither a safe point nor a DSU collection. The
  // CodeVersionManager commits it synchronously, right here, as one
  // atomic active-version switch; anything touching class shape falls
  // through to the full five-step pipeline below.
  if (Opts.CodeVersioning && Bundle.Spec.ClassUpdates.empty() &&
      Bundle.Spec.AddedClasses.empty() &&
      Bundle.Spec.DeletedClasses.empty() &&
      Bundle.Spec.RemovedMethods.empty() &&
      !Bundle.Spec.MethodBodyUpdates.empty()) {
    installVersioned();
    return;
  }

  bumpDsuCounter(metrics::DsuUpdatesScheduled);
  Result.Status = UpdateStatus::Pending;
  ScheduleTick = TheVM.scheduler().ticks();
  DeadlineTick = ScheduleTick + Opts.TimeoutTicks;
  ReattemptTick = 0;
  RescueTried = false;
  Result.Trace.record(UpdateEventKind::Scheduled, ScheduleTick, 0,
                      "timeout in " + std::to_string(Opts.TimeoutTicks) +
                          " ticks");
  if (Opts.DrainNetwork)
    beginDrain();

  resolveIdSets();

  TheVM.claimDsuHooks(
      this, [this] { onSafePoint(); },
      [this](uint64_t Now) { onTick(Now); },
      [this](VMThread &T) { onReturnBarrier(T); });
  TheVM.requestYield();
}

void Updater::resolveIdSets() {
  ClassRegistry &Reg = TheVM.registry();
  RestrictedMethodIds.clear();
  IndirectMethodIds.clear();
  UpdatedOldClassIds.clear();

  auto ResolveRef = [&Reg](const MethodRef &R) -> MethodId {
    ClassId Cls = Reg.idOf(R.ClassName);
    if (Cls == InvalidClassId)
      return InvalidMethodId;
    return Reg.resolveMethod(Cls, R.Name, R.Sig);
  };

  for (const MethodRef &R : Bundle.Spec.MethodBodyUpdates)
    if (MethodId Id = ResolveRef(R); Id != InvalidMethodId)
      RestrictedMethodIds.insert(Id);
  for (const MethodRef &R : Bundle.Spec.RemovedMethods)
    if (MethodId Id = ResolveRef(R); Id != InvalidMethodId)
      RestrictedMethodIds.insert(Id);
  for (const MethodRef &R : Bundle.Spec.Blacklist)
    if (MethodId Id = ResolveRef(R); Id != InvalidMethodId)
      RestrictedMethodIds.insert(Id);
  for (const MethodRef &R : Bundle.Spec.IndirectMethods)
    if (MethodId Id = ResolveRef(R); Id != InvalidMethodId)
      IndirectMethodIds.insert(Id);

  for (const std::string &Name : Bundle.Spec.ClassUpdates)
    if (ClassId Id = Reg.idOf(Name); Id != InvalidClassId)
      UpdatedOldClassIds.insert(Id);
  for (const std::string &Name : Bundle.Spec.DeletedClasses)
    if (ClassId Id = Reg.idOf(Name); Id != InvalidClassId)
      UpdatedOldClassIds.insert(Id);
}

void Updater::onTick(uint64_t Now) {
  if (!pending())
    return;
  if (ReattemptTick && Now >= ReattemptTick) {
    // A starved safe-point attempt backed off; try to park threads again.
    ReattemptTick = 0;
    TheVM.requestYield();
  }
  // The watchdog's deadline, or an injected expiry (armed() gates the
  // probe so an idle injector is not flooded with per-tick probes).
  bool Forced =
      TheVM.faults().armed(FaultInjector::Site::QuiescenceWatchdogExpiry) &&
      TheVM.faults().probe(FaultInjector::Site::QuiescenceWatchdogExpiry);
  if (!Forced && Now < DeadlineTick)
    return;
  escalate(Now, Forced);
}

void Updater::escalate(uint64_t Now, bool Forced, const char *AbortReason) {
  // Diagnose first: every rung (and the final result) gets the freshest
  // picture of what pins the update.
  Result.Quiescence = watchdog().diagnose(ScheduleTick, DeadlineTick,
                                          Result.SafePointAttempts, Forced);
  bumpDsuCounter(metrics::DsuQuiescenceExpiries);
  Result.Trace.record(
      UpdateEventKind::WatchdogExpired, Now,
      static_cast<int64_t>(Result.Quiescence.Threads.size()),
      Forced ? "injected expiry" : "deadline expired");

  // Rescue: act on what the diagnosis found, once, then grant one more
  // full deadline for the rescued threads to reach their barriers.
  if (Opts.EnableRescue && !RescueTried) {
    RescueTried = true;
    Result.ResolvedRung = QuiescenceRung::Rescue;
    rescue(Now);
    DeadlineTick = Now + std::max<uint64_t>(1, Opts.TimeoutTicks);
    TheVM.requestYield();
    return;
  }

  // Abort, naming the reason the report found.
  Result.ResolvedRung = QuiescenceRung::Abort;
  std::string Message = AbortReason;
  std::vector<std::string> Looping = Result.Quiescence.loopingMethods();
  if (!Looping.empty()) {
    Message += ":";
    for (const std::string &M : Looping)
      Message += " " + M + " never returns (infinite loop);";
    Message.pop_back();
  }
  abortUpdate(UpdateStatus::TimedOut, Message);
}

void Updater::rescue(uint64_t Now) {
  QuiescenceWatchdog Watchdog = watchdog();
  ClassRegistry &Reg = TheVM.registry();
  int Mapped = 0, Yanked = 0;
  for (auto &T : TheVM.scheduler().threads()) {
    if (T->stopped())
      continue;
    bool Pinned = false;
    for (Frame &F : T->Frames) {
      if (Watchdog.classify(F) != FrameKind::Restricted)
        continue;
      Pinned = true;
      if (!Watchdog.rescuableBodySwap(F))
        continue;
      // The changed body has the same instruction count as the old one in
      // base-compiled code, so the identity pc map an operator would write
      // by hand (§3.5) can be synthesized. The next attempt classifies the
      // frame MappedOsr and replaces it in place.
      const RtMethod &M = Reg.method(F.Method);
      MethodRef Ref{Reg.cls(M.Owner).Name, M.Name, M.Sig};
      if (Bundle.ActiveMappings.count(Ref.key()))
        continue;
      const MethodDef *NewBody = std::as_const(Bundle.NewProgram)
                                     .find(Ref.ClassName)
                                     ->findMethod(Ref.Name, Ref.Sig);
      Bundle.addActiveMapping(
          ActiveMethodMapping::identity(Ref, NewBody->Code.size()));
      ++Mapped;
      Result.Trace.record(UpdateEventKind::Rescued, Now, 0,
                          "identity remap for " + M.qualifiedName() +
                              " on thread " + T->Name);
    }
    // A pinned thread waiting out a sleep or a quiet connection holds its
    // restricted frame on stack for the whole wait; cutting the wait short
    // lets the frame run to its return (or its remap) now.
    if (Pinned &&
        (T->State == ThreadState::Sleeping ||
         T->State == ThreadState::BlockedRecv) &&
        T->WakeTick > Now) {
      T->WakeTick = Now;
      ++Yanked;
      Result.Trace.record(UpdateEventKind::Rescued, Now, 0,
                          "forced yield of thread " + T->Name + " (" +
                              threadStateName(T->State) + ")");
    }
  }
  Result.RescuedFrames += Mapped;
  Result.ForcedYields += Yanked;
  if (Telemetry::isEnabled()) {
    Telemetry &Tel = Telemetry::global();
    Tel.counter(metrics::DsuQuiescenceRescuedFrames).add(Mapped);
    Tel.counter(metrics::DsuQuiescenceForcedYields).add(Yanked);
  }
}

void Updater::onReturnBarrier(VMThread &T) {
  if (!pending())
    return;
  Result.Trace.record(UpdateEventKind::BarrierFired,
                      TheVM.scheduler().ticks(), 0, "thread " + T.Name);
  bumpDsuCounter(metrics::DsuBarriersFired);
  TheVM.requestYield(); // restart the update process (paper §3.2)
}

void Updater::onSafePoint() {
  if (!pending()) {
    // A stale yield request (e.g. raced with an abort): just resume.
    TheVM.resumeAfterYield();
    return;
  }
  attempt();
}

void Updater::attempt() {
  ++Result.SafePointAttempts;
  bumpDsuCounter(metrics::DsuSafePointAttempts);

  if (TheVM.faults().probe(FaultInjector::Site::SafePointStarvation)) {
    // Simulated park failure: some thread refused to reach its yield point
    // in time. Resume the application and reattempt shortly; the deadline
    // decides when to give up.
    Result.Trace.record(UpdateEventKind::SafePointAttempt,
                        TheVM.scheduler().ticks(), 0,
                        "injected safe-point starvation; backing off");
    ReattemptTick =
        TheVM.scheduler().ticks() + std::max<uint64_t>(1, Opts.TimeoutTicks / 10);
    TheVM.resumeAfterYield();
    return;
  }

  QuiescenceWatchdog Watchdog = watchdog();
  int RestrictedFrames = 0;
  bool AnyRestricted = false;
  std::vector<Frame *> OsrFrames;
  std::vector<MappedFrame> MappedFrames;

  for (auto &T : TheVM.scheduler().threads()) {
    if (T->stopped())
      continue;
    Frame *TopRestricted = nullptr;
    // Bottom to top; the last restricted hit is topmost.
    for (size_t I = 0; I < T->Frames.size(); ++I) {
      Frame &F = T->Frames[I];
      switch (Watchdog.classify(F)) {
      case FrameKind::Free:
        break;
      case FrameKind::OsrNeeded:
        OsrFrames.push_back(&F);
        break;
      case FrameKind::MappedOsr:
        MappedFrames.push_back({T.get(), I, Watchdog.mappingFor(F)});
        break;
      case FrameKind::Restricted:
        TopRestricted = &F;
        ++RestrictedFrames;
        break;
      }
    }
    if (TopRestricted) {
      AnyRestricted = true;
      if (!TopRestricted->ReturnBarrier) {
        TopRestricted->ReturnBarrier = true;
        ++Result.ReturnBarriersInstalled;
        bumpDsuCounter(metrics::DsuBarriersArmed);
        Result.Trace.record(
            UpdateEventKind::BarrierArmed, TheVM.scheduler().ticks(), 0,
            TheVM.registry().method(TopRestricted->Method).qualifiedName() +
                " on thread " + T->Name);
      }
    }
  }
  Result.Trace.record(UpdateEventKind::SafePointAttempt,
                      TheVM.scheduler().ticks(), RestrictedFrames,
                      std::to_string(OsrFrames.size()) + " OSR, " +
                          std::to_string(MappedFrames.size()) +
                          " mapped frame(s)");

  if (AnyRestricted) {
    // Defer: resume the application and retry when a barrier fires.
    TheVM.resumeAfterYield();
    return;
  }

  install(OsrFrames, MappedFrames);
}

Updater::RootSnapshot Updater::snapshotRoots() const {
  RootSnapshot S;
  for (auto &T : TheVM.scheduler().threads()) {
    ThreadSnapshot TS;
    TS.Thread = T.get();
    TS.ExitValue = T->ExitValue;
    TS.HasExitValue = T->HasExitValue;
    TS.Frames = T->Frames;
    size_t Live = T->Frames.empty() ? 0 : T->Frames.back().Sp;
    TS.Slots.assign(T->Slots.begin(), T->Slots.begin() + Live);
    S.Threads.push_back(std::move(TS));
  }
  S.Pinned = TheVM.pinnedRoots();
  // An open canary window's undo log is a root set too; an aborted
  // collection would forward its refs into the discarded to-space.
  if (VmCanary *C = TheVM.canary())
    C->visitRoots([&S](Ref &R) { S.CanaryRefs.push_back(R); });
  return S;
}

void Updater::restoreRoots(const RootSnapshot &S) {
  // Threads are parked for the entire transaction, so the frame stacks are
  // structurally identical to snapshot time; only slot values, code
  // pointers, pcs (OSR / active remap) and windows (a remap that changed a
  // local count) may have changed. A thread's Slots never shrinks while it
  // has frames, so the snapshot's prefix fits where it was taken from.
  for (const ThreadSnapshot &TS : S.Threads) {
    VMThread &T = *TS.Thread;
    assert(T.Frames.size() == TS.Frames.size() &&
           "frame stack changed during the parked install");
    T.Frames = TS.Frames;
    std::copy(TS.Slots.begin(), TS.Slots.end(), T.Slots.begin());
    T.ExitValue = TS.ExitValue;
    T.HasExitValue = TS.HasExitValue;
  }
  TheVM.pinnedRoots() = S.Pinned;
  if (VmCanary *C = TheVM.canary()) {
    // Visit order is deterministic, so writing the snapshot back in order
    // restores every undo ref; the object index must follow suit.
    size_t I = 0;
    C->visitRoots([&S, &I](Ref &R) {
      assert(I < S.CanaryRefs.size() &&
             "canary root set changed during the parked install");
      R = S.CanaryRefs[I++];
    });
    C->onHeapMoved();
  }
}

void Updater::clearForwardingMarks() {
  // The aborted collection marked every reached from-space object
  // forwarded. The restored current space is exactly the pre-update heap
  // image, so a linear walk visits every object.
  Heap &H = TheVM.heap();
  ClassRegistry &Reg = TheVM.registry();
  size_t Scan = 0;
  while (Scan < H.bytesAllocated()) {
    Ref Obj = H.currentSpaceStart() + Scan;
    ObjectHeader *Hdr = header(Obj);
    Hdr->Flags &= ~FlagForwarded;
    size_t Bytes = objectBytes(Reg.cls(Hdr->Class), Obj);
    Scan += (Bytes + 7) & ~size_t(7);
  }
}

void Updater::certify(bool Committed) {
  Stopwatch Timer;
  HeapVerifier Verifier(TheVM.heap(), TheVM.registry());
  // While a lazy engine drains, untransformed shells and the reserved
  // old-copy block are legitimate; once it reports drained they are not.
  if (VmLazyEngine *Engine = TheVM.lazyEngine())
    Verifier.setLazyContext(
        [Engine](Ref Obj) { return Engine->isPendingShell(Obj); },
        /*AllowOldCopyReserved=*/!Engine->drained());
  std::vector<std::string> Problems =
      Verifier.verify([this](const std::function<void(Ref &)> &Visit) {
        TheVM.visitRoots(Visit);
      });
  ClassRegistry &Reg = TheVM.registry();
  for (std::string &P : Committed ? Reg.checkLoggedConsistency()
                                  : Reg.checkConsistency())
    Problems.push_back("registry: " + P);
  Result.CertifyMs = Timer.elapsedMs();
  Result.Certified = Problems.empty();
  Result.CertificationProblems = Problems;
  Result.Trace.record(UpdateEventKind::Certified, TheVM.scheduler().ticks(),
                      static_cast<int64_t>(Problems.size()),
                      Problems.empty() ? "heap and registry consistent"
                                       : Problems.front());
  // Mark after the trace record: its sink write is real wall-clock that
  // must land inside the certify span, not after the last mark where it
  // would be unaccounted for in the span/total tiling.
  markPhase("certify", static_cast<int64_t>(Problems.size()));
}

/// Records the total-pause histogram sample and span once the update's
/// wall-clock outcome is known (applied or rolled back).
static void recordTotalPause(VM &TheVM, double TotalMs, const char *Outcome) {
  if (!Telemetry::isEnabled())
    return;
  Telemetry &Tel = Telemetry::global();
  Tel.histogram(metrics::DsuTotalPauseMs).record(TotalMs);
  uint64_t Tick = TheVM.scheduler().ticks();
  Tel.emit({"dsu.update.phase", "total", Tick, Tick, TotalMs, 0, Outcome});
}

void Updater::install(const std::vector<Frame *> &OsrFrames,
                      const std::vector<MappedFrame> &MappedFrames) {
  // One clock serves both the reported total and the phase spans, so the
  // spans tile the pause instead of drifting against a second timer.
  PhaseClock.reset();
  LastPhaseMark = 0;

  // ---- Begin the transaction: snapshot the heap spaces and every root
  // location, open the registry's update log (install records what it
  // overwrites there), and hold off ordinary collection: a mutator- or
  // transformer-triggered GC would flip the semi-spaces and destroy the
  // heap's undo log.
  if (Opts.OnRegistryEdge)
    Opts.OnRegistryEdge(TheVM.registry(), /*Restored=*/false);
  TheVM.registry().beginUpdateLog();
  Heap::TxSnapshot HeapSnap = TheVM.heap().txSnapshot();
  RootSnapshot Roots = snapshotRoots();
  TheVM.setTransformationInProgress(true);
  markPhase("snapshot");

  try {
    installSteps(OsrFrames, MappedFrames);
  } catch (const UpdateError &E) {
    // The rollback path must survive a nested fault (an injected
    // allocation failure, a faulting certification) with a defined
    // terminal status — never an escaped exception that would tear down
    // the VM mid-restore. The heap/registry restores themselves are
    // non-allocating; anything after them may fail without voiding the
    // restored image.
    try {
      rollback(HeapSnap, Roots, E);
    } catch (const UpdateError &Nested) {
      TheVM.setTransformationInProgress(false);
      for (auto &T : TheVM.scheduler().threads())
        for (Frame &F : T->Frames)
          F.ReturnBarrier = false;
      Result.Trace.record(UpdateEventKind::RolledBack,
                          TheVM.scheduler().ticks(), 0,
                          "nested fault during rollback: " + Nested.str());
      finish(E.phase() == "transform" ? UpdateStatus::FailedTransformer
                                      : UpdateStatus::RolledBack,
             "update rolled back (" + E.str() +
                 "); nested fault during rollback (" + Nested.str() + ")");
      TheVM.resumeAfterYield();
    }
    Result.TotalPauseMs = PhaseClock.elapsedMs();
    recordTotalPause(TheVM, Result.TotalPauseMs, "rolled-back");
    return;
  }

  // ---- Commit. ----------------------------------------------------------
  // The log stops recording (certification's root visit must not count as
  // a write) and keeps what install touched for certification.
  TheVM.registry().closeUpdateLog();
  TheVM.setTransformationInProgress(false);
  // Moved, not copied: nothing reads Bundle.NewProgram after commit (the
  // lazy engine and the canary keep the bundle for its transformers, spec
  // and mappings). The replaced version goes here, inside the pause, but
  // it shares every unchanged class with the new one, so only what it
  // alone owned is freed. Admission's record describes the new version.
  TheVM.setProgram(std::move(Bundle.NewProgram), std::move(AdmittedRecord));
  if (LazyCommitPending) {
    // Point of no return for lazy mode: build the engine over the update
    // log, arm the read barrier on all compiled code, and hand the engine
    // to the VM (which spawns the background drainer). From here on a
    // failing transformer cannot roll the update back — it degrades it.
    LazyCommitPending = false;
    auto Engine = std::make_unique<LazyTransformEngine>(
        TheVM, Bundle, std::move(LazyLog),
        /*OwnsOldCopySpace=*/Opts.UseOldCopySpace, Opts.LazyDrainBatch);
    Engine->arm();
    Result.LazyInstalled = true;
    Result.LazyPendingAtCommit = Engine->pendingCount();
    Result.Trace.record(UpdateEventKind::LazyCommitted,
                        TheVM.scheduler().ticks(),
                        static_cast<int64_t>(Result.LazyPendingAtCommit),
                        "untransformed shells drain behind the read barrier");
    // Nothing left to drain (no instances, or a class transformer forced
    // them all): retire now, so the old-copy block is not still held when
    // certification runs against a drained engine.
    if (Engine->drained())
      Engine->retire();
    TheVM.installLazyEngine(std::move(Engine));
  }
  certify(/*Committed=*/true); // an applied update is never undone here
  TheVM.registry().releaseUpdateLog();

  Result.TotalPauseMs = PhaseClock.elapsedMs();
  Result.TicksToSafePoint = TheVM.scheduler().ticks() - ScheduleTick;
  Result.Trace.record(UpdateEventKind::Applied, TheVM.scheduler().ticks(),
                      0,
                      std::to_string(Result.TotalPauseMs) + " ms total pause");
  bumpDsuCounter(metrics::DsuUpdatesApplied);
  recordTotalPause(TheVM, Result.TotalPauseMs, "applied");
  if (Opts.CanaryWindow.enabled())
    armCanary();
  finish(UpdateStatus::Applied, "update applied");
  TheVM.resumeAfterYield();
}

void Updater::installVersioned() {
  // Same clock discipline as install(): spans tile the (tiny) pause.
  PhaseClock.reset();
  LastPhaseMark = 0;
  bumpDsuCounter(metrics::DsuUpdatesScheduled);
  ScheduleTick = TheVM.scheduler().ticks();
  Result.Trace.record(UpdateEventKind::Scheduled, ScheduleTick, 0,
                      "body-only bundle: versioned install, no safe point");

  // Every swap goes through the per-method version chains: the manager
  // archives the superseded bodies (so a later install of the parent body
  // pops the chain instead of growing it), invalidates callers that
  // inlined a swapped body, and commits the batch as one atomic
  // active-version switch — HotSwap semantics without losing the history.
  // Admission already completed and verified Bundle.NewProgram; it and its
  // verification record move into the VM on success, and nothing reads
  // them after a failure. The registry's update log records which methods
  // the swap touched, for certification; the manager unwinds a failed
  // batch itself.
  ClassRegistry &Reg = TheVM.registry();
  if (Opts.OnRegistryEdge)
    Opts.OnRegistryEdge(Reg, /*Restored=*/false);
  Reg.beginUpdateLog();
  std::vector<CodeVersionManager::BodyUpdate> Updates;
  std::string Why;
  try {
    for (const MethodRef &R : Bundle.Spec.MethodBodyUpdates) {
      auto [Id, NewBody] =
          CodeVersionManager::resolve(Reg, Bundle.NewProgram, R);
      Updates.push_back({Id, NewBody, R.key()});
    }
  } catch (const UpdateError &E) {
    Why = E.str();
  }
  bool Ok = Why.empty() &&
            CodeVersionManager::of(TheVM).installBodySet(
                Updates, Bundle.VersionTag, &Result.Trace, &Why);
  if (Ok)
    TheVM.setProgram(std::move(Bundle.NewProgram), std::move(AdmittedRecord));
  Reg.closeUpdateLog();
  markPhase("codeversion",
            static_cast<int64_t>(Bundle.Spec.MethodBodyUpdates.size()),
            Ok ? "active-version switch committed" : Why);

  // A versioned commit never touches the heap — no allocation, no moved
  // objects, no transformed fields — so certification checks the structure
  // it did mutate: the registry's class/method metadata, the entries the
  // update log saw after a commit and all of it after an unwind. The
  // full-heap walk stays with the pipeline whose collection and
  // transformers need it; that walk is precisely the heap-scaling pause
  // component a body-only update exists to avoid.
  auto CertifyRegistry = [&] {
    Stopwatch Timer;
    std::vector<std::string> Problems =
        Ok ? Reg.checkLoggedConsistency() : Reg.checkConsistency();
    Result.CertifyMs = Timer.elapsedMs();
    Result.Certified = Problems.empty();
    Result.CertificationProblems = Problems;
    Result.Trace.record(UpdateEventKind::Certified,
                        TheVM.scheduler().ticks(),
                        static_cast<int64_t>(Problems.size()),
                        Problems.empty()
                            ? "registry consistent (heap untouched)"
                            : Problems.front());
    markPhase("certify", static_cast<int64_t>(Problems.size()));
  };

  if (!Ok) {
    // The manager unwound the partially-swapped batch and the epoch never
    // advanced — the prior active versions are still serving, so this is
    // already a completed rollback.
    Result.Trace.record(UpdateEventKind::InstallFailed,
                        TheVM.scheduler().ticks(), 0, Why);
    bumpDsuCounter(metrics::DsuUpdatesRolledBack);
    if (Opts.OnRegistryEdge)
      Opts.OnRegistryEdge(Reg, /*Restored=*/true);
    CertifyRegistry();
    Result.TotalPauseMs = PhaseClock.elapsedMs();
    Result.Trace.record(UpdateEventKind::RolledBack,
                        TheVM.scheduler().ticks(), 0, Why);
    recordTotalPause(TheVM, Result.TotalPauseMs, "rolled-back");
    finish(UpdateStatus::RolledBack, "update rolled back (" + Why + ")");
    return;
  }

  Result.CodeVersioned = true;
  Result.CodeVersionedMethods =
      static_cast<int>(Bundle.Spec.MethodBodyUpdates.size());
  CertifyRegistry();
  Reg.releaseUpdateLog();
  Result.TotalPauseMs = PhaseClock.elapsedMs();
  Result.TicksToSafePoint = 0; // no safe point was ever sought
  Result.Trace.record(UpdateEventKind::Applied, TheVM.scheduler().ticks(), 0,
                      std::to_string(Result.TotalPauseMs) +
                          " ms total pause (versioned, no safe point)");
  bumpDsuCounter(metrics::DsuUpdatesApplied);
  recordTotalPause(TheVM, Result.TotalPauseMs, "applied");
  if (Opts.CanaryWindow.enabled())
    armCanary();
  finish(UpdateStatus::Applied, "update applied (code-versioned)");
}

void Updater::rollback(const Heap::TxSnapshot &HeapSnap,
                       const RootSnapshot &Roots, const UpdateError &E) {
  Stopwatch Timer;
  Result.Trace.record(UpdateEventKind::InstallFailed,
                      TheVM.scheduler().ticks(), 0, E.str());
  // A lazy handoff staged before the failure is void: the log refers to
  // to-space objects the rollback is about to discard.
  LazyCommitPending = false;
  LazyLog.clear();
  // So is canary staging: its undo values were read out of that log.
  CanaryUndo.clear();
  CanaryNewClassIds.clear();

  // Restore in dependency order: heap spaces first (so the pre-update
  // image is the current space again), then registry metadata, then the
  // forwarding marks the aborted collection left in that image, then every
  // root location. From-space was never mutated beyond object headers, so
  // it serves as the heap's undo log; the registry replays its own, which
  // also puts back the static roots the collection forwarded.
  TheVM.heap().txRollback(HeapSnap);
  TheVM.registry().rollbackUpdateLog();
  clearForwardingMarks();
  restoreRoots(Roots);
  if (Opts.OnRegistryEdge)
    Opts.OnRegistryEdge(TheVM.registry(), /*Restored=*/true);
  // The update is over; no barrier may stay armed.
  for (auto &T : TheVM.scheduler().threads())
    for (Frame &F : T->Frames)
      F.ReturnBarrier = false;
  TheVM.setTransformationInProgress(false);
  Result.RollbackMs = Timer.elapsedMs();
  markPhase("rollback", 0, E.str());
  bumpDsuCounter(metrics::DsuUpdatesRolledBack);

  certify(/*Committed=*/false);

  UpdateStatus Status = E.phase() == "transform"
                            ? UpdateStatus::FailedTransformer
                            : UpdateStatus::RolledBack;
  Result.TicksToSafePoint = TheVM.scheduler().ticks() - ScheduleTick;
  Result.Trace.record(UpdateEventKind::RolledBack, TheVM.scheduler().ticks(),
                      0, E.str());
  finish(Status, "update rolled back (" + E.str() + ")");
  TheVM.resumeAfterYield();
}

void Updater::installSteps(const std::vector<Frame *> &OsrFrames,
                           const std::vector<MappedFrame> &MappedFrames) {
  Stopwatch PhaseTimer;
  ClassRegistry &Reg = TheVM.registry();

  // --- Step 4a: rename old versions of updated and deleted classes. ------
  std::unordered_map<ClassId, std::string> OldIdToName;
  auto RenameOld = [&](const std::string &Name) {
    ClassId Id = Reg.idOf(Name);
    if (Id == InvalidClassId)
      return;
    OldIdToName[Id] = Name;
    Reg.renameClassForUpdate(Id, Bundle.renamedOldClass(Name));
  };
  for (const std::string &Name : Bundle.Spec.ClassUpdates)
    RenameOld(Name);
  for (const std::string &Name : Bundle.Spec.DeletedClasses)
    RenameOld(Name);

  // --- Step 4b: load added and replacement classes. ----------------------
  // Those are the names the spec adds or updates; every other class of the
  // new version is loaded already. Both lists are sorted, and merging them
  // keeps the load order (and so the class ids) of a walk over the whole
  // new version.
  std::vector<std::string> ToLoad;
  ToLoad.reserve(Bundle.Spec.AddedClasses.size() +
                 Bundle.Spec.ClassUpdates.size());
  std::merge(Bundle.Spec.AddedClasses.begin(), Bundle.Spec.AddedClasses.end(),
             Bundle.Spec.ClassUpdates.begin(), Bundle.Spec.ClassUpdates.end(),
             std::back_inserter(ToLoad));
  for (const std::string &Name : ToLoad) {
    const ClassSet::DefPtr *Def = Bundle.NewProgram.shared(Name);
    if (!Def || Reg.idOf(Name) != InvalidClassId)
      continue;
    if (TheVM.faults().probe(FaultInjector::Site::ClassLoad))
      throw UpdateError("class-load",
                        "injected class-load failure for '" + Name + "'");
    Reg.loadClass(*Def, Bundle.NewProgram);
  }

  // --- Step 4c: method-body updates on otherwise-unchanged classes. ------
  std::set<MethodId> BodyChangedIds;
  for (const MethodRef &R : Bundle.Spec.MethodBodyUpdates) {
    if (Bundle.Spec.isClassUpdated(R.ClassName))
      continue; // the freshly loaded replacement class already has it
    auto [Id, NewBody] =
        CodeVersionManager::resolve(Reg, Bundle.NewProgram, R);
    Reg.setMethodBody(Id, std::move(NewBody));
    BodyChangedIds.insert(Id);
  }

  // --- Step 4d: invalidate compiled code that hard-codes stale state. ----
  for (MethodId Id = 0; Id < Reg.numMethods(); ++Id) {
    RtMethod &M = Reg.method(Id);
    if (M.Obsolete || !M.Code)
      continue;
    bool Invalidate = false;
    for (ClassId C : M.Code->ReferencedClasses)
      if (UpdatedOldClassIds.count(C)) {
        Invalidate = true;
        break;
      }
    if (!Invalidate)
      for (MethodId Inl : M.Code->Inlined)
        if (BodyChangedIds.count(Inl) || Reg.method(Inl).Obsolete) {
          Invalidate = true;
          break;
        }
    if (Invalidate) {
      Reg.invalidateCode(Id);
      bumpDsuCounter(metrics::DsuCodeInvalidated);
    }
  }
  Result.ClassLoadMs = PhaseTimer.elapsedMs();
  markPhase("classload", static_cast<int64_t>(OldIdToName.size()));
  Result.Trace.record(UpdateEventKind::ClassesInstalled,
                      TheVM.scheduler().ticks(),
                      static_cast<int64_t>(OldIdToName.size()),
                      std::to_string(Result.ClassLoadMs) + " ms");

  // --- Step 4e: on-stack replacement of base-compiled category-(2)
  // frames, now that the new metadata is installed (paper §3.2). ----------
  for (Frame *F : OsrFrames) {
    MethodId NewId = F->Method;
    RtMethod &M = Reg.method(F->Method);
    if (M.Obsolete) {
      // The owner class itself was updated; the unchanged method lives in
      // the replacement class under the original name.
      auto It = OldIdToName.find(M.Owner);
      assert(It != OldIdToName.end() && "obsolete method of unrenamed class");
      ClassId NewCls = Reg.idOf(It->second);
      if (NewCls == InvalidClassId)
        throw UpdateError("install", "replacement class '" + It->second +
                                         "' failed to load before OSR");
      NewId = Reg.resolveMethod(NewCls, M.Name, M.Sig);
      if (NewId == InvalidMethodId)
        throw UpdateError("install",
                          "OSR method " + M.qualifiedName() +
                              " vanished from the new class version");
    }
    RtMethod &NM = Reg.method(NewId);
    if (!NM.Code || NM.Code->T != Tier::Baseline)
      Reg.setCode(NewId, TheVM.compiler().compile(NewId, Tier::Baseline));
    assert(NM.Code->Code.size() == F->Code->Code.size() &&
           NM.Code->NumLocals == F->Code->NumLocals &&
           "OSR requires identical bytecode (1:1 pc mapping, same window)");
    F->Method = NewId;
    F->Code = NM.Code;
    ++Result.OsrReplacements;
    bumpDsuCounter(metrics::DsuOsrReplacements);
    Result.Trace.record(UpdateEventKind::OsrReplaced,
                        TheVM.scheduler().ticks(), 0,
                        Reg.method(NewId).qualifiedName());
  }

  // --- Step 4f (§3.5 extension): replace *changed* methods on-stack via
  // the user-supplied pc map and frame transformer (UpStare-style). ------
  for (const MappedFrame &MF : MappedFrames) {
    VMThread &T = *MF.Thread;
    Frame *F = &T.Frames[MF.Index];
    const ActiveMethodMapping *Mapping = MF.Mapping;
    RtMethod &M = Reg.method(F->Method);
    ClassId NewCls;
    if (M.Obsolete) {
      auto It = OldIdToName.find(M.Owner);
      assert(It != OldIdToName.end() && "obsolete method of unrenamed class");
      NewCls = Reg.idOf(It->second);
    } else {
      NewCls = M.Owner;
    }
    if (NewCls == InvalidClassId)
      throw UpdateError("install",
                        "replacement class for remapped frame of " +
                            M.qualifiedName() + " failed to load");
    MethodId NewId = Reg.resolveMethod(NewCls, M.Name, M.Sig);
    if (NewId == InvalidMethodId)
      throw UpdateError("install", "active mapping for " + M.qualifiedName() +
                                       ", which is absent from the new "
                                       "version");
    RtMethod &NM = Reg.method(NewId);
    if (!NM.Code || NM.Code->T != Tier::Baseline)
      Reg.setCode(NewId, TheVM.compiler().compile(NewId, Tier::Baseline));

    uint32_t NewPc = Mapping->PcMap.at(F->Pc);
    assert(NewPc < NM.Code->Code.size() && "pc map leaves the new body");

    std::vector<Slot> OldLocals(T.Slots.begin() + F->Base,
                                T.Slots.begin() + F->StackBase);
    std::vector<Slot> NewLocals(NM.Code->NumLocals);
    if (Mapping->Frame) {
      TransformCtx Ctx(TheVM, nullptr);
      Mapping->Frame(Ctx, OldLocals, NewLocals);
      if (NewLocals.size() != NM.Code->NumLocals)
        throw UpdateError("install",
                          "frame transformer for " + M.qualifiedName() +
                              " left " + std::to_string(NewLocals.size()) +
                              " locals; the new body has " +
                              std::to_string(NM.Code->NumLocals));
    } else {
      // Default frame transformer: carry locals over by slot index.
      std::copy_n(OldLocals.begin(),
                  std::min(OldLocals.size(), NewLocals.size()),
                  NewLocals.begin());
    }

    F->Method = NewId;
    F->Code = NM.Code;
    F->Pc = NewPc;
    // The operand stack is preserved as-is (the mapping's author asserts
    // pc compatibility, as in UpStare's stack reconstruction); a changed
    // local count moves it, and every frame above, within the slot stack.
    T.replaceLocals(MF.Index, NewLocals);
    ++Result.ActiveFramesRemapped;
    bumpDsuCounter(metrics::DsuFramesRemapped);
    Result.Trace.record(UpdateEventKind::ActiveRemapped,
                        TheVM.scheduler().ticks(), 0,
                        Reg.method(NewId).qualifiedName());
  }
  markPhase("stack_repair",
            static_cast<int64_t>(OsrFrames.size() + MappedFrames.size()));

  // --- Step 5: DSU collection + transformers (§3.4). ---------------------
  DsuRemap Remap;
  for (const auto &[OldId, Name] : OldIdToName) {
    if (!Bundle.Spec.isClassUpdated(Name))
      continue; // deleted classes keep their (obsolete) identity
    ClassId NewId = Reg.idOf(Name);
    // A real checked error: when the replacement class did not load, its
    // instances have no new version to transform into and the update must
    // roll back (release builds used to sail past an assert here and
    // install an invalid class id into the remap).
    if (NewId == InvalidClassId)
      throw UpdateError("class-load",
                        "updated class '" + Name + "' failed to load");
    Remap.add(OldId, NewId);
  }

  if (!Remap.OldToNew.empty()) {
    Remap.OldCopiesInSeparateSpace = Opts.UseOldCopySpace;
    Remap.LazyShells = Opts.LazyTransform;
    std::vector<UpdateLogEntry> UpdateLog;
    Result.Gc = TheVM.collectGarbage(&Remap, &UpdateLog);
    Result.GcMs = Result.Gc.GcMs;
    markPhase("gc", static_cast<int64_t>(Result.Gc.ObjectsRemapped));
    Result.Trace.record(UpdateEventKind::GcCompleted,
                        TheVM.scheduler().ticks(),
                        static_cast<int64_t>(Result.Gc.ObjectsRemapped),
                        std::to_string(Result.GcMs) + " ms");

    // Canary staging happens while both versions are still live: the
    // fields each plan drops read out of the old copies, removed statics
    // out of the renamed old classes (dropped below), and the new-version
    // class ids a completed revert must leave no instances of.
    TransformerRunner Runner(TheVM, Bundle, UpdateLog);
    if (Opts.CanaryWindow.enabled())
      stageCanaryUndo(&Runner);

    if (Opts.LazyTransform) {
      // Statics have no read barrier, so class transformers run eagerly;
      // every per-object transform is deferred to the engine. The log is
      // handed to the commit point, and the old-copy block stays reserved
      // until the engine retires the barrier.
      Result.TransformMs = Runner.runClassTransformers();
      Result.ObjectsTransformed = Runner.objectsTransformed();
      markPhase("transform", static_cast<int64_t>(Result.ObjectsTransformed),
                "class transformers only (lazy)");
      Result.Trace.record(UpdateEventKind::Transformed,
                          TheVM.scheduler().ticks(),
                          static_cast<int64_t>(Result.ObjectsTransformed),
                          std::to_string(Result.TransformMs) +
                              " ms (object transforms deferred)");
      LazyLog = std::move(UpdateLog);
      LazyCommitPending = true;
      for (const auto &[OldId, Name] : OldIdToName)
        Reg.dropObsoleteStatics(OldId);
      return;
    }
    Result.TransformMs = Runner.runAll();
    Result.ObjectsTransformed = Runner.objectsTransformed();
    markPhase("transform", static_cast<int64_t>(Result.ObjectsTransformed));
    if (Telemetry::isEnabled())
      Telemetry::global()
          .counter(metrics::DsuObjectsTransformed)
          .add(Result.ObjectsTransformed);
    Result.Trace.record(UpdateEventKind::Transformed,
                        TheVM.scheduler().ticks(),
                        static_cast<int64_t>(Result.ObjectsTransformed),
                        std::to_string(Result.TransformMs) + " ms");

    // Dropping the log makes the duplicate old versions unreachable: the
    // §3.5 old-copy space (the default) is released right now, while with
    // the to-space placement the next collection reclaims them. Obsolete
    // statics go too (those of the classes this update made obsolete;
    // earlier updates cleared theirs), so dead program state cannot keep
    // objects alive.
    for (const auto &[OldId, Name] : OldIdToName)
      Reg.dropObsoleteStatics(OldId);
    if (Opts.UseOldCopySpace)
      TheVM.heap().releaseOldCopySpace();
  } else if (Opts.CanaryWindow.enabled()) {
    // No instances to remap (body-update / addition / deletion-only
    // update); deleted classes may still carry statics worth retaining.
    stageCanaryUndo(nullptr);
  }
}

void Updater::abortUpdate(UpdateStatus Status, const std::string &Message) {
  // Uninstall any armed return barriers; nothing else was changed yet.
  for (auto &T : TheVM.scheduler().threads())
    for (Frame &F : T->Frames)
      F.ReturnBarrier = false;
  if (Status == UpdateStatus::TimedOut) {
    Result.Trace.record(UpdateEventKind::TimedOut,
                        TheVM.scheduler().ticks(), 0, Message);
    bumpDsuCounter(metrics::DsuUpdatesTimedOut);
  }
  finish(Status, Message);
  TheVM.resumeAfterYield();
}

void Updater::finish(UpdateStatus Status, const std::string &Message) {
  Result.Status = Status;
  Result.Message = Message;
  if (DrainActive)
    endDrain();
  AdmittedRecord = VerificationRecord();
  // Release only hooks this updater still owns: a canary's revert updater
  // claimed them for itself when it scheduled, and finishing a stale
  // foreign updater must not strip them from under it.
  TheVM.releaseDsuHooks(this);
}

void Updater::beginDrain() {
  DrainActive = true;
  DrainWatch.reset();
  DrainStartTick = TheVM.scheduler().ticks();
  ShedAtDrainStart = TheVM.net().shedTotal();
  TheVM.beginNetDrain();
  Result.Trace.record(UpdateEventKind::DrainStarted, DrainStartTick, 0,
                      "accepts gated until the update resolves");
}

void Updater::endDrain() {
  DrainActive = false;
  TheVM.endNetDrain();
  Result.DrainMs = DrainWatch.elapsedMs();
  Result.RequestsShed = TheVM.net().shedTotal() - ShedAtDrainStart;
  uint64_t Tick = TheVM.scheduler().ticks();
  Result.Trace.record(UpdateEventKind::DrainEnded, Tick,
                      static_cast<int64_t>(Result.RequestsShed),
                      std::to_string(Result.RequestsShed) +
                          " request(s) shed while draining");
  if (Telemetry::isEnabled()) {
    Telemetry &Tel = Telemetry::global();
    Tel.counter(metrics::NetDrains).inc();
    Tel.histogram(metrics::NetDrainMs).record(Result.DrainMs);
    // A dedicated span name: drain windows bracket the pause and must not
    // disturb the dsu.update.phase spans that tile TotalPauseMs.
    Tel.emit({"net.drain", "drain", DrainStartTick, Tick, Result.DrainMs,
              static_cast<int64_t>(Result.RequestsShed), ""});
  }
}

UpdateResult Updater::applyNow(UpdateBundle InBundle, UpdateOptions InOpts,
                               uint64_t MaxDriveTicks) {
  schedule(std::move(InBundle), InOpts);
  uint64_t Driven = 0;
  while (pending() && Driven < MaxDriveTicks) {
    uint64_t Chunk = std::min<uint64_t>(MaxDriveTicks - Driven, 1u << 18);
    VM::RunResult R = TheVM.run(Chunk);
    Driven += Chunk;
    if (R.Idle && pending()) {
      // Every thread is blocked for good below an armed barrier; the
      // deadline will never arrive on its own because the clock has
      // stopped. Run the escalation ladder now: rescue can wake the
      // blocked threads, and an abort carries the diagnosis of what pinned
      // the update.
      escalate(TheVM.scheduler().ticks(), /*Forced=*/false,
               "VM idle with restricted methods still on stack");
    }
  }
  if (pending())
    abortUpdate(UpdateStatus::TimedOut, "drive budget exhausted");
  // A lazy update resolves Applied with shells still pending. Keep driving
  // the VM so the barrier and the background drainer finish the job —
  // applyNow's contract is "the update is done"; callers that want to
  // observe mid-drain behavior use schedule() + run() directly.
  if (Result.Status == UpdateStatus::Applied && TheVM.lazyEngine()) {
    uint64_t Guard = 0;
    while (!TheVM.lazyEngine()->drained() && Guard++ < 1u << 16) {
      VM::RunResult R = TheVM.run(1u << 14);
      if (R.Idle)
        break;
    }
    // Blocked application threads can idle the VM with shells still
    // pending (nothing runnable wakes the drainer); settle synchronously.
    if (!TheVM.lazyEngine()->drained()) {
      while (!TheVM.lazyEngine()->drained())
        TheVM.lazyEngine()->drainSome(
            std::numeric_limits<size_t>::max());
      TheVM.lazyEngine()->retire();
    }
    // With the drain complete, fold the deferred work back into the
    // result so applyNow's contract is mode-agnostic: ObjectsTransformed
    // is the total either way (commit-time value for mid-drain views).
    Result.ObjectsTransformed += TheVM.lazyEngine()->transformedCount();
    if (Telemetry::isEnabled())
      Telemetry::global()
          .counter(metrics::DsuObjectsTransformed)
          .add(TheVM.lazyEngine()->transformedCount());
  }
  return Result;
}

void Updater::stageCanaryUndo(TransformerRunner *Runner) {
  ClassRegistry &Reg = TheVM.registry();
  if (Runner)
    for (const UpdateLogEntry &E : Runner->log())
      CanaryUndo.captureObject(
          TheVM, E.OldCopy, E.NewObj,
          Runner->planFor(classOf(E.NewObj), classOf(E.OldCopy)));
  for (const std::string &Name : Bundle.Spec.ClassUpdates)
    CanaryUndo.captureStatics(TheVM, Name, Bundle.renamedOldClass(Name));
  for (const std::string &Name : Bundle.Spec.DeletedClasses)
    CanaryUndo.captureStatics(TheVM, Name, Bundle.renamedOldClass(Name));
  CanaryNewClassIds.clear();
  auto AddId = [&](const std::string &Name) {
    ClassId Id = Reg.idOf(Name);
    if (Id != InvalidClassId)
      CanaryNewClassIds.push_back(Id);
  };
  for (const std::string &Name : Bundle.Spec.ClassUpdates)
    AddId(Name);
  for (const std::string &Name : Bundle.Spec.AddedClasses)
    AddId(Name);
}

void Updater::armCanary() {
  size_t Retained = CanaryUndo.objectCount();
  auto Ctl = std::make_unique<CanaryController>(
      TheVM, Opts.CanaryWindow, Opts, std::move(CanaryPreProgram), Bundle,
      std::move(CanaryUndo), std::move(CanaryNewClassIds), CanaryBaseline);
  CanaryController *Raw = Ctl.get();
  // Install first, then arm: arming samples the scheduler clock and the
  // network counters, and the watchdog thread the install spawns must not
  // observe a window that is somehow armed but absent from the VM.
  TheVM.installCanary(std::move(Ctl));
  Raw->arm();
  Result.CanaryArmed = true;
  Result.Trace.record(UpdateEventKind::CanaryArmed, TheVM.scheduler().ticks(),
                      static_cast<int64_t>(Retained),
                      "window open over '" + Bundle.VersionTag + "'");
}

UpdateResult Updater::revert(const std::string &Reason,
                             uint64_t MaxDriveTicks) {
  auto *Ctl = static_cast<CanaryController *>(TheVM.canary());
  if (!Ctl || !Ctl->windowOpen() || !Ctl->requestRevert(Reason)) {
    UpdateResult R;
    R.Status = UpdateStatus::RevertFailed;
    R.Message = "revert failed: no open canary window";
    return R;
  }
  // The canary's watchdog keeps virtual time moving even on an idle VM,
  // so driving the clock is all the reverse update needs to hunt its safe
  // point and finalize.
  uint64_t Driven = 0;
  while (Ctl->windowOpen() && Driven < MaxDriveTicks) {
    uint64_t Chunk = std::min<uint64_t>(MaxDriveTicks - Driven, 1u << 18);
    VM::RunResult R = TheVM.run(Chunk);
    Driven += Chunk;
    if (R.Idle)
      break; // only possible once the window closed and the watchdog died
  }
  return Ctl->revertResult();
}
