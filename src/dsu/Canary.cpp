#include "dsu/Canary.h"

#include "support/Error.h"
#include "support/Telemetry.h"

using namespace jvolve;

const char *jvolve::canaryStateName(CanaryState S) {
  switch (S) {
  case CanaryState::Observing: return "observing";
  case CanaryState::Reverting: return "reverting";
  case CanaryState::Retired: return "retired";
  case CanaryState::Reverted: return "reverted";
  case CanaryState::RevertFailed: return "revert-failed";
  }
  unreachable("bad canary state");
}

std::string CanaryReport::str() const {
  std::string Out = "canary[" + ForwardTag + "] " + canaryStateName(State) +
                    ": armed @" + std::to_string(ArmedTick) + ", " +
                    std::to_string(ChecksRun) + " check(s)";
  if (SettledTick)
    Out += ", settled @" + std::to_string(SettledTick);
  for (const CanaryBreach &B : Breaches)
    Out += "\n  breach [" + B.Monitor + "] " + B.Detail;
  if (!RevertMessage.empty())
    Out += "\n  revert: " + RevertMessage;
  if (State == CanaryState::Reverted)
    Out += "\n  residual new-version objects: " +
           std::to_string(ResidualNewObjects);
  return Out;
}

CanaryController::CanaryController(VM &TheVM, CanaryPolicy Policy,
                                   UpdateOptions ForwardOpts,
                                   ClassSet PreUpdateProgram,
                                   UpdateBundle ForwardBundle,
                                   CanaryUndoLog Undo,
                                   std::vector<ClassId> ForwardNewClassIds,
                                   CanaryHealthSample PreUpdateBaseline)
    : TheVM(TheVM), Policy(std::move(Policy)),
      ForwardOpts(std::move(ForwardOpts)),
      PreUpdateProgram(std::move(PreUpdateProgram)),
      ForwardBundle(std::move(ForwardBundle)), Undo(std::move(Undo)),
      ForwardNewClassIds(std::move(ForwardNewClassIds)),
      Baseline(PreUpdateBaseline) {}

CanaryController::~CanaryController() = default;

void CanaryController::arm() {
  ArmedTick = TheVM.scheduler().ticks();
  AtArm = CanaryHealthSample::take(TheVM);
  NextCheckTick = ArmedTick + Policy.CheckIntervalTicks;
  if (Telemetry::isEnabled()) {
    Telemetry::global().counter(metrics::DsuCanaryWindows).inc();
    Telemetry::global().gauge(metrics::DsuCanaryOpen).set(1);
  }
  Trace.record(UpdateEventKind::CanaryArmed, ArmedTick,
               static_cast<int64_t>(Undo.objectCount()),
               ForwardBundle.VersionTag);
}

void CanaryController::onTick(uint64_t Now) {
  switch (St) {
  case CanaryState::Observing: {
    if (Now >= NextCheckTick) {
      NextCheckTick = Now + Policy.CheckIntervalTicks;
      checkNow(Now);
    }
    if (St != CanaryState::Observing)
      return; // the check opened a revert
    bool TicksDone =
        Policy.WindowTicks > 0 && Now >= ArmedTick + Policy.WindowTicks;
    uint64_t Served = TheVM.net().totalResponses() - AtArm.Responses;
    bool RequestsDone =
        Policy.WindowRequests > 0 && Served >= Policy.WindowRequests;
    if (TicksDone || RequestsDone)
      retire(Now);
    return;
  }
  case CanaryState::Reverting:
    if (RevertUpd && !RevertUpd->pending())
      finalizeRevert(Now);
    return;
  case CanaryState::Retired:
  case CanaryState::Reverted:
  case CanaryState::RevertFailed:
    return;
  }
}

void CanaryController::checkNow(uint64_t Now) {
  if (St != CanaryState::Observing)
    return;
  ++ChecksRun;
  if (Telemetry::isEnabled())
    Telemetry::global().counter(metrics::DsuCanaryChecks).inc();
  std::vector<CanaryBreach> Found = evaluateCanaryHealth(
      Policy, Baseline, AtArm, CanaryHealthSample::take(TheVM));
  if (TheVM.faults().probe(FaultInjector::Site::CanaryHealthBreach))
    Found.push_back({"fault-injector", "injected canary health breach"});
  if (Found.empty())
    return;
  Breaches = std::move(Found);
  if (Telemetry::isEnabled())
    Telemetry::global().counter(metrics::DsuCanaryBreaches).inc();
  std::string Detail;
  for (const CanaryBreach &B : Breaches)
    Detail += (Detail.empty() ? "" : "; ") + B.Monitor + ": " + B.Detail;
  Trace.record(UpdateEventKind::CanaryBreached, Now,
               static_cast<int64_t>(Breaches.size()), Detail);
  RevertReason = "health breach: " + Detail;
  beginRevert(Now);
}

bool CanaryController::requestRevert(const std::string &Reason) {
  if (St == CanaryState::Reverting)
    return true;
  if (St != CanaryState::Observing)
    return false;
  RevertReason = Reason;
  Trace.record(UpdateEventKind::CanaryBreached, TheVM.scheduler().ticks(), 0,
               "explicit: " + Reason);
  beginRevert(TheVM.scheduler().ticks());
  return true;
}

void CanaryController::settle(const std::string &Reason) {
  if (St != CanaryState::Observing)
    return;
  St = CanaryState::Retired;
  SettledTick = TheVM.scheduler().ticks();
  Undo.clear();
  if (Telemetry::isEnabled()) {
    Telemetry::global().counter(metrics::DsuCanaryRetired).inc();
    Telemetry::global().gauge(metrics::DsuCanaryOpen).set(0);
  }
  Trace.record(UpdateEventKind::CanarySettled, SettledTick, 0, Reason);
}

void CanaryController::retire(uint64_t Now) {
  St = CanaryState::Retired;
  SettledTick = Now;
  Undo.clear();
  if (Telemetry::isEnabled()) {
    Telemetry::global().counter(metrics::DsuCanaryRetired).inc();
    Telemetry::global().gauge(metrics::DsuCanaryOpen).set(0);
  }
  Trace.record(UpdateEventKind::CanaryRetired, Now,
               static_cast<int64_t>(ChecksRun), "window expired healthy");
}

void CanaryController::beginRevert(uint64_t Now) {
  St = CanaryState::Reverting;
  if (Telemetry::isEnabled())
    Telemetry::global().counter(metrics::DsuRevertAttempts).inc();
  Trace.record(UpdateEventKind::RevertStarted, Now, 0, RevertReason);

  // The reverse tag must not collide with any version prefix already in
  // the registry; the arm tick is unique per VM lifetime.
  UpdateBundle RB =
      synthesizeReverseBundle(TheVM, PreUpdateProgram, ForwardBundle, Undo,
                              "rb" + std::to_string(ArmedTick));

  // The revert runs through the same pipeline with the forward update's
  // pause/drain discipline, but always eagerly and to completion: no
  // nested canary and no lazy shells to monitor afterwards — the old
  // version comes back whole or not at all.
  UpdateOptions ROpts = ForwardOpts;
  ROpts.LazyTransform = false;
  ROpts.CanaryWindow = CanaryPolicy();
  ROpts.AnalyzeFirst = false;

  RevertUpd = std::make_unique<Updater>(TheVM);
  RevertUpd->schedule(std::move(RB), ROpts);
}

void CanaryController::finalizeRevert(uint64_t Now) {
  RevertResult = RevertUpd->result();
  SettledTick = Now;
  if (RevertResult.Status == UpdateStatus::Applied) {
    // Classes the forward update added were deleted again by the reverse
    // spec; classes it deleted are back as additions, whose statics no
    // class transformer restored.
    for (const CanaryUndoLog::UndoStatics &S : Undo.statics())
      Undo.restoreStaticsDirect(TheVM, S.ClassName);
    // The reverse collection leaves duplicates of every new-version
    // object in the current space, unreachable once the undo log lets go.
    // Residual means *live* new-version objects, so reclaim the garbage
    // before walking the heap to count survivors.
    Undo.clear();
    TheVM.collectGarbage();
    ResidualNewObjects =
        countResidualNewVersionObjects(TheVM, ForwardNewClassIds);
    St = CanaryState::Reverted;
    RevertResult.Status = UpdateStatus::Reverted;
    RevertResult.Message = "reverted: " + RevertReason;
    if (Telemetry::isEnabled()) {
      Telemetry::global().counter(metrics::DsuRevertCompleted).inc();
      Telemetry::global()
          .gauge(metrics::DsuRevertResidualNewObjects)
          .set(static_cast<int64_t>(ResidualNewObjects));
    }
    Trace.record(UpdateEventKind::Reverted, Now,
                 static_cast<int64_t>(ResidualNewObjects), RevertReason);
  } else {
    St = CanaryState::RevertFailed;
    std::string Why = RevertResult.Message;
    RevertResult.Status = UpdateStatus::RevertFailed;
    RevertResult.Message = "revert failed (" +
                           std::string(updateStatusName(
                               RevertUpd->result().Status)) +
                           "): " + Why;
    if (Telemetry::isEnabled())
      Telemetry::global().counter(metrics::DsuRevertFailed).inc();
    Trace.record(UpdateEventKind::RevertFailed, Now, 0, RevertResult.Message);
  }
  Undo.clear();
  if (Telemetry::isEnabled())
    Telemetry::global().gauge(metrics::DsuCanaryOpen).set(0);
}

void CanaryController::visitRoots(const std::function<void(Ref &)> &Visit) {
  Undo.visitRoots(Visit);
}

void CanaryController::onHeapMoved() { Undo.reindex(); }

CanaryReport CanaryController::report() const {
  CanaryReport R;
  R.State = St;
  R.ForwardTag = ForwardBundle.VersionTag;
  R.ArmedTick = ArmedTick;
  R.SettledTick = SettledTick;
  R.ChecksRun = ChecksRun;
  R.Breaches = Breaches;
  R.RevertMessage = RevertResult.Message;
  R.ResidualNewObjects = ResidualNewObjects;
  return R;
}
