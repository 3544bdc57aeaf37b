#include "dsu/LazyTransform.h"

#include "runtime/ObjectModel.h"
#include "support/Error.h"
#include "support/Telemetry.h"

#include <algorithm>

using namespace jvolve;

std::string LazyTransformError::str() const {
  return "lazy-transform failed [" + ClassName + ", log entry " +
         std::to_string(LogIndex) + ", " +
         (OnDemand ? "barrier hit" : "background drain") + ", tick " +
         std::to_string(Tick) + "]: " + Message;
}

LazyTransformEngine::LazyTransformEngine(VM &TheVM, UpdateBundle Bundle,
                                         std::vector<UpdateLogEntry> Log,
                                         bool OwnsOldCopySpace,
                                         size_t DrainBatch)
    : TheVM(TheVM), Bundle(std::move(Bundle)), UpdateLog(std::move(Log)),
      Runner(TheVM, this->Bundle, UpdateLog),
      OwnsOldCopySpace(OwnsOldCopySpace),
      DrainBatch(std::max<size_t>(DrainBatch, 1)) {
  for (const UpdateLogEntry &E : UpdateLog)
    if (E.St == UpdateLogEntry::State::Done ||
        E.St == UpdateLogEntry::State::Failed)
      ++PreSettled;
}

void LazyTransformEngine::arm() {
  setAllBarriers(true);
  if (Telemetry::isEnabled()) {
    Telemetry::global().counter(metrics::DsuLazyUpdates).inc();
    publishPendingGauge();
  }
}

size_t LazyTransformEngine::pendingCount() const {
  return UpdateLog.size() - PreSettled -
         static_cast<size_t>(Runner.objectsTransformed()) -
         static_cast<size_t>(NumFailed);
}

bool LazyTransformEngine::isPendingShell(Ref Obj) const {
  if (Retired)
    return false;
  size_t Index = Runner.entryOf(Obj);
  if (Index == TransformerRunner::NoEntry)
    return false;
  UpdateLogEntry::State St = UpdateLog[Index].St;
  return St == UpdateLogEntry::State::Pending ||
         St == UpdateLogEntry::State::InProgress;
}

void LazyTransformEngine::publishPendingGauge() const {
  Telemetry::global()
      .gauge(metrics::DsuLazyPending)
      .set(static_cast<int64_t>(pendingCount()));
}

bool LazyTransformEngine::onBarrierHit(Ref Obj, std::string *Err) {
  ++NumBarrierHits;
  if (Telemetry::isEnabled())
    Telemetry::global().counter(metrics::DsuLazyBarrierHits).inc();

  size_t Index = Runner.entryOf(Obj);
  if (Index == TransformerRunner::NoEntry) {
    // Not one of ours (cannot happen through the normal lifecycle: only
    // the DSU collection sets FlagLazyPending). Clear the flag so the
    // object reads as a plain initialized instance.
    header(Obj)->Flags &= ~(FlagUninitialized | FlagLazyPending);
    return true;
  }
  return transformIndex(Index, /*OnDemand=*/true, Err);
}

size_t LazyTransformEngine::drainSome(size_t BudgetTicks) {
  size_t Batch = std::min(DrainBatch, std::max<size_t>(BudgetTicks, 1));
  size_t Attempted = 0;
  std::string Err;
  while (Attempted < Batch && NextDrainIndex < UpdateLog.size()) {
    UpdateLogEntry::State St = UpdateLog[NextDrainIndex].St;
    if (St == UpdateLogEntry::State::Done ||
        St == UpdateLogEntry::State::Failed) {
      // Settled by a barrier hit (or a recursive force) before the drainer
      // reached it; skipping costs no tick.
      ++NextDrainIndex;
      continue;
    }
    // The drainer records failures and keeps draining — only the touching
    // thread is trapped on the barrier path.
    transformIndex(NextDrainIndex, /*OnDemand=*/false, &Err);
    ++Attempted;
  }

  size_t Used = std::max<size_t>(Attempted, 1);
  NumDrainTicks += Used;
  if (Telemetry::isEnabled())
    Telemetry::global().counter(metrics::DsuLazyDrainTicks).add(Used);
  if (drained())
    retire();
  return Used;
}

bool LazyTransformEngine::transformIndex(size_t Index, bool OnDemand,
                                         std::string *Err) {
  UpdateLogEntry &E = UpdateLog[Index];
  if (E.St == UpdateLogEntry::State::Done ||
      E.St == UpdateLogEntry::State::Failed)
    return true; // settled; a Failed entry was already reported

  // Transforms allocate; regular collection would move objects under the
  // Runner's raw refs, so hold it off exactly like the eager install does
  // (allocation failure throws UpdateError("transform") instead).
  bool PrevTx = TheVM.transformationInProgress();
  TheVM.setTransformationInProgress(true);
  uint64_t Before = Runner.objectsTransformed();
  bool Ok = true;
  std::string Msg;
  try {
    if (!OnDemand &&
        TheVM.faults().probe(FaultInjector::Site::LazyDrainTransformer))
      throw UpdateError("transform",
                        "injected lazy-drain transformer failure");
    Runner.transformAt(Index);
  } catch (const UpdateError &UE) {
    Ok = false;
    Msg = UE.message();
  }
  TheVM.setTransformationInProgress(PrevTx);

  uint64_t Delta = Runner.objectsTransformed() - Before;
  (OnDemand ? NumOnDemand : NumBackground) += Delta;
  if (Telemetry::isEnabled() && Delta > 0)
    Telemetry::global()
        .counter(OnDemand ? metrics::DsuLazyOnDemandTransforms
                          : metrics::DsuLazyBackgroundTransforms)
        .add(Delta);

  if (!Ok) {
    // Commit already happened; there is no snapshot to restore. Settle
    // every entry the failed (possibly recursive) transform left
    // in-progress: the shells stay valid default-initialized objects, are
    // never retried, and the update is reported degraded.
    uint64_t FailedNow = 0;
    for (UpdateLogEntry &F : UpdateLog)
      if (F.St == UpdateLogEntry::State::InProgress) {
        F.St = UpdateLogEntry::State::Failed;
        header(F.NewObj)->Flags &= ~(FlagUninitialized | FlagLazyPending);
        ++FailedNow;
      }
    // The failure may have hit before the runner marked the target entry
    // in-progress (e.g. an injected fault); settle it too, or the drainer
    // would retry it forever.
    if (E.St == UpdateLogEntry::State::Pending) {
      E.St = UpdateLogEntry::State::Failed;
      header(E.NewObj)->Flags &= ~(FlagUninitialized | FlagLazyPending);
      ++FailedNow;
    }
    NumFailed += FailedNow;

    LazyTransformError Diag;
    Diag.ClassName = TheVM.registry().cls(classOf(E.NewObj)).Name;
    Diag.LogIndex = Index;
    Diag.Message = Msg;
    Diag.OnDemand = OnDemand;
    Diag.Tick = TheVM.scheduler().ticks();
    if (Err)
      *Err = Diag.str();
    TheVM.noteLazyFailure(Diag.str());
    Failures.push_back(std::move(Diag));
    if (Telemetry::isEnabled())
      Telemetry::global().counter(metrics::DsuLazyFailed).add(FailedNow);
  }

  if (Telemetry::isEnabled())
    publishPendingGauge();
  return Ok;
}

void LazyTransformEngine::setAllBarriers(bool V) {
  ClassRegistry &Reg = TheVM.registry();
  for (size_t M = 0; M < Reg.numMethods(); ++M)
    if (auto &Code = Reg.method(static_cast<MethodId>(M)).Code)
      Code->LazyBarriers = V;
  for (auto &T : TheVM.scheduler().threads())
    for (Frame &F : T->Frames)
      if (F.Code)
        F.Code->LazyBarriers = V;
  TheVM.compiler().setEmitLazyBarriers(V);
}

void LazyTransformEngine::retire() {
  if (Retired)
    return;
  Retired = true;
  setAllBarriers(false);
  if (OwnsOldCopySpace && TheVM.heap().hasOldCopySpace()) {
    TheVM.heap().releaseOldCopySpace();
    OwnsOldCopySpace = false;
  }
  if (Telemetry::isEnabled()) {
    publishPendingGauge();
    Telemetry &Tel = Telemetry::global();
    if (Tel.tracing()) {
      uint64_t Tick = TheVM.scheduler().ticks();
      Tel.emit({"dsu.lazy", "retired", Tick, Tick, 0,
                static_cast<int64_t>(Runner.objectsTransformed()),
                "barrier retired; steady-state overhead back to zero"});
    }
  }
}

void LazyTransformEngine::visitRoots(
    const std::function<void(Ref &)> &Visit) {
  // Unsettled entries keep both halves of the pair alive: the shell (so
  // the transformer can still fill it) and the old copy (the transformer's
  // input). A regular collection forwards old copies into to-space like
  // any live object, which migrates them out of the old-copy block — see
  // onHeapMoved(). Settled entries hold stale refs that are never
  // dereferenced again; skip them.
  for (UpdateLogEntry &E : UpdateLog) {
    if (E.St != UpdateLogEntry::State::Pending &&
        E.St != UpdateLogEntry::State::InProgress)
      continue;
    if (E.NewObj)
      Visit(E.NewObj);
    if (E.OldCopy)
      Visit(E.OldCopy);
  }
}

void LazyTransformEngine::onHeapMoved() {
  if (Retired)
    return;
  // Unsettled entries were roots, so the collection rewrote their refs and
  // each moved shell carried its header index along. Settled entries were
  // not: drop their stale refs so a later object at a reused address can
  // never match them in entryOf().
  for (UpdateLogEntry &E : UpdateLog)
    if (E.St == UpdateLogEntry::State::Done ||
        E.St == UpdateLogEntry::State::Failed)
      E.NewObj = E.OldCopy = nullptr;
  // The collection just migrated every live old copy into to-space (they
  // are roots), so the dedicated block holds only dead bytes now.
  if (OwnsOldCopySpace && TheVM.heap().hasOldCopySpace()) {
    TheVM.heap().releaseOldCopySpace();
    OwnsOldCopySpace = false;
  }
}
