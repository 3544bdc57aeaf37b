#include "vm/VM.h"

#include "bytecode/Builtins.h"
#include "bytecode/Verifier.h"
#include "runtime/ObjectModel.h"
#include "support/Error.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/TelemetryStream.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace jvolve;

/// Registers every standard metric name up front so a snapshot taken after
/// any run — even one that never updates, collects, or traps — still lists
/// the full scheduler/heap/interpreter/dsu surface (with zero values)
/// instead of only the names that happened to record.
static void preregisterStandardMetrics() {
  Telemetry &Tel = Telemetry::global();
  for (const char *C :
       {metrics::SchedSafePoints, metrics::HeapObjectsAllocated,
        metrics::HeapBytesAllocated, metrics::GcCollections,
        metrics::GcBytesCopied, metrics::GcObjectsCopied,
        metrics::GcDsuCollections, metrics::GcDsuBytesCopied,
        metrics::GcDsuObjectsRemapped, metrics::InterpInstructions,
        metrics::InterpCallsVirtual, metrics::InterpCallsDirect,
        metrics::InterpTraps, metrics::JitCompilationsBaseline,
        metrics::JitCompilationsOpt, metrics::JitTierPromotions,
        metrics::DsuUpdatesScheduled, metrics::DsuUpdatesApplied,
        metrics::DsuUpdatesRolledBack, metrics::DsuUpdatesTimedOut,
        metrics::DsuUpdatesRejected, metrics::DsuSafePointAttempts,
        metrics::DsuBarriersArmed, metrics::DsuBarriersFired,
        metrics::DsuOsrReplacements, metrics::DsuFramesRemapped,
        metrics::DsuObjectsTransformed, metrics::DsuCodeInvalidated,
        metrics::DsuQuiescenceExpiries, metrics::DsuQuiescenceRescuedFrames,
        metrics::DsuQuiescenceForcedYields,
        metrics::DsuAnalysisRuns, metrics::DsuAnalysisRejected,
        metrics::DsuSynthRuns, metrics::DsuSynthRenames,
        metrics::DsuSynthFlagged,
        metrics::DsuLazyUpdates, metrics::DsuLazyBarrierHits,
        metrics::DsuLazyOnDemandTransforms,
        metrics::DsuLazyBackgroundTransforms, metrics::DsuLazyDrainTicks,
        metrics::DsuLazyFailed, metrics::DsuCanaryWindows,
        metrics::DsuCanaryChecks, metrics::DsuCanaryBreaches,
        metrics::DsuCanaryRetired, metrics::DsuRevertAttempts,
        metrics::DsuRevertFailed, metrics::NetShedTotal, metrics::NetDrains,
        metrics::NetResponses})
    Tel.counter(C);
  // dsu.revert.completed is deliberately NOT preregistered: its very
  // presence in a snapshot means a revert actually converged, which is
  // what tier1's `metrics-diff.py --require dsu.revert.completed` asserts.
  for (const char *G :
       {metrics::DsuAnalysisRestrictedPrecise,
        metrics::DsuAnalysisRestrictedConservative,
        metrics::DsuAnalysisRestrictedDelta,
        metrics::DsuAnalysisRestrictedCha, metrics::DsuAnalysisRuntimeMs,
        metrics::DsuImpactClasses, metrics::DsuImpactUntouched,
        metrics::DsuLazyPending, metrics::DsuCanaryOpen,
        metrics::DsuRevertResidualNewObjects,
        metrics::TelemetryDroppedTotal, metrics::TelemetryEventsAttempted,
        metrics::TelemetryEventsStreamed, metrics::TelemetryBlocksFlushed,
        metrics::TelemetrySessionsOpened, metrics::TelemetryTraceDropped})
    Tel.gauge(G);
  for (const char *H :
       {metrics::SchedSafePointWaitTicks, metrics::SchedQuantumTicks,
        metrics::GcPauseMs, metrics::GcSurvivorRate, metrics::GcDsuPauseMs,
        metrics::DsuTotalPauseMs,
        metrics::NetDrainMs, metrics::NetLatencyTicks})
    Tel.histogram(H);
  for (const char *Phase : {"snapshot", "classload", "stack_repair", "gc",
                            "transform", "certify", "rollback", "codeversion"})
    Tel.histogram(metrics::dsuPhaseMs(Phase));
  // The dsu.codeversion.* gauges follow the dsu.revert.completed precedent:
  // they are NOT preregistered, so their presence in a snapshot proves a
  // versioned body-only install actually ran — what tier1's
  // `metrics-diff.py --require 'dsu.codeversion.*'` asserts.
}

VM::VM(Config C) : Cfg(C) {
  preregisterStandardMetrics();
  TheHeap = std::make_unique<Heap>(Cfg.HeapSpaceBytes);
  Gc = std::make_unique<Collector>(*TheHeap, Registry);
  Gc->setFaultInjector(&Faults);
  Compiler::Options COpts;
  COpts.IndirectionChecks = Cfg.IndirectionMode;
  Comp = std::make_unique<Compiler>(Registry, Strings, COpts);
  Interp = std::make_unique<Interpreter>(*this);
}

VM::VM() : VM(Config()) {}

VM::~VM() = default;

void VM::loadProgram(const ClassSet &InputProgram) {
  if (ProgramLoaded)
    fatalError("loadProgram called twice; use the DSU layer to update");
  ProgramLoaded = true;

  Program = InputProgram;
  ensureBuiltins(Program);

  if (Cfg.Verify) {
    VerifyOutcome V = Verifier(Program).verify(VerificationRecord());
    if (!V.Errors.empty()) {
      std::string Msg = "program failed verification:";
      for (const VerifyError &E : V.Errors)
        Msg += "\n  " + E.str();
      fatalError(Msg);
    }
    Record = std::move(V.Record);
  }

  Registry.loadAll(Program);

  StringClsId = Registry.idOf(StringClassName);
  assert(StringClsId != InvalidClassId && "built-in String missing");
  const RtField *IdField =
      Registry.cls(StringClsId).findInstanceField(StringIdField);
  assert(IdField && "String.$id missing");
  StringIdOffset = IdField->Offset;
}

ThreadId VM::spawnThread(const std::string &ClassName,
                         const std::string &MethodName,
                         const std::string &Sig, std::vector<Slot> Args,
                         const std::string &ThreadName, bool Daemon) {
  ClassId Cls = Registry.idOf(ClassName);
  if (Cls == InvalidClassId)
    fatalError("spawnThread: unknown class '" + ClassName + "'");
  MethodId Entry = Registry.resolveMethod(Cls, MethodName, Sig);
  if (Entry == InvalidMethodId)
    fatalError("spawnThread: unknown method " + ClassName + "." + MethodName +
               Sig);
  const RtMethod &M = Registry.method(Entry);
  if (!M.IsStatic)
    fatalError("spawnThread: entry point must be static");
  // The arguments become the entry frame's first locals; a count that
  // differs from the signature would write past the frame or leave a
  // parameter unset.
  size_t NParams = MethodSignature::parse(Sig).Params.size();
  if (Args.size() != NParams)
    fatalError("spawnThread: " + ClassName + "." + M.qualifiedName() +
               " takes " + std::to_string(NParams) + " argument(s), got " +
               std::to_string(Args.size()));

  VMThread &T = Sched.spawn(ThreadName, Daemon);
  pushEntryFrame(T, Entry, Args);
  return T.Id;
}

void VM::pushEntryFrame(VMThread &T, MethodId Method,
                        const std::vector<Slot> &Args) {
  T.reserveSlots(Args.size());
  std::copy(Args.begin(), Args.end(), T.Slots.begin());
  T.pushFrame(ensureCompiledForInvoke(Method), Method,
              static_cast<uint32_t>(Args.size()));
}

std::shared_ptr<CompiledMethod> VM::ensureCompiledForInvoke(MethodId Method) {
  RtMethod &M = Registry.method(Method);
  ++M.InvokeCount;
  if (!M.Code) {
    Tier T =
        M.InvokeCount >= Cfg.OptThreshold ? Tier::Opt : Tier::Baseline;
    M.Code = Comp->compile(Method, T);
  } else if (M.Code->T == Tier::Baseline &&
             M.InvokeCount == Cfg.OptThreshold) {
    // The adaptive system promotes hot methods to the opt tier.
    M.Code = Comp->compile(Method, Tier::Opt);
    if (Telemetry::isEnabled())
      Telemetry::global().counter(metrics::JitTierPromotions).inc();
  }
  return M.Code;
}

VM::RunResult VM::run(uint64_t MaxTicks) {
  RunResult Result;
  uint64_t Start = Sched.ticks();
  uint64_t End = Start + MaxTicks;
  Telemetry &Tel = Telemetry::global();
  WindowAggregator &Windows = Tel.windows();

  while (Sched.ticks() < End) {
    Windows.onTick(Sched.ticks());
    if (TickCallback)
      TickCallback(Sched.ticks());
    if (CanaryCtl)
      CanaryCtl->onTick(Sched.ticks());
    Sched.wakeReadyThreads();

    if (Sched.yieldRequested() && Sched.allAtSafePoints()) {
      Sched.noteSafePointReached();
      if (SafePointCallback) {
        SafePointCallback();
        // The callback must resume or finish; guard against a stall.
        if (Sched.yieldRequested() && Sched.allAtSafePoints() &&
            !Sched.anyRunnable())
          resumeAfterYield();
      } else {
        resumeAfterYield();
      }
      continue;
    }

    VMThread *T = Sched.pickNext();
    if (!T) {
      // Nobody is runnable. Fast-forward to the next wake-up, if any.
      uint64_t Wake = Sched.nextWakeTick();
      if (Wake == std::numeric_limits<uint64_t>::max()) {
        Result.Idle = true;
        break;
      }
      if (Wake >= End) {
        Sched.setTicks(End);
        break;
      }
      Sched.setTicks(std::max(Wake, Sched.ticks()));
      continue;
    }

    // Active-version poll: the thread is at a yield point (it was parked,
    // blocked, or between quanta — never mid-loop), so observing a code-
    // version switch here is the call-entry / back-edge poll the manager's
    // handshake-free install relies on.
    if (CodeVers && T->CodeEpoch != CodeVers->epoch())
      CodeVers->onThreadPoll(*T, Sched.ticks());

    uint64_t Budget = std::min<uint64_t>(Cfg.Quantum, End - Sched.ticks());
    if (T->NativeWork && Sched.yieldRequested()) {
      // Native workers have no frames to scan; they cooperate with the
      // stop-the-world protocol by parking until resumeAfterYield().
      T->State = ThreadState::Parked;
      continue;
    }
    // Events emitted during the quantum (interpreter traps, DSU barriers
    // the thread trips) carry the green thread's id.
    Tel.setRunningThread(T->Id);
    uint64_t Executed = T->NativeWork ? T->NativeWork(*T, Budget)
                                      : Interp->runThread(*T, Budget);
    Tel.setRunningThread(0);
    if (T->stopped())
      Sched.traceThreadExit(*T);
    Sched.advanceTicks(Executed);
    if (Telemetry::isEnabled() && Executed > 0)
      Telemetry::global()
          .histogram(metrics::SchedQuantumTicks)
          .record(static_cast<double>(Executed));
    if (Executed == 0 && T->State == ThreadState::Runnable)
      fatalError("scheduler made no progress on runnable thread " + T->Name);
  }

  Result.TicksExecuted = Sched.ticks() - Start;
  return Result;
}

VM::RunResult VM::runToCompletion(uint64_t MaxTicks) {
  RunResult Total;
  uint64_t Remaining = MaxTicks;
  while (Remaining > 0 && Sched.hasLiveApplicationThreads()) {
    uint64_t Chunk = std::min<uint64_t>(Remaining, 1u << 20);
    RunResult R = run(Chunk);
    Total.TicksExecuted += R.TicksExecuted;
    Remaining -= Chunk;
    if (R.Idle) {
      Total.Idle = true;
      break;
    }
  }
  return Total;
}

Slot VM::callStatic(const std::string &ClassName,
                    const std::string &MethodName, const std::string &Sig,
                    std::vector<Slot> Args) {
  ThreadId Id =
      spawnThread(ClassName, MethodName, Sig, std::move(Args), "call");
  while (true) {
    VMThread *T = Sched.findThread(Id);
    assert(T && "spawned thread vanished");
    if (T->State == ThreadState::Trapped)
      fatalError("callStatic trapped: " + T->TrapMessage);
    if (T->State == ThreadState::Finished)
      return T->HasExitValue ? T->ExitValue : Slot::ofInt(0);
    RunResult R = run(1u << 20);
    if (R.Idle && Sched.findThread(Id)->State != ThreadState::Finished &&
        Sched.findThread(Id)->State != ThreadState::Trapped)
      fatalError("callStatic deadlocked in " + ClassName + "." + MethodName);
  }
}

Ref VM::allocateObject(ClassId Cls) {
  const RtClass &C = Registry.cls(Cls);
  bool Forced = Faults.probe(FaultInjector::Site::HeapAllocNth);
  Ref Obj = Forced ? nullptr : TheHeap->allocateObject(C);
  if (Obj)
    return Obj;
  if (TransformationInProgress)
    throw UpdateError("transform",
                      Forced
                          ? "injected allocation failure (heap-alloc-nth)"
                          : "heap exhausted while the update transaction "
                            "held off collection");
  collectGarbage();
  return TheHeap->allocateObject(C);
}

Ref VM::allocateArray(ClassId ArrCls, int64_t Length) {
  const RtClass &C = Registry.cls(ArrCls);
  bool Forced = Faults.probe(FaultInjector::Site::HeapAllocNth);
  Ref Arr = Forced ? nullptr : TheHeap->allocateArray(C, Length);
  if (Arr)
    return Arr;
  if (TransformationInProgress)
    throw UpdateError("transform",
                      Forced
                          ? "injected allocation failure (heap-alloc-nth)"
                          : "heap exhausted while the update transaction "
                            "held off collection");
  collectGarbage();
  return TheHeap->allocateArray(C, Length);
}

Ref VM::newString(const std::string &Payload) {
  Ref Obj = allocateObject(StringClsId);
  if (!Obj)
    return nullptr;
  setIntAt(Obj, StringIdOffset, Strings.intern(Payload));
  return Obj;
}

std::string VM::stringValue(Ref Str) {
  assert(Str && "stringValue on null");
  assert(classOf(Str) == StringClsId && "stringValue on a non-String");
  return Strings.payload(getIntAt(Str, StringIdOffset));
}

void VM::enumerateRoots(const std::function<void(Ref &)> &Visit) {
  Registry.visitStaticRoots(Visit);
  for (auto &T : Sched.threads()) {
    // Each frame's [Base, Sp): its locals, then its operand stack. The
    // dead slots above the top frame are not roots.
    for (const Frame &F : T->Frames)
      for (uint32_t I = F.Base; I < F.Sp; ++I) {
        Slot &S = T->Slots[I];
        if (S.IsRef && S.RefVal)
          Visit(S.RefVal);
      }
    if (T->HasExitValue && T->ExitValue.IsRef && T->ExitValue.RefVal)
      Visit(T->ExitValue.RefVal);
  }
  for (Ref &R : Pinned)
    if (R)
      Visit(R);
  if (Lazy)
    Lazy->visitRoots(Visit);
  if (CanaryCtl)
    CanaryCtl->visitRoots(Visit);
}

CollectionStats VM::collectGarbage(const DsuRemap *Remap,
                                   std::vector<UpdateLogEntry> *UpdateLog) {
  CollectionStats St = Gc->collect(
      [this](const std::function<void(Ref &)> &Visit) {
        enumerateRoots(Visit);
      },
      Remap, UpdateLog);
  ++Stats.Collections;
  Stats.TotalGcMs += St.GcMs;
  if (Lazy)
    Lazy->onHeapMoved();
  if (CanaryCtl)
    CanaryCtl->onHeapMoved();
  return St;
}

void VM::installLazyEngine(std::unique_ptr<VmLazyEngine> Engine) {
  Lazy = std::move(Engine);
  // Background drainer: a cooperative daemon scheduled like any other
  // thread. Each quantum it transforms a batch of shells; once the table
  // empties the engine retires the barrier and the thread finishes. The
  // closure re-reads this->Lazy so a later update replacing the engine
  // simply finishes the old drainer on its next quantum.
  VMThread &T = Sched.spawn("lazy-drainer", /*Daemon=*/true);
  T.NativeWork = [this](VMThread &Self, uint64_t Budget) -> uint64_t {
    if (!Lazy || Lazy->drained()) {
      // The barrier may have settled the last shell on demand between
      // quanta; retiring is idempotent and must not wait for drainSome.
      if (Lazy)
        Lazy->retire();
      Self.State = ThreadState::Finished;
      return 1;
    }
    size_t Used = Lazy->drainSome(static_cast<size_t>(Budget));
    if (Lazy->drained())
      Self.State = ThreadState::Finished;
    return std::max<uint64_t>(Used, 1);
  };
}

void VM::installCanary(std::unique_ptr<VmCanary> Ctl) {
  CanaryCtl = std::move(Ctl);
  // Watchdog: a cooperative daemon whose only job is to keep virtual time
  // advancing while the window is open, so onTick-driven health checks,
  // window expiry, and revert progress still happen on an idle VM. It
  // claims a single tick per quantum to distort latency telemetry as
  // little as possible. The closure re-reads this->CanaryCtl so a later
  // canaried update replacing the controller simply finishes the old
  // watchdog on its next quantum.
  VMThread &T = Sched.spawn("canary-watchdog", /*Daemon=*/true);
  T.NativeWork = [this](VMThread &Self, uint64_t /*Budget*/) -> uint64_t {
    if (!CanaryCtl || !CanaryCtl->windowOpen())
      Self.State = ThreadState::Finished;
    return 1;
  };
}

void VM::drainLazyEngineNow() {
  if (!Lazy)
    return;
  while (!Lazy->drained())
    Lazy->drainSome(std::numeric_limits<size_t>::max());
  Lazy->retire();
  Lazy.reset();
}

bool VM::lazyBarrierSlowPath(VMThread &T, Ref Obj) {
  if (!Lazy) {
    // A stale flag with no live engine cannot happen through the normal
    // lifecycle (retire() clears flags first); recover by clearing it so
    // the object reads as a plain initialized instance.
    header(Obj)->Flags &= ~(FlagUninitialized | FlagLazyPending);
    return true;
  }
  std::string Err;
  if (Lazy->onBarrierHit(Obj, &Err))
    return true;
  onTrap(T, Err);
  return false;
}

int VM::injectConnection(int Port, const std::vector<int64_t> &Requests,
                         uint64_t InterArrival, uint64_t FirstDelay) {
  if (Faults.probe(FaultInjector::Site::NetSlowClient))
    // A slow client: the connection arrives, but its requests trickle in
    // far apart — the drain/shed machinery must cope without dropping a
    // response.
    InterArrival = InterArrival ? InterArrival * 50 : 5'000;
  int Conn = Net.inject(Port, Requests, Sched.ticks(), InterArrival,
                        FirstDelay);
  // While draining, acceptors stay parked; endNetDrain delivers the queue.
  if (!Net.draining())
    for (auto &T : Sched.threads())
      if (T->State == ThreadState::BlockedAccept && T->BlockedPort == Port)
        T->State = ThreadState::Runnable;
  return Conn;
}

void VM::endNetDrain() {
  Net.endDrain();
  for (auto &T : Sched.threads())
    if (T->State == ThreadState::BlockedAccept &&
        Net.hasPendingAccept(T->BlockedPort))
      T->State = ThreadState::Runnable;
}

void VM::onReturnBarrierFired(VMThread &T) {
  if (ReturnBarrierCallback)
    ReturnBarrierCallback(T);
}

void VM::onTrap(VMThread &T, const std::string &Message) {
  T.State = ThreadState::Trapped;
  T.TrapMessage = Message;
  ++Stats.Traps;
  Telemetry &Tel = Telemetry::global();
  if (Telemetry::isEnabled())
    Tel.counter(metrics::InterpTraps).inc();
  if (Tel.tracing())
    // The interpreter runs inside the thread's quantum, so emit stamps the
    // trapping thread's id.
    Tel.emit({"vm.thread", "trap", Sched.ticks(), Sched.ticks(), 0,
              static_cast<int64_t>(T.Id), Message});
  PrintLog.push_back("TRAP[" + T.Name + "]: " + Message);
}
