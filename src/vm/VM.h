//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniVM facade: ties together the classloader/registry, heap, garbage
/// collector, quickening compiler, interpreter, green-thread scheduler, and
/// simulated network, and exposes the hooks the DSU layer (src/dsu) uses —
/// yield requests, safe-point callbacks, return-barrier notification, and
/// DSU-extended collections.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_VM_VM_H
#define JVOLVE_VM_VM_H

#include "bytecode/ClassDef.h"
#include "bytecode/Verifier.h"
#include "exec/Compiler.h"
#include "heap/Collector.h"
#include "heap/Heap.h"
#include "runtime/ClassRegistry.h"
#include "runtime/StringTable.h"
#include "support/FaultInjector.h"
#include "support/Rng.h"
#include "threads/Scheduler.h"
#include "vm/Network.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace jvolve {

class Interpreter;

/// VM-side view of the DSU lazy-transform engine (dsu/LazyTransform.h).
/// The VM owns the engine through this interface so the core VM library
/// stays independent of the DSU layer, mirroring the callback-based DSU
/// hooks below. All methods are invoked from the single VM thread.
class VmLazyEngine {
public:
  virtual ~VmLazyEngine() = default;

  /// Read-barrier slow path: \p Obj carried FlagLazyPending. Transforms it
  /// (and, recursively, anything the transformer forces). \returns false
  /// when the post-commit transformer failed; \p Err receives the
  /// structured diagnostic and the caller traps the touching thread.
  virtual bool onBarrierHit(Ref Obj, std::string *Err) = 0;

  /// Background drainer: transforms up to its per-quantum batch (bounded
  /// by \p BudgetTicks). \returns virtual ticks consumed (>= 1). Retires
  /// the barrier itself once the table empties.
  virtual size_t drainSome(size_t BudgetTicks) = 0;

  /// True when every update-log entry settled (transformed or failed).
  virtual bool drained() const = 0;

  /// Untransformed shells still registered.
  virtual size_t pendingCount() const = 0;

  /// Objects the engine has transformed so far (on-demand + background).
  virtual uint64_t transformedCount() const = 0;

  /// True when \p Obj is an untransformed shell whose entry has not
  /// settled yet (the heap verifier's lazy context).
  virtual bool isPendingShell(Ref Obj) const = 0;

  /// Clears the barrier flag from all compiled code, releases the old-copy
  /// block if still held, and emits the barrier-retired trace event.
  /// Idempotent; called automatically when the table drains.
  virtual void retire() = 0;

  /// GC integration: pending entries' shells and old copies are roots.
  virtual void visitRoots(const std::function<void(Ref &)> &Visit) = 0;
  /// Called after every collection: entry addresses moved.
  virtual void onHeapMoved() = 0;
};

/// VM-side view of the DSU post-commit canary window (dsu/Canary.h),
/// mirroring VmLazyEngine: the VM owns the controller through this
/// interface so the core VM library stays independent of the DSU layer.
class VmCanary {
public:
  virtual ~VmCanary() = default;

  /// Called once per scheduling round with the current virtual tick; the
  /// controller runs its periodic health checks, window expiry, and revert
  /// progress polling from here.
  virtual void onTick(uint64_t Now) = 0;

  /// True while the window is active: still observing, or reverting. False
  /// once settled (retired healthy, reverted, or revert failed).
  virtual bool windowOpen() const = 0;

  /// GC integration: the retained undo log (new-version objects plus
  /// extracted removed-field values) is a root set.
  virtual void visitRoots(const std::function<void(Ref &)> &Visit) = 0;
  /// Called after every collection: undo-log addresses moved.
  virtual void onHeapMoved() = 0;
};

/// VM-side view of the DSU per-method code-version manager
/// (dsu/CodeVersion.h), mirroring VmLazyEngine/VmCanary: the VM owns the
/// manager through this interface so the core VM library stays independent
/// of the DSU layer. All methods are invoked from the single VM thread.
class VmCodeVersions {
public:
  virtual ~VmCodeVersions() = default;

  /// Monotonic switch generation, bumped once per committed active-version
  /// switch (install or revert pop). The scheduler compares each thread's
  /// VMThread::CodeEpoch against this before every quantum — threads only
  /// resume at yield points (call entry / loop back edges), so that
  /// comparison is exactly the paper's poll-point observation with no
  /// per-instruction cost.
  virtual uint64_t epoch() const = 0;

  /// Scheduler poll: thread \p T is about to run with a stale CodeEpoch.
  /// The manager records the observation and stamps the thread current;
  /// the thread's next invocations dispatch to the active versions.
  virtual void onThreadPoll(VMThread &T, uint64_t Now) = 0;

  /// Interpreter callback: a frame returned through a compiled body that a
  /// versioned install superseded — one in-flight activation finished on
  /// its old version (rejit-generation bookkeeping).
  virtual void onStaleFrameReturn() = 0;
};

/// Aggregate execution counters (benchmark instrumentation).
struct VmStats {
  uint64_t InstructionsExecuted = 0;
  uint64_t Collections = 0;
  uint64_t Traps = 0;
  /// Indirection-mode field-access checks performed (ablation counter).
  uint64_t IndirectionChecks = 0;
  double TotalGcMs = 0;
};

/// One Java-in-C++ virtual machine instance.
class VM {
public:
  struct Config {
    /// Bytes per semi-space (total heap footprint is twice this).
    size_t HeapSpaceBytes = 64u << 20;
    /// Compile field accesses with JDrums/DVM-style indirection checks
    /// (steady-state-overhead ablation).
    bool IndirectionMode = false;
    /// Invocations before a baseline method is recompiled at the opt tier.
    uint64_t OptThreshold = 50;
    /// Instructions per scheduling quantum.
    uint64_t Quantum = 200;
  };

  explicit VM(Config C);
  VM();
  ~VM();

  VM(const VM &) = delete;
  VM &operator=(const VM &) = delete;

  //===--------------------------------------------------------------------===//
  // Program loading and threads
  //===--------------------------------------------------------------------===//

  /// Loads the initial program version. Adds built-ins, verifies it (Jikes
  /// RVM itself has no verifier; MiniVM does, and Jvolve's safety argument
  /// relies on verification), keeps the verification record, and loads
  /// every class. Call exactly once.
  void loadProgram(const ClassSet &Program);

  /// Bytecode of the running program version (the UPT diffs against this).
  const ClassSet &program() const { return Program; }

  /// What verifying the running program looked up, for update admission to
  /// reuse (bytecode/Verifier.h).
  const VerificationRecord &verificationRecord() const { return Record; }

  /// Replaces the running program version after a dynamic update; \p Rec
  /// is the record of \p NewProgram's admission verification, and replaces
  /// the old program's.
  void setProgram(ClassSet NewProgram, VerificationRecord Rec) {
    Program = std::move(NewProgram);
    Record = std::move(Rec);
  }

  /// Spawns a thread whose entry point is the static method
  /// \p ClassName.\p MethodName with signature \p Sig, passing \p Args.
  /// Aborts unless \p Args has exactly one slot per parameter.
  ThreadId spawnThread(const std::string &ClassName,
                       const std::string &MethodName, const std::string &Sig,
                       std::vector<Slot> Args = {},
                       const std::string &ThreadName = "thread",
                       bool Daemon = false);

  //===--------------------------------------------------------------------===//
  // Execution
  //===--------------------------------------------------------------------===//

  struct RunResult {
    uint64_t TicksExecuted = 0;
    /// True when the VM went idle: nothing runnable and nothing scheduled
    /// to wake (the harness must inject work or stop).
    bool Idle = false;
  };

  /// Runs the scheduler for up to \p MaxTicks virtual ticks.
  RunResult run(uint64_t MaxTicks);

  /// Runs until no live application thread remains (or \p MaxTicks pass).
  RunResult runToCompletion(uint64_t MaxTicks = 100'000'000);

  /// Convenience for tests: runs static \p ClassName.\p MethodName on a
  /// fresh thread to completion and returns its result slot (int 0 for
  /// void). Aborts if the thread traps.
  Slot callStatic(const std::string &ClassName, const std::string &MethodName,
                  const std::string &Sig, std::vector<Slot> Args = {});

  //===--------------------------------------------------------------------===//
  // Services
  //===--------------------------------------------------------------------===//

  ClassRegistry &registry() { return Registry; }
  Heap &heap() { return *TheHeap; }
  /// The VM-wide fault injector; disarmed by default. Tests and the tools'
  /// --inject flag arm sites to exercise the update-rollback paths.
  FaultInjector &faults() { return Faults; }
  StringTable &strings() { return Strings; }
  Network &net() { return Net; }
  Scheduler &scheduler() { return Sched; }
  Compiler &compiler() { return *Comp; }
  const Config &config() const { return Cfg; }
  VmStats &stats() { return Stats; }

  /// Allocates an instance of \p Cls, collecting if needed. Returns nullptr
  /// only when the heap stays full after a collection (caller traps).
  Ref allocateObject(ClassId Cls);
  /// Allocates an array of \p Length elements of array class \p ArrCls.
  Ref allocateArray(ClassId ArrCls, int64_t Length);
  /// Allocates a String object wrapping \p Payload.
  Ref newString(const std::string &Payload);
  /// \returns the payload of String object \p Str.
  std::string stringValue(Ref Str);

  /// Runs one full-heap collection over all roots (statics, thread stacks,
  /// pinned handles). DSU parameters as in Collector::collect.
  CollectionStats
  collectGarbage(const DsuRemap *Remap = nullptr,
                 std::vector<UpdateLogEntry> *UpdateLog = nullptr);

  /// Host-held references that must survive (and be updated by) GC.
  std::vector<Ref> &pinnedRoots() { return Pinned; }

  /// Visits every root reference location (statics, thread stacks, pinned
  /// handles) — the collector's and heap verifier's root enumerator.
  void visitRoots(const std::function<void(Ref &)> &Visit) {
    enumerateRoots(Visit);
  }

  /// Resolves the compiled code for \p Method, compiling (or upgrading to
  /// the opt tier) per the adaptive policy. Bumps the invocation counter.
  std::shared_ptr<CompiledMethod> ensureCompiledForInvoke(MethodId Method);

  /// Injects a client connection and wakes threads blocked in accept.
  /// While the network is draining, arriving connections queue (or are
  /// shed by admission control) without waking acceptors. The
  /// net-slow-client fault site stretches the connection's inter-arrival
  /// gap when armed.
  int injectConnection(int Port, const std::vector<int64_t> &Requests,
                       uint64_t InterArrival = 0, uint64_t FirstDelay = 0);

  /// Update-time traffic draining (Updater's DrainNetwork option): gates
  /// accepts while in-flight connections run to request boundaries.
  /// endNetDrain wakes acceptors for any connections that queued up while
  /// the drain held.
  void beginNetDrain() { Net.beginDrain(); }
  void endNetDrain();

  /// Advances the virtual clock to \p Tick if it lies in the future (idle
  /// time passing with no work to run); no-op otherwise. Load generators
  /// use this to keep their injection schedule in virtual time even when
  /// the server drains faster than the offered load.
  void fastForwardTo(uint64_t Tick) {
    if (Tick > Sched.ticks())
      Sched.setTicks(Tick);
  }

  /// Text printed by PrintInt/PrintStr intrinsics.
  const std::vector<std::string> &printLog() const { return PrintLog; }
  void appendPrintLog(std::string Line) { PrintLog.push_back(std::move(Line)); }

  //===--------------------------------------------------------------------===//
  // DSU hooks (used by jvolve::Updater)
  //===--------------------------------------------------------------------===//

  /// Asks every thread to stop at its next yield point.
  void requestYield() { Sched.requestYield(); }

  /// Clears a pending yield request and resumes parked threads.
  void resumeAfterYield() {
    Sched.clearYield();
    Sched.unparkAll();
  }

  /// Installs the three DSU callbacks and records \p Owner as the holder:
  /// \p SafePoint runs when a yield was requested and every thread sits at
  /// a safe point (it must leave the system either resumed or finished; it
  /// may re-request a yield later), \p Tick once per scheduling round with
  /// the current virtual tick (the updater's safe-point timeout), and
  /// \p Barrier when a frame with an installed return barrier returns. A
  /// canary revert's Updater may outlive the forward update's (tool code
  /// keeps loop-local Updaters); ownership keeps a dying foreign Updater
  /// from clobbering the live one's hooks.
  void claimDsuHooks(void *Owner, std::function<void()> SafePoint,
                     std::function<void(uint64_t)> Tick,
                     std::function<void(VMThread &)> Barrier) {
    DsuHookOwner = Owner;
    SafePointCallback = std::move(SafePoint);
    TickCallback = std::move(Tick);
    ReturnBarrierCallback = std::move(Barrier);
  }

  /// Clears the DSU callbacks iff \p Owner still holds them; a no-op for
  /// anyone else (their hooks were already replaced).
  void releaseDsuHooks(void *Owner) {
    if (DsuHookOwner != Owner)
      return;
    DsuHookOwner = nullptr;
    SafePointCallback = nullptr;
    TickCallback = nullptr;
    ReturnBarrierCallback = nullptr;
  }

  /// While an update transaction runs, ordinary collection is impossible
  /// (it would invalidate the rollback snapshot); allocation failure throws
  /// UpdateError instead of triggering GC, and the updater rolls back.
  void setTransformationInProgress(bool V) { TransformationInProgress = V; }
  bool transformationInProgress() const { return TransformationInProgress; }

  //===--------------------------------------------------------------------===//
  // Lazy object transformation (UpdateOptions::LazyTransform)
  //===--------------------------------------------------------------------===//

  /// The live engine, or nullptr. Non-null from a lazy update's commit
  /// until the next update replaces it (it stays queryable after retiring
  /// so its drain statistics and failure diagnostics remain readable).
  VmLazyEngine *lazyEngine() { return Lazy.get(); }

  /// Adopts the engine a lazy update built at commit and spawns the
  /// background drainer thread (a daemon; scheduled like any other).
  void installLazyEngine(std::unique_ptr<VmLazyEngine> Engine);

  /// Synchronously drains and retires any live engine, then drops it.
  /// Called before a stacked update's safe-point hunt: its DSU collection
  /// must not see pending shells.
  void drainLazyEngineNow();

  /// Interpreter slow path behind the FlagLazyPending header check.
  /// \returns false when the transform failed (thread \p T was trapped
  /// with the structured diagnostic).
  bool lazyBarrierSlowPath(VMThread &T, Ref Obj);

  /// Structured diagnostics of every failed post-commit lazy transform,
  /// surviving engine replacement (jvolve-serve reports these).
  const std::vector<std::string> &lazyFailureLog() const {
    return LazyFailureLog;
  }
  void noteLazyFailure(std::string Diagnostic) {
    LazyFailureLog.push_back(std::move(Diagnostic));
  }

  //===--------------------------------------------------------------------===//
  // Post-commit canary window (UpdateOptions::CanaryWindow)
  //===--------------------------------------------------------------------===//

  /// The live canary controller, or nullptr. Non-null from a canaried
  /// update's commit until the next canaried update replaces it (it stays
  /// queryable after settling so its report remains readable).
  VmCanary *canary() { return CanaryCtl.get(); }

  /// Adopts the controller a canaried update armed at commit and spawns
  /// the canary-watchdog thread (a daemon that keeps virtual time — and
  /// with it the observation window — advancing on an otherwise idle VM).
  void installCanary(std::unique_ptr<VmCanary> Ctl);

  //===--------------------------------------------------------------------===//
  // Per-method code versioning (UpdateOptions::CodeVersioning)
  //===--------------------------------------------------------------------===//

  /// The live code-version manager, or nullptr. Non-null from the first
  /// versioned body-only install for the VM's lifetime: version chains
  /// persist so stacked updates compose and the canary can revert by
  /// popping to the prior active version.
  VmCodeVersions *codeVersions() { return CodeVers.get(); }

  /// Adopts the manager built by the first versioned install. Unlike the
  /// lazy engine and canary it spawns no daemon: switches are observed
  /// passively at the scheduler's per-quantum epoch poll.
  void installCodeVersions(std::unique_ptr<VmCodeVersions> Mgr) {
    CodeVers = std::move(Mgr);
  }

  // Internal: interpreter callbacks.
  void onReturnBarrierFired(VMThread &T);
  void onTrap(VMThread &T, const std::string &Message);
  /// Interpreter: a frame whose compiled body was superseded by a
  /// versioned install just returned.
  void onStaleFrameReturned() {
    if (CodeVers)
      CodeVers->onStaleFrameReturn();
  }

private:
  void pushEntryFrame(VMThread &T, MethodId Method,
                      const std::vector<Slot> &Args);
  void enumerateRoots(const std::function<void(Ref &)> &Visit);

  Config Cfg;
  ClassSet Program;
  VerificationRecord Record;
  ClassRegistry Registry;
  std::unique_ptr<Heap> TheHeap;
  std::unique_ptr<Collector> Gc;
  StringTable Strings;
  std::unique_ptr<Compiler> Comp;
  Scheduler Sched;
  Network Net;
  std::unique_ptr<Interpreter> Interp;
  Rng TheRng;
  FaultInjector Faults;

  std::vector<Ref> Pinned;
  std::vector<std::string> PrintLog;
  VmStats Stats;

  std::function<void()> SafePointCallback;
  std::function<void(uint64_t)> TickCallback;
  std::function<void(VMThread &)> ReturnBarrierCallback;
  std::unique_ptr<VmLazyEngine> Lazy;
  std::unique_ptr<VmCanary> CanaryCtl;
  std::unique_ptr<VmCodeVersions> CodeVers;
  void *DsuHookOwner = nullptr;
  std::vector<std::string> LazyFailureLog;
  bool TransformationInProgress = false;
  bool ProgramLoaded = false;

  uint32_t StringIdOffset = 0;           ///< byte offset of String.$id
  ClassId StringClsId = InvalidClassId;  ///< cached id of class String

  friend class Interpreter;
};

} // namespace jvolve

#endif // JVOLVE_VM_VM_H
