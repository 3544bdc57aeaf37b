//===----------------------------------------------------------------------===//
///
/// \file
/// The cooperative thread scheduler and the virtual clock.
///
/// One virtual tick corresponds to one executed instruction. The scheduler
/// round-robins runnable threads; when the yield flag is set, threads park
/// at their next yield point, and once *all* threads sit at safe points the
/// VM may run a safe-point action (GC or a dynamic update attempt).
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_THREADS_SCHEDULER_H
#define JVOLVE_THREADS_SCHEDULER_H

#include "threads/Thread.h"

#include <memory>
#include <vector>

namespace jvolve {

/// Owns every thread and the virtual clock.
class Scheduler {
public:
  /// Traces the exit of every thread still alive (a VM torn down mid-run).
  ~Scheduler();

  /// Creates a thread in Runnable state with an empty stack; the caller
  /// pushes the entry frame. While a telemetry trace is open this emits
  /// a `vm.thread`/spawn event carrying the new thread's id.
  VMThread &spawn(const std::string &Name, bool Daemon = false);

  /// Emits the `vm.thread`/exit event for \p T, carrying its id, while a
  /// telemetry trace is open. VM::run calls it once a thread stops.
  void traceThreadExit(const VMThread &T);

  std::vector<std::unique_ptr<VMThread>> &threads() { return Threads; }
  const std::vector<std::unique_ptr<VMThread>> &threads() const {
    return Threads;
  }

  VMThread *findThread(ThreadId Id);

  uint64_t ticks() const { return Ticks; }
  void advanceTicks(uint64_t N) { Ticks += N; }
  /// Jumps the clock forward to \p Tick (idle fast-forward).
  void setTicks(uint64_t Tick);

  /// Requests that all threads stop at their next yield point.
  void requestYield() {
    if (!YieldRequested)
      YieldRequestTick = Ticks;
    YieldRequested = true;
  }
  void clearYield() { YieldRequested = false; }
  bool yieldRequested() const { return YieldRequested; }

  /// Records the stop-the-world rendezvous latency — virtual ticks between
  /// the oldest outstanding requestYield() and now — into the
  /// `vm.sched.safepoint.wait_ticks` histogram. The VM calls this once per
  /// safe-point rendezvous, right before running the safe-point action.
  void noteSafePointReached();

  /// Moves every Parked thread back to Runnable.
  void unparkAll();

  /// \returns true when no live thread is in the Runnable state, i.e. every
  /// thread sits at a VM safe point.
  bool allAtSafePoints() const;

  /// \returns true if any live non-daemon thread exists.
  bool hasLiveApplicationThreads() const;

  /// \returns true if any thread can run right now.
  bool anyRunnable() const;

  /// Earliest WakeTick over Sleeping/BlockedRecv threads, or UINT64_MAX.
  uint64_t nextWakeTick() const;

  /// Wakes threads whose wake conditions are met at the current tick.
  void wakeReadyThreads();

  /// Round-robin choice of the next runnable thread; nullptr if none.
  VMThread *pickNext();

private:
  std::vector<std::unique_ptr<VMThread>> Threads;
  uint64_t Ticks = 0;
  bool YieldRequested = false;
  uint64_t YieldRequestTick = 0;
  size_t NextIndex = 0;
  ThreadId NextId = 1;
};

} // namespace jvolve

#endif // JVOLVE_THREADS_SCHEDULER_H
