//===----------------------------------------------------------------------===//
///
/// \file
/// Update tracing: a structured event log of one update's lifecycle.
///
/// The paper narrates updates in prose ("we installed a return barrier on
/// PoolThread.run(), but this barrier is never triggered…", §4.2); a
/// production DSU VM needs that narrative as data. The updater appends an
/// event per protocol step — schedule, safe-point attempt, frame
/// classification counts, barrier arm/fire, OSR, active-frame remap,
/// install phases with timings, transformation totals, and the final
/// outcome — and exposes the trace in UpdateResult for logging, tests,
/// and the pause-breakdown bench.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_UPDATETRACE_H
#define JVOLVE_DSU_UPDATETRACE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace jvolve {

/// Kinds of update-lifecycle events.
enum class UpdateEventKind : uint8_t {
  Scheduled,        ///< update signaled to the VM
  Rejected,         ///< failed validation (verification / hierarchy)
  SafePointAttempt, ///< all threads parked; stacks scanned
  BarrierArmed,     ///< return barrier installed on a restricted frame
  BarrierFired,     ///< a barriered frame returned; protocol restarts
  OsrReplaced,      ///< category-(2) frame replaced on-stack
  ActiveRemapped,   ///< changed frame replaced via an ActiveMethodMapping
  ClassesInstalled, ///< rename + load + invalidate finished
  GcCompleted,      ///< DSU collection finished
  Transformed,      ///< class + object transformers finished
  InstallFailed,    ///< a step of the install transaction threw UpdateError
  RolledBack,       ///< snapshot restored; VM serves the old version again
  Certified,        ///< post-update heap + registry certification ran
  Applied,          ///< update complete
  TimedOut,         ///< safe point never reached
  WatchdogExpired,  ///< quiescence watchdog fired; threads diagnosed
  Rescued,          ///< rescue rung: forced yields / synthesized remaps
  DrainStarted,     ///< network drain began for the pending update
  DrainEnded,       ///< network drain lifted after the update resolved
  LazyCommitted,    ///< lazy mode: committed with untransformed shells
  CanaryArmed,      ///< post-commit observation window opened
  CanaryBreached,   ///< a health monitor crossed its SLO threshold
  CanaryRetired,    ///< window closed healthy; undo log released
  CanarySettled,    ///< window closed early (stacked update superseded it)
  RevertStarted,    ///< reverse update scheduled through the pipeline
  Reverted,         ///< old versions reinstalled; heap converged
  RevertFailed,     ///< the reverse update could not be applied
  CodeVersionInstalled, ///< body set installed via version chains, no pause
  CodeVersionSwitched,  ///< active-version switch committed (epoch bumped)
  CodeVersionReverted,  ///< chains popped to the prior active versions
};

/// Total number of UpdateEventKind values (for exhaustive round-trip tests).
inline constexpr size_t NumUpdateEventKinds = 30;

const char *updateEventKindName(UpdateEventKind K);

/// One trace event.
struct UpdateEvent {
  UpdateEventKind Kind;
  uint64_t Tick = 0;   ///< virtual time of the event
  int64_t Value = 0;   ///< kind-specific count (frames, objects, ...)
  std::string Detail;  ///< kind-specific text (method name, message)

  std::string str() const;
};

/// The whole trace of one update.
class UpdateTrace {
public:
  /// Appends an event. Also emits it to the open telemetry trace (as a
  /// "dsu.update.event" point event), so the JSONL trace carries the full
  /// update narrative alongside phase spans, in emission order (see
  /// support/TelemetryStream.h).
  void record(UpdateEventKind Kind, uint64_t Tick, int64_t Value = 0,
              std::string Detail = "") {
    forwardToSink(Kind, Tick, Value, Detail);
    Events.push_back({Kind, Tick, Value, std::move(Detail)});
  }

  const std::vector<UpdateEvent> &events() const { return Events; }

  /// Number of events of kind \p K.
  int count(UpdateEventKind K) const {
    int N = 0;
    for (const UpdateEvent &E : Events)
      N += E.Kind == K;
    return N;
  }

  /// Renders the trace, one event per line.
  std::string str() const;

  void clear() { Events.clear(); }

private:
  static void forwardToSink(UpdateEventKind Kind, uint64_t Tick,
                            int64_t Value, const std::string &Detail);

  std::vector<UpdateEvent> Events;
};

} // namespace jvolve

#endif // JVOLVE_DSU_UPDATETRACE_H
