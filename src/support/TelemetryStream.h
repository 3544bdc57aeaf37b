//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming telemetry: the sessions Telemetry::emit hands events to, and
/// windowed event-counter aggregation.
///
/// The VM runs every green thread on one OS thread, and every event is
/// emitted there. Telemetry::emit therefore stamps each event and appends
/// it to every open session on the calling thread, in the order the events
/// happen; like the registry's maps and histogram reservoirs, nothing here
/// is synchronized.
///
///  * Each event carries `tid`, the id of the green thread whose quantum is
///    running (0 outside a quantum; a thread's spawn and exit events carry
///    that thread's own id), and `seq`, one counter for the whole stream:
///    a trace file's lines read 1, 2, 3, ... in file order. The counter
///    restarts when a session opens while no other is open.
///
///  * A TelemetrySession writes JSONL through TraceSink, which writes its
///    buffer to the file when the buffer fills, when the session closes,
///    and at process exit; or, with no path, it keeps a bounded in-memory
///    buffer for in-band readers.
///
///  * WindowAggregator keeps EventCounter-style per-window statistics
///    over every registered counter and histogram (delta, rate/ktick,
///    min/mean/max across retained windows; p50/p99 over the samples
///    recorded within the last window). The VM run loop rolls it on
///    virtual-tick boundaries; jvolve-serve --stats reads the view.
///
/// Ledger: emit republishes the `telemetry.*` gauges with every event.
/// `events_attempted` and `events_streamed` both count the events handed
/// to the sessions and `dropped_total` stays 0, so attempted == streamed +
/// dropped holds whenever it is read. A session's own loss is counted
/// apart: `telemetry.trace.dropped` for events a file sink failed to write,
/// bufferEvictions() for an in-memory session past its budget.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_SUPPORT_TELEMETRYSTREAM_H
#define JVOLVE_SUPPORT_TELEMETRYSTREAM_H

#include "support/Telemetry.h"

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace jvolve {

//===----------------------------------------------------------------------===//
// Sessions
//===----------------------------------------------------------------------===//

/// One consumer of the event stream: a JSONL file written through
/// TraceSink or, with an empty path, a bounded in-memory buffer. Opened and
/// closed through Telemetry::openSession / closeSession.
class TelemetrySession {
public:
  /// In-memory sessions keep at most this many events; each event past it
  /// evicts the oldest and counts into bufferEvictions().
  static constexpr size_t BufferBudgetEvents = 65536;

  explicit TelemetrySession(const std::string &Path);

  TelemetrySession(const TelemetrySession &) = delete;
  TelemetrySession &operator=(const TelemetrySession &) = delete;

  bool ok() const { return !Sink || Sink->ok(); }

  void append(TraceEvent E);

  /// Writes the file sink's buffered events (no-op in memory).
  void flush();

  /// Writes what is buffered and closes the file. \returns whether the
  /// file got every event appended to it (always true in memory).
  bool close();

  /// In-memory sessions: moves every buffered event out, oldest first.
  std::vector<TraceEvent> drainBuffered();

  /// In-memory budget evictions (this session's own loss).
  uint64_t bufferEvictions() const { return NumEvicted; }
  /// Events the file sink lost, and the batches it wrote; 0 in memory.
  uint64_t sinkEventsDropped() const {
    return Sink ? Sink->eventsDropped() : 0;
  }
  uint64_t sinkBatches() const { return Sink ? Sink->batchesWritten() : 0; }

private:
  std::unique_ptr<TraceSink> Sink; ///< file mode
  std::deque<TraceEvent> Buffered; ///< in-memory mode
  uint64_t NumEvicted = 0;
};

//===----------------------------------------------------------------------===//
// Windowed event-counter aggregation
//===----------------------------------------------------------------------===//

/// EventCounter-style per-window statistics over the telemetry registry.
/// The VM run loop calls onTick(); every WindowTicks of virtual time the
/// aggregator snapshots all counters and histograms, records the window's
/// deltas, and retains the last KeepWindows windows per metric. Driven
/// and read from the VM thread only.
class WindowAggregator {
public:
  explicit WindowAggregator(Telemetry &Owner) : Owner(Owner) {}

  /// Enables aggregation with \p WindowTicks-tick windows (0 disables).
  /// The first window starts here: every registered instrument is
  /// anchored at its current reading, so the first roll sees only what
  /// was recorded after this call.
  void configure(uint64_t WindowTicks, size_t KeepWindows = 16);
  bool enabled() const { return WindowTicks != 0; }
  uint64_t windowTicks() const { return WindowTicks; }
  uint64_t windowsRolled() const { return Rolled; }

  /// Fast-path poll; rolls the window when \p Now crosses the boundary.
  /// Re-anchors when virtual time restarts (a new VM in the same process).
  void onTick(uint64_t Now) {
    if (WindowTicks == 0)
      return;
    if (Now + WindowTicks < NextRoll) { // clock went backwards: new VM
      NextRoll = Now + WindowTicks;
      LastRoll = Now;
      return;
    }
    if (Now >= NextRoll)
      roll(Now);
  }

  /// Forces a window boundary at \p Now (tools roll once before dumping).
  void roll(uint64_t Now);

  /// Last-window view of one counter, plus min/mean/max of the per-window
  /// deltas across the retained windows.
  struct CounterSeries {
    uint64_t LastDelta = 0;
    double LastRatePerKtick = 0; ///< delta per 1000 virtual ticks
    uint64_t MinDelta = 0, MaxDelta = 0;
    double MeanDelta = 0;
    size_t Windows = 0;
  };

  /// Last-window view of one histogram: samples recorded within the
  /// window, their p50/p99/max/mean, and the sample rate.
  struct HistSeries {
    uint64_t LastCount = 0;
    double LastRatePerKtick = 0;
    double P50 = 0, P99 = 0, Max = 0, Mean = 0;
    size_t Windows = 0;
  };

  /// \returns false when the metric has no window data yet.
  bool counterSeries(const std::string &Name, CounterSeries &Out) const;
  bool histSeries(const std::string &Name, HistSeries &Out) const;

  /// Column-aligned live view: every metric with nonzero window activity,
  /// counters as rate rows, histograms as rate + p50/p99/max rows.
  std::string table() const;

private:
  struct PerCounter {
    uint64_t PrevValue = 0;
    std::deque<uint64_t> Deltas; ///< most recent last
  };
  struct PerHist {
    uint64_t PrevSeen = 0;
    HistSeries Last;
  };

  /// Re-enumerates the registry when it grew, refreshing CounterBind /
  /// HistBind. roll() itself then walks stable pointer pairs — no string
  /// copies, no map lookups, no allocation on the per-window path.
  void rebind();

  Telemetry &Owner;
  uint64_t WindowTicks = 0;
  size_t KeepWindows = 16;
  uint64_t LastRoll = 0;
  uint64_t NextRoll = 0;
  uint64_t LastSpan = 1; ///< ticks covered by the last completed window
  uint64_t Rolled = 0;
  std::map<std::string, PerCounter> Counters;
  std::map<std::string, PerHist> Hists;
  // Instrument handle -> window state, valid until the registry grows
  // (handles are immortal; map nodes are stable).
  std::vector<std::pair<TelCounter *, PerCounter *>> CounterBind;
  std::vector<std::pair<TelHistogram *, PerHist *>> HistBind;
  size_t BoundCounters = 0, BoundHists = 0;
  std::vector<double> Scratch; ///< roll()'s sample buffer, reused
};

} // namespace jvolve

#endif // JVOLVE_SUPPORT_TELEMETRYSTREAM_H
