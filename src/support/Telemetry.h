//===----------------------------------------------------------------------===//
///
/// \file
/// VM-wide telemetry: a process-wide registry of named counters, gauges,
/// and histograms, plus a JSONL trace file for span events.
///
/// The paper's entire evaluation is measurement (Table 1's pause
/// breakdown, Figure 5's throughput dip, §4.2's barrier narrative); this
/// module turns those one-off bench measurements into a subsystem. Every
/// VM layer records into the registry through cheap handles; tools dump a
/// snapshot (`jvolve-run --metrics`), servers answer an in-band stats
/// probe (`jvolve-serve`), and benches cross-check their private timers
/// against the registry.
///
/// Cost model: telemetry is **disabled by default**. Each record path is
/// one predictable branch on a global flag when disabled; when enabled,
/// counters are relaxed atomics and histograms write into preallocated
/// storage — the record path never allocates. Registration (name lookup)
/// happens once at subsystem construction, never per event.
///
/// Metric naming scheme (see docs/INTERNALS.md §10):
///   <namespace>.<subsystem>.<metric>[{label=value}]
/// e.g. `vm.gc.pause_ms`, `dsu.update.phase_ms{phase=gc}`.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_SUPPORT_TELEMETRY_H
#define JVOLVE_SUPPORT_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace jvolve {

//===----------------------------------------------------------------------===//
// Standard metric names. Shared constants so producers (VM subsystems),
// consumers (tools, benches), and the pre-registration list in VM.cpp
// cannot drift apart.
//===----------------------------------------------------------------------===//

namespace metrics {
// threads/Scheduler
inline constexpr const char *SchedSafePoints = "vm.sched.safepoints";
inline constexpr const char *SchedSafePointWaitTicks =
    "vm.sched.safepoint.wait_ticks";
inline constexpr const char *SchedQuantumTicks = "vm.sched.quantum_ticks";
// heap/Heap + heap/Collector
inline constexpr const char *HeapObjectsAllocated =
    "vm.heap.objects_allocated";
inline constexpr const char *HeapBytesAllocated = "vm.heap.bytes_allocated";
inline constexpr const char *GcCollections = "vm.gc.collections";
inline constexpr const char *GcPauseMs = "vm.gc.pause_ms";
inline constexpr const char *GcBytesCopied = "vm.gc.bytes_copied";
inline constexpr const char *GcObjectsCopied = "vm.gc.objects_copied";
inline constexpr const char *GcSurvivorRate = "vm.gc.survivor_rate";
inline constexpr const char *GcDsuCollections = "vm.gc.dsu.collections";
inline constexpr const char *GcDsuPauseMs = "vm.gc.dsu.pause_ms";
inline constexpr const char *GcDsuBytesCopied = "vm.gc.dsu.bytes_copied";
inline constexpr const char *GcDsuObjectsRemapped =
    "vm.gc.dsu.objects_remapped";
// vm/Interpreter
inline constexpr const char *InterpInstructions = "vm.interp.instructions";
inline constexpr const char *InterpCallsVirtual = "vm.interp.calls_virtual";
inline constexpr const char *InterpCallsDirect = "vm.interp.calls_direct";
inline constexpr const char *InterpTraps = "vm.interp.traps";
// exec/Compiler
inline constexpr const char *JitCompilationsBaseline =
    "vm.jit.compilations{tier=baseline}";
inline constexpr const char *JitCompilationsOpt =
    "vm.jit.compilations{tier=opt}";
inline constexpr const char *JitTierPromotions = "vm.jit.tier_promotions";
// dsu/Updater
inline constexpr const char *DsuUpdatesScheduled = "dsu.updates.scheduled";
inline constexpr const char *DsuUpdatesApplied = "dsu.updates.applied";
inline constexpr const char *DsuUpdatesRolledBack = "dsu.updates.rolled_back";
inline constexpr const char *DsuUpdatesTimedOut = "dsu.updates.timed_out";
inline constexpr const char *DsuUpdatesRejected = "dsu.updates.rejected";
inline constexpr const char *DsuSafePointAttempts = "dsu.safepoint.attempts";
inline constexpr const char *DsuBarriersArmed = "dsu.barriers.armed";
inline constexpr const char *DsuBarriersFired = "dsu.barriers.fired";
inline constexpr const char *DsuOsrReplacements = "dsu.osr.replacements";
inline constexpr const char *DsuFramesRemapped = "dsu.frames.remapped";
inline constexpr const char *DsuObjectsTransformed =
    "dsu.objects.transformed";
inline constexpr const char *DsuCodeInvalidated = "dsu.code.invalidated";
inline constexpr const char *DsuTotalPauseMs =
    "dsu.update.phase_ms{phase=total}";
// dsu/Analysis (static update-safety analyzer)
inline constexpr const char *DsuAnalysisRuns = "dsu.analysis.runs";
inline constexpr const char *DsuAnalysisRejected = "dsu.analysis.rejected";
/// Gauges: sizes of the safe-point restriction sets computed for the most
/// recent analysis, and how many methods the precise (inline-aware) closure
/// un-restricts relative to the paper's conservative §3.3 closure.
inline constexpr const char *DsuAnalysisRestrictedPrecise =
    "dsu.analysis.restricted_precise";
inline constexpr const char *DsuAnalysisRestrictedConservative =
    "dsu.analysis.restricted_conservative";
inline constexpr const char *DsuAnalysisRestrictedDelta =
    "dsu.analysis.restricted_delta";
/// Gauge: size the precise set would have under CHA alone — the dataflow
/// refinement's shrink shows as restricted_cha - restricted_precise.
inline constexpr const char *DsuAnalysisRestrictedCha =
    "dsu.analysis.restricted_cha";
/// Gauge: wall-clock milliseconds the most recent analysis run took
/// (CHA + dataflow refinement together).
inline constexpr const char *DsuAnalysisRuntimeMs = "dsu.analysis.runtime_ms";
// dsu/Synthesis (transformer synthesis and impact bounding)
inline constexpr const char *DsuSynthRuns = "dsu.synth.runs";
inline constexpr const char *DsuSynthRenames = "dsu.synth.renames";
inline constexpr const char *DsuSynthFlagged = "dsu.synth.flagged";
/// Gauges: sizes of the most recent impact bound — classes the update can
/// touch, and updated classes provably untouched at the instance level.
inline constexpr const char *DsuImpactClasses = "dsu.impact.classes";
inline constexpr const char *DsuImpactUntouched = "dsu.impact.untouched";
// dsu/LazyTransform (lazy object-transformation engine)
inline constexpr const char *DsuLazyUpdates = "dsu.lazy.updates";
inline constexpr const char *DsuLazyBarrierHits = "dsu.lazy.barrier_hits";
inline constexpr const char *DsuLazyOnDemandTransforms =
    "dsu.lazy.on_demand_transforms";
inline constexpr const char *DsuLazyBackgroundTransforms =
    "dsu.lazy.background_transforms";
inline constexpr const char *DsuLazyDrainTicks = "dsu.lazy.drain_ticks";
inline constexpr const char *DsuLazyFailed = "dsu.lazy.failed_transforms";
/// Gauge: untransformed shells still registered with the live engine
/// (0 once drained; the barrier retires right after).
inline constexpr const char *DsuLazyPending = "dsu.lazy.pending";
// dsu/Quiescence (escalation ladder)
inline constexpr const char *DsuQuiescenceExpiries =
    "dsu.quiescence.expiries";
inline constexpr const char *DsuQuiescenceRescuedFrames =
    "dsu.quiescence.rescued_frames";
inline constexpr const char *DsuQuiescenceForcedYields =
    "dsu.quiescence.forced_yields";
// dsu/Canary (post-commit canary windows)
inline constexpr const char *DsuCanaryWindows = "dsu.canary.windows";
inline constexpr const char *DsuCanaryChecks = "dsu.canary.checks";
inline constexpr const char *DsuCanaryBreaches = "dsu.canary.breaches";
inline constexpr const char *DsuCanaryRetired = "dsu.canary.retired";
/// Gauge: 1 while a canary window is observing or reverting, 0 otherwise.
inline constexpr const char *DsuCanaryOpen = "dsu.canary.open";
// dsu/Revert (health-gated automatic revert)
inline constexpr const char *DsuRevertAttempts = "dsu.revert.attempts";
inline constexpr const char *DsuRevertCompleted = "dsu.revert.completed";
inline constexpr const char *DsuRevertFailed = "dsu.revert.failed";
/// Gauge: new-version instances still on the heap after a revert
/// completed (0 when the revert converged).
inline constexpr const char *DsuRevertResidualNewObjects =
    "dsu.revert.residual_new_objects";
// dsu/CodeVersion (per-method code versioning; see docs/INTERNALS.md §19)
/// Gauges — deliberately not preregistered (like dsu.revert.completed):
/// their presence in a snapshot proves a versioned install ran, which
/// tier1's `metrics-diff.py --require 'dsu.codeversion.*'` gate asserts.
/// Method bodies installed through versioned (pause-free) installs.
inline constexpr const char *DsuCodeVersionInstalls =
    "dsu.codeversion.installs";
/// Active-version switches committed (one per body-set install or
/// revert pop — the epoch value threads poll against).
inline constexpr const char *DsuCodeVersionSwitches =
    "dsu.codeversion.switches";
/// Methods with a live version chain (>= one archived version).
inline constexpr const char *DsuCodeVersionChains = "dsu.codeversion.chains";
/// In-flight frames still executing a superseded body; drains to zero as
/// each finishes on its old version (rejit-generation semantics).
inline constexpr const char *DsuCodeVersionStaleFrames =
    "dsu.codeversion.stale_frames";
// vm/Network (update-time traffic draining)
inline constexpr const char *NetShedTotal = "net.shed_total";
inline constexpr const char *NetDrains = "net.drains";
inline constexpr const char *NetDrainMs = "net.drain_ms";
/// Per-response service latency in virtual ticks (consumed-request to
/// response send). Feeds the windowed stats view.
inline constexpr const char *NetLatencyTicks = "net.latency_ticks";
inline constexpr const char *NetResponses = "net.responses";
// support/TelemetryStream (the trace file; see docs/INTERNALS.md §15)
/// Events emit handed to the trace.
inline constexpr const char *TelemetryEventsStreamed =
    "telemetry.events_streamed";
/// Batches the trace's TraceSink wrote.
inline constexpr const char *TelemetryBlocksFlushed =
    "telemetry.blocks_flushed";
/// Traces opened (openTrace calls that created their file).
inline constexpr const char *TelemetrySessionsOpened =
    "telemetry.sessions_opened";
/// Events the trace's TraceSink lost: the write, flush or close of their
/// batch failed. A trace file holds events_streamed - trace.dropped lines.
inline constexpr const char *TelemetryTraceDropped =
    "telemetry.trace.dropped";
// support/ChaosCampaign (fault-space campaigns; see docs/INTERNALS.md §17)
/// Gauges published by jvolve-chaos: the (site, fire-index) probe points
/// the campaign attempted, and the subset whose armed fault verifiably
/// fired — scripts/metrics-diff.py --require gates on both.
inline constexpr const char *FaultCoverageProbes = "fault.coverage.probes";
inline constexpr const char *FaultCoverageCovered =
    "fault.coverage.covered";

/// Update-phase histogram name: `dsu.update.phase_ms{phase=<Phase>}`.
/// Phases: snapshot, classload, stack_repair, gc, transform, certify,
/// rollback, codeversion, total.
std::string dsuPhaseMs(const std::string &Phase);

/// Fault-firing counter name: `dsu.faults.fired{site=<Site>}`.
std::string faultFired(const std::string &Site);
} // namespace metrics

//===----------------------------------------------------------------------===//
// Instruments
//===----------------------------------------------------------------------===//

class Telemetry;

/// A monotonically increasing counter. Handles stay valid for the process
/// lifetime; recording is one branch when telemetry is disabled.
class TelCounter {
public:
  void add(uint64_t N = 1);
  void inc() { add(1); }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }

private:
  friend class Telemetry;
  TelCounter() = default;
  std::atomic<uint64_t> Value{0};
};

/// A last-value-wins signed gauge.
class TelGauge {
public:
  void set(int64_t V);
  void add(int64_t Delta);
  int64_t value() const { return Value.load(std::memory_order_relaxed); }

private:
  friend class Telemetry;
  TelGauge() = default;
  std::atomic<int64_t> Value{0};
};

/// A histogram: count/sum/min/max plus a bounded, preallocated reservoir
/// of raw samples for percentile computation. record() never allocates.
class TelHistogram {
public:
  void record(double V);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  double sum() const { return Sum; }
  double min() const { return count() ? Min : 0; }
  double max() const { return count() ? Max : 0; }
  double mean() const;
  /// Linear-interpolated percentile (0..100) over the retained samples;
  /// 0 when empty. Exact while fewer than sampleCapacity() values were
  /// recorded, approximate (most recent window) afterwards.
  double percentile(double P) const;

  /// Number of raw samples currently retained (<= sampleCapacity()).
  size_t samplesRetained() const;
  size_t sampleCapacity() const { return Samples.size(); }
  /// Total samples ever recorded (a watermark for samplesSince).
  uint64_t samplesSeen() const { return SamplesSeen; }
  /// Appends the samples recorded after watermark \p Seen (oldest first)
  /// to \p Out and advances \p Seen to the current samplesSeen(). Only the
  /// ring capacity of history exists: when more than sampleCapacity()
  /// samples landed since the watermark, only the most recent
  /// sampleCapacity() are returned. Same thread-affinity caveat as the
  /// reservoir itself (VM thread only).
  void samplesSince(uint64_t &Seen, std::vector<double> &Out) const;

private:
  friend class Telemetry;
  explicit TelHistogram(size_t SampleCap);

  std::atomic<uint64_t> Count{0};
  // Sum/min/max and the reservoir are plain values: the green-thread VM
  // records from a single OS thread. The atomic count above keeps the
  // layout ready for striping if that ever changes.
  double Sum = 0;
  double Min = 0;
  double Max = 0;
  std::vector<double> Samples; ///< preallocated ring of recent samples
  size_t NextSample = 0;
  uint64_t SamplesSeen = 0;
};

//===----------------------------------------------------------------------===//
// Trace sink
//===----------------------------------------------------------------------===//

/// One structured trace event: either a span (a phase with a duration) or
/// a point event (EndTick == StartTick, Ms == 0 allowed). Timestamps are
/// virtual ticks; Ms carries wall-clock duration for spans that elapse
/// inside a stop-the-world pause where virtual time stands still.
struct TraceEvent {
  std::string Name;    ///< e.g. "dsu.update.phase", "dsu.update.event"
  std::string Phase;   ///< label: phase name or event kind
  uint64_t StartTick = 0;
  uint64_t EndTick = 0;
  double Ms = 0;
  int64_t Value = 0;
  std::string Detail;
  /// The green thread the event belongs to: Telemetry::emit stamps the
  /// thread whose quantum is running (0 outside a quantum) unless the
  /// producer set it (a thread's spawn and exit events carry its own id).
  uint64_t Tid = 0;
  /// Position in the stream, stamped by Telemetry::emit: 1, 2, 3, ... in
  /// emission order (0 = not streamed).
  uint64_t Seq = 0;

  /// Renders one JSONL line (no trailing newline).
  std::string jsonLine() const;
  /// Parses a line produced by jsonLine(). \returns false on malformed
  /// input. Unknown keys are ignored; tid/seq are optional (older traces
  /// predate them).
  static bool parseLine(const std::string &Line, TraceEvent &Out);
};

/// Buffered JSONL writer: events accumulate in a fixed-size buffer and go
/// to the file as one batch whenever it fills, on flush(), and on close()
/// (bounded memory, complete file). The Telemetry registry's trace writes
/// through one; see Telemetry::openTrace.
class TraceSink {
public:
  explicit TraceSink(const std::string &Path, size_t BufferEvents = 4096);
  /// Closes the file (see close()).
  ~TraceSink();

  TraceSink(const TraceSink &) = delete;
  TraceSink &operator=(const TraceSink &) = delete;

  bool ok() const { return Out != nullptr; }
  const std::string &path() const { return Path; }

  void emit(TraceEvent E);
  /// Writes every buffered event to the file as one batch and flushes it.
  void flush();
  /// Writes the last batch and closes the file; later events count as
  /// dropped. \returns whether the file got every event handed to the
  /// sink.
  bool close();

  uint64_t eventsEmitted() const { return NumEmitted; }
  /// Events handed to a sink that had no open file, and every event of a
  /// batch whose write, flush or close failed: discarded, but never
  /// silently — the count is also published as `telemetry.trace.dropped`.
  uint64_t eventsDropped() const { return NumDropped; }
  /// Nonempty batches handed to the file.
  uint64_t batchesWritten() const { return NumBatches; }

private:
  /// Writes the buffer's lines; \returns false when a write failed.
  bool writeBuffer();
  /// Ends a batch of \p Events: counted dropped unless \p Ok.
  void endBatch(bool Ok, size_t Events);

  std::string Path;
  std::FILE *Out = nullptr;
  std::vector<TraceEvent> Buffer;
  size_t BufferCap;
  uint64_t NumEmitted = 0;
  uint64_t NumDropped = 0;
  uint64_t NumBatches = 0;
};

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

class WindowAggregator;

/// The process-wide telemetry registry.
class Telemetry {
public:
  /// The singleton. It starts disabled, with no trace open and no
  /// windows configured; only callers switch those on (setEnabled,
  /// openTrace, windows().configure), never the process environment.
  static Telemetry &global();

  /// Global enabled flag; the single branch every record path takes.
  static bool isEnabled() { return Enabled; }
  void setEnabled(bool V) { Enabled = V; }

  /// Finds or creates an instrument. Creation allocates; call once at
  /// subsystem construction and keep the handle. Handles are never
  /// invalidated.
  TelCounter &counter(const std::string &Name);
  TelGauge &gauge(const std::string &Name);
  TelHistogram &histogram(const std::string &Name);

  /// \returns the registered instrument, or nullptr. (Snapshot-free reads
  /// for tests and the stats probe.)
  const TelCounter *findCounter(const std::string &Name) const;
  const TelGauge *findGauge(const std::string &Name) const;
  const TelHistogram *findHistogram(const std::string &Name) const;

  /// Name-sorted enumeration of every registered instrument, for the
  /// window aggregator (VM thread; handles stay valid forever).
  std::vector<std::pair<std::string, TelCounter *>> allCounters();
  std::vector<std::pair<std::string, TelHistogram *>> allHistograms();

  /// Registry sizes — cheap staleness checks so per-window rollers only
  /// re-enumerate (and pay allCounters()'s string copies) when a metric
  /// was actually registered since they last looked.
  size_t numCounters() const { return Counters.size(); }
  size_t numHistograms() const { return Histograms.size(); }

  /// Zeroes every instrument's values and the trace totals; registrations
  /// and an open trace persist.
  void reset();

  //===--- Snapshots --------------------------------------------------------===//

  struct MetricSnapshot {
    enum class Kind { Counter, Gauge, Histogram };
    std::string Name;
    Kind K = Kind::Counter;
    int64_t Value = 0;   ///< counter/gauge value; histogram count
    double Sum = 0;      ///< histogram only
    double Min = 0, Max = 0, Mean = 0;
    double P50 = 0, P95 = 0, P99 = 0;
  };

  /// Deterministic (name-sorted) snapshot of every registered metric.
  struct Snapshot {
    std::vector<MetricSnapshot> Metrics;

    const MetricSnapshot *find(const std::string &Name) const;
    /// One JSON object: {"metrics":[{...},...]} with stable ordering.
    std::string json() const;
    /// Column-aligned table via TablePrinter.
    std::string table() const;
  };

  Snapshot snapshot() const;

  //===--- The trace (support/TelemetryStream.h) ----------------------------===//

  /// Opens the trace, writing JSONL to \p Path; a trace already open is
  /// closed first. seq restarts at 1. \returns false when the file cannot
  /// be created. Also enables telemetry: a trace without metrics is never
  /// what the operator meant.
  bool openTrace(const std::string &Path);
  /// Writes out and closes the trace. \returns false when its file did not
  /// get every event (a write, flush or close failed); true when it did,
  /// or when no trace was open.
  bool closeTrace();
  /// True while a trace is open.
  bool tracing() const { return Trace != nullptr; }

  /// Stamps \p E with its tid and seq and writes it to the trace, on the
  /// calling thread; no-op when no trace is open.
  void emit(TraceEvent E);

  /// Names the green thread whose quantum is running, 0 between quanta:
  /// the tid emit stamps. VM::run sets it around each quantum.
  void setRunningThread(uint64_t Tid) { RunningTid = Tid; }

  /// The windowed event-counter aggregator (jvolve-serve --stats,
  /// jvolve-run --stats-window). VM-thread only.
  WindowAggregator &windows();

private:
  Telemetry();
  ~Telemetry(); // never runs (the singleton is immortal); defined where
                // WindowAggregator is complete so members destruct

  /// Sets the telemetry.* gauges from the trace totals below.
  void publishTraceTotals();

  static bool Enabled;

  // std::map: deterministic iteration order for snapshots.
  std::map<std::string, std::unique_ptr<TelCounter>> Counters;
  std::map<std::string, std::unique_ptr<TelGauge>> Gauges;
  std::map<std::string, std::unique_ptr<TelHistogram>> Histograms;
  std::unique_ptr<WindowAggregator> Windows;

  // The trace, driven from the VM's one OS thread.
  std::unique_ptr<TraceSink> Trace;
  uint64_t RunningTid = 0;
  uint64_t LastSeq = 0;
  // Trace totals (reset() zeroes them with the instruments). A closed
  // trace's sink totals are folded in when it closes.
  uint64_t Streamed = 0;
  uint64_t TracesOpened = 0;
  uint64_t ClosedSinkDropped = 0;
  uint64_t ClosedSinkBatches = 0;
  // Gauge handles, registered by the first openTrace.
  TelGauge *GStreamed = nullptr;
  TelGauge *GBatches = nullptr;
  TelGauge *GTracesOpened = nullptr;
  TelGauge *GTraceDropped = nullptr;
};

inline void TelCounter::add(uint64_t N) {
  if (!Telemetry::isEnabled())
    return;
  Value.fetch_add(N, std::memory_order_relaxed);
}

inline void TelGauge::set(int64_t V) {
  if (!Telemetry::isEnabled())
    return;
  Value.store(V, std::memory_order_relaxed);
}

inline void TelGauge::add(int64_t Delta) {
  if (!Telemetry::isEnabled())
    return;
  Value.fetch_add(Delta, std::memory_order_relaxed);
}

} // namespace jvolve

#endif // JVOLVE_SUPPORT_TELEMETRY_H
