#include "support/TelemetryStream.h"

#include "support/Stats.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <chrono>

using namespace jvolve;

//===----------------------------------------------------------------------===//
// ThreadEventBuffer
//===----------------------------------------------------------------------===//

ThreadEventBuffer::ThreadEventBuffer(uint64_t InTid, std::string InName,
                                     size_t Capacity)
    : Tid(InTid), Name(std::move(InName)),
      Ring(std::max<size_t>(Capacity, 2)) {}

void ThreadEventBuffer::recycle(uint64_t NewTid, std::string NewName) {
  Tid = NewTid;
  Name = std::move(NewName);
  Head.store(0, std::memory_order_relaxed);
  Tail.store(0, std::memory_order_relaxed);
  Seq.store(0, std::memory_order_relaxed);
  Dropped.store(0, std::memory_order_relaxed);
  Retired.store(false, std::memory_order_relaxed);
  DroppedReported = 0;
}

bool ThreadEventBuffer::tryWrite(TraceEvent E) {
  // Every attempt consumes a sequence number — a dropped event is a gap
  // in the output, never a silent renumbering.
  uint64_t S = Seq.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t H = Head.load(std::memory_order_relaxed);
  uint64_t T = Tail.load(std::memory_order_acquire);
  if (H - T >= Ring.size()) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  E.Tid = Tid;
  E.Seq = S;
  Ring[H % Ring.size()] = std::move(E);
  Head.store(H + 1, std::memory_order_release);
  return true;
}

size_t ThreadEventBuffer::drainInto(std::vector<TraceEvent> &Out,
                                    size_t Max) {
  uint64_t T = Tail.load(std::memory_order_relaxed);
  uint64_t H = Head.load(std::memory_order_acquire);
  size_t N = 0;
  while (T < H && N < Max) {
    Out.push_back(std::move(Ring[T % Ring.size()]));
    ++T;
    ++N;
  }
  if (N)
    Tail.store(T, std::memory_order_release);
  return N;
}

//===----------------------------------------------------------------------===//
// TelemetrySession
//===----------------------------------------------------------------------===//

TelemetrySession::TelemetrySession(TelemetrySessionConfig InCfg)
    : Cfg(std::move(InCfg)) {
  if (!Cfg.Path.empty())
    Sink = std::make_unique<TraceSink>(Cfg.Path);
  if (Cfg.BufferBudgetEvents == 0)
    Cfg.BufferBudgetEvents = 1;
}

TelemetrySession::~TelemetrySession() { flush(); }

bool TelemetrySession::passes(const TraceEvent &E) const {
  if (Cfg.Prefixes.empty())
    return true;
  for (const std::string &P : Cfg.Prefixes)
    if (E.Name.compare(0, P.size(), P) == 0)
      return true;
  return false;
}

void TelemetrySession::append(const TraceEvent &E) {
  if (Sink) {
    Sink->emit(E);
    ++NumWritten;
    return;
  }
  std::lock_guard<std::mutex> L(BufMu);
  if (Buffered.size() >= Cfg.BufferBudgetEvents) {
    Buffered.pop_front(); // budget: oldest out, and counted
    ++NumEvicted;
  }
  Buffered.push_back(E);
  ++NumWritten;
}

void TelemetrySession::acceptBlock(const EventBlock &B) {
  if (B.DroppedDelta > 0) {
    // The loss is part of the stream: a gap record ahead of the block,
    // never subject to the session filter.
    NumGapDrops += B.DroppedDelta;
    TraceEvent Gap;
    Gap.Name = "telemetry.block";
    Gap.Phase = "gap";
    Gap.Tid = B.Tid;
    Gap.Value = static_cast<int64_t>(B.DroppedDelta);
    Gap.Detail = B.ThreadName + ": dropped " +
                 std::to_string(B.DroppedDelta) + " events before seq " +
                 std::to_string(B.FirstSeq);
    append(Gap);
  }
  for (const TraceEvent &E : B.Events) {
    if (passes(E))
      append(E);
    else
      ++NumFiltered;
  }
}

void TelemetrySession::flush() {
  if (Sink)
    Sink->flush();
}

std::vector<TraceEvent> TelemetrySession::drainBuffered() {
  std::lock_guard<std::mutex> L(BufMu);
  std::vector<TraceEvent> Out(Buffered.begin(), Buffered.end());
  Buffered.clear();
  return Out;
}

//===----------------------------------------------------------------------===//
// TelemetryStreamer
//===----------------------------------------------------------------------===//

namespace {
/// The OS thread's own buffer, registered on first emit and retired when
/// the thread exits (the destructor runs at thread teardown; the writer
/// frees the buffer after its final drain).
struct NativeBufferTls {
  ThreadEventBuffer *Buf = nullptr;
  ~NativeBufferTls() {
    if (Buf) {
      Buf->markRetired();
      Buf = nullptr;
    }
  }
};
thread_local NativeBufferTls NativeTls;

/// The green-thread buffer events from this OS thread are attributed to
/// while the VM interpreter runs a quantum (VM::run brackets quanta with
/// setCurrentBuffer). Null outside a quantum — safe-point callbacks and
/// tool code fall back to the OS-thread buffer.
thread_local ThreadEventBuffer *CurrentGreenBuffer = nullptr;

/// Flushes every open session at process exit — the immortal registry
/// never destructs, so without this a short-lived run would lose the tail
/// of its trace (the pre-streaming TraceSink had exactly that bug).
void flushStreamerAtExit() {
  Telemetry &T = Telemetry::global();
  if (T.hasStreamer())
    T.streamer().flushAll();
}
} // namespace

TelemetryStreamer::TelemetryStreamer(Telemetry &Owner)
    : GDropped(&Owner.gauge(metrics::TelemetryDroppedTotal)),
      GAttempted(&Owner.gauge(metrics::TelemetryEventsAttempted)),
      GStreamed(&Owner.gauge(metrics::TelemetryEventsStreamed)),
      GBlocks(&Owner.gauge(metrics::TelemetryBlocksFlushed)),
      GSessions(&Owner.gauge(metrics::TelemetrySessionsOpened)),
      GTraceDropped(&Owner.gauge(metrics::TelemetryTraceDropped)) {
  std::atexit(&flushStreamerAtExit);
}

TelemetryStreamer::~TelemetryStreamer() {
  // Only reachable if the owning registry is ever torn down (it is not in
  // practice); stop the writer cleanly anyway.
  {
    std::lock_guard<std::mutex> L(Mu);
    if (!WriterRunning)
      return;
    StopRequested = true;
  }
  Cv.notify_all();
  Writer.join();
}

void TelemetryStreamer::setCurrentBuffer(ThreadEventBuffer *Buf) {
  CurrentGreenBuffer = Buf;
}

void TelemetryStreamer::setThreadBufferCapacity(size_t Events) {
  std::lock_guard<std::mutex> L(Mu);
  BufferCapacity = std::max<size_t>(Events, 2);
}

size_t TelemetryStreamer::threadBufferCapacity() const {
  std::lock_guard<std::mutex> L(Mu);
  return BufferCapacity;
}

ThreadEventBuffer *
TelemetryStreamer::takeBufferLocked(uint64_t Tid, std::string Name) {
  // Reuse a pooled ring at the current capacity; ring construction (a
  // vector of default TraceEvents) dominates the cost of a fresh buffer.
  for (size_t I = 0; I < FreePool.size(); ++I) {
    if (FreePool[I]->capacity() != BufferCapacity)
      continue;
    std::unique_ptr<ThreadEventBuffer> B = std::move(FreePool[I]);
    FreePool.erase(FreePool.begin() + static_cast<ptrdiff_t>(I));
    B->recycle(Tid, std::move(Name));
    Buffers.push_back(std::move(B));
    return Buffers.back().get();
  }
  Buffers.push_back(std::make_unique<ThreadEventBuffer>(
      Tid, std::move(Name), BufferCapacity));
  return Buffers.back().get();
}

ThreadEventBuffer *
TelemetryStreamer::acquireThreadBuffer(uint64_t Tid,
                                       const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  return takeBufferLocked(
      Tid, Name.empty() ? ("thread-" + std::to_string(Tid)) : Name);
}

void TelemetryStreamer::retireThreadBuffer(ThreadEventBuffer *Buf) {
  if (!Buf)
    return;
  Buf->markRetired();
  kick(); // let the writer run the final drain promptly
}

ThreadEventBuffer *TelemetryStreamer::nativeThreadBufferLocked() {
  // Bit 63 keeps OS-thread ids out of the green-thread id space.
  uint64_t Tid = (1ull << 63) | NextNativeTid++;
  return takeBufferLocked(
      Tid, "native-" + std::to_string(Tid & ~(1ull << 63)));
}

void TelemetryStreamer::write(TraceEvent E) {
  if (!active())
    return;
  ThreadEventBuffer *B = CurrentGreenBuffer;
  if (!B) {
    B = NativeTls.Buf;
    if (!B) {
      std::lock_guard<std::mutex> L(Mu);
      B = nativeThreadBufferLocked();
      NativeTls.Buf = B;
    }
  }
  B->tryWrite(std::move(E));
}

std::shared_ptr<TelemetrySession>
TelemetryStreamer::openSession(TelemetrySessionConfig Cfg) {
  auto S = std::make_shared<TelemetrySession>(std::move(Cfg));
  if (!S->ok())
    return nullptr;
  std::lock_guard<std::mutex> L(Mu);
  Sessions.push_back(S);
  ++NumOpened;
  NumSessions.store(Sessions.size(), std::memory_order_release);
  if (!WriterRunning) {
    StopRequested = false;
    Writer = std::thread([this] { writerLoop(); });
    WriterRunning = true;
  }
  return S;
}

void TelemetryStreamer::closeSession(
    const std::shared_ptr<TelemetrySession> &S) {
  std::unique_lock<std::mutex> L(Mu);
  auto It = std::find(Sessions.begin(), Sessions.end(), S);
  if (It == Sessions.end())
    return;
  // Final drain while the session is still attached, so it sees every
  // event emitted before this call; then it leaves with a complete file.
  drainPassLocked();
  S->flush();
  TraceDroppedRetired += S->sinkEventsDropped();
  Sessions.erase(std::find(Sessions.begin(), Sessions.end(), S));
  NumSessions.store(Sessions.size(), std::memory_order_release);
  publishMetricsLocked();
  if (Sessions.empty() && WriterRunning) {
    StopRequested = true;
    Cv.notify_all();
    L.unlock();
    Writer.join();
    L.lock();
    WriterRunning = false;
    StopRequested = false;
  }
}

void TelemetryStreamer::kick() {
  // Only the false->true edge notifies: a kick storm (every safe point
  // under a tight yield loop) costs one futex wake per writer pass, not
  // one per kick.
  if (!KickPending.exchange(true, std::memory_order_relaxed))
    Cv.notify_one();
}

void TelemetryStreamer::writerLoop() {
  // Adaptive pacing: drain every MinPeriod while events flow (the latency
  // bound), back off toward MaxPeriod across empty passes. Each timed
  // wakeup costs real CPU the observed VM is paying for — on a loaded
  // single-core host a tight period taxes the workload measurably — and
  // nothing needs millisecond drain latency: durability points
  // (closeSession, flushAll, atexit) drain synchronously regardless.
  constexpr int MinPeriodMs = 20;
  constexpr int MaxPeriodMs = 100;
  int PeriodMs = MinPeriodMs;
  std::unique_lock<std::mutex> L(Mu);
  while (!StopRequested) {
    // Periodic pass (bounded event latency) plus kicks from safe points
    // and retirements. A missed notify costs at most one period.
    Cv.wait_for(L, std::chrono::milliseconds(PeriodMs), [&] {
      return StopRequested || KickPending.load(std::memory_order_relaxed);
    });
    if (StopRequested)
      break;
    bool Kicked = KickPending.exchange(false, std::memory_order_relaxed);
    uint64_t Before = Streamed.load(std::memory_order_relaxed);
    drainPassLocked(/*Forced=*/false);
    publishMetricsLocked();
    bool Drained = Streamed.load(std::memory_order_relaxed) != Before;
    PeriodMs = Drained || Kicked ? MinPeriodMs
                                 : std::min(PeriodMs * 2, MaxPeriodMs);
  }
  // Final pass: events emitted between the stop request and here still
  // reach the sessions being closed.
  drainPassLocked();
  publishMetricsLocked();
}

void TelemetryStreamer::drainPassLocked(bool Forced) {
  if (Forced) {
    // Durability point: whatever stall was injected is over — the caller
    // needs every event on disk (or counted dropped) before returning.
    StallPasses.store(0, std::memory_order_relaxed);
  } else if (StallPasses.load(std::memory_order_relaxed) > 0) {
    StallPasses.fetch_sub(1, std::memory_order_relaxed);
    StallsTaken.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::vector<TraceEvent> Scratch;
  for (size_t I = 0; I < Buffers.size();) {
    ThreadEventBuffer *B = Buffers[I].get();
    if (!Sessions.empty()) {
      Scratch.clear();
      B->drainInto(Scratch, static_cast<size_t>(-1));
      uint64_t Drops = B->dropped();
      uint64_t DropDelta = Drops - B->DroppedReported;
      if (!Scratch.empty() || DropDelta > 0) {
        EventBlock Blk;
        Blk.Tid = B->tid();
        Blk.ThreadName = B->name();
        Blk.DroppedDelta = DropDelta;
        if (!Scratch.empty()) {
          Blk.FirstSeq = Scratch.front().Seq;
          Blk.LastSeq = Scratch.back().Seq;
        }
        Blk.Events = std::move(Scratch);
        Scratch.clear();
        B->DroppedReported = Drops;
        Streamed.fetch_add(Blk.Events.size(), std::memory_order_relaxed);
        Blocks.fetch_add(1, std::memory_order_relaxed);
        for (auto &S : Sessions)
          S->acceptBlock(Blk);
      }
    }
    // Free a retired buffer only once fully drained and with all of its
    // drops surfaced — its totals move to the retired accumulators so
    // attempted == streamed + dropped survives the thread.
    if (B->retired() && B->empty() &&
        B->dropped() == B->DroppedReported) {
      RetiredAttempted.fetch_add(B->attempted(), std::memory_order_relaxed);
      RetiredDropped.fetch_add(B->dropped(), std::memory_order_relaxed);
      // Keep a few drained rings for the next thread spawn; the pool cap
      // bounds idle memory at capacity * kFreePoolMax events.
      constexpr size_t kFreePoolMax = 8;
      if (FreePool.size() < kFreePoolMax)
        FreePool.push_back(std::move(Buffers[I]));
      Buffers.erase(Buffers.begin() + static_cast<ptrdiff_t>(I));
      continue;
    }
    ++I;
  }
}

void TelemetryStreamer::flushAll() {
  std::lock_guard<std::mutex> L(Mu);
  drainPassLocked();
  for (auto &S : Sessions)
    S->flush();
  publishMetricsLocked();
}

uint64_t TelemetryStreamer::attemptedTotalLocked() const {
  uint64_t N = RetiredAttempted.load(std::memory_order_relaxed);
  for (const auto &B : Buffers)
    N += B->attempted();
  return N;
}

uint64_t TelemetryStreamer::droppedTotalLocked() const {
  uint64_t N = RetiredDropped.load(std::memory_order_relaxed);
  for (const auto &B : Buffers)
    N += B->dropped();
  return N;
}

uint64_t TelemetryStreamer::attemptedTotal() const {
  std::lock_guard<std::mutex> L(Mu);
  return attemptedTotalLocked();
}

uint64_t TelemetryStreamer::droppedTotal() const {
  std::lock_guard<std::mutex> L(Mu);
  return droppedTotalLocked();
}

void TelemetryStreamer::publishMetricsLocked() {
  GDropped->set(static_cast<int64_t>(droppedTotalLocked()));
  GAttempted->set(static_cast<int64_t>(attemptedTotalLocked()));
  GStreamed->set(
      static_cast<int64_t>(Streamed.load(std::memory_order_relaxed)));
  GBlocks->set(
      static_cast<int64_t>(Blocks.load(std::memory_order_relaxed)));
  GSessions->set(static_cast<int64_t>(NumOpened));
  uint64_t SinkDrops = TraceDroppedRetired;
  for (const auto &S : Sessions)
    SinkDrops += S->sinkEventsDropped();
  GTraceDropped->set(static_cast<int64_t>(SinkDrops));
}

void TelemetryStreamer::publishMetrics() {
  std::lock_guard<std::mutex> L(Mu);
  publishMetricsLocked();
}

//===----------------------------------------------------------------------===//
// WindowAggregator
//===----------------------------------------------------------------------===//

void WindowAggregator::configure(uint64_t InWindowTicks,
                                 size_t InKeepWindows) {
  WindowTicks = InWindowTicks;
  KeepWindows = std::max<size_t>(InKeepWindows, 1);
  LastRoll = 0;
  NextRoll = InWindowTicks;
  LastSpan = InWindowTicks ? InWindowTicks : 1;
  Rolled = 0;
  Counters.clear();
  Hists.clear();
  CounterBind.clear();
  HistBind.clear();
  BoundCounters = BoundHists = 0;
}

void WindowAggregator::rebind(Telemetry &Tel) {
  CounterBind.clear();
  for (auto &[Name, C] : Tel.allCounters())
    CounterBind.emplace_back(C, &Counters[Name]);
  HistBind.clear();
  for (auto &[Name, H] : Tel.allHistograms())
    HistBind.emplace_back(H, &Hists[Name]);
  BoundCounters = Tel.numCounters();
  BoundHists = Tel.numHistograms();
}

void WindowAggregator::roll(uint64_t Now) {
  uint64_t Span = Now > LastRoll ? Now - LastRoll : 1;
  LastSpan = Span;
  Telemetry &Tel = Telemetry::global();
  // Metrics only ever register (handles are immortal), so the name-keyed
  // enumeration runs once per registry growth, not once per window.
  if (Tel.numCounters() != BoundCounters ||
      Tel.numHistograms() != BoundHists)
    rebind(Tel);
  for (auto &[C, PC] : CounterBind) {
    uint64_t V = C->value();
    // Telemetry::reset() moves values backwards; re-anchor instead of
    // recording a bogus giant delta.
    uint64_t Delta = V >= PC->PrevValue ? V - PC->PrevValue : 0;
    PC->PrevValue = V;
    PC->Deltas.push_back(Delta);
    while (PC->Deltas.size() > KeepWindows)
      PC->Deltas.pop_front();
  }
  for (auto &[H, PH] : HistBind) {
    Scratch.clear();
    H->samplesSince(PH->PrevSeen, Scratch);
    HistSeries S;
    S.LastCount = Scratch.size();
    S.LastRatePerKtick =
        1000.0 * static_cast<double>(Scratch.size()) /
        static_cast<double>(Span);
    if (!Scratch.empty()) {
      double Sum = 0;
      for (double V : Scratch)
        Sum += V;
      S.Mean = Sum / static_cast<double>(Scratch.size());
      std::sort(Scratch.begin(), Scratch.end());
      S.Max = Scratch.back();
      S.P50 = percentileOfSorted(Scratch, 50);
      S.P99 = percentileOfSorted(Scratch, 99);
    }
    S.Windows = PH->Last.Windows + 1;
    PH->Last = S;
  }
  ++Rolled;
  LastRoll = Now;
  NextRoll = Now + (WindowTicks ? WindowTicks : 1);
}

bool WindowAggregator::counterSeries(const std::string &Name,
                                     CounterSeries &Out) const {
  auto It = Counters.find(Name);
  if (It == Counters.end() || It->second.Deltas.empty())
    return false;
  const std::deque<uint64_t> &D = It->second.Deltas;
  Out.LastDelta = D.back();
  Out.LastRatePerKtick = 1000.0 * static_cast<double>(D.back()) /
                         static_cast<double>(LastSpan);
  Out.MinDelta = *std::min_element(D.begin(), D.end());
  Out.MaxDelta = *std::max_element(D.begin(), D.end());
  uint64_t Sum = 0;
  for (uint64_t V : D)
    Sum += V;
  Out.MeanDelta = static_cast<double>(Sum) / static_cast<double>(D.size());
  Out.Windows = D.size();
  return true;
}

bool WindowAggregator::histSeries(const std::string &Name,
                                  HistSeries &Out) const {
  auto It = Hists.find(Name);
  if (It == Hists.end() || It->second.Last.Windows == 0)
    return false;
  Out = It->second.Last;
  return true;
}

std::string WindowAggregator::table() const {
  TablePrinter TP;
  TP.setHeader({"metric", "last", "rate/ktick", "mean", "p50", "p99",
                "max", "windows"});
  for (const auto &[Name, PC] : Counters) {
    if (PC.Deltas.empty())
      continue;
    CounterSeries S;
    if (!counterSeries(Name, S) || (S.MaxDelta == 0 && PC.PrevValue == 0))
      continue; // a metric that never moved is noise in a live view
    TP.addRow({Name, std::to_string(S.LastDelta),
               TablePrinter::fmt(S.LastRatePerKtick, 3),
               TablePrinter::fmt(S.MeanDelta, 3), "", "",
               std::to_string(S.MaxDelta), std::to_string(S.Windows)});
  }
  for (const auto &[Name, PH] : Hists) {
    const HistSeries &S = PH.Last;
    if (S.Windows == 0 || (S.LastCount == 0 && PH.PrevSeen == 0))
      continue;
    TP.addRow({Name, std::to_string(S.LastCount),
               TablePrinter::fmt(S.LastRatePerKtick, 3),
               TablePrinter::fmt(S.Mean, 3), TablePrinter::fmt(S.P50, 3),
               TablePrinter::fmt(S.P99, 3), TablePrinter::fmt(S.Max, 3),
               std::to_string(S.Windows)});
  }
  return TP.render();
}
