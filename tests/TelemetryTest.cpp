//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the VM-wide telemetry layer: counter/gauge/histogram
/// semantics, snapshot determinism, the disabled-mode guarantee, and the
/// JSONL trace sink.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "support/Telemetry.h"
#include "support/TelemetryStream.h"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>

using namespace jvolve;

namespace {

/// The shared test main runs every case plain and as
/// `<name>.Instrumented` (tests/TestMain.cpp). The instrumented instance
/// starts with telemetry on, a trace session open and 2,000-tick windows;
/// the plain one with all three off, as the library itself starts. (First
/// in the binary, so no other case has touched the registry yet.)
TEST(TestHarness, InstrumentedInstanceStartsWithTelemetryStreaming) {
  Telemetry &Tel = Telemetry::global();
  bool On = test::instrumentedRun();
  EXPECT_EQ(Telemetry::isEnabled(), On);
  EXPECT_EQ(Tel.tracing(), On);
  EXPECT_EQ(Tel.windows().windowTicks(), On ? 2'000u : 0u);
}

/// Every test runs against the process-global registry, so each one
/// starts from zeroed instruments and leaves telemetry disabled (the
/// process default) for whatever test binary runs next.
class TelemetryTest : public ::testing::Test {
protected:
  void SetUp() override {
    Telemetry::global().reset();
    Telemetry::global().setEnabled(true);
  }
  void TearDown() override {
    Telemetry::global().closeTrace();
    Telemetry::global().setEnabled(false);
    Telemetry::global().reset();
  }
};

TEST_F(TelemetryTest, CounterAccumulates) {
  TelCounter &C = Telemetry::global().counter("test.counter");
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
}

TEST_F(TelemetryTest, GaugeLastValueWinsAndDeltas) {
  TelGauge &G = Telemetry::global().gauge("test.gauge");
  G.set(7);
  EXPECT_EQ(G.value(), 7);
  G.set(-3);
  EXPECT_EQ(G.value(), -3);
  G.add(10);
  EXPECT_EQ(G.value(), 7);
}

TEST_F(TelemetryTest, HandleIdentityIsStable) {
  TelCounter &A = Telemetry::global().counter("test.same");
  TelCounter &B = Telemetry::global().counter("test.same");
  EXPECT_EQ(&A, &B);
}

TEST_F(TelemetryTest, HistogramStatsAndBuckets) {
  TelHistogram &H =
      Telemetry::global().histogram("test.hist", {1.0, 10.0, 100.0});
  EXPECT_EQ(H.numBuckets(), 4u); // 3 bounds + overflow
  for (double V : {0.5, 5.0, 50.0, 500.0, 5.0})
    H.record(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_DOUBLE_EQ(H.sum(), 560.5);
  EXPECT_DOUBLE_EQ(H.min(), 0.5);
  EXPECT_DOUBLE_EQ(H.max(), 500.0);
  EXPECT_DOUBLE_EQ(H.mean(), 112.1);
  EXPECT_EQ(H.bucketCount(0), 1u); // <= 1
  EXPECT_EQ(H.bucketCount(1), 2u); // <= 10
  EXPECT_EQ(H.bucketCount(2), 1u); // <= 100
  EXPECT_EQ(H.bucketCount(3), 1u); // overflow
  EXPECT_DOUBLE_EQ(H.percentile(0), 0.5);
  EXPECT_DOUBLE_EQ(H.percentile(100), 500.0);
  EXPECT_DOUBLE_EQ(H.percentile(50), 5.0);
}

TEST_F(TelemetryTest, HistogramBoundaryValueGoesToUpperBucket) {
  // Bucket i covers [bound_{i-1}, bound_i): a value exactly on a bound
  // belongs to the bucket that starts there.
  TelHistogram &H = Telemetry::global().histogram("test.bound", {1.0, 10.0});
  H.record(0.99);
  H.record(1.0);
  H.record(10.0);
  EXPECT_EQ(H.bucketCount(0), 1u); // < 1
  EXPECT_EQ(H.bucketCount(1), 1u); // [1, 10)
  EXPECT_EQ(H.bucketCount(2), 1u); // >= 10
}

TEST_F(TelemetryTest, HistogramRecordNeverAllocates) {
  TelHistogram &H = Telemetry::global().histogram("test.ring", {1.0});
  size_t Cap = H.sampleCapacity();
  ASSERT_GT(Cap, 0u);
  // Overfill the reservoir: retained count saturates at the preallocated
  // capacity while count() keeps rising — record() wrote into the ring
  // rather than growing anything.
  for (size_t I = 0; I < Cap + 100; ++I)
    H.record(static_cast<double>(I));
  EXPECT_EQ(H.count(), Cap + 100);
  EXPECT_EQ(H.samplesRetained(), Cap);
  EXPECT_EQ(H.sampleCapacity(), Cap);
}

TEST_F(TelemetryTest, DisabledModeRecordsNothing) {
  TelCounter &C = Telemetry::global().counter("test.disabled.counter");
  TelGauge &G = Telemetry::global().gauge("test.disabled.gauge");
  TelHistogram &H = Telemetry::global().histogram("test.disabled.hist");
  Telemetry::global().setEnabled(false);
  C.add(5);
  G.set(5);
  H.record(5);
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(G.value(), 0);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.samplesRetained(), 0u);
}

TEST_F(TelemetryTest, ResetZeroesValuesButKeepsRegistrations) {
  Telemetry &Tel = Telemetry::global();
  Tel.counter("test.reset.c").add(3);
  Tel.histogram("test.reset.h").record(1.5);
  Tel.reset();
  ASSERT_NE(Tel.findCounter("test.reset.c"), nullptr);
  ASSERT_NE(Tel.findHistogram("test.reset.h"), nullptr);
  EXPECT_EQ(Tel.findCounter("test.reset.c")->value(), 0u);
  EXPECT_EQ(Tel.findHistogram("test.reset.h")->count(), 0u);
}

TEST_F(TelemetryTest, SnapshotIsDeterministic) {
  Telemetry &Tel = Telemetry::global();
  // Register in non-sorted order; snapshots must still agree byte-for-byte.
  Tel.counter("test.z").add(1);
  Tel.counter("test.a").add(2);
  Tel.gauge("test.m").set(-4);
  Tel.histogram("test.h").record(2.5);
  std::string A = Tel.snapshot().json();
  std::string B = Tel.snapshot().json();
  EXPECT_EQ(A, B);

  Telemetry::Snapshot S = Tel.snapshot();
  ASSERT_GE(S.Metrics.size(), 4u);
  for (size_t I = 1; I < S.Metrics.size(); ++I)
    EXPECT_LT(S.Metrics[I - 1].Name, S.Metrics[I].Name);
  const Telemetry::MetricSnapshot *M = S.find("test.m");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Value, -4);
  EXPECT_EQ(S.find("test.no-such-metric"), nullptr);
}

TEST_F(TelemetryTest, SnapshotTableRendersEveryMetric) {
  Telemetry &Tel = Telemetry::global();
  Tel.counter("test.table.c").add(9);
  Tel.histogram("test.table.h").record(3.0);
  std::string Table = Tel.snapshot().table();
  EXPECT_NE(Table.find("test.table.c"), std::string::npos);
  EXPECT_NE(Table.find("test.table.h"), std::string::npos);
}

TEST_F(TelemetryTest, TraceEventJsonRoundTrip) {
  TraceEvent E;
  E.Name = "dsu.update.phase";
  E.Phase = "gc";
  E.StartTick = 12345;
  E.EndTick = 12345;
  E.Ms = 1.25;
  E.Value = -7;
  E.Detail = "quotes \" backslash \\ newline \n tab \t done";
  TraceEvent Back;
  ASSERT_TRUE(TraceEvent::parseLine(E.jsonLine(), Back));
  EXPECT_EQ(Back.Name, E.Name);
  EXPECT_EQ(Back.Phase, E.Phase);
  EXPECT_EQ(Back.StartTick, E.StartTick);
  EXPECT_EQ(Back.EndTick, E.EndTick);
  EXPECT_DOUBLE_EQ(Back.Ms, E.Ms);
  EXPECT_EQ(Back.Value, E.Value);
  EXPECT_EQ(Back.Detail, E.Detail);
}

TEST_F(TelemetryTest, ParseLineRejectsMalformedInput) {
  TraceEvent Out;
  EXPECT_FALSE(TraceEvent::parseLine("", Out));
  EXPECT_FALSE(TraceEvent::parseLine("not json", Out));
  EXPECT_FALSE(TraceEvent::parseLine("{\"name\":\"x\"}", Out));
}

TEST_F(TelemetryTest, TraceSinkWritesCompleteFile) {
  std::string Path = ::testing::TempDir() + "telemetry_sink_test.jsonl";
  {
    // A buffer far smaller than the event count forces mid-stream flushes;
    // the file must still hold every event in order.
    TraceSink Sink(Path, 4);
    ASSERT_TRUE(Sink.ok());
    for (int I = 0; I < 10; ++I) {
      TraceEvent E;
      E.Name = "test.event";
      E.Phase = "p" + std::to_string(I);
      E.Value = I;
      Sink.emit(std::move(E));
    }
    EXPECT_EQ(Sink.eventsEmitted(), 10u);
  } // destructor flushes the tail

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Line;
  int N = 0;
  while (std::getline(In, Line)) {
    TraceEvent E;
    ASSERT_TRUE(TraceEvent::parseLine(Line, E)) << Line;
    EXPECT_EQ(E.Value, N);
    ++N;
  }
  EXPECT_EQ(N, 10);
  std::remove(Path.c_str());
}

TEST_F(TelemetryTest, OpenTraceEnablesTelemetryAndEmits) {
  Telemetry &Tel = Telemetry::global();
  Tel.setEnabled(false);
  std::string Path = ::testing::TempDir() + "telemetry_open_test.jsonl";
  ASSERT_TRUE(Tel.openTrace(Path));
  EXPECT_TRUE(Telemetry::isEnabled());
  EXPECT_TRUE(Tel.tracing());
  TraceEvent E;
  E.Name = "test.open";
  Tel.emit(std::move(E));
  Tel.closeTrace();
  EXPECT_FALSE(Tel.tracing());

  std::ifstream In(Path);
  std::string Line;
  ASSERT_TRUE(std::getline(In, Line));
  TraceEvent Back;
  ASSERT_TRUE(TraceEvent::parseLine(Line, Back));
  EXPECT_EQ(Back.Name, "test.open");
  std::remove(Path.c_str());
}

TEST_F(TelemetryTest, DsuMetricNameBuilders) {
  EXPECT_EQ(metrics::dsuPhaseMs("gc"), "dsu.update.phase_ms{phase=gc}");
  EXPECT_EQ(std::string(metrics::DsuTotalPauseMs), metrics::dsuPhaseMs("total"));
  EXPECT_EQ(metrics::faultFired("class-load"),
            "dsu.faults.fired{site=class-load}");
}

//===----------------------------------------------------------------------===//
// Streaming pipeline (support/TelemetryStream.h)
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, TraceSinkCountsUnwritableEventsAsDropped) {
  // A sink that never opened its file discards events — but the loss is
  // ledgered, never silent.
  TraceSink Sink("/nonexistent-dir-for-telemetry-test/out.jsonl");
  EXPECT_FALSE(Sink.ok());
  TraceEvent E;
  E.Name = "test.lost";
  Sink.emit(std::move(E));
  EXPECT_EQ(Sink.eventsEmitted(), 0u);
  EXPECT_EQ(Sink.eventsDropped(), 1u);
}

TEST_F(TelemetryTest, TraceSinkCountsFailedWritesAsDropped) {
  // /dev/full accepts the open and fails every write: each failed batch
  // is lost as a whole and counted, and closing reports the loss.
  if (std::FILE *F = std::fopen("/dev/full", "w"))
    std::fclose(F);
  else
    GTEST_SKIP() << "/dev/full is not available";
  auto Event = [](int I) {
    TraceEvent E;
    E.Name = "test.full";
    E.Value = I;
    return E;
  };
  {
    TraceSink Sink("/dev/full", 4);
    ASSERT_TRUE(Sink.ok());
    for (int I = 0; I < 10; ++I)
      Sink.emit(Event(I)); // two failed flushes, two events left for close
    EXPECT_EQ(Sink.eventsDropped(), 8u);
    EXPECT_FALSE(Sink.close());
    EXPECT_EQ(Sink.eventsDropped(), 10u);
    EXPECT_EQ(Sink.batchesWritten(), 3u);
  }

  // Through the registry: closeTrace reports the loss and the ledger
  // publishes it.
  Telemetry &Tel = Telemetry::global();
  ASSERT_TRUE(Tel.openTrace("/dev/full"));
  for (int I = 0; I < 5; ++I)
    Tel.emit(Event(I));
  EXPECT_FALSE(Tel.closeTrace());
  const TelGauge *Dropped = Tel.findGauge(metrics::TelemetryTraceDropped);
  ASSERT_NE(Dropped, nullptr);
  EXPECT_EQ(Dropped->value(), 5);
  EXPECT_EQ(Tel.findGauge(metrics::TelemetryEventsStreamed)->value(), 5);
}

TEST_F(TelemetryTest, LedgerBalancedWhileTraceOpen) {
  // The ledger moves when emit hands an event over, so it balances
  // whenever it is read — here with the session still open.
  Telemetry &Tel = Telemetry::global();
  std::string Path = ::testing::TempDir() + "telemetry_ledger_test.jsonl";
  ASSERT_TRUE(Tel.openTrace(Path));
  constexpr int N = 25;
  for (int I = 0; I < N; ++I) {
    TraceEvent E;
    E.Name = "test.ledger";
    E.Value = I;
    Tel.emit(std::move(E));
  }
  Telemetry::Snapshot S = Tel.snapshot();
  auto Value = [&S](const char *Name) -> int64_t {
    const Telemetry::MetricSnapshot *M = S.find(Name);
    return M ? M->Value : -1;
  };
  EXPECT_EQ(Value(metrics::TelemetryEventsAttempted), N);
  EXPECT_EQ(Value(metrics::TelemetryEventsStreamed), N);
  EXPECT_EQ(Value(metrics::TelemetryDroppedTotal), 0);
  EXPECT_EQ(Value(metrics::TelemetrySessionsOpened), 1);
  EXPECT_TRUE(Tel.closeTrace());
  std::remove(Path.c_str());
}

TEST_F(TelemetryTest, StreamSessionFiltersByPrefix) {
  // An in-memory session receives every emitted event, stamped in order.
  Telemetry &Tel = Telemetry::global();
  auto S = Tel.openSession();
  ASSERT_TRUE(S);
  for (const char *Name : {"keepme.event", "other.event"}) {
    TraceEvent E;
    E.Name = Name;
    Tel.emit(std::move(E));
  }
  std::vector<TraceEvent> Got = S->drainBuffered();
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0].Name, "keepme.event");
  EXPECT_EQ(Got[1].Name, "other.event");
  EXPECT_EQ(Got[1].Seq, Got[0].Seq + 1);
  EXPECT_TRUE(Tel.closeSession(S));
}

TEST_F(TelemetryTest, WindowAggregatorRatesAndPercentiles) {
  Telemetry &Tel = Telemetry::global();
  WindowAggregator &W = Tel.windows();
  W.configure(100, 4);
  TelCounter &C = Tel.counter("wintest.counter");
  TelHistogram &H = Tel.histogram("wintest.hist");
  C.add(5);
  for (int I = 1; I <= 100; ++I)
    H.record(static_cast<double>(I));
  W.roll(100);

  WindowAggregator::CounterSeries CS;
  ASSERT_TRUE(W.counterSeries("wintest.counter", CS));
  EXPECT_EQ(CS.LastDelta, 5u);
  EXPECT_DOUBLE_EQ(CS.LastRatePerKtick, 50.0); // 5 per 100 ticks
  EXPECT_EQ(CS.Windows, 1u);

  WindowAggregator::HistSeries HS;
  ASSERT_TRUE(W.histSeries("wintest.hist", HS));
  EXPECT_EQ(HS.LastCount, 100u);
  EXPECT_DOUBLE_EQ(HS.Max, 100.0);
  EXPECT_NEAR(HS.Mean, 50.5, 1e-9);
  EXPECT_NEAR(HS.P50, 50.5, 1e-9);
  EXPECT_NEAR(HS.P99, 99.01, 1e-9);

  // Second window: only the counter moves; deltas are per-window.
  C.add(7);
  W.roll(200);
  ASSERT_TRUE(W.counterSeries("wintest.counter", CS));
  EXPECT_EQ(CS.LastDelta, 7u);
  EXPECT_EQ(CS.MinDelta, 5u);
  EXPECT_EQ(CS.MaxDelta, 7u);
  EXPECT_DOUBLE_EQ(CS.MeanDelta, 6.0);
  EXPECT_EQ(CS.Windows, 2u);
  ASSERT_TRUE(W.histSeries("wintest.hist", HS));
  EXPECT_EQ(HS.LastCount, 0u);

  std::string Table = W.table();
  EXPECT_NE(Table.find("wintest.counter"), std::string::npos);
  EXPECT_NE(Table.find("wintest.hist"), std::string::npos);
  W.configure(0);
}

TEST_F(TelemetryTest, WindowAggregatorFirstWindowStartsAtConfigure) {
  // What instruments recorded before configure() belongs to no window.
  Telemetry &Tel = Telemetry::global();
  TelCounter &C = Tel.counter("winanchor.counter");
  TelHistogram &H = Tel.histogram("winanchor.hist");
  C.add(1000);
  for (int I = 0; I < 50; ++I)
    H.record(1000.0);
  WindowAggregator &W = Tel.windows();
  W.configure(100, 4);
  C.add(4);
  H.record(1.0);
  H.record(3.0);
  W.roll(100);

  WindowAggregator::CounterSeries CS;
  ASSERT_TRUE(W.counterSeries("winanchor.counter", CS));
  EXPECT_EQ(CS.LastDelta, 4u);
  WindowAggregator::HistSeries HS;
  ASSERT_TRUE(W.histSeries("winanchor.hist", HS));
  EXPECT_EQ(HS.LastCount, 2u);
  EXPECT_DOUBLE_EQ(HS.Max, 3.0);
  W.configure(0);
}

TEST_F(TelemetryTest, WindowAggregatorSeesLateRegistrations) {
  // The aggregator caches instrument handles between rolls; a metric
  // registered after the first roll must still show up in the next one.
  Telemetry &Tel = Telemetry::global();
  WindowAggregator &W = Tel.windows();
  W.configure(100, 4);
  W.roll(100);
  TelCounter &C = Tel.counter("latereg.counter");
  C.add(3);
  W.roll(200);
  WindowAggregator::CounterSeries CS;
  ASSERT_TRUE(W.counterSeries("latereg.counter", CS));
  EXPECT_EQ(CS.LastDelta, 3u);
  W.configure(0);
}

} // namespace
