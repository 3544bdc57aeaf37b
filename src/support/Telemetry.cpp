#include "support/Telemetry.h"

#include "support/Stats.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/TelemetryStream.h"

#include <algorithm>
#include <cstdlib>

using namespace jvolve;

bool Telemetry::Enabled = false;

std::string metrics::dsuPhaseMs(const std::string &Phase) {
  return "dsu.update.phase_ms{phase=" + Phase + "}";
}

std::string metrics::faultFired(const std::string &Site) {
  return "dsu.faults.fired{site=" + Site + "}";
}

//===----------------------------------------------------------------------===//
// TelHistogram
//===----------------------------------------------------------------------===//

/// Retaining this many raw samples keeps percentiles exact for every
/// realistic pause/latency series (Table 1 uses 21 trials; a long server
/// run keeps the most recent window) while bounding memory per histogram.
static constexpr size_t HistogramSampleCap = 4096;

TelHistogram::TelHistogram(size_t SampleCap) : Samples(SampleCap, 0.0) {}

void TelHistogram::record(double V) {
  if (!Telemetry::isEnabled())
    return;
  uint64_t N = Count.fetch_add(1, std::memory_order_relaxed);
  Sum += V;
  Min = N == 0 ? V : std::min(Min, V);
  Max = N == 0 ? V : std::max(Max, V);
  Samples[NextSample] = V;
  NextSample = (NextSample + 1) % Samples.size();
  ++SamplesSeen;
}

double TelHistogram::mean() const {
  uint64_t N = count();
  return N ? Sum / static_cast<double>(N) : 0;
}

size_t TelHistogram::samplesRetained() const {
  return static_cast<size_t>(
      std::min<uint64_t>(SamplesSeen, Samples.size()));
}

double TelHistogram::percentile(double P) const {
  size_t N = samplesRetained();
  if (N == 0)
    return 0;
  return jvolve::percentile(
      std::vector<double>(Samples.begin(),
                          Samples.begin() + static_cast<ptrdiff_t>(N)),
      P);
}

void TelHistogram::samplesSince(uint64_t &Seen,
                                std::vector<double> &Out) const {
  uint64_t Now = SamplesSeen;
  if (Now <= Seen) {
    Seen = Now;
    return;
  }
  // Only the ring's worth of history survives; take the most recent Take.
  uint64_t Missed = Now - Seen;
  size_t Take = static_cast<size_t>(
      std::min<uint64_t>(Missed, Samples.size()));
  // NextSample is one past the newest sample; walk back Take slots.
  size_t Start = (NextSample + Samples.size() -
                  (Take % Samples.size())) % Samples.size();
  for (size_t I = 0; I < Take; ++I)
    Out.push_back(Samples[(Start + I) % Samples.size()]);
  Seen = Now;
}

//===----------------------------------------------------------------------===//
// TraceEvent JSONL
//===----------------------------------------------------------------------===//

std::string TraceEvent::jsonLine() const {
  std::string Out = "{\"name\":";
  appendJsonString(Out, Name);
  Out += ",\"phase\":";
  appendJsonString(Out, Phase);
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                ",\"start_tick\":%llu,\"end_tick\":%llu,\"ms\":%.6f,"
                "\"value\":%lld,\"tid\":%llu,\"seq\":%llu,\"detail\":",
                static_cast<unsigned long long>(StartTick),
                static_cast<unsigned long long>(EndTick), Ms,
                static_cast<long long>(Value),
                static_cast<unsigned long long>(Tid),
                static_cast<unsigned long long>(Seq));
  Out += Buf;
  appendJsonString(Out, Detail);
  Out += '}';
  return Out;
}

/// Extracts the JSON string value following "\"<Key>\":" in \p Line.
/// Handles the escapes jsonLine() produces.
static bool parseStringField(const std::string &Line, const char *Key,
                             std::string &Out) {
  std::string Needle = std::string("\"") + Key + "\":\"";
  size_t Pos = Line.find(Needle);
  if (Pos == std::string::npos)
    return false;
  Pos += Needle.size();
  Out.clear();
  while (Pos < Line.size() && Line[Pos] != '"') {
    char C = Line[Pos];
    if (C == '\\' && Pos + 1 < Line.size()) {
      char E = Line[++Pos];
      switch (E) {
      case 'n': Out += '\n'; break;
      case 'r': Out += '\r'; break;
      case 't': Out += '\t'; break;
      case 'u': {
        if (Pos + 4 >= Line.size())
          return false;
        Out += static_cast<char>(
            std::strtol(Line.substr(Pos + 1, 4).c_str(), nullptr, 16));
        Pos += 4;
        break;
      }
      default: Out += E; break;
      }
    } else {
      Out += C;
    }
    ++Pos;
  }
  return Pos < Line.size();
}

static bool parseNumberField(const std::string &Line, const char *Key,
                             double &Out) {
  std::string Needle = std::string("\"") + Key + "\":";
  size_t Pos = Line.find(Needle);
  if (Pos == std::string::npos)
    return false;
  Out = std::strtod(Line.c_str() + Pos + Needle.size(), nullptr);
  return true;
}

bool TraceEvent::parseLine(const std::string &Line, TraceEvent &Out) {
  TraceEvent E;
  if (!parseStringField(Line, "name", E.Name) ||
      !parseStringField(Line, "phase", E.Phase) ||
      !parseStringField(Line, "detail", E.Detail))
    return false;
  double Start = 0, End = 0, Val = 0;
  if (!parseNumberField(Line, "start_tick", Start) ||
      !parseNumberField(Line, "end_tick", End) ||
      !parseNumberField(Line, "ms", E.Ms) ||
      !parseNumberField(Line, "value", Val))
    return false;
  E.StartTick = static_cast<uint64_t>(Start);
  E.EndTick = static_cast<uint64_t>(End);
  E.Value = static_cast<int64_t>(Val);
  // tid/seq were added with the streaming layer; older traces omit them.
  double Tid = 0, Seq = 0;
  if (parseNumberField(Line, "tid", Tid))
    E.Tid = static_cast<uint64_t>(Tid);
  if (parseNumberField(Line, "seq", Seq))
    E.Seq = static_cast<uint64_t>(Seq);
  Out = std::move(E);
  return true;
}

//===----------------------------------------------------------------------===//
// TraceSink
//===----------------------------------------------------------------------===//

TraceSink::TraceSink(const std::string &InPath, size_t BufferEvents)
    : Path(InPath), BufferCap(std::max<size_t>(BufferEvents, 1)) {
  Out = std::fopen(Path.c_str(), "w");
  Buffer.reserve(BufferCap);
}

TraceSink::~TraceSink() { close(); }

void TraceSink::emit(TraceEvent E) {
  if (!Out) {
    ++NumDropped; // no file: loss is counted, never silent
    return;
  }
  Buffer.push_back(std::move(E));
  ++NumEmitted;
  if (Buffer.size() >= BufferCap)
    flush();
}

bool TraceSink::writeBuffer() {
  bool Ok = true;
  std::string Line;
  for (const TraceEvent &E : Buffer) {
    Line = E.jsonLine();
    Line += '\n';
    Ok &= std::fwrite(Line.data(), 1, Line.size(), Out) == Line.size();
  }
  return Ok;
}

void TraceSink::endBatch(bool Ok, size_t Events) {
  if (Events == 0)
    return;
  ++NumBatches;
  if (!Ok)
    NumDropped += Events; // the batch's lines may be missing or torn
}

void TraceSink::flush() {
  if (!Out)
    return;
  bool Ok = writeBuffer();
  Ok &= std::fflush(Out) == 0;
  endBatch(Ok, Buffer.size());
  Buffer.clear();
}

bool TraceSink::close() {
  if (Out) {
    // No flush before fclose: fclose writes the last batch, so its result
    // decides whether that batch reached the file.
    bool Ok = writeBuffer();
    Ok &= std::fclose(Out) == 0;
    Out = nullptr;
    endBatch(Ok, Buffer.size());
    Buffer.clear();
  }
  return NumDropped == 0;
}

//===----------------------------------------------------------------------===//
// Telemetry registry
//===----------------------------------------------------------------------===//

Telemetry &Telemetry::global() {
  static Telemetry *T = new Telemetry(); // immortal: handles never dangle
  return *T;
}

Telemetry::Telemetry() {
  // The registry never destructs, so without this a run that exits with
  // the trace open would lose the events still in its sink's buffer.
  std::atexit([] {
    if (TraceSink *Trace = Telemetry::global().Trace.get())
      Trace->flush();
  });
}

// Never runs — global() leaks the singleton on purpose so handles never
// dangle — but must be defined where WindowAggregator is a complete type
// for the unique_ptr member.
Telemetry::~Telemetry() = default;

TelCounter &Telemetry::counter(const std::string &Name) {
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.emplace(Name, std::unique_ptr<TelCounter>(new TelCounter()))
             .first;
  return *It->second;
}

TelGauge &Telemetry::gauge(const std::string &Name) {
  auto It = Gauges.find(Name);
  if (It == Gauges.end())
    It = Gauges.emplace(Name, std::unique_ptr<TelGauge>(new TelGauge()))
             .first;
  return *It->second;
}

TelHistogram &Telemetry::histogram(const std::string &Name) {
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms
             .emplace(Name, std::unique_ptr<TelHistogram>(
                                new TelHistogram(HistogramSampleCap)))
             .first;
  return *It->second;
}

const TelCounter *Telemetry::findCounter(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? nullptr : It->second.get();
}

const TelGauge *Telemetry::findGauge(const std::string &Name) const {
  auto It = Gauges.find(Name);
  return It == Gauges.end() ? nullptr : It->second.get();
}

const TelHistogram *Telemetry::findHistogram(const std::string &Name) const {
  auto It = Histograms.find(Name);
  return It == Histograms.end() ? nullptr : It->second.get();
}

std::vector<std::pair<std::string, TelCounter *>> Telemetry::allCounters() {
  std::vector<std::pair<std::string, TelCounter *>> Out;
  Out.reserve(Counters.size());
  for (auto &[Name, C] : Counters)
    Out.emplace_back(Name, C.get());
  return Out;
}

std::vector<std::pair<std::string, TelHistogram *>>
Telemetry::allHistograms() {
  std::vector<std::pair<std::string, TelHistogram *>> Out;
  Out.reserve(Histograms.size());
  for (auto &[Name, H] : Histograms)
    Out.emplace_back(Name, H.get());
  return Out;
}

void Telemetry::reset() {
  for (auto &[Name, C] : Counters)
    C->Value.store(0, std::memory_order_relaxed);
  for (auto &[Name, G] : Gauges)
    G->Value.store(0, std::memory_order_relaxed);
  for (auto &[Name, H] : Histograms) {
    H->Count.store(0, std::memory_order_relaxed);
    H->Sum = H->Min = H->Max = 0;
    H->NextSample = 0;
    H->SamplesSeen = 0;
  }
  Streamed = TracesOpened = ClosedSinkDropped = ClosedSinkBatches = 0;
}

Telemetry::Snapshot Telemetry::snapshot() const {
  Snapshot S;
  // The three maps iterate sorted; merge into one name-sorted list so two
  // snapshots of the same state render byte-identically.
  for (const auto &[Name, C] : Counters) {
    MetricSnapshot M;
    M.Name = Name;
    M.K = MetricSnapshot::Kind::Counter;
    M.Value = static_cast<int64_t>(C->value());
    S.Metrics.push_back(std::move(M));
  }
  for (const auto &[Name, G] : Gauges) {
    MetricSnapshot M;
    M.Name = Name;
    M.K = MetricSnapshot::Kind::Gauge;
    M.Value = G->value();
    S.Metrics.push_back(std::move(M));
  }
  for (const auto &[Name, H] : Histograms) {
    MetricSnapshot M;
    M.Name = Name;
    M.K = MetricSnapshot::Kind::Histogram;
    M.Value = static_cast<int64_t>(H->count());
    M.Sum = H->sum();
    M.Min = H->min();
    M.Max = H->max();
    M.Mean = H->mean();
    M.P50 = H->percentile(50);
    M.P95 = H->percentile(95);
    M.P99 = H->percentile(99);
    S.Metrics.push_back(std::move(M));
  }
  std::sort(S.Metrics.begin(), S.Metrics.end(),
            [](const MetricSnapshot &A, const MetricSnapshot &B) {
              return A.Name < B.Name;
            });
  return S;
}

const Telemetry::MetricSnapshot *
Telemetry::Snapshot::find(const std::string &Name) const {
  for (const MetricSnapshot &M : Metrics)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

static const char *kindName(Telemetry::MetricSnapshot::Kind K) {
  switch (K) {
  case Telemetry::MetricSnapshot::Kind::Counter: return "counter";
  case Telemetry::MetricSnapshot::Kind::Gauge: return "gauge";
  case Telemetry::MetricSnapshot::Kind::Histogram: return "histogram";
  }
  return "?";
}

std::string Telemetry::Snapshot::json() const {
  std::string Out = "{\"metrics\":[";
  bool First = true;
  for (const MetricSnapshot &M : Metrics) {
    if (!First)
      Out += ',';
    First = false;
    Out += "{\"name\":";
    appendJsonString(Out, M.Name);
    Out += ",\"kind\":\"";
    Out += kindName(M.K);
    Out += '"';
    char Buf[256];
    if (M.K == MetricSnapshot::Kind::Histogram) {
      std::snprintf(Buf, sizeof(Buf),
                    ",\"count\":%lld,\"sum\":%.6f,\"min\":%.6f,"
                    "\"max\":%.6f,\"mean\":%.6f,\"p50\":%.6f,"
                    "\"p95\":%.6f,\"p99\":%.6f",
                    static_cast<long long>(M.Value), M.Sum, M.Min, M.Max,
                    M.Mean, M.P50, M.P95, M.P99);
    } else {
      std::snprintf(Buf, sizeof(Buf), ",\"value\":%lld",
                    static_cast<long long>(M.Value));
    }
    Out += Buf;
    Out += '}';
  }
  Out += "]}";
  return Out;
}

std::string Telemetry::Snapshot::table() const {
  TablePrinter TP;
  TP.setHeader({"metric", "kind", "count/value", "sum", "mean", "p50",
                "p95", "p99", "max"});
  for (const MetricSnapshot &M : Metrics) {
    if (M.K == MetricSnapshot::Kind::Histogram)
      TP.addRow({M.Name, kindName(M.K), std::to_string(M.Value),
                 TablePrinter::fmt(M.Sum, 3), TablePrinter::fmt(M.Mean, 3),
                 TablePrinter::fmt(M.P50, 3), TablePrinter::fmt(M.P95, 3),
                 TablePrinter::fmt(M.P99, 3), TablePrinter::fmt(M.Max, 3)});
    else
      TP.addRow({M.Name, kindName(M.K), std::to_string(M.Value)});
  }
  return TP.render();
}

bool Telemetry::openTrace(const std::string &Path) {
  closeTrace();
  auto Sink = std::make_unique<TraceSink>(Path);
  if (!Sink->ok())
    return false;
  if (!GStreamed) {
    GStreamed = &gauge(metrics::TelemetryEventsStreamed);
    GBatches = &gauge(metrics::TelemetryBlocksFlushed);
    GTracesOpened = &gauge(metrics::TelemetrySessionsOpened);
    GTraceDropped = &gauge(metrics::TelemetryTraceDropped);
  }
  Trace = std::move(Sink);
  LastSeq = 0; // a new stream
  ++TracesOpened;
  Enabled = true;
  publishTraceTotals();
  return true;
}

bool Telemetry::closeTrace() {
  if (!Trace)
    return true;
  bool Ok = Trace->close();
  ClosedSinkDropped += Trace->eventsDropped();
  ClosedSinkBatches += Trace->batchesWritten();
  Trace.reset();
  publishTraceTotals();
  return Ok;
}

void Telemetry::emit(TraceEvent E) {
  if (!Trace)
    return;
  if (E.Tid == 0)
    E.Tid = RunningTid;
  E.Seq = ++LastSeq;
  Trace->emit(std::move(E));
  ++Streamed;
  publishTraceTotals();
}

void Telemetry::publishTraceTotals() {
  uint64_t SinkDropped = ClosedSinkDropped;
  uint64_t Batches = ClosedSinkBatches;
  if (Trace) {
    SinkDropped += Trace->eventsDropped();
    Batches += Trace->batchesWritten();
  }
  GStreamed->set(static_cast<int64_t>(Streamed));
  GBatches->set(static_cast<int64_t>(Batches));
  GTracesOpened->set(static_cast<int64_t>(TracesOpened));
  GTraceDropped->set(static_cast<int64_t>(SinkDropped));
}

WindowAggregator &Telemetry::windows() {
  if (!Windows)
    Windows = std::make_unique<WindowAggregator>(*this);
  return *Windows;
}
