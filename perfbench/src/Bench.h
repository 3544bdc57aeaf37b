//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the end-to-end benchmark: a JSON writer for the raw
/// results file, the in-memory span tracer of traced runs, and the raw
/// samples each workload records. Metrics are derived from these samples
/// by perfbench/benchlib.py.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "dsu/Updater.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Minimal streaming JSON writer (objects, arrays, numbers, strings).
class Json {
public:
  Json &beginObject() { return open('{'); }
  Json &endObject() { return close('}'); }
  Json &beginArray() { return open('['); }
  Json &endArray() { return close(']'); }
  Json &key(std::string_view K);
  Json &value(double V);
  Json &value(uint64_t V);
  Json &value(int64_t V);
  Json &value(int V) { return value(static_cast<int64_t>(V)); }
  Json &value(bool V);
  Json &value(std::string_view V);
  Json &value(const char *V) { return value(std::string_view(V)); }
  template <typename T> Json &field(std::string_view K, const T &V) {
    return key(K).value(V);
  }
  const std::string &str() const { return Out; }

private:
  Json &open(char C);
  Json &close(char C);
  void separate();

  std::string Out;
  std::vector<bool> First; ///< per open container: no element written yet
  bool AfterKey = false;
};

/// Spans of a traced run: name, start, end, parent and the update they
/// belong to, kept in memory and written out once at the end. Disabled
/// tracers record nothing, so untraced runs pay one branch per call site.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled), Origin(Clock::now()) {}

  bool enabled() const { return Enabled; }

  /// Opens a child of the innermost open span. \returns its id (-1 when
  /// disabled). \p Update groups every span of one update (-1 = none).
  int begin(std::string Name, int64_t Update = -1);
  void end(int Id);
  void attr(int Id, std::string Key, double Value);

  void write(Json &J) const;

private:
  struct Span {
    std::string Name;
    int Parent = -1;
    int64_t Update = -1;
    int64_t StartNs = 0;
    int64_t EndNs = -1;
    std::vector<std::pair<std::string, double>> Attrs;
  };
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - Origin)
        .count();
  }

  bool Enabled;
  Clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span.
class Scoped {
public:
  Scoped(Tracer &T, std::string Name, int64_t Update = -1)
      : T(T), Id(T.begin(std::move(Name), Update)) {}
  ~Scoped() { T.end(Id); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

  void attr(std::string Key, double Value) { T.attr(Id, std::move(Key), Value); }

private:
  Tracer &T;
  int Id;
};

/// Moves the calling thread on to the next CPU it may run on once every
/// period. A shared host's cores slow down and speed up independently, for
/// seconds to minutes at a time; a run that stays on one core measures
/// that core's luck, one that visits every core in turn measures the host.
class CoreRotation {
public:
  explicit CoreRotation(double PeriodS);
  /// Call between samples: moves on when the period is up.
  void tick();

private:
  std::vector<int> Cpus;
  size_t Next = 0;
  Clock::duration Period;
  Clock::time_point Due;
};

/// One Updater::applyNow call as the benchmark timed it.
struct TimedUpdate {
  jvolve::UpdateResult Result;
  double ApplyMs = 0; ///< stopwatch around applyNow
  /// Virtual ticks applyNow drove the VM: on jetty_serve, how long the
  /// open loop's arrival schedule was suspended.
  uint64_t Ticks = 0;
};

/// What the raw results keep of one update attempt.
struct UpdateSample {
  std::string Label;
  jvolve::UpdateStatus Status = jvolve::UpdateStatus::None;
  double ApplyMs = 0;
  double PauseMs = 0;
  uint64_t Ticks = 0;
};

/// Everything one run records; main() writes it as the raw results file.
struct Results {
  /// Wall seconds of each full set-up.
  std::vector<double> SetupS;
  /// Operations checked by the oracles, and every oracle failure.
  uint64_t Attempted = 0;
  std::vector<std::string> Failures;
  /// Update attempts counted by update_success_ratio: attempted, applied.
  uint64_t UpdatesAttempted = 0;
  uint64_t UpdatesApplied = 0;
  std::vector<UpdateSample> Updates;
  /// Work samples, in order: (units of the workload's work, wall seconds)
  /// for each serving window, update or pass.
  std::vector<std::pair<double, double>> Work;
  /// Open loop only: per-request latency histogram (virtual ticks).
  std::map<int64_t, uint64_t> LatencyTicks;

  void fail(std::string Why) { Failures.push_back(std::move(Why)); }

  /// Keeps \p U's sample and, when it applied, checks it: certified, and
  /// classload + gc + transform + certify <= TotalPauseMs <= the stopwatch
  /// around applyNow. \returns true when the update applied.
  bool record(const std::string &Label, const TimedUpdate &U);
};

/// Attaches \p U's UpdateResult fields to span \p Id.
void attachUpdate(Tracer &T, int Id, const TimedUpdate &U);

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

void runTable1Heap(const Options &O, Tracer &T, Results &R);
void runJettyServe(const Options &O, Tracer &T, Results &R);
void runReleaseStream(const Options &O, Tracer &T, Results &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
