//===----------------------------------------------------------------------===//
///
/// \file
/// BENCH_*.json emission: benches accumulate their headline numbers here
/// and write them in the telemetry snapshot format ({"metrics":[...]})
/// that scripts/metrics-diff.py consumes — so two bench runs (or the
/// forward and revert halves of one run) can be diffed and budget-gated
/// exactly like two VM metric dumps. The entries render through
/// Telemetry::Snapshot::json(), in the order the bench added them.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_BENCH_BENCHJSON_H
#define JVOLVE_BENCH_BENCHJSON_H

#include "support/Stats.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace jvolve {

class BenchJson {
public:
  using Metric = Telemetry::MetricSnapshot;

  /// A counter/gauge-shaped entry (metrics-diff compares `value`).
  void value(const std::string &Name, long long V) {
    Metric M;
    M.Name = Name;
    M.K = Metric::Kind::Gauge;
    M.Value = V;
    Entries.Metrics.push_back(std::move(M));
  }

  /// A histogram-shaped entry over \p Samples (metrics-diff compares
  /// `count`, `mean`, and `p95`).
  void histogram(const std::string &Name, const std::vector<double> &Samples) {
    Metric M;
    M.Name = Name;
    M.K = Metric::Kind::Histogram;
    M.Value = static_cast<int64_t>(Samples.size());
    for (size_t I = 0; I < Samples.size(); ++I) {
      M.Sum += Samples[I];
      M.Min = I == 0 ? Samples[I] : std::min(M.Min, Samples[I]);
      M.Max = std::max(M.Max, Samples[I]);
    }
    M.Mean = Samples.empty() ? 0 : M.Sum / Samples.size();
    M.P50 = percentile(Samples, 50);
    M.P95 = percentile(Samples, 95);
    M.P99 = percentile(Samples, 99);
    Entries.Metrics.push_back(std::move(M));
  }

  /// \returns false (with a diagnostic) when \p Path cannot be written.
  bool write(const char *Path) const {
    std::FILE *F = std::fopen(Path, "w");
    if (!F) {
      std::fprintf(stderr, "bench: cannot write '%s'\n", Path);
      return false;
    }
    std::fprintf(F, "%s\n", Entries.json().c_str());
    std::fclose(F);
    return true;
  }

private:
  Telemetry::Snapshot Entries;
};

} // namespace jvolve

#endif // JVOLVE_BENCH_BENCHJSON_H
