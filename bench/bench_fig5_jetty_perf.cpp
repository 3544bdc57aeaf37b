//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates **Figure 5**: throughput and latency of the Jetty model
/// v5.1.6 under saturating load in three configurations —
///
///   1. "stock"       : the plain VM (no DSU machinery engaged),
///   2. "jvolve"      : the DSU-capable VM running 5.1.6 from scratch,
///   3. "jvolve-upd"  : 5.1.6 reached by dynamically updating from 5.1.5
///                      before the measurement starts.
///
/// Like the paper, each configuration runs 21 times and the median and
/// quartiles are reported (with 21 runs the inter-quartile range is a 98%
/// confidence interval). The reproduction target is the *zero steady-state
/// overhead* claim: all three configurations perform essentially
/// identically (overlapping inter-quartile ranges). The main table is in
/// virtual units: responses per 1000 ticks and latency in ticks. A second
/// table gives the wall-clock nanoseconds each measured interval spent per
/// response, where interpreter and runtime cost shows (virtual time cannot
/// see it).
///
//===----------------------------------------------------------------------===//

#include "apps/Evaluation.h"
#include "apps/JettyApp.h"
#include "apps/Workload.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "support/Stats.h"
#include "support/Stopwatch.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <cstdlib>

using namespace jvolve;

namespace {

constexpr size_t V515 = 5; // makeJettyApp: version 5 is 5.1.5
constexpr size_t V516 = 6; // version 6 is 5.1.6

struct RunSample {
  double Throughput = 0;
  double LatencyMedian = 0;
  /// Wall-clock nanoseconds of the measured interval per response.
  double NsPerResponse = 0;
};

VM::Config benchConfig() {
  VM::Config C;
  C.HeapSpaceBytes = 16u << 20;
  return C;
}

/// One measured run: boot, (optionally) dynamically update, warm up, then
/// measure a fixed interval under load — the analogue of one 60-second
/// httperf run.
RunSample runOnce(const AppModel &App, bool UpdateFrom515, uint64_t Seed) {
  VM TheVM(benchConfig());
  TheVM.loadProgram(App.version(UpdateFrom515 ? V515 : V516));
  startJettyThreads(TheVM);

  LoadDriver::Options LO;
  LO.Port = JettyPort;
  // Keep the offered load below saturation so latency measures service
  // time rather than queue depth, and perturb the batch phase a little per
  // run so runs differ, like wall-clock noise does for httperf.
  LO.ConnectionsPerBatch = 1;
  LO.BatchInterval = 290;
  LO.JitterTicks = 10;
  LO.Seed = Seed * 77 + 5;
  LoadDriver Driver(TheVM, LO);
  Driver.runWithLoad(10'000);

  if (UpdateFrom515) {
    Updater U(TheVM);
    UpdateResult R = U.applyNow(
        Upt::prepare(App.version(V515), App.version(V516), "v515"));
    if (R.Status != UpdateStatus::Applied) {
      std::fprintf(stderr, "fig5: update failed: %s\n", R.Message.c_str());
      std::exit(1);
    }
    Driver.runWithLoad(5'000); // let recompilation settle
  } else {
    Driver.runWithLoad(5'000); // symmetric warm-up
  }

  // Drain queued work so the measurement starts from a steady state.
  Driver.runIdle(4'000);
  Stopwatch Wall;
  LoadResult R = Driver.measure(60'000);
  double Ns = Wall.elapsedMs() * 1e6;
  return {R.Throughput, R.LatencyTicks.Median,
          Ns / static_cast<double>(std::max<uint64_t>(R.Responses, 1))};
}

int envInt(const char *Name, int Default) {
  const char *V = std::getenv(Name);
  return V ? std::atoi(V) : Default;
}

} // namespace

int main() {
  int Runs = envInt("JVOLVE_FIG5_RUNS", 21);
  AppModel App = makeJettyApp();

  struct Config {
    const char *Name;
    bool Update;
  };
  // "stock" and "jvolve" are the same binary here by construction — the
  // DSU machinery is engaged only while an update is in flight, which is
  // precisely the paper's zero-steady-state-overhead design point. We
  // still run both labels so variance between identical configurations is
  // visible alongside the updated configuration.
  const Config Configs[] = {{"Jikes RVM (stock)", false},
                            {"JVOLVE", false},
                            {"JVOLVE updated 5.1.5->5.1.6", true}};

  std::printf("=== Figure 5: Jetty v5.1.6 throughput and latency ===\n");
  std::printf("(%d runs per configuration; median and quartiles; virtual "
              "units)\n\n",
              Runs);

  TablePrinter TP;
  TP.setHeader({"Config", "Thr median", "Thr Q1", "Thr Q3", "Lat median",
                "Lat Q1", "Lat Q3"});

  TablePrinter Wall;
  Wall.setHeader({"Config", "ns/resp median", "ns/resp Q1", "ns/resp Q3"});

  std::vector<QuartileSummary> ThroughputSummaries, WallSummaries;
  for (const Config &C : Configs) {
    std::vector<double> Thr, Lat, Ns;
    for (int I = 0; I < Runs; ++I) {
      RunSample S = runOnce(App, C.Update, static_cast<uint64_t>(I));
      Thr.push_back(S.Throughput);
      Lat.push_back(S.LatencyMedian);
      Ns.push_back(S.NsPerResponse);
    }
    QuartileSummary TQ = summarizeQuartiles(Thr);
    QuartileSummary LQ = summarizeQuartiles(Lat);
    QuartileSummary NQ = summarizeQuartiles(Ns);
    ThroughputSummaries.push_back(TQ);
    WallSummaries.push_back(NQ);
    Wall.addRow({C.Name, TablePrinter::fmt(NQ.Median, 0),
                 TablePrinter::fmt(NQ.LowerQuartile, 0),
                 TablePrinter::fmt(NQ.UpperQuartile, 0)});
    TP.addRow({C.Name, TablePrinter::fmt(TQ.Median, 3),
               TablePrinter::fmt(TQ.LowerQuartile, 3),
               TablePrinter::fmt(TQ.UpperQuartile, 3),
               TablePrinter::fmt(LQ.Median, 1),
               TablePrinter::fmt(LQ.LowerQuartile, 1),
               TablePrinter::fmt(LQ.UpperQuartile, 1)});
  }
  std::printf("%s\n", TP.render().c_str());

  // The paper's claim: the configurations' inter-quartile ranges largely
  // overlap (no steady-state overhead after an update).
  const QuartileSummary &A = ThroughputSummaries[1]; // jvolve
  const QuartileSummary &B = ThroughputSummaries[2]; // jvolve updated
  bool Overlap = A.LowerQuartile <= B.UpperQuartile &&
                 B.LowerQuartile <= A.UpperQuartile;
  std::printf("Shape: updated-vs-fresh inter-quartile ranges overlap: %s "
              "(paper: 'essentially identical')\n",
              Overlap ? "yes" : "no");
  double Delta =
      100.0 * (A.Median - B.Median) / std::max(A.Median, 1e-9);
  std::printf("Shape: median throughput difference fresh vs updated: "
              "%+.2f%%\n",
              Delta);

  std::printf("\nWall-clock cost per response over the measured interval "
              "(ns; median and quartiles over the runs)\n\n%s\n",
              Wall.render().c_str());
  const QuartileSummary &WA = WallSummaries[1]; // jvolve
  const QuartileSummary &WB = WallSummaries[2]; // jvolve updated
  double WallDelta =
      100.0 * (WB.Median - WA.Median) / std::max(WA.Median, 1e-9);
  std::printf("Shape: median wall-clock ns/response updated vs fresh: "
              "%+.2f%%\n",
              WallDelta);
  return 0;
}
