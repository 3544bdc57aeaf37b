//===----------------------------------------------------------------------===//
///
/// \file
/// jvolve-chaos: exhaustive fault-space chaos campaigns over the modeled
/// servers, judged by the invariant oracle suite.
///
///   jvolve-chaos [--first-order] [--second-order]
///                [--streams email,jetty,crossftp] [--lazy] [--canary]
///                [--budget <N>] [--check] [--json] [--no-shrink]
///                [--metrics-out <file>]
///                [--warm <ticks>] [--settle <ticks>] [--requests <N>]
///   jvolve-chaos --repro --stream <s> [--lazy] [--canary] [--codeversion]
///                [--warm <ticks>] [--settle <ticks>] [--requests <N>]
///                [--inject <site>[:fire[:skip]][,<spec>...]]
///
/// A campaign first runs each (stream, mode) combination clean, recording
/// how many times every FaultInjector site is probed. First-order mode
/// then re-runs the scenario once per (site, fire-index) pair so each
/// individual probe point fails exactly once; second-order mode arms a
/// trigger that opens a recovery path (rollback, canary revert, lazy
/// drain) and sweeps a nested fault across the window after the trigger's
/// first firing. Every execution is judged by the standard oracle suite
/// (heap certification, program-state equivalence, terminal statuses,
/// phase tiling, residual/pending objects, undo-log roots, registry
/// restoration); every violation is shrunk while it still reproduces and
/// reported with a ready-to-paste `--repro` command line.
///
/// The default matrix is eager commits with the canary window off —
/// --lazy and --canary widen the mode axes rather than replacing them.
/// --budget caps faulted executions; enumeration order is deterministic,
/// so a bounded run is a stable prefix of the full campaign (skipped
/// points are counted, never silently dropped). --check exits non-zero
/// when any oracle violation survived or an attempted probe point's
/// fault failed to fire (coverage below 100%). --json prints only the
/// machine-readable report; --metrics-out enables telemetry and writes its
/// snapshot (including the fault.coverage.{probes,covered} gauges) in the
/// format scripts/metrics-diff.py gates on.
///
/// Scenarios run on fresh VMs under virtual time with fixed seeds, so a
/// campaign is bit-identical across runs — the reproducibility the
/// recording mode depends on.
///
//===----------------------------------------------------------------------===//

#include "ToolFlags.h"
#include "support/ChaosCampaign.h"
#include "support/Telemetry.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace jvolve;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: jvolve-chaos [--first-order] [--second-order]\n"
      "                    [--streams email,jetty,crossftp] [--lazy] "
      "[--canary]\n"
      "                    [--budget <N>] [--check] [--json] [--no-shrink]\n"
      "                    [--metrics-out <file>]\n"
      "                    [--warm <ticks>] [--settle <ticks>] "
      "[--requests <N>] [--version <V>]\n"
      "       jvolve-chaos --repro --stream <s> [--lazy] [--canary] "
      "[--codeversion]\n"
      "                    [--warm <ticks>] [--settle <ticks>] "
      "[--requests <N>]\n"
      "                    [--inject <site>[:fire[:skip]][,<spec>...]]\n"
      "  fault sites: %s\n",
      injectSiteList().c_str());
}

int runRepro(const ScenarioSpec &Spec) {
  auto Oracles = standardOracles();
  std::printf("repro: %s\n", Spec.str().c_str());
  ScenarioResult Res = runScenario(Spec, Oracles);
  std::printf("  status: %s", updateStatusName(Res.Status));
  if (!Res.Message.empty())
    std::printf(" (%s)", Res.Message.c_str());
  std::printf("\n");
  if (!Res.CanaryState.empty())
    std::printf("  canary: %s\n", Res.CanaryState.c_str());
  for (FaultInjector::Site S : FaultInjector::allSites()) {
    size_t I = static_cast<size_t>(S);
    if (Res.Probes[I] == 0 && Res.Fires[I] == 0)
      continue;
    std::printf("  %s %s: %llu probe(s), %llu fire(s)",
                Res.Fires[I] > 0 ? "fired " : "probed",
                FaultInjector::siteName(S),
                static_cast<unsigned long long>(Res.Probes[I]),
                static_cast<unsigned long long>(Res.Fires[I]));
    if (Res.AnyFired && Res.ProbesAtFirstFire[I] != Res.Probes[I])
      std::printf(" (%llu before the first firing)",
                  static_cast<unsigned long long>(Res.ProbesAtFirstFire[I]));
    std::printf("\n");
  }
  if (Res.ok()) {
    std::printf("  oracles: all invariants hold\n");
    return 0;
  }
  for (const std::string &V : Res.Violations)
    std::printf("  VIOLATION %s\n", V.c_str());
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  CampaignOptions Opts;
  bool Check = false;
  bool Json = false;
  bool Repro = false;
  bool ExplicitOrder = false;
  const char *MetricsOut = nullptr;
  ScenarioSpec ReproSpec;
  std::string ReproInject;

  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    auto NeedValue = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "jvolve-chaos: %s requires a value\n",
                     Flag.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (Flag == "--first-order") {
      if (!ExplicitOrder)
        Opts.SecondOrder = false;
      Opts.FirstOrder = true;
      ExplicitOrder = true;
    } else if (Flag == "--second-order") {
      if (!ExplicitOrder)
        Opts.FirstOrder = false;
      Opts.SecondOrder = true;
      ExplicitOrder = true;
    } else if (Flag == "--streams") {
      Opts.Streams = splitCommaList(NeedValue());
      if (Opts.Streams.empty()) {
        std::fprintf(stderr, "jvolve-chaos: --streams needs at least one "
                             "of email, jetty, crossftp\n");
        return 2;
      }
    } else if (Flag == "--lazy") {
      Opts.Lazy = true;
      ReproSpec.Lazy = true;
    } else if (Flag == "--canary") {
      Opts.CanaryOn = true;
      ReproSpec.Canary = true;
    } else if (Flag == "--codeversion") {
      // Campaigns enumerate the codeversion combo by default; for a repro
      // this selects the code-versioned commit path (body-only release).
      Opts.CodeVersion = true;
      ReproSpec.CodeVersion = true;
    } else if (Flag == "--budget") {
      Opts.Budget = intArg("jvolve-chaos", "--budget", NeedValue(), 0);
    } else if (Flag == "--check") {
      Check = true;
    } else if (Flag == "--json") {
      Json = true;
    } else if (Flag == "--no-shrink") {
      Opts.Shrink = false;
    } else if (Flag == "--metrics-out") {
      MetricsOut = NeedValue();
    } else if (Flag == "--warm") {
      Opts.WarmTicks = intArg("jvolve-chaos", "--warm", NeedValue(), 0);
      ReproSpec.WarmTicks = Opts.WarmTicks;
    } else if (Flag == "--settle") {
      Opts.SettleTicks = intArg("jvolve-chaos", "--settle", NeedValue(), 0);
      ReproSpec.SettleTicks = Opts.SettleTicks;
    } else if (Flag == "--requests") {
      Opts.Requests = static_cast<int>(
          intArg("jvolve-chaos", "--requests", NeedValue(), 1, INT_MAX));
      ReproSpec.Requests = Opts.Requests;
    } else if (Flag == "--version") {
      Opts.Version = intArg("jvolve-chaos", "--version", NeedValue(), 0);
      ReproSpec.Version = Opts.Version;
    } else if (Flag == "--repro") {
      Repro = true;
    } else if (Flag == "--stream") {
      ReproSpec.Stream = NeedValue();
    } else if (Flag == "--inject") {
      ReproInject = NeedValue();
      if (!validateInjectSpecs("jvolve-chaos", ReproInject))
        return 2;
    } else if (Flag == "--help" || Flag == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "jvolve-chaos: unknown argument '%s'\n",
                   Flag.c_str());
      usage();
      return 2;
    }
  }

  for (const std::string &S : Repro ? std::vector<std::string>{
                                          ReproSpec.Stream}
                                    : Opts.Streams)
    if (S != "email" && S != "jetty" && S != "crossftp") {
      std::fprintf(stderr, "jvolve-chaos: unknown stream '%s' "
                           "(email | jetty | crossftp)\n",
                   S.c_str());
      return 2;
    }

  if (Repro) {
    // The list validateInjectSpecs accepted, parsed by the same parser.
    for (const FaultInjector::Spec &F :
         FaultInjector::parseSpecList(ReproInject))
      ReproSpec.Faults.push_back({F});
    return runRepro(ReproSpec);
  }

  if (MetricsOut)
    Telemetry::global().setEnabled(true);

  auto Oracles = standardOracles();
  CampaignReport Rep = runCampaign(Opts, Oracles);

  Telemetry::global().gauge(metrics::FaultCoverageProbes)
      .set(static_cast<int64_t>(Rep.ProbePoints));
  Telemetry::global().gauge(metrics::FaultCoverageCovered)
      .set(static_cast<int64_t>(Rep.Covered));

  if (Json) {
    std::printf("%s\n", Rep.json().c_str());
  } else {
    std::printf("chaos campaign: %llu probe point(s) attempted, %llu "
                "covered (%.1f%%), %llu enumerable\n",
                static_cast<unsigned long long>(Rep.ProbePoints),
                static_cast<unsigned long long>(Rep.Covered),
                100.0 * Rep.coverage(),
                static_cast<unsigned long long>(Rep.Enumerated));
    std::printf("  %llu execution(s); %llu point(s) skipped by budget; "
                "%llu second-order window slot(s) capped\n",
                static_cast<unsigned long long>(Rep.Executions),
                static_cast<unsigned long long>(Rep.SkippedByBudget),
                static_cast<unsigned long long>(Rep.SecondOrderCapped));
    for (const std::string &U : Rep.UnreachableInMode)
      std::printf("  unreachable: %s\n", U.c_str());
    if (Rep.Violations.empty()) {
      std::printf("  oracles: all invariants hold on every execution\n");
    } else {
      for (const CampaignViolation &V : Rep.Violations) {
        std::printf("  VIOLATION [%s] status %s\n", V.Mode.c_str(),
                    updateStatusName(V.Status));
        for (const std::string &Line : V.Violations)
          std::printf("    %s\n", Line.c_str());
        std::printf("    repro: %s\n", V.Reproducer.c_str());
      }
    }
  }

  if (MetricsOut)
    if (int RC = writeMetricsSnapshot("jvolve-chaos", MetricsOut))
      return RC;

  if (Check && (!Rep.Violations.empty() || Rep.Covered < Rep.ProbePoints))
    return 1;
  return 0;
}
