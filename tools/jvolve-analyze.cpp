//===----------------------------------------------------------------------===//
///
/// \file
/// jvolve-analyze: the static update-safety analyzer as a command-line
/// program. Runs the dsu/Analysis.h passes — CHA call graph, restricted
/// safe-point closure, flow-sensitive dataflow refinement, non-quiescence
/// prediction, applicability verdict — over an update and prints a table
/// or JSON report.
///
///   jvolve-analyze <old.mvm> <new.mvm> [--entry Class.name(sig)R]...
///                  [--json] [--synthesize] [--metrics-out <file>]
///   jvolve-analyze --app jetty|email|crossftp|all [--check] [--json]
///                  [--metrics-out <file>]
///   jvolve-analyze --synthesize --app ... [--check] [--json]
///   jvolve-analyze --impact --app ... [--check] [--json]
///
/// App mode replays the modeled release streams (Tables 2-4) and predicts
/// each update's applicability column; --check exits 1 when any prediction
/// drifts from the paper's expected verdict (used by scripts/tier1.sh).
///
/// --synthesize runs transformer synthesis (dsu/Synthesis.h) per release;
/// with --check it additionally applies every release twice on live VMs —
/// handwritten transformers vs synthesized — and exits 1 when the outcome
/// or certification differs.
///
/// --impact compares a full lazy drain against the impact-bounded drain
/// (bulk-settled untouched classes, partial certification) release by
/// release; with --check it exits 1 unless both reach the same certified
/// heap (identical status, certification, and per-class live census).
///
/// --metrics-out writes the telemetry snapshot (the same dsu.analysis.*
/// gauge names embedded in every --json report's "gauges" object, with
/// runtime summed across all analyzed streams) for scripts/metrics-diff.py.
///
//===----------------------------------------------------------------------===//

#include "ToolFlags.h"
#include "apps/CrossFtpApp.h"
#include "apps/EmailApp.h"
#include "apps/Evaluation.h"
#include "apps/JettyApp.h"
#include "asm/Assembler.h"
#include "bytecode/Builtins.h"
#include "dsu/Analysis.h"
#include "dsu/Synthesis.h"
#include "dsu/Upt.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace jvolve;

static ClassSet loadProgramFile(const char *Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "jvolve-analyze: cannot open '%s'\n", Path);
    std::exit(2);
  }
  std::ostringstream Text;
  Text << In.rdbuf();
  std::vector<AsmError> Errors;
  std::optional<ClassSet> Program = parseProgram(Text.str(), Errors);
  if (!Program) {
    for (const AsmError &E : Errors)
      std::fprintf(stderr, "%s: %s\n", Path, E.str().c_str());
    std::exit(1);
  }
  return *Program;
}

/// Thread entry methods of the modeled apps (what their benches and
/// jvolve-serve spawn).
static std::set<std::string> appEntryPoints(const std::string &App) {
  if (App == "jetty")
    return {"PoolThread.run(I)V"};
  if (App == "email")
    return {"Pop3Processor.run(I)V", "SMTPSender.run()V"};
  return {"FtpServer.run(I)V"}; // crossftp
}

static Applicability expectedVerdict(const Release &R) {
  if (!R.ExpectSupported)
    return Applicability::Impossible;
  if (R.NeedsOsr)
    return Applicability::NeedsOsr;
  return Applicability::Applicable;
}

/// Whole-run accumulation for the dsu.analysis.* gauges: a single stream
/// sets them per release (last-wins); --app all publishes the totals so
/// the metrics file is stable under per-release noise (runtime especially).
struct GaugeTotals {
  size_t Conservative = 0;
  size_t Precise = 0;
  size_t Cha = 0;
  double RuntimeMs = 0;
  size_t Streams = 0;
  size_t StreamsShrunk = 0; ///< dataflow made precise < CHA-precise

  void add(const AnalysisReport &R) {
    Conservative += R.ConservativeRestricted.size();
    Precise += R.PreciseRestricted.size();
    Cha += R.PreciseRestrictedCha.size();
    RuntimeMs += R.RuntimeMs;
    ++Streams;
    if (R.PreciseRestricted.size() < R.PreciseRestrictedCha.size())
      ++StreamsShrunk;
  }

  void publish() const {
    if (!Telemetry::isEnabled())
      return;
    Telemetry &Tel = Telemetry::global();
    Tel.gauge(metrics::DsuAnalysisRestrictedConservative)
        .set(static_cast<int64_t>(Conservative));
    Tel.gauge(metrics::DsuAnalysisRestrictedPrecise)
        .set(static_cast<int64_t>(Precise));
    Tel.gauge(metrics::DsuAnalysisRestrictedCha)
        .set(static_cast<int64_t>(Cha));
    Tel.gauge(metrics::DsuAnalysisRestrictedDelta)
        .set(static_cast<int64_t>(Conservative - Precise));
    Tel.gauge(metrics::DsuAnalysisRuntimeMs)
        .set(static_cast<int64_t>(RuntimeMs + 0.5));
  }
};

/// Analyzes every release of \p App; prints one line (or JSON object) per
/// update. \returns the number of predictions that drift from the paper's
/// expected column when \p Check, else 0.
static int analyzeApp(const AppModel &App, const std::string &AppKey,
                      bool Check, bool Json, bool First, GaugeTotals &Totals) {
  int Drift = 0;
  AnalysisOptions Opts;
  Opts.EntryPoints = appEntryPoints(AppKey);
  for (size_t V = 1; V < App.numVersions(); ++V) {
    ClassSet Old = App.version(V - 1);
    ClassSet New = App.version(V);
    ensureBuiltins(Old);
    ensureBuiltins(New);
    UpdateSpec Spec = Upt::computeSpec(Old, New);

    UpdateAnalysis An(Old, New);
    AnalysisReport Rep = An.analyze(Spec, {}, Opts);
    // Runtime-budget stability: re-measure several times and publish the
    // accumulated runtime. Summing ~150 samples across the suite averages
    // scheduler jitter down far enough that the tier1 +50% budget gate
    // never trips on noise, while a real algorithmic regression still
    // scales the total.
    for (int T = 0; T < 6; ++T)
      Rep.RuntimeMs += An.analyze(Spec, {}, Opts).RuntimeMs;
    Rep.VersionTag = App.name() + " " + App.versionName(V);
    recordAnalysisMetrics(Rep);
    Totals.add(Rep);

    const Release &Rel = App.release(V);
    Applicability Expected = expectedVerdict(Rel);
    bool Match = Rep.Verdict == Expected;
    if (!Match)
      ++Drift;

    if (Json) {
      if (!First || V > 1)
        std::printf(",\n");
      std::string Obj = Rep.json();
      // Splice the expectation into the report object.
      Obj.pop_back(); // '}'
      Obj += ",\"expected\":\"" +
             std::string(applicabilityName(Expected)) + "\",\"match\":" +
             (Match ? "true" : "false") + "}";
      std::printf("%s", Obj.c_str());
    } else {
      std::printf("%-24s %-10s expected %-10s %s  restricted %zu/%zu/%zu\n",
                  Rep.VersionTag.c_str(), applicabilityName(Rep.Verdict),
                  applicabilityName(Expected), Match ? " ok " : "DRIFT",
                  Rep.PreciseRestricted.size(),
                  Rep.PreciseRestrictedCha.size(),
                  Rep.ConservativeRestricted.size());
      if (Rep.Verdict != Applicability::Applicable)
        std::printf("%26s%s\n", "", Rep.Reason.c_str());
    }
    if (Check && !Match)
      std::fprintf(stderr,
                   "jvolve-analyze: %s predicted %s but Tables 2-4 say %s\n",
                   Rep.VersionTag.c_str(), applicabilityName(Rep.Verdict),
                   applicabilityName(Expected));
  }
  return Check ? Drift : 0;
}

/// Splices `"version": "<tag>"` into the front of a report JSON object.
static std::string withVersion(std::string Obj, const std::string &Tag) {
  size_t Brace = Obj.find('{');
  if (Brace != std::string::npos)
    Obj.insert(Brace + 1, "\n  \"version\": " + jsonString(Tag) + ",");
  return Obj;
}

/// Synthesizes transformers for every release of \p App. With \p Check,
/// applies each release twice on live VMs (handwritten vs synthesized
/// transformers) and counts outcome/certification mismatches.
static int synthesizeApp(const AppModel &App, bool Check, bool Json,
                         bool First) {
  int Bad = 0;
  for (size_t V = 1; V < App.numVersions(); ++V) {
    ClassSet Old = App.version(V - 1);
    ClassSet New = App.version(V);
    ensureBuiltins(Old);
    ensureBuiltins(New);
    UpdateSpec Spec = Upt::computeSpec(Old, New);

    TransformerSynthesis Synthesis(Old, New);
    SynthesisReport Rep = Synthesis.synthesize(Spec);
    recordSynthesisMetrics(Rep);
    std::string Tag = App.name() + " " + App.versionName(V);

    bool Match = true;
    std::string CheckNote;
    if (Check) {
      EvalOptions Hand;
      ReleaseOutcome OH = evaluateRelease(App, V, Hand);
      EvalOptions Syn;
      Syn.Transformers = TransformerMode::Synthesized;
      ReleaseOutcome OS = evaluateRelease(App, V, Syn);
      Match = OH.Result.Status == OS.Result.Status &&
              OH.Result.Certified == OS.Result.Certified &&
              OH.AppliedWhenIdle == OS.AppliedWhenIdle;
      CheckNote = std::string("handwritten ") +
                  updateStatusName(OH.Result.Status) +
                  (OH.Result.Certified ? "/certified" : "/uncertified") +
                  " synthesized " + updateStatusName(OS.Result.Status) +
                  (OS.Result.Certified ? "/certified" : "/uncertified");
      if (!Match) {
        ++Bad;
        std::fprintf(stderr, "jvolve-analyze: %s synthesized drift: %s\n",
                     Tag.c_str(), CheckNote.c_str());
      }
    }

    if (Json) {
      if (!First || V > 1)
        std::printf(",\n");
      std::string Obj = withVersion(Rep.json(), Tag);
      if (Check) {
        // Splice the comparison verdict into the report object.
        size_t End = Obj.rfind('}');
        Obj.insert(End, std::string(",\n  \"certify_match\": ") +
                            (Match ? "true" : "false") + "\n");
      }
      std::printf("%s", Obj.c_str());
    } else {
      std::printf("%-24s copies %-3zu renames %-2zu flagged %-2zu "
                  "untouched %-2zu impact %-3zu%s%s\n",
                  Tag.c_str(), Rep.NumCopies, Rep.NumRenames, Rep.NumFlagged,
                  Rep.UntouchedClasses.size(), Rep.ImpactClasses.size(),
                  Check ? (Match ? "  ok " : "  DRIFT ") : "",
                  CheckNote.c_str());
      for (const std::string &F : Rep.flaggedFields())
        std::printf("%26sneeds a human rule: %s\n", "", F.c_str());
    }
  }
  return Check ? Bad : 0;
}

/// Compares a full lazy drain against the impact-bounded drain for every
/// release of \p App: both configurations run the same virtual-time drain
/// window, then the engine state, an unfiltered certification, and the
/// per-class live census must agree.
static int impactApp(const AppModel &App, bool Check, bool Json, bool First) {
  int Bad = 0;
  for (size_t V = 1; V < App.numVersions(); ++V) {
    EvalOptions Full;
    Full.Lazy = true;
    Full.DrainFully = true;
    ReleaseOutcome OF = evaluateRelease(App, V, Full);

    EvalOptions Bounded = Full;
    Bounded.ImpactBounded = true;
    ReleaseOutcome OB = evaluateRelease(App, V, Bounded);

    std::string Tag = App.name() + " " + App.release(V).Name;
    bool Match = OF.Result.Status == OB.Result.Status &&
                 OF.Result.Certified == OB.Result.Certified &&
                 OF.Drained == OB.Drained &&
                 OF.PostDrainCertified == OB.PostDrainCertified &&
                 OF.HeapCensus == OB.HeapCensus;
    if (!Match)
      ++Bad;

    if (Json) {
      if (!First || V > 1)
        std::printf(",\n");
      std::printf("{\"version\": %s, \"status\": \"%s\", "
                  "\"full_transformed\": %llu, \"bounded_transformed\": %llu, "
                  "\"bulk_settled\": %llu, \"census_classes\": %zu, "
                  "\"match\": %s}",
                  jsonString(Tag).c_str(), updateStatusName(OF.Result.Status),
                  static_cast<unsigned long long>(OF.LazyTransformed),
                  static_cast<unsigned long long>(OB.LazyTransformed),
                  static_cast<unsigned long long>(OB.BulkSettled),
                  OF.HeapCensus.size(), Match ? "true" : "false");
    } else {
      std::printf("%-24s %-12s full %-4llu bounded %-4llu settled %-4llu "
                  "census %-3zu %s\n",
                  Tag.c_str(), updateStatusName(OF.Result.Status),
                  static_cast<unsigned long long>(OF.LazyTransformed),
                  static_cast<unsigned long long>(OB.LazyTransformed),
                  static_cast<unsigned long long>(OB.BulkSettled),
                  OF.HeapCensus.size(), Match ? "ok" : "DRIFT");
    }
    if (Check && !Match)
      std::fprintf(stderr,
                   "jvolve-analyze: %s impact-bounded drain diverged from "
                   "the full drain\n",
                   Tag.c_str());
  }
  return Check ? Bad : 0;
}

enum class Mode { Analyze, Synthesize, Impact };

static int runAppMode(const std::string &Which, Mode M, bool Check, bool Json,
                      GaugeTotals &Totals) {
  int Bad = 0;
  bool First = true;
  if (Json)
    std::printf("[");
  auto RunOne = [&](const AppModel &App, const std::string &Key) {
    switch (M) {
    case Mode::Analyze:
      Bad += analyzeApp(App, Key, Check, Json, First, Totals);
      break;
    case Mode::Synthesize:
      Bad += synthesizeApp(App, Check, Json, First);
      break;
    case Mode::Impact:
      Bad += impactApp(App, Check, Json, First);
      break;
    }
    First = false;
  };
  if (Which == "jetty" || Which == "all")
    RunOne(makeJettyApp(), "jetty");
  if (Which == "email" || Which == "all")
    RunOne(makeEmailApp(), "email");
  if (Which == "crossftp" || Which == "all")
    RunOne(makeCrossFtpApp(), "crossftp");
  if (Json)
    std::printf("]\n");
  if (First) {
    std::fprintf(stderr, "jvolve-analyze: unknown app '%s'\n", Which.c_str());
    return 2;
  }
  if (Bad) {
    const char *What = M == Mode::Analyze ? "prediction(s) drift from "
                                            "Tables 2-4"
                       : M == Mode::Synthesize
                           ? "release(s) where synthesized transformers "
                             "do not certify like handwritten"
                           : "release(s) where the impact-bounded drain "
                             "diverged";
    std::fprintf(stderr, "jvolve-analyze: %d %s\n", Bad, What);
    return 1;
  }
  return 0;
}

int main(int argc, char **argv) {
  std::string App;
  Mode M = Mode::Analyze;
  bool Check = false, Json = false;
  const char *MetricsOut = nullptr;
  std::set<std::string> Entries;
  std::vector<const char *> Files;

  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--app") && I + 1 < argc) {
      App = argv[++I];
    } else if (!std::strcmp(argv[I], "--check")) {
      Check = true;
    } else if (!std::strcmp(argv[I], "--json")) {
      Json = true;
    } else if (!std::strcmp(argv[I], "--synthesize")) {
      M = Mode::Synthesize;
    } else if (!std::strcmp(argv[I], "--impact")) {
      M = Mode::Impact;
    } else if (!std::strcmp(argv[I], "--metrics-out") && I + 1 < argc) {
      MetricsOut = argv[++I];
    } else if (!std::strcmp(argv[I], "--entry") && I + 1 < argc) {
      Entries.insert(argv[++I]);
    } else if (argv[I][0] == '-') {
      std::fprintf(stderr, "jvolve-analyze: unknown option '%s'\n", argv[I]);
      return 2;
    } else {
      Files.push_back(argv[I]);
    }
  }

  if (MetricsOut)
    Telemetry::global().setEnabled(true);

  GaugeTotals Totals;
  if (!App.empty()) {
    int RC = runAppMode(App, M, Check, Json, Totals);
    if (MetricsOut && RC != 2) {
      Totals.publish();
      if (int MRC = writeMetricsSnapshot("jvolve-analyze", MetricsOut))
        return MRC;
    }
    return RC;
  }

  if (Files.size() != 2) {
    std::fprintf(
        stderr,
        "usage: jvolve-analyze <old.mvm> <new.mvm> [--entry M]... [--json]\n"
        "       jvolve-analyze [--synthesize|--impact] --app "
        "jetty|email|crossftp|all [--check] [--json] [--metrics-out F]\n");
    return 2;
  }

  ClassSet Old = loadProgramFile(Files[0]);
  ClassSet New = loadProgramFile(Files[1]);
  ensureBuiltins(Old);
  ensureBuiltins(New);
  UpdateSpec Spec = Upt::computeSpec(Old, New);

  if (M == Mode::Synthesize) {
    TransformerSynthesis Synthesis(Old, New);
    SynthesisReport Rep = Synthesis.synthesize(Spec);
    recordSynthesisMetrics(Rep);
    std::printf("%s\n", Json ? Rep.json().c_str() : Rep.table().c_str());
    if (MetricsOut)
      if (int MRC = writeMetricsSnapshot("jvolve-analyze", MetricsOut))
        return MRC;
    return 0;
  }

  AnalysisOptions Opts;
  Opts.EntryPoints = Entries;
  UpdateAnalysis An(Old, New);
  AnalysisReport Rep = An.analyze(Spec, {}, Opts);
  Rep.VersionTag = std::string(Files[0]) + " -> " + Files[1];
  recordAnalysisMetrics(Rep);
  Totals.add(Rep);
  std::printf("%s\n", Json ? Rep.json().c_str() : Rep.table().c_str());
  if (MetricsOut) {
    Totals.publish();
    if (int MRC = writeMetricsSnapshot("jvolve-analyze", MetricsOut))
      return MRC;
  }
  return Rep.Verdict == Applicability::Impossible ? 1 : 0;
}
