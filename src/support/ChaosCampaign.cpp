#include "support/ChaosCampaign.h"

#include "apps/CrossFtpApp.h"
#include "apps/EmailApp.h"
#include "apps/JettyApp.h"
#include "apps/Workload.h"
#include "dsu/Canary.h"
#include "dsu/Synthesis.h"
#include "dsu/Upt.h"
#include "heap/HeapVerifier.h"
#include "support/Error.h"
#include "support/StringUtils.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

using namespace jvolve;

using Site = FaultInjector::Site;

static size_t idx(Site S) { return static_cast<size_t>(S); }

//===----------------------------------------------------------------------===//
// Specs
//===----------------------------------------------------------------------===//

std::string ChaosFault::spec() const {
  return std::string(FaultInjector::siteName(Where)) + ":" +
         std::to_string(Fire) + ":" + std::to_string(Skip);
}

std::string ScenarioSpec::injectArg() const {
  std::string Out;
  for (const ChaosFault &F : Faults) {
    if (!Out.empty())
      Out += ",";
    Out += F.spec();
  }
  return Out;
}

std::string ScenarioSpec::str() const {
  std::string Out = Stream;
  if (Lazy)
    Out += " lazy";
  if (Canary)
    Out += " canary";
  if (CodeVersion)
    Out += " codeversion";
  if (Version)
    Out += " version=" + std::to_string(Version);
  Out += " warm=" + std::to_string(WarmTicks) +
         " settle=" + std::to_string(SettleTicks) +
         " requests=" + std::to_string(Requests);
  if (!Faults.empty())
    Out += " inject=" + injectArg();
  return Out;
}

//===----------------------------------------------------------------------===//
// Scenario driver
//===----------------------------------------------------------------------===//

namespace {

/// App models are expensive to generate (filler mutation must match the
/// paper's tables exactly); build each once per process.
const AppModel &appFor(const std::string &Stream) {
  if (Stream == "email") {
    static const AppModel App = makeEmailApp();
    return App;
  }
  if (Stream == "jetty") {
    static const AppModel App = makeJettyApp();
    return App;
  }
  if (Stream == "crossftp") {
    static const AppModel App = makeCrossFtpApp();
    return App;
  }
  fatalError("unknown chaos stream '" + Stream +
             "' (email | jetty | crossftp)");
}

/// The per-stream default target version: the release whose update
/// exercises the most pipeline machinery under fault (class loads, object
/// transformers, a DSU collection) while still expecting to apply.
size_t defaultVersionFor(const std::string &Stream, bool CodeVersion) {
  if (CodeVersion) {
    // The code-version fast path only takes strictly body-only releases;
    // pick each stream's first one so the path (and its
    // codeversion-install probe points) actually runs.
    if (Stream == "email")
      return 1; // 1.2.2: method-body changes only
    if (Stream == "jetty")
      return 8; // 5.1.8: the stream's first strictly body-only release
    fatalError("crossftp has no body-only release for a codeversion "
               "scenario");
  }
  if (Stream == "email")
    return 6; // 1.3.2: custom transformers + field add/delete (needs OSR)
  if (Stream == "jetty")
    return 2; // 5.1.2: adds a class (the class-load path) + body changes
  return 1;   // crossftp 1.06: adds 4 classes, deletes 1, adds a field
}

int portFor(const std::string &Stream) {
  if (Stream == "email")
    return Pop3Port;
  if (Stream == "jetty")
    return JettyPort;
  return FtpPort;
}

void bootThreads(VM &TheVM, const std::string &Stream) {
  if (Stream == "email")
    startEmailThreads(TheVM);
  else if (Stream == "jetty")
    startJettyThreads(TheVM);
  else
    startCrossFtpThreads(TheVM);
}

/// One load interval: inject connections sized by Spec.Requests, then run
/// the VM for \p Ticks of virtual time.
void driveLoad(VM &TheVM, const ScenarioSpec &Spec, uint64_t Ticks) {
  if (Spec.Stream == "jetty") {
    LoadDriver::Options LO;
    LO.Port = JettyPort;
    LO.ConnectionsPerBatch = 1;
    LO.RequestsPerConnection = Spec.Requests;
    LoadDriver(TheVM, LO).runWithLoad(Ticks);
    return;
  }
  std::vector<int64_t> Requests;
  for (int I = 0; I < Spec.Requests; ++I)
    Requests.push_back(I + 1);
  TheVM.injectConnection(portFor(Spec.Stream), Requests,
                         /*InterArrival=*/120);
  TheVM.run(Ticks);
}

} // namespace

ScenarioResult
jvolve::runScenario(const ScenarioSpec &Spec,
                    const std::vector<std::unique_ptr<Oracle>> &Oracles) {
  const AppModel &App = appFor(Spec.Stream);
  // The registry as each install's pause began, and what every rollback
  // left different from it (declared before the VM, whose updaters hold
  // the observer).
  ClassRegistry::Fingerprint PauseStart;
  int Restores = 0;
  std::vector<std::string> RestoreDiffs;
  VM::Config Cfg;
  Cfg.HeapSpaceBytes = 16u << 20;
  VM TheVM(Cfg);

  // Arm before anything allocates or serves: probe counts are cumulative
  // from VM birth, so a recording pass enumerates the entire scenario.
  TheVM.faults().reset();
  for (const ChaosFault &F : Spec.Faults)
    TheVM.faults().arm(F.Where, F.Fire, F.Skip);

  size_t Ver = Spec.Version
                   ? Spec.Version
                   : defaultVersionFor(Spec.Stream, Spec.CodeVersion);
  if (Ver < 1 || Ver >= App.numVersions())
    fatalError("chaos scenario version " + std::to_string(Ver) +
               " out of range for " + Spec.Stream + " (1.." +
               std::to_string(App.numVersions() - 1) + ")");

  ScenarioResult Res;
  TheVM.loadProgram(App.version(Ver - 1));
  bootThreads(TheVM, Spec.Stream);
  driveLoad(TheVM, Spec, Spec.WarmTicks);

  UpdateBundle B = Upt::prepare(App.version(Ver - 1), App.version(Ver),
                                "v" + std::to_string(Ver - 1));
  if (Spec.Stream == "email")
    registerEmailTransformers(B, App, Ver);
  // Synthesized renames ride along (handwritten transformers win). The
  // synthesis pass probes the synth-transformer-field site once per
  // inferred instance mapping, so the first-order sweep can corrupt one.
  // In the shipped streams no corrupted mapping ever reaches a live
  // object: every such fire point ends applied, eager or lazy, with or
  // without a canary. The run-time failure (rollback when eager, a Failed
  // settle when lazy, a breach and revert under a canary) is covered by
  // tests/SynthesisTest.cpp, not by the sweep.
  {
    TransformerSynthesis Synthesis(App.version(Ver - 1), App.version(Ver));
    SynthesisReport SynthRep = Synthesis.synthesize(B.Spec, &TheVM.faults());
    TransformerSynthesis::installTransformers(B, SynthRep);
  }
  UpdateOptions Opts;
  Opts.OnRegistryEdge = [&](const ClassRegistry &Reg, bool Restored) {
    if (!Restored) {
      PauseStart = Reg.fingerprint();
      return;
    }
    ++Restores;
    for (std::string &D : Reg.fingerprintDiff(PauseStart))
      RestoreDiffs.push_back(std::move(D));
  };
  Opts.TimeoutTicks = 20'000;
  Opts.LazyTransform = Spec.Lazy;
  Opts.CodeVersioning = Spec.CodeVersion;
  if (Spec.Canary) {
    Opts.CanaryWindow.WindowTicks = std::max<uint64_t>(Spec.SettleTicks, 200);
    Opts.CanaryWindow.CheckIntervalTicks =
        std::max<uint64_t>(Spec.SettleTicks / 4, 50);
  }
  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), Opts, /*MaxDriveTicks=*/80'000);

  // Post-update service + settle: more traffic, then drive any canary
  // window to a terminal state (trickle connections keep virtual time
  // moving — an idle VM's clock stands still and the tick-bounded window
  // would never close).
  driveLoad(TheVM, Spec, Spec.SettleTicks);
  if (auto *Canary = static_cast<CanaryController *>(TheVM.canary())) {
    for (int Guard = 0; Canary->windowOpen() && Guard < 64; ++Guard) {
      TheVM.injectConnection(portFor(Spec.Stream), {1}, /*InterArrival=*/40);
      TheVM.run(std::max<uint64_t>(Spec.SettleTicks, 500));
    }
  }
  // Settle every lazily-committed shell so the oracles judge final state.
  TheVM.drainLazyEngineNow();

  Res.Status = R.Status;
  Res.Message = R.Message;
  Res.Probes = TheVM.faults().probeCounts();
  Res.Fires = TheVM.faults().fireCounts();
  Res.ProbesAtFirstFire = TheVM.faults().probesAtFirstFire();
  Res.AnyFired = TheVM.faults().anyFired();

  ScenarioContext Ctx{TheVM, Spec, R};
  Ctx.OldProgram = &App.version(Ver - 1);
  Ctx.NewProgram = &App.version(Ver);
  Ctx.AnyFired = Res.AnyFired;
  Ctx.RegistryRestores = Restores;
  Ctx.RegistryRestoreDiffs = std::move(RestoreDiffs);
  if (auto *Canary = static_cast<CanaryController *>(TheVM.canary())) {
    CanaryReport Rep = Canary->report();
    Ctx.CanaryState = canaryStateName(Rep.State);
    Ctx.CanaryResidual = Rep.ResidualNewObjects;
    Ctx.CanaryReverted = Rep.State == CanaryState::Reverted;
  }
  Res.CanaryState = Ctx.CanaryState;

  for (const auto &O : Oracles)
    O->check(Ctx, Res.Violations);
  return Res;
}

//===----------------------------------------------------------------------===//
// Oracles
//===----------------------------------------------------------------------===//

namespace {

/// True when the UPT diff between \p A and \p B is empty — the programs
/// are version-identical.
bool programsIdentical(const ClassSet &A, const ClassSet &B) {
  UpdateSummary S = Upt::computeSpec(A, B).Summary;
  return S.ClassesAdded == 0 && S.ClassesDeleted == 0 &&
         S.ClassesChanged == 0;
}

class HeapCertificationOracle : public Oracle {
public:
  const char *name() const override { return "heap-certification"; }
  void check(const ScenarioContext &Ctx,
             std::vector<std::string> &Out) override {
    HeapVerifier Verifier(Ctx.TheVM.heap(), Ctx.TheVM.registry());
    if (VmLazyEngine *Engine = Ctx.TheVM.lazyEngine())
      Verifier.setLazyContext(
          [Engine](Ref Obj) { return Engine->isPendingShell(Obj); },
          /*AllowOldCopyReserved=*/!Engine->drained());
    VM &TheVM = Ctx.TheVM;
    std::vector<std::string> Problems =
        Verifier.verify([&TheVM](const std::function<void(Ref &)> &Visit) {
          TheVM.visitRoots(Visit);
        });
    for (std::string &P : Ctx.TheVM.registry().checkConsistency())
      Problems.push_back("registry: " + P);
    for (const std::string &P : Problems)
      Out.push_back(std::string(name()) + ": " + P);
  }
};

class ProgramStateOracle : public Oracle {
public:
  const char *name() const override { return "program-state"; }
  void check(const ScenarioContext &Ctx,
             std::vector<std::string> &Out) override {
    const ClassSet *Expect = nullptr;
    const char *Why = "";
    if (Ctx.CanaryReverted) {
      Expect = Ctx.OldProgram;
      Why = "canary reverted: program must be identical to never-updated";
    } else if (Ctx.Result.Status == UpdateStatus::Applied) {
      // A failed revert leaves a defined-but-mixed program; only the
      // clean outcomes promise version identity.
      if (Ctx.CanaryState.empty() || Ctx.CanaryState == "retired") {
        Expect = Ctx.NewProgram;
        Why = "applied: program must be the new version";
      }
    } else if (Ctx.Result.Status == UpdateStatus::RolledBack ||
               Ctx.Result.Status == UpdateStatus::FailedTransformer ||
               Ctx.Result.Status == UpdateStatus::TimedOut ||
               Ctx.Result.Status == UpdateStatus::RejectedNotVerifiable ||
               Ctx.Result.Status == UpdateStatus::RejectedHierarchy ||
               Ctx.Result.Status == UpdateStatus::RejectedByAnalysis ||
               Ctx.Result.Status == UpdateStatus::RejectedCanaryBusy) {
      Expect = Ctx.OldProgram;
      Why = "aborted: program must be identical to never-updated";
    }
    if (Expect && !programsIdentical(Ctx.TheVM.program(), *Expect))
      Out.push_back(std::string(name()) + ": " + Why + " (status " +
                    updateStatusName(Ctx.Result.Status) + ")");
  }
};

class TerminalStatusOracle : public Oracle {
public:
  const char *name() const override { return "terminal-status"; }
  void check(const ScenarioContext &Ctx,
             std::vector<std::string> &Out) override {
    if (Ctx.Result.Status == UpdateStatus::None ||
        Ctx.Result.Status == UpdateStatus::Pending)
      Out.push_back(std::string(name()) +
                    ": update never reached a terminal status (" +
                    updateStatusName(Ctx.Result.Status) + ")");
    if (!Ctx.AnyFired && Ctx.Result.Status != UpdateStatus::Applied)
      Out.push_back(std::string(name()) +
                    ": fault-free run did not apply cleanly (" +
                    updateStatusName(Ctx.Result.Status) + ": " +
                    Ctx.Result.Message + ")");
    if (Ctx.CanaryState == "observing" || Ctx.CanaryState == "reverting")
      Out.push_back(std::string(name()) +
                    ": canary window never settled (state " +
                    Ctx.CanaryState + ")");
  }
};

class PhaseTilingOracle : public Oracle {
public:
  const char *name() const override { return "phase-tiling"; }
  void check(const ScenarioContext &Ctx,
             std::vector<std::string> &Out) override {
    const UpdateResult &R = Ctx.Result;
    if (R.TotalPauseMs <= 0)
      return; // no install began; nothing to tile
    double Sum =
        R.ClassLoadMs + R.GcMs + R.TransformMs + R.CertifyMs + R.RollbackMs;
    // Generous slack: the phases are measured by dedicated stopwatches
    // while the total uses one clock; granularity skew is not a violation.
    if (Sum > R.TotalPauseMs + 5.0)
      Out.push_back(std::string(name()) + ": phase spans (" +
                    std::to_string(Sum) + " ms) exceed TotalPauseMs (" +
                    std::to_string(R.TotalPauseMs) + " ms)");
  }
};

class ResidualPendingOracle : public Oracle {
public:
  const char *name() const override { return "residual-pending"; }
  void check(const ScenarioContext &Ctx,
             std::vector<std::string> &Out) override {
    if (VmLazyEngine *Engine = Ctx.TheVM.lazyEngine()) {
      if (!Engine->drained() || Engine->pendingCount() > 0)
        Out.push_back(std::string(name()) +
                      ": lazy engine still holds " +
                      std::to_string(Engine->pendingCount()) +
                      " pending shell(s) after the settle drain");
    }
    if (Ctx.CanaryReverted && Ctx.CanaryResidual > 0)
      Out.push_back(std::string(name()) + ": revert left " +
                    std::to_string(Ctx.CanaryResidual) +
                    " residual new-version object(s)");
  }
};

class UndoRootsOracle : public Oracle {
public:
  const char *name() const override { return "undo-roots"; }
  void check(const ScenarioContext &Ctx,
             std::vector<std::string> &Out) override {
    VmCanary *Canary = Ctx.TheVM.canary();
    if (!Canary || Canary->windowOpen())
      return; // open windows legitimately pin their undo log
    size_t Roots = 0;
    Canary->visitRoots([&Roots](Ref &) { ++Roots; });
    if (Roots > 0)
      Out.push_back(std::string(name()) + ": settled canary window (" +
                    Ctx.CanaryState + ") still pins " +
                    std::to_string(Roots) + " undo-log GC root(s)");
  }
};

class RegistryRestoredOracle : public Oracle {
public:
  const char *name() const override { return "registry-restored"; }
  void check(const ScenarioContext &Ctx,
             std::vector<std::string> &Out) override {
    for (const std::string &D : Ctx.RegistryRestoreDiffs)
      Out.push_back(std::string(name()) + ": " + D);
    bool RolledBack = Ctx.Result.Status == UpdateStatus::RolledBack ||
                      Ctx.Result.Status == UpdateStatus::FailedTransformer;
    if (RolledBack && Ctx.RegistryRestores == 0)
      Out.push_back(std::string(name()) + ": " +
                    updateStatusName(Ctx.Result.Status) +
                    " without a restored registry to compare");
  }
};

} // namespace

std::vector<std::string> jvolve::checkStateInvariants(VM &TheVM) {
  static const ScenarioSpec AdHocSpec;
  static const UpdateResult AdHocResult;
  ScenarioContext Ctx(TheVM, AdHocSpec, AdHocResult);
  std::vector<std::string> Violations;
  HeapCertificationOracle().check(Ctx, Violations);
  UndoRootsOracle().check(Ctx, Violations);
  return Violations;
}

std::vector<std::unique_ptr<Oracle>> jvolve::standardOracles() {
  std::vector<std::unique_ptr<Oracle>> Suite;
  Suite.push_back(std::make_unique<HeapCertificationOracle>());
  Suite.push_back(std::make_unique<ProgramStateOracle>());
  Suite.push_back(std::make_unique<TerminalStatusOracle>());
  Suite.push_back(std::make_unique<PhaseTilingOracle>());
  Suite.push_back(std::make_unique<ResidualPendingOracle>());
  Suite.push_back(std::make_unique<UndoRootsOracle>());
  Suite.push_back(std::make_unique<RegistryRestoredOracle>());
  return Suite;
}

//===----------------------------------------------------------------------===//
// Shrinker
//===----------------------------------------------------------------------===//

ScenarioSpec
jvolve::shrinkScenario(const ScenarioSpec &Spec, const std::string &OracleName,
                       const std::vector<std::unique_ptr<Oracle>> &Oracles,
                       uint64_t *ExtraExecutions) {
  std::string Prefix = OracleName + ":";
  auto StillFails = [&](const ScenarioSpec &S) {
    if (ExtraExecutions)
      ++*ExtraExecutions;
    ScenarioResult R = runScenario(S, Oracles);
    for (const std::string &V : R.Violations)
      if (V.compare(0, Prefix.size(), Prefix) == 0)
        return true;
    return false;
  };

  ScenarioSpec Cur = Spec;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    if (Cur.WarmTicks >= 200) {
      ScenarioSpec Try = Cur;
      Try.WarmTicks /= 2;
      if (StillFails(Try)) {
        Cur = Try;
        Progress = true;
        continue;
      }
    }
    if (Cur.SettleTicks >= 200) {
      ScenarioSpec Try = Cur;
      Try.SettleTicks /= 2;
      if (StillFails(Try)) {
        Cur = Try;
        Progress = true;
        continue;
      }
    }
    if (Cur.Requests > 1) {
      ScenarioSpec Try = Cur;
      Try.Requests = Cur.Requests / 2;
      if (StillFails(Try)) {
        Cur = Try;
        Progress = true;
      }
    }
  }
  return Cur;
}

//===----------------------------------------------------------------------===//
// Campaign
//===----------------------------------------------------------------------===//

namespace {

struct ModeCombo {
  std::string Stream;
  bool Lazy = false;
  bool Canary = false;
  bool CodeVersion = false;

  std::string label() const {
    std::string Out = Stream + (Lazy ? " lazy" : " eager");
    if (Canary)
      Out += "+canary";
    if (CodeVersion)
      Out += "+codeversion";
    return Out;
  }
};

std::string makeReproducer(const ScenarioSpec &Spec) {
  std::string Cmd = "jvolve-chaos --repro --stream " + Spec.Stream;
  if (Spec.Lazy)
    Cmd += " --lazy";
  if (Spec.Canary)
    Cmd += " --canary";
  if (Spec.CodeVersion)
    Cmd += " --codeversion";
  if (Spec.Version)
    Cmd += " --version " + std::to_string(Spec.Version);
  Cmd += " --warm " + std::to_string(Spec.WarmTicks) + " --settle " +
         std::to_string(Spec.SettleTicks) + " --requests " +
         std::to_string(Spec.Requests);
  if (!Spec.Faults.empty())
    Cmd += " --inject " + Spec.injectArg();
  return Cmd;
}

std::string oracleOf(const std::vector<std::string> &Violations) {
  if (Violations.empty())
    return "";
  size_t Colon = Violations.front().find(':');
  return Violations.front().substr(0, Colon);
}

} // namespace

std::string CampaignReport::json() const {
  std::ostringstream Out;
  Out << "{\"probe_points\": " << ProbePoints
      << ", \"covered\": " << Covered << ", \"enumerated\": " << Enumerated
      << ", \"executions\": " << Executions
      << ", \"skipped_by_budget\": " << SkippedByBudget
      << ", \"second_order_capped\": " << SecondOrderCapped
      << ", \"coverage\": " << coverage() << ", \"unreachable_in_mode\": [";
  for (size_t I = 0; I < UnreachableInMode.size(); ++I)
    Out << (I ? ", " : "") << jsonString(UnreachableInMode[I]);
  Out << "], \"violations\": [";
  for (size_t I = 0; I < Violations.size(); ++I) {
    const CampaignViolation &V = Violations[I];
    Out << (I ? ", " : "") << "{\"mode\": " << jsonString(V.Mode)
        << ", \"spec\": " << jsonString(V.Spec.str())
        << ", \"status\": " << jsonString(updateStatusName(V.Status))
        << ", \"reproducer\": " << jsonString(V.Reproducer)
        << ", \"violations\": [";
    for (size_t J = 0; J < V.Violations.size(); ++J)
      Out << (J ? ", " : "") << jsonString(V.Violations[J]);
    Out << "]}";
  }
  Out << "]}";
  return Out.str();
}

CampaignReport
jvolve::runCampaign(const CampaignOptions &Opts,
                    const std::vector<std::unique_ptr<Oracle>> &Oracles) {
  CampaignReport Rep;
  uint64_t FaultedRuns = 0;
  auto BudgetLeft = [&] {
    return Opts.Budget == 0 || FaultedRuns < Opts.Budget;
  };

  std::vector<ModeCombo> Combos;
  for (const std::string &Stream : Opts.Streams)
    for (int LazyMode = 0; LazyMode < 2; ++LazyMode) {
      if ((LazyMode ? !Opts.Lazy : !Opts.Eager))
        continue;
      for (int CanaryMode = 0; CanaryMode < 2; ++CanaryMode) {
        if ((CanaryMode ? !Opts.CanaryOn : !Opts.CanaryOff))
          continue;
        Combos.push_back({Stream, LazyMode == 1, CanaryMode == 1});
      }
    }
  // One code-versioned combo per stream: eager, canary-off, targeting the
  // stream's body-only release so the codeversion-install site enumerates.
  if (Opts.CodeVersion)
    for (const std::string &Stream : Opts.Streams)
      if (Stream != "crossftp") // no body-only release
        Combos.push_back({Stream, /*Lazy=*/false, /*Canary=*/false,
                          /*CodeVersion=*/true});

  auto Record = [&](const ScenarioSpec &Spec, const ModeCombo &Combo,
                    const ScenarioResult &Res) {
    CampaignViolation V;
    V.Mode = Combo.label();
    V.Violations = Res.Violations;
    V.Status = Res.Status;
    V.Spec = Opts.Shrink ? shrinkScenario(Spec, oracleOf(Res.Violations),
                                          Oracles, &Rep.Executions)
                         : Spec;
    V.Reproducer = makeReproducer(V.Spec);
    Rep.Violations.push_back(std::move(V));
  };

  auto RunFaulted = [&](ScenarioSpec Spec, const ModeCombo &Combo,
                        Site Armed) -> bool {
    ScenarioResult Res = runScenario(Spec, Oracles);
    ++Rep.Executions;
    ++FaultedRuns;
    bool Fired = Res.Fires[idx(Armed)] > 0;
    if (!Res.ok())
      Record(Spec, Combo, Res);
    return Fired;
  };

  for (const ModeCombo &Combo : Combos) {
    ScenarioSpec Base;
    Base.Stream = Combo.Stream;
    Base.Lazy = Combo.Lazy;
    Base.Canary = Combo.Canary;
    Base.CodeVersion = Combo.CodeVersion;
    // A campaign-wide --version targets the full-pipeline combos only; a
    // codeversion combo must stay on its body-only default release.
    Base.Version = Combo.CodeVersion ? 0 : Opts.Version;
    Base.WarmTicks = Opts.WarmTicks;
    Base.SettleTicks = Opts.SettleTicks;
    Base.Requests = Opts.Requests;

    // Recording pass: nothing armed, every probe counted. Also the clean
    // baseline the oracles must accept — a violation here is a finding on
    // its own (and invalidates fault attribution for the combo).
    ScenarioResult Ref = runScenario(Base, Oracles);
    ++Rep.Executions;
    if (!Ref.ok()) {
      Record(Base, Combo, Ref);
      continue;
    }

    if (Opts.FirstOrder) {
      for (Site S : FaultInjector::allSites()) {
        uint64_t Points = Ref.Probes[idx(S)];
        bool Synthetic = Points == 0;
        if (Synthetic)
          Points = 1; // armed-gated or mode-gated sites record no probes;
                      // try one synthetic arming to classify them
        Rep.Enumerated += Points;
        for (uint64_t FireIdx = 1; FireIdx <= Points; ++FireIdx) {
          if (!BudgetLeft()) {
            Rep.SkippedByBudget += Points - FireIdx + 1;
            break;
          }
          ScenarioSpec Spec = Base;
          Spec.Faults = {{S, /*Fire=*/1, /*Skip=*/FireIdx - 1}};
          bool Fired = RunFaulted(Spec, Combo, S);
          if (Synthetic && !Fired) {
            // Not a reachable probe point in this mode (e.g.
            // canary-health-breach with the window off).
            Rep.UnreachableInMode.push_back(Combo.label() + ": " +
                                            FaultInjector::siteName(S));
            --Rep.Enumerated;
            continue;
          }
          ++Rep.ProbePoints;
          if (Fired)
            ++Rep.Covered;
        }
      }
    }

    if (Opts.SecondOrder) {
      // Triggers that open the recovery paths worth nesting a second
      // fault into: an eager install fault (rollback), a lazy drain
      // fault (degradation), and a canary breach (revert pipeline).
      std::vector<ChaosFault> Triggers;
      if (!Combo.Lazy) {
        Triggers.push_back({Site::ClassLoad, 1, 0});
        Triggers.push_back({Site::TransformerNthObject, 1, 0});
      } else {
        Triggers.push_back({Site::LazyDrainTransformer, 1, 0});
      }
      if (Combo.Canary)
        Triggers.push_back({Site::CanaryHealthBreach, 1, 0});

      // Bound each (trigger, nested-site) window to its first probes: the
      // recovery path runs immediately after the trigger fires, while the
      // window's tail is just the scenario's remaining service time.
      constexpr uint64_t kWindowCap = 6;

      for (const ChaosFault &Trig : Triggers) {
        ScenarioSpec TrigSpec = Base;
        TrigSpec.Faults = {Trig};
        ScenarioResult TrigRes = runScenario(TrigSpec, Oracles);
        ++Rep.Executions;
        if (!TrigRes.ok())
          Record(TrigSpec, Combo, TrigRes);
        if (!TrigRes.AnyFired)
          continue; // trigger unreachable in this mode
        for (Site S : FaultInjector::allSites()) {
          if (S == Trig.Where)
            continue;
          uint64_t Lo = TrigRes.ProbesAtFirstFire[idx(S)];
          uint64_t Hi = TrigRes.Probes[idx(S)];
          if (Hi > Lo + kWindowCap) {
            Rep.SecondOrderCapped += Hi - (Lo + kWindowCap);
            Hi = Lo + kWindowCap;
          }
          Rep.Enumerated += Hi - Lo;
          for (uint64_t FireIdx = Lo + 1; FireIdx <= Hi; ++FireIdx) {
            if (!BudgetLeft()) {
              Rep.SkippedByBudget += Hi - FireIdx + 1;
              break;
            }
            ScenarioSpec Spec = Base;
            Spec.Faults = {Trig, {S, /*Fire=*/1, /*Skip=*/FireIdx - 1}};
            bool Fired = RunFaulted(Spec, Combo, S);
            ++Rep.ProbePoints;
            if (Fired)
              ++Rep.Covered;
          }
        }
      }
    }
  }
  return Rep;
}
