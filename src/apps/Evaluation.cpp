#include "apps/Evaluation.h"

#include "apps/CrossFtpApp.h"
#include "apps/EmailApp.h"
#include "apps/JettyApp.h"
#include "apps/Workload.h"
#include "dsu/Upt.h"
#include "heap/HeapVerifier.h"
#include "support/Error.h"

using namespace jvolve;

namespace {

VM::Config evalConfig() {
  VM::Config C;
  C.HeapSpaceBytes = 16u << 20;
  return C;
}

/// Boots \p App's version \p V on a fresh VM, starts its threads, and
/// (unless \p Idle) applies a representative load.
std::unique_ptr<VM> bootApp(const AppModel &App, size_t V, bool Idle) {
  auto TheVM = std::make_unique<VM>(evalConfig());
  TheVM->loadProgram(App.version(V));

  if (App.name() == "jetty") {
    startJettyThreads(*TheVM);
    if (!Idle) {
      LoadDriver::Options LO;
      LO.Port = JettyPort;
      LoadDriver(*TheVM, LO).runWithLoad(5'000);
    }
  } else if (App.name() == "javaemailserver") {
    startEmailThreads(*TheVM);
    if (!Idle) {
      TheVM->injectConnection(Pop3Port, {1, 2, 3, 4, 5},
                              /*InterArrival=*/200);
      TheVM->run(2'000);
    }
  } else if (App.name() == "crossftp") {
    startCrossFtpThreads(*TheVM);
    if (!Idle) {
      // Long FTP sessions with think time keep handle() on stack.
      std::vector<int64_t> Session(500, 1);
      TheVM->injectConnection(FtpPort, Session, /*InterArrival=*/250);
      TheVM->injectConnection(FtpPort, Session, /*InterArrival=*/250);
      TheVM->run(2'000);
    }
  } else {
    fatalError("unknown app '" + App.name() + "'");
  }
  return TheVM;
}

UpdateResult applyTo(VM &TheVM, const AppModel &App, size_t V,
                     const EvalOptions &EOpts, SynthesisReport *Synth) {
  UpdateBundle B = Upt::prepare(App.version(V - 1), App.version(V),
                                "v" + std::to_string(V - 1));
  if (EOpts.Transformers == TransformerMode::Synthesized) {
    TransformerSynthesis Synthesis(App.version(V - 1), App.version(V));
    SynthesisReport R = Synthesis.synthesize(B.Spec);
    recordSynthesisMetrics(R);
    TransformerSynthesis::installTransformers(B, R);
    if (Synth)
      *Synth = std::move(R);
  } else if (App.name() == "javaemailserver") {
    registerEmailTransformers(B, App, V);
  }
  UpdateOptions Opts;
  Opts.TimeoutTicks = EOpts.TimeoutTicks;
  Opts.LazyTransform = EOpts.Lazy;
  Updater U(TheVM);
  return U.applyNow(std::move(B), Opts,
                    /*MaxDriveTicks=*/EOpts.TimeoutTicks * 4);
}

/// Lazy mode: virtual ticks an updated VM keeps serving before its heap is
/// certified. The background drainer settles every release's shells well
/// within it.
constexpr uint64_t LazyDrainTicks = 400'000;

/// Serves \p TheVM for LazyDrainTicks, then certifies the whole heap with
/// no lazy relaxation: a shell still pending or an old-copy block still
/// reserved fails it. \returns whether the heap certified clean.
bool drainAndCertify(VM &TheVM) {
  TheVM.run(LazyDrainTicks);
  HeapVerifier Verifier(TheVM.heap(), TheVM.registry());
  return Verifier
      .verify([&TheVM](const std::function<void(Ref &)> &Visit) {
        TheVM.visitRoots(Visit);
      })
      .empty();
}

} // namespace

ReleaseOutcome jvolve::evaluateRelease(const AppModel &App, size_t V,
                                       const EvalOptions &Opts) {
  ReleaseOutcome Out;
  Out.Version = App.release(V).Name;
  Out.Summary =
      Upt::computeSpec(App.version(V - 1), App.version(V)).Summary;
  Out.EcSupported = Out.Summary.editAndContinueSupported();

  {
    std::unique_ptr<VM> TheVM = bootApp(App, V - 1, /*Idle=*/false);
    Out.Result = applyTo(*TheVM, App, V, Opts, &Out.Synth);
    if (Opts.Lazy && Out.Result.Status == UpdateStatus::Applied)
      Out.PostDrainCertified = drainAndCertify(*TheVM);
  }

  // The paper applied CrossFTP 1.07 -> 1.08 "when the server was
  // relatively idle"; retry any busy-failure on an idle server.
  if (Out.Result.Status == UpdateStatus::TimedOut) {
    std::unique_ptr<VM> TheVM = bootApp(App, V - 1, /*Idle=*/true);
    TheVM->run(2'000);
    UpdateResult IdleResult = applyTo(*TheVM, App, V, Opts, nullptr);
    Out.AppliedWhenIdle = IdleResult.Status == UpdateStatus::Applied;
    if (Opts.Lazy && Out.AppliedWhenIdle)
      Out.PostDrainCertified = drainAndCertify(*TheVM);
  }
  return Out;
}

std::vector<ReleaseOutcome> jvolve::evaluateApp(const AppModel &App,
                                                const EvalOptions &Opts) {
  std::vector<ReleaseOutcome> Out;
  for (size_t V = 1; V < App.numVersions(); ++V)
    Out.push_back(evaluateRelease(App, V, Opts));
  return Out;
}
