//===----------------------------------------------------------------------===//
///
/// \file
/// jvolve-serve: run one of the modeled servers through its entire release
/// history, live. Boots the base version under load, then applies every
/// release's dynamic update in sequence while traffic keeps flowing,
/// narrating each update with its trace — a command-line re-enactment of
/// the paper's §4 experience, including the updates that cannot be
/// applied.
///
///   jvolve-serve jetty|email|crossftp [--trace] [--stats] [--analyze]
///                [--lazy] [--codeversion] [--canary[=<ticks>]] [--revert]
///                [--trace-out <file>] [--metrics-out <file>]
///                [--inject <site>[:fire[:skip]][,<spec>...]] [--admit <N>]
///
/// --codeversion commits every strictly body-only release through the
/// per-method CodeVersionManager (dsu/CodeVersion.h): one atomic
/// active-version switch, no safe point, no DSU collection — each thread
/// picks the new bodies up at its next poll point while in-flight frames
/// finish on their old version. Releases with class-shape changes keep
/// taking the full pipeline. With --stats, the active-version table
/// (version chains, epoch, stale frames) prints after every update.
///
/// --lazy commits every update with lazy object transformation
/// (dsu/LazyTransform.h): the pause covers only the DSU collection and
/// commit; object transformers run on first touch behind the read barrier
/// while a background drainer settles the rest under live traffic. The
/// tool reports the shells pending at commit and, after load resumes, the
/// on-demand vs. background split until the barrier retires. Post-commit
/// transformer failures cannot roll back; they degrade the update and are
/// listed from the VM's lazy failure log before exit.
///
/// --analyze turns on the pre-update gate: the static update-safety
/// analyzer (dsu/Analysis.h) runs before each pause attempt and a
/// predicted-impossible update is refused with its report instead of
/// burning the timeout; the tool then retries with the operator mappings,
/// which the analyzer re-checks statically.
///
/// While an update attempt is in flight the server drains its network:
/// accepts are gated, in-flight connections run to request boundaries,
/// and --admit (default 16) caps the accept backlog — overflow
/// connections are shed with counted Rejected responses instead of
/// piling up behind the stalled pause. When a safe point cannot be
/// reached, the escalation ladder's rescue rung force-yields parked
/// threads and synthesizes identity stack maps for body-compatible
/// changed methods, and a timeout prints the quiescence report naming
/// the threads and frames that pinned the update.
///
/// --canary arms a post-commit observation window after each applied
/// update (default 20000 ticks, checked every 500): interpreter traps and
/// failed lazy transforms within the window trigger an automatic revert
/// through the normal safe-point + transformer pipeline, and the window's
/// report prints when it resolves. --revert triggers the revert
/// explicitly instead of waiting for a health breach — the operator's
/// "that release is bad, take it back" button. A reverted release leaves
/// the server on its previous version; subsequent releases are prepared
/// against it, as with any other failed update.
///
/// --inject arms one or more of the FaultInjector's named sites
/// (comma-separated site[:fire[:skip]] specs, the syntax of
/// FaultInjector::armFromSpecList) so failure paths can be watched live:
/// rollback during install, or (with canary-health-breach under --canary) an
/// automatic post-commit revert — and, with two specs, a nested fault
/// inside the recovery path the first one triggers. Every malformed
/// entry in the list is reported before the tool exits. The usage text
/// lists the current site names; FaultInjector::allSites() is the single
/// source of truth for the set.
///
/// --stats enables telemetry with windowed aggregation (5000-tick
/// windows) and issues an in-band stats request after boot and after
/// every update: a probe connection travels the same simulated network
/// path as client traffic, and when the server's response comes back the
/// per-window rate/p50/p99 table prints (support/TelemetryStream.h
/// WindowAggregator), and with --trace-out the events streamed to the
/// trace and the ones its sink dropped. The canary latency monitor does
/// not read these windows; it judges the responses of its own window.
/// --trace-out streams JSONL trace events (update phase spans and
/// lifecycle events) to <file>; the tool exits 2 when the file cannot be
/// created or did not get every event. --metrics-out
/// enables telemetry and writes the final registry snapshot as JSON to
/// <file> at exit, the format scripts/metrics-diff.py consumes — so an
/// eager and a --lazy run of the same release history can be diffed and
/// gated.
///
/// When an update cannot reach a safe point (the changed method never
/// leaves the stack), the tool retries once with the operator-supplied
/// active-method mappings (§3.5 extension), the way an operator armed
/// with UpStare-style stack maps would proceed.
///
//===----------------------------------------------------------------------===//

#include "ToolFlags.h"
#include "apps/CrossFtpApp.h"
#include "apps/EmailApp.h"
#include "apps/JettyApp.h"
#include "apps/Workload.h"
#include "dsu/Canary.h"
#include "dsu/CodeVersion.h"
#include "dsu/LazyTransform.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "support/Telemetry.h"
#include "support/TelemetryStream.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace jvolve;

namespace {

/// The operator's stack maps for the methods known to live forever on
/// the stack. The Jetty maps translate the 5.1.2-shaped bodies into the
/// 5.1.3-shaped ones; the JES run() bodies only ever gain trailing dead
/// code, so identity maps suffice.
void addOperatorMappings(UpdateBundle &B, const AppModel &App,
                         size_t TargetVersion) {
  if (App.name() == "jetty") {
    ActiveMethodMapping Accept;
    Accept.Method = {"ThreadedServer", "acceptSocket", "(I)I"};
    Accept.PcMap = {{0, 0}, {1, 1}, {2, 4}};
    B.addActiveMapping(std::move(Accept));
    ActiveMethodMapping Run;
    Run.Method = {"PoolThread", "run", "(I)V"};
    Run.PcMap = {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 7}, {5, 8}};
    B.addActiveMapping(std::move(Run));
  } else if (App.name() == "javaemailserver") {
    const ClassSet &New = App.version(TargetVersion);
    B.addActiveMapping(ActiveMethodMapping::identity(
        {"Pop3Processor", "run", "(I)V"},
        New.find("Pop3Processor")->findMethod("run")->Code.size()));
    B.addActiveMapping(ActiveMethodMapping::identity(
        {"SMTPSender", "run", "()V"},
        New.find("SMTPSender")->findMethod("run")->Code.size()));
  } else {
    const ClassSet &New = App.version(TargetVersion);
    B.addActiveMapping(ActiveMethodMapping::identity(
        {"RequestHandler", "handle", "(I)V"},
        New.find("RequestHandler")->findMethod("handle")->Code.size()));
  }
}

/// The in-band stats request: a probe connection is injected through the
/// same simulated network path as client traffic, and the VM runs until
/// the server's response to it comes back — so the view reflects a
/// server that has caught up with everything ahead of the probe. Prints
/// the windowed rate/p50/p99 table over recent windows plus the trace's
/// event counts. \returns false when the server never answered (e.g.
/// every worker trapped).
bool serveStatsRequest(VM &TheVM, int Port) {
  int Conn = TheVM.injectConnection(Port, {1});
  for (int Round = 0; Round < 500; ++Round) {
    // Run first, drain second: a server that answers the probe and then
    // blocks again reports Idle on the same run() that produced the
    // response.
    bool Idle = TheVM.run(2'000).Idle;
    for (const NetResponse &R : TheVM.net().drainResponses())
      if (R.Conn == Conn) {
        Telemetry &Tel = Telemetry::global();
        WindowAggregator &W = Tel.windows();
        std::printf("stats @ tick %llu (%llu %llu-tick window(s)):\n%s",
                    static_cast<unsigned long long>(TheVM.scheduler().ticks()),
                    static_cast<unsigned long long>(W.windowsRolled()),
                    static_cast<unsigned long long>(W.windowTicks()),
                    W.table().c_str());
        if (Tel.tracing()) {
          auto Read = [&Tel](const char *Name) {
            return static_cast<long long>(Tel.findGauge(Name)->value());
          };
          std::printf("  telemetry: %lld event(s) streamed, %lld dropped by "
                      "the trace file\n",
                      Read(metrics::TelemetryEventsStreamed),
                      Read(metrics::TelemetryTraceDropped));
        }
        return true;
      }
    if (Idle)
      break;
  }
  std::fprintf(stderr, "jvolve-serve: stats request got no response\n");
  return false;
}

} // namespace

int main(int argc, char **argv) {
  const std::string AppName = argc < 2 ? "" : argv[1];
  if (AppName != "jetty" && AppName != "email" && AppName != "crossftp") {
    if (argc >= 2)
      std::fprintf(stderr, "jvolve-serve: unknown app '%s'\n", argv[1]);
    std::fprintf(stderr,
                 "usage: jvolve-serve jetty|email|crossftp [--trace] "
                 "[--stats] [--analyze] [--lazy] [--codeversion] "
                 "[--canary[=<ticks>]] "
                 "[--revert] [--trace-out <file>] "
                 "[--metrics-out <file>] "
                 "[--inject <site>[:fire[:skip]][,<spec>...]] "
                 "[--admit <N>]\n"
                 "  valid --inject sites: %s\n",
                 injectSiteList().c_str());
    return 2;
  }
  bool ShowTrace = false;
  bool ShowStats = false;
  bool AnalyzeFirst = false;
  bool LazyMode = false;
  bool CodeVersionMode = false;
  uint64_t CanaryTicks = 0; // 0 = no canary window
  bool WantRevert = false;
  const char *MetricsOut = nullptr;
  const char *TraceOut = nullptr;
  size_t AdmitLimit = 16;
  std::string InjectSpecs;
  for (int I = 2; I < argc; ++I) {
    if (std::strcmp(argv[I], "--trace") == 0) {
      ShowTrace = true;
    } else if (std::strcmp(argv[I], "--stats") == 0) {
      ShowStats = true;
      Telemetry::global().setEnabled(true);
      Telemetry::global().windows().configure(5'000);
    } else if (std::strcmp(argv[I], "--analyze") == 0) {
      AnalyzeFirst = true;
    } else if (std::strcmp(argv[I], "--lazy") == 0) {
      LazyMode = true;
    } else if (std::strcmp(argv[I], "--codeversion") == 0) {
      CodeVersionMode = true;
    } else if (std::strncmp(argv[I], "--canary", 8) == 0 &&
               (argv[I][8] == '\0' || argv[I][8] == '=')) {
      CanaryTicks = argv[I][8] == '='
                        ? intArg("jvolve-serve", "--canary=", argv[I] + 9, 1)
                        : 20'000;
    } else if (std::strcmp(argv[I], "--revert") == 0) {
      WantRevert = true;
    } else if (std::strcmp(argv[I], "--metrics-out") == 0 && I + 1 < argc) {
      MetricsOut = argv[++I];
      Telemetry::global().setEnabled(true);
    } else if (std::strcmp(argv[I], "--trace-out") == 0 && I + 1 < argc) {
      TraceOut = argv[++I];
      if (!Telemetry::global().openTrace(TraceOut)) {
        std::fprintf(stderr, "jvolve-serve: cannot create trace file '%s'\n",
                     TraceOut);
        return 2;
      }
    } else if (std::strcmp(argv[I], "--inject") == 0 && I + 1 < argc) {
      InjectSpecs = argv[++I];
      if (!validateInjectSpecs("jvolve-serve", InjectSpecs)) {
        std::fprintf(stderr, "  valid sites: %s\n", injectSiteList().c_str());
        return 2;
      }
    } else if (std::strcmp(argv[I], "--admit") == 0 && I + 1 < argc) {
      AdmitLimit = intArg("jvolve-serve", "--admit", argv[++I], 0);
    } else {
      std::fprintf(stderr, "jvolve-serve: unknown argument '%s'\n", argv[I]);
      return 2;
    }
  }

  if (WantRevert && CanaryTicks == 0)
    CanaryTicks = 20'000; // --revert needs a window to revert out of

  AppModel App = AppName == "jetty"   ? makeJettyApp()
                 : AppName == "email" ? makeEmailApp()
                                      : makeCrossFtpApp();
  int Port = AppName == "jetty"   ? JettyPort
             : AppName == "email" ? Pop3Port
                                  : FtpPort;

  VM::Config Cfg;
  Cfg.HeapSpaceBytes = 16u << 20;
  VM TheVM(Cfg);
  TheVM.loadProgram(App.version(0));
  if (App.name() == "jetty")
    startJettyThreads(TheVM);
  else if (App.name() == "javaemailserver")
    startEmailThreads(TheVM);
  else
    startCrossFtpThreads(TheVM);

  if (!InjectSpecs.empty()) {
    TheVM.faults().armFromSpecList(InjectSpecs);
    std::printf("fault(s) armed: %s\n", InjectSpecs.c_str());
  }

  TheVM.net().setAdmissionLimit(Port, AdmitLimit);

  LoadDriver::Options LO;
  LO.Port = Port;
  LoadDriver Driver(TheVM, LO);
  std::printf("booted %s; serving...\n", App.versionName(0).c_str());
  LoadResult Warm = Driver.measure(10'000);
  std::printf("  throughput %.1f resp/ktick\n", Warm.Throughput);
  if (ShowStats)
    serveStatsRequest(TheVM, Port);

  size_t Version = 0; // currently running version index
  for (size_t V = 1; V < App.numVersions(); ++V) {
    // Updates are prepared against the *running* version: if an earlier
    // update failed, its changes fold into this diff, as a real operator
    // rolling releases forward would experience.
    std::printf("updating %s -> %s under load...\n",
                App.versionName(Version).c_str(),
                App.versionName(V).c_str());
    UpdateBundle B = Upt::prepare(App.version(Version), App.version(V),
                                  "v" + std::to_string(V - 1));
    if (App.name() == "javaemailserver")
      registerEmailTransformers(B, App, V);

    UpdateOptions Opts;
    Opts.TimeoutTicks = 120'000;
    // Production posture: rescue what can be rescued, and drain + shed
    // traffic while the safe point is sought.
    Opts.EnableRescue = true;
    Opts.DrainNetwork = true;
    Opts.AnalyzeFirst = AnalyzeFirst;
    Opts.LazyTransform = LazyMode;
    Opts.CodeVersioning = CodeVersionMode;
    if (CanaryTicks > 0) {
      Opts.CanaryWindow.WindowTicks = CanaryTicks;
      Opts.CanaryWindow.CheckIntervalTicks = 500;
      Opts.CanaryWindow.MaxTrapDelta = 0;
      Opts.CanaryWindow.MaxFailedTransforms = 0;
    }
    Updater U(TheVM);
    // Keep traffic flowing while the updater seeks a safe point.
    U.schedule(std::move(B), Opts);
    while (U.pending())
      Driver.runWithLoad(2'000);

    if (U.result().Status == UpdateStatus::TimedOut ||
        U.result().Status == UpdateStatus::RejectedByAnalysis) {
      if (U.result().Status == UpdateStatus::RejectedByAnalysis) {
        std::printf("%s", U.result().Analysis.table().c_str());
        std::printf("  analysis refused the update before any pause; "
                    "retrying with active-method mappings (§3.5)...\n");
      } else {
        if (U.result().Quiescence.diagnosed())
          std::printf("%s", U.result().Quiescence.str().c_str());
        std::printf("  timed out (changed method always on stack); "
                    "retrying with active-method mappings (§3.5)...\n");
      }
      UpdateBundle Retry = Upt::prepare(App.version(Version),
                                        App.version(V),
                                        "r" + std::to_string(V - 1));
      if (App.name() == "javaemailserver")
        registerEmailTransformers(Retry, App, V);
      addOperatorMappings(Retry, App, V);
      U.schedule(std::move(Retry), Opts);
      while (U.pending())
        Driver.runWithLoad(2'000);
    }
    const UpdateResult &R = U.result();
    size_t PriorVersion = Version;

    if (R.Status == UpdateStatus::Applied) {
      std::printf("  applied in %.2f ms (%d barrier(s), %d OSR, %llu "
                  "object(s) transformed)\n",
                  R.TotalPauseMs, R.ReturnBarriersInstalled,
                  R.OsrReplacements,
                  static_cast<unsigned long long>(R.ObjectsTransformed));
      if (R.LazyInstalled)
        std::printf("  committed lazily: %llu shell(s) untransformed, "
                    "draining behind the read barrier\n",
                    static_cast<unsigned long long>(R.LazyPendingAtCommit));
      if (R.CodeVersioned)
        std::printf("  committed through the code-version manager: %d "
                    "method body(ies), no safe point\n",
                    R.CodeVersionedMethods);
      Version = V;
    } else {
      std::printf("  %s — still serving %s\n",
                  updateStatusName(R.Status),
                  App.versionName(Version).c_str());
      if (R.RollbackMs > 0)
        std::printf("  rolled back in %.2f ms: %s\n", R.RollbackMs,
                    R.Message.c_str());
    }
    std::printf("  admission verification: %.3f ms (%d classes verified, "
                "%d reused)\n",
                R.VerifyMs, R.ClassesVerified, R.ClassesReused);
    if (R.Quiescence.diagnosed() && R.Status != UpdateStatus::Applied)
      std::printf("  escalation resolved at rung '%s'\n",
                  quiescenceRungName(R.ResolvedRung));
    std::printf("  drain: %.2f ms, %llu request(s) shed, %llu total shed\n",
                R.DrainMs, static_cast<unsigned long long>(R.RequestsShed),
                static_cast<unsigned long long>(TheVM.net().shedTotal()));
    if (R.Certified) {
      if (R.CertificationProblems.empty())
        std::printf("  certified: heap and registry consistent (%.2f ms)\n",
                    R.CertifyMs);
      else {
        std::printf("  CERTIFICATION FAILED: %zu problem(s)\n",
                    R.CertificationProblems.size());
        for (const std::string &P : R.CertificationProblems)
          std::printf("    %s\n", P.c_str());
        return 1;
      }
    }
    if (ShowTrace)
      std::printf("%s", R.Trace.str().c_str());

    LoadResult After = Driver.measure(6'000);
    std::printf("  throughput %.1f resp/ktick\n", After.Throughput);
    if (auto *Engine =
            static_cast<LazyTransformEngine *>(TheVM.lazyEngine()))
      std::printf("  lazy drain: %llu on-demand + %llu background, "
                  "%zu pending%s\n",
                  static_cast<unsigned long long>(
                      Engine->onDemandTransforms()),
                  static_cast<unsigned long long>(
                      Engine->backgroundTransforms()),
                  Engine->pendingCount(),
                  Engine->retired() ? " (barrier retired)" : "");

    // Drive this release's canary window to a verdict before the next
    // release: healthy retirement, a health-triggered auto-revert, or the
    // operator's explicit --revert. The window may already have resolved
    // during the throughput measurement above (a breach on the first
    // check reverts within a few thousand ticks), so gate on CanaryArmed,
    // not on the window still being open.
    if (R.CanaryArmed) {
      auto *Ctl = static_cast<CanaryController *>(TheVM.canary());
      if (WantRevert && Ctl->windowOpen())
        Ctl->requestRevert("operator --revert");
      for (int Round = 0; Ctl->windowOpen() && Round < 2'000; ++Round)
        Driver.runWithLoad(2'000);
      std::printf("  %s\n", Ctl->report().str().c_str());
      if (Ctl->state() == CanaryState::Reverted) {
        Version = PriorVersion;
        std::printf("  serving %s again (revert pause %.2f ms)\n",
                    App.versionName(Version).c_str(),
                    Ctl->revertResult().TotalPauseMs);
      } else if (Ctl->state() == CanaryState::RevertFailed) {
        std::printf("  REVERT FAILED: %s\n",
                    Ctl->revertResult().Message.c_str());
        return 1;
      }
      LoadResult Settled = Driver.measure(6'000);
      std::printf("  throughput %.1f resp/ktick\n", Settled.Throughput);
    }
    if (ShowStats) {
      serveStatsRequest(TheVM, Port);
      if (auto *Versions =
              static_cast<CodeVersionManager *>(TheVM.codeVersions()))
        std::printf("%s", Versions->activeVersionTable().c_str());
    }
  }

  bool TraceWritten = Telemetry::global().closeTrace();
  if (MetricsOut)
    if (int RC = writeMetricsSnapshot("jvolve-serve", MetricsOut))
      return RC;
  if (!TraceWritten) {
    std::fprintf(stderr, "jvolve-serve: cannot write trace file '%s'\n",
                 TraceOut);
    return 2;
  }
  std::printf("final version: %s\n", App.versionName(Version).c_str());
  for (const std::string &F : TheVM.lazyFailureLog())
    std::printf("degraded lazy transform: %s\n", F.c_str());
  for (auto &T : TheVM.scheduler().threads())
    if (T->State == ThreadState::Trapped) {
      std::printf("thread %s trapped: %s\n", T->Name.c_str(),
                  T->TrapMessage.c_str());
      return 1;
    }
  return 0;
}
