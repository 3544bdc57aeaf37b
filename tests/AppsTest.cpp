//===----------------------------------------------------------------------===//
///
/// \file
/// Application-model tests: version streams match Tables 2-4 exactly, the
/// servers serve traffic, and the flexibility behaviours the paper reports
/// (which updates apply, which need OSR, which time out, which apply only
/// when idle) reproduce end to end.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "apps/CrossFtpApp.h"
#include "apps/EmailApp.h"
#include "apps/Evaluation.h"
#include "apps/JettyApp.h"
#include "apps/Workload.h"
#include "dsu/Canary.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

VM::Config appConfig() {
  VM::Config C;
  C.HeapSpaceBytes = 8u << 20;
  return C;
}

void expectStreamMatchesTable(const AppModel &App) {
  for (size_t V = 1; V < App.numVersions(); ++V) {
    UpdateSummary S =
        Upt::computeSpec(App.version(V - 1), App.version(V)).Summary;
    EXPECT_TRUE(summaryMatches(S, App.release(V).Target))
        << App.versionName(V) << ": " << describeSummary(S) << " vs "
        << describeCounts(App.release(V).Target);
  }
}

} // namespace

TEST(Apps, JettyStreamMatchesTable2) {
  AppModel App = makeJettyApp();
  EXPECT_EQ(App.numVersions(), 11u); // 5.1.0 .. 5.1.10
  expectStreamMatchesTable(App);
}

TEST(Apps, EmailStreamMatchesTable3) {
  AppModel App = makeEmailApp();
  EXPECT_EQ(App.numVersions(), 10u); // 1.2.1 .. 1.4
  expectStreamMatchesTable(App);
}

TEST(Apps, CrossFtpStreamMatchesTable4) {
  AppModel App = makeCrossFtpApp();
  EXPECT_EQ(App.numVersions(), 4u); // 1.05 .. 1.08
  expectStreamMatchesTable(App);
}

TEST(Apps, JettyServesRequests) {
  AppModel App = makeJettyApp();
  VM TheVM(appConfig());
  TheVM.loadProgram(App.version(0));
  startJettyThreads(TheVM);

  LoadDriver::Options LO;
  LO.Port = JettyPort;
  LoadDriver Driver(TheVM, LO);
  LoadResult R = Driver.measure(20'000);

  EXPECT_GT(R.Responses, 50u);
  EXPECT_GT(R.Throughput, 0.0);
  EXPECT_GT(R.LatencyTicks.Median, 0.0);
  EXPECT_GT(TheVM.callStatic("Stats", "served", "()I").IntVal, 0);
  // No thread trapped.
  for (auto &T : TheVM.scheduler().threads())
    EXPECT_NE(T->State, ThreadState::Trapped) << T->TrapMessage;
}

TEST(Apps, EmailServesRequests) {
  AppModel App = makeEmailApp();
  VM TheVM(appConfig());
  TheVM.loadProgram(App.version(0));
  startEmailThreads(TheVM);

  // One POP3 session with three requests; responses add the admin
  // account's forward count (1).
  TheVM.injectConnection(Pop3Port, {10, 20, 30});
  TheVM.run(20'000);
  std::vector<NetResponse> Rs = TheVM.net().drainResponses();
  ASSERT_EQ(Rs.size(), 3u);
  EXPECT_EQ(Rs[0].Value, 11);
  EXPECT_EQ(Rs[1].Value, 21);
  EXPECT_EQ(Rs[2].Value, 31);
}

TEST(Apps, CrossFtpServesSessions) {
  AppModel App = makeCrossFtpApp();
  VM TheVM(appConfig());
  TheVM.loadProgram(App.version(0));
  startCrossFtpThreads(TheVM);

  TheVM.injectConnection(FtpPort, {1, 2});
  TheVM.injectConnection(FtpPort, {3});
  TheVM.run(30'000);
  std::vector<NetResponse> Rs = TheVM.net().drainResponses();
  ASSERT_EQ(Rs.size(), 3u);
  // execute(r) = r*3 + 200.
  EXPECT_EQ(Rs[0].Value, 203);
}

TEST_EAGER_AND_LAZY(Apps, JettyFirstUpdateAppliesUnderLoad) {
  AppModel App = makeJettyApp();
  VM TheVM(appConfig());
  TheVM.loadProgram(App.version(0));
  startJettyThreads(TheVM);

  LoadDriver::Options LO;
  LO.Port = JettyPort;
  LoadDriver Driver(TheVM, LO);
  Driver.runWithLoad(5'000);

  Updater U(TheVM);
  UpdateResult R = U.applyNow(
      Upt::prepare(App.version(0), App.version(1), "v510"), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;

  // The server keeps serving after the update.
  LoadResult After = Driver.measure(10'000);
  EXPECT_GT(After.Responses, 20u);
  for (auto &T : TheVM.scheduler().threads())
    EXPECT_NE(T->State, ThreadState::Trapped) << T->TrapMessage;
}

TEST(Apps, JettyUpdateReverifiesOnlyWhatItChanged) {
  // 5.1.5 -> 5.1.6 changes four classes; HttpHandler calls one of them.
  // Every other class reuses the running program's verification record,
  // and the way back does the same against the record the commit left.
  AppModel App = makeJettyApp();
  VM TheVM(appConfig());
  TheVM.loadProgram(App.version(5));
  size_t Classes = TheVM.program().size();
  ASSERT_EQ(TheVM.verificationRecord().size(), Classes);
  startJettyThreads(TheVM);
  TheVM.run(5'000);

  Updater U(TheVM);
  for (auto [From, To] : {std::pair{5, 6}, std::pair{6, 5}}) {
    UpdateResult R = U.applyNow(Upt::prepare(TheVM.program(), App.version(To),
                                             "u" + std::to_string(To)));
    ASSERT_EQ(R.Status, UpdateStatus::Applied) << From << ": " << R.Message;
    EXPECT_EQ(R.ClassesVerified, 5) << From;
    EXPECT_EQ(R.ClassesReused, static_cast<int>(Classes) - 5) << From;
    EXPECT_EQ(TheVM.verificationRecord().size(), Classes);
  }
}

TEST(Apps, UpdateOfAnUnverifiedProgramVerifiesEveryClass) {
  AppModel App = makeJettyApp();
  VM::Config C = appConfig();
  C.Verify = false;
  VM TheVM(C);
  TheVM.loadProgram(App.version(5));
  ASSERT_TRUE(TheVM.verificationRecord().empty());
  startJettyThreads(TheVM);
  TheVM.run(5'000);

  Updater U(TheVM);
  UpdateResult R =
      U.applyNow(Upt::prepare(TheVM.program(), App.version(6), "u6"));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.ClassesVerified, static_cast<int>(TheVM.program().size()));
  EXPECT_EQ(R.ClassesReused, 0);
  // The commit leaves the admitted version's record behind.
  EXPECT_EQ(TheVM.verificationRecord().size(), TheVM.program().size());
}

TEST(Apps, Jetty513TimesOut) {
  AppModel App = makeJettyApp();
  VM TheVM(appConfig());
  TheVM.loadProgram(App.version(2)); // 5.1.2
  startJettyThreads(TheVM);

  LoadDriver::Options LO;
  LO.Port = JettyPort;
  LoadDriver Driver(TheVM, LO);
  Driver.runWithLoad(3'000);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 60'000;
  UpdateResult R = U.applyNow(
      Upt::prepare(App.version(2), App.version(3), "v512"), Opts);
  EXPECT_EQ(R.Status, UpdateStatus::TimedOut);
  EXPECT_GE(R.ReturnBarriersInstalled, 1);

  // The aborted update leaves the old version serving.
  LoadResult After = Driver.measure(10'000);
  EXPECT_GT(After.Responses, 20u);
}

TEST(Apps, Jetty513AbortDiagnosesInfiniteLoop) {
  AppModel App = makeJettyApp();
  VM TheVM(appConfig());
  TheVM.loadProgram(App.version(2)); // 5.1.2
  startJettyThreads(TheVM);

  LoadDriver::Options LO;
  LO.Port = JettyPort;
  LoadDriver Driver(TheVM, LO);
  Driver.runWithLoad(3'000);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 60'000;
  UpdateResult R = U.applyNow(
      Upt::prepare(App.version(2), App.version(3), "v512"), Opts);
  ASSERT_EQ(R.Status, UpdateStatus::TimedOut);
  EXPECT_EQ(R.ResolvedRung, QuiescenceRung::Abort);

  // Table 2's "would need a stack-frame transformer" update: the changed
  // PoolThread.run never leaves the stack, and the report says so by name.
  ASSERT_TRUE(R.Quiescence.diagnosed());
  std::vector<std::string> Loops = R.Quiescence.loopingMethods();
  bool Named = false;
  for (const std::string &M : Loops)
    Named = Named || M.find("PoolThread.run") != std::string::npos;
  EXPECT_TRUE(Named) << R.Quiescence.str();
  EXPECT_NE(R.Message.find("PoolThread.run"), std::string::npos)
      << R.Message;
  EXPECT_NE(R.Message.find("never returns"), std::string::npos) << R.Message;
}

TEST(Apps, Email13AbortDiagnosesInfiniteLoop) {
  AppModel App = makeEmailApp();
  size_t V13 = 4;
  ASSERT_EQ(App.release(V13).Name, "1.3");

  VM TheVM(appConfig());
  TheVM.loadProgram(App.version(V13 - 1));
  startEmailThreads(TheVM);
  TheVM.run(1'000);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 60'000;
  UpdateResult R = U.applyNow(
      Upt::prepare(App.version(V13 - 1), App.version(V13), "v124"), Opts);
  ASSERT_EQ(R.Status, UpdateStatus::TimedOut);
  ASSERT_TRUE(R.Quiescence.diagnosed());

  // Both daemon loops changed and neither ever returns.
  std::vector<std::string> Loops = R.Quiescence.loopingMethods();
  bool Pop3 = false, Smtp = false;
  for (const std::string &M : Loops) {
    Pop3 = Pop3 || M.find("Pop3Processor.run") != std::string::npos;
    Smtp = Smtp || M.find("SMTPSender.run") != std::string::npos;
  }
  EXPECT_TRUE(Pop3) << R.Quiescence.str();
  EXPECT_TRUE(Smtp) << R.Quiescence.str();
  EXPECT_NE(R.Message.find("never returns"), std::string::npos) << R.Message;
}

TEST_EAGER_AND_LAZY(Apps, Email132UsesOsrAndFigure3Transformer) {
  AppModel App = makeEmailApp();
  size_t V132 = 6; // base=1.2.1, 1=1.2.2, ..., 5=1.3.1, 6=1.3.2
  ASSERT_EQ(App.release(V132).Name, "1.3.2");
  ASSERT_TRUE(App.release(V132).NeedsOsr);

  VM TheVM(appConfig());
  TheVM.loadProgram(App.version(V132 - 1));
  startEmailThreads(TheVM);
  TheVM.injectConnection(Pop3Port, {100, 200}, /*InterArrival=*/500);
  TheVM.run(2'000);

  UpdateBundle B =
      Upt::prepare(App.version(V132 - 1), App.version(V132), "v131");
  registerEmailTransformers(B, App, V132);
  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_GE(R.OsrReplacements, 2); // Pop3Processor.run and SMTPSender.run
  EXPECT_GE(R.ObjectsTransformed, 1u);

  // The POP3 loop keeps serving with the transformed User object: the
  // forward count must still be 1 (one converted EmailAddress).
  TheVM.run(20'000);
  std::vector<NetResponse> Rs = TheVM.net().drainResponses();
  ASSERT_GE(Rs.size(), 2u);
  EXPECT_EQ(Rs.back().Value % 100, 1);
  for (auto &T : TheVM.scheduler().threads())
    EXPECT_NE(T->State, ThreadState::Trapped) << T->TrapMessage;
}

TEST(Apps, Email13TimesOut) {
  AppModel App = makeEmailApp();
  size_t V13 = 4;
  ASSERT_EQ(App.release(V13).Name, "1.3");
  ASSERT_FALSE(App.release(V13).ExpectSupported);

  VM TheVM(appConfig());
  TheVM.loadProgram(App.version(V13 - 1));
  startEmailThreads(TheVM);
  TheVM.run(1'000);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 60'000;
  UpdateResult R = U.applyNow(
      Upt::prepare(App.version(V13 - 1), App.version(V13), "v124"), Opts);
  EXPECT_EQ(R.Status, UpdateStatus::TimedOut);
}

TEST_EAGER_AND_LAZY(Apps, CrossFtp108BusyVsIdle) {
  AppModel App = makeCrossFtpApp();
  ASSERT_TRUE(App.release(3).OnlyWhenIdle);

  // Busy: a long-running session keeps handle() on stack -> timeout.
  {
    VM TheVM(appConfig());
    TheVM.loadProgram(App.version(2));
    startCrossFtpThreads(TheVM);
    // A session with many slow requests: handle() stays active.
    std::vector<int64_t> Requests(200, 1);
    TheVM.injectConnection(FtpPort, Requests, /*InterArrival=*/300);
    TheVM.run(2'000);

    Updater U(TheVM);
    UpdateOptions Opts = modeOptions(Lazy);
    Opts.TimeoutTicks = 30'000;
    UpdateResult R = U.applyNow(
        Upt::prepare(App.version(2), App.version(3), "v107"), Opts);
    EXPECT_EQ(R.Status, UpdateStatus::TimedOut);
  }

  // Idle: no session active -> handle() not on stack -> applies.
  {
    VM TheVM(appConfig());
    TheVM.loadProgram(App.version(2));
    startCrossFtpThreads(TheVM);
    TheVM.run(2'000); // server parks in accept

    Updater U(TheVM);
    UpdateResult R =
        U.applyNow(Upt::prepare(App.version(2), App.version(3), "v107"),
                   modeOptions(Lazy));
    EXPECT_EQ(R.Status, UpdateStatus::Applied) << R.Message;

    // New sessions run the new handler.
    TheVM.injectConnection(FtpPort, {7});
    TheVM.run(10'000);
    std::vector<NetResponse> Rs = TheVM.net().drainResponses();
    ASSERT_EQ(Rs.size(), 1u);
    EXPECT_EQ(Rs[0].Value, 221);
  }
}

TEST(Apps, FlexibilityHeadline20of22) {
  // Count supported updates per the release metadata: the paper's
  // 20-of-22 (Jvolve) versus method-body-only systems.
  AppModel Apps[] = {makeJettyApp(), makeEmailApp(), makeCrossFtpApp()};
  int Total = 0, JvolveOk = 0, EcOk = 0;
  for (const AppModel &App : Apps) {
    for (size_t V = 1; V < App.numVersions(); ++V) {
      ++Total;
      if (App.release(V).ExpectSupported)
        ++JvolveOk;
      UpdateSummary S =
          Upt::computeSpec(App.version(V - 1), App.version(V)).Summary;
      if (S.editAndContinueSupported())
        ++EcOk;
    }
  }
  EXPECT_EQ(Total, 22);
  EXPECT_EQ(JvolveOk, 20);
  // The paper reports 9; our reconstruction of the tables yields 8 (see
  // EXPERIMENTS.md for the counting discussion).
  EXPECT_EQ(EcOk, 8);
}

//===--- Eager vs lazy transformation across the full update stream ---------===//

/// Parameter: LazyTransform on/off. Every release of every app must reach
/// the same supported/unsupported verdict in both modes, and every applied
/// update must pass post-update certification. In lazy mode every applied
/// update also drains and then certifies over the whole heap — the lazy
/// engine's final heap is indistinguishable from the eager one.
class AppsUpdateMode : public ::testing::TestWithParam<bool> {};

TEST_P(AppsUpdateMode, All22ReleasesMatchTableVerdictAndCertify) {
  const bool Lazy = GetParam();
  AppModel Apps[] = {makeJettyApp(), makeEmailApp(), makeCrossFtpApp()};
  int Total = 0, Supported = 0;
  for (const AppModel &App : Apps) {
    for (size_t V = 1; V < App.numVersions(); ++V) {
      SCOPED_TRACE(App.name() + " " + App.release(V).Name +
                   (Lazy ? " [lazy]" : " [eager]"));
      ReleaseOutcome R =
          evaluateRelease(App, V, {.TimeoutTicks = 60'000, .Lazy = Lazy});
      ++Total;
      if (R.supported())
        ++Supported;
      EXPECT_EQ(R.supported(), App.release(V).ExpectSupported);
      if (R.Result.Status == UpdateStatus::Applied) {
        EXPECT_TRUE(R.Result.Certified);
        EXPECT_TRUE(R.Result.CertificationProblems.empty())
            << R.Result.CertificationProblems.front();
      }
      EXPECT_EQ(R.PostDrainCertified, Lazy && R.supported());
    }
  }
  // The 20-of-22 headline holds in both transformation modes.
  EXPECT_EQ(Total, 22);
  EXPECT_EQ(Supported, 20);
}

INSTANTIATE_EAGER_AND_LAZY(AppsUpdateMode);

//===--- Post-commit canary reverts on the modeled applications -------------===//

namespace {

UpdateOptions appCanaryOpts(bool Lazy) {
  UpdateOptions Opts = modeOptions(Lazy);
  Opts.CanaryWindow.WindowTicks = 100'000'000;
  Opts.CanaryWindow.CheckIntervalTicks = 1'000;
  return Opts;
}

/// The revert's contract on a real application: certification verdicts
/// identical to never having updated — the reverse update certifies
/// clean, the running program diffs empty against the pre-update
/// version, and no new-version object survives.
void expectAppReverted(VM &TheVM, const UpdateResult &Rev,
                       const ClassSet &PriorVersion) {
  ASSERT_EQ(Rev.Status, UpdateStatus::Reverted) << Rev.Message;
  EXPECT_TRUE(Rev.Certified);
  EXPECT_TRUE(Rev.CertificationProblems.empty())
      << Rev.CertificationProblems.front();
  EXPECT_TRUE(Upt::computeSpec(TheVM.program(), PriorVersion).empty());
  auto *Ctl = static_cast<CanaryController *>(TheVM.canary());
  ASSERT_NE(Ctl, nullptr);
  EXPECT_EQ(Ctl->state(), CanaryState::Reverted);
  EXPECT_EQ(Ctl->report().ResidualNewObjects, 0u);
}

void runJettyRevertScenario(bool Lazy) {
  AppModel App = makeJettyApp();
  ASSERT_EQ(App.release(3).Name, "5.1.3");
  VM TheVM(appConfig());
  TheVM.loadProgram(App.version(2));
  startJettyThreads(TheVM);

  LoadDriver::Options LO;
  LO.Port = JettyPort;
  LoadDriver Driver(TheVM, LO);
  Driver.runWithLoad(3'000);

  // 5.1.3 changes methods that live on pool-thread stacks; the same
  // operator pc maps that make it applicable forward are inverted by the
  // revert to walk the frames back.
  UpdateBundle B = Upt::prepare(App.version(2), App.version(3), "v512");
  {
    ActiveMethodMapping M;
    M.Method = {"ThreadedServer", "acceptSocket", "(I)I"};
    M.PcMap = {{0, 0}, {1, 1}, {2, 4}};
    B.addActiveMapping(std::move(M));
  }
  {
    ActiveMethodMapping M;
    M.Method = {"PoolThread", "run", "(I)V"};
    M.PcMap = {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 7}, {5, 8}};
    B.addActiveMapping(std::move(M));
  }

  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), appCanaryOpts(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  ASSERT_TRUE(R.CanaryArmed);

  // Serve inside the window, then pull the update back out.
  Driver.runWithLoad(3'000);
  UpdateResult Rev = U.revert("operator revert");
  expectAppReverted(TheVM, Rev, App.version(2));

  // The server keeps serving on the reinstated 5.1.2.
  LoadResult After = Driver.measure(10'000);
  EXPECT_GT(After.Responses, 20u);
  for (auto &T : TheVM.scheduler().threads())
    EXPECT_NE(T->State, ThreadState::Trapped) << T->TrapMessage;
}

void runEmailRevertScenario(bool Lazy) {
  AppModel App = makeEmailApp();
  size_t V132 = 6;
  ASSERT_EQ(App.release(V132).Name, "1.3.2");
  VM TheVM(appConfig());
  TheVM.loadProgram(App.version(V132 - 1));
  startEmailThreads(TheVM);
  TheVM.injectConnection(Pop3Port, {100, 200}, /*InterArrival=*/500);
  TheVM.run(2'000);

  // 1.3.2 needs OSR and the Figure-3 User transformer forward; the revert
  // undoes the User surgery with the default inverse plus the undo log.
  UpdateBundle B =
      Upt::prepare(App.version(V132 - 1), App.version(V132), "v131");
  registerEmailTransformers(B, App, V132);
  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), appCanaryOpts(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  ASSERT_TRUE(R.CanaryArmed);

  TheVM.run(10'000);
  UpdateResult Rev = U.revert("operator revert");
  expectAppReverted(TheVM, Rev, App.version(V132 - 1));

  // POP3 still answers on the reinstated 1.3.1.
  TheVM.injectConnection(Pop3Port, {40});
  TheVM.run(20'000);
  EXPECT_FALSE(TheVM.net().drainResponses().empty());
  for (auto &T : TheVM.scheduler().threads())
    EXPECT_NE(T->State, ThreadState::Trapped) << T->TrapMessage;
}

} // namespace

TEST(Apps, Jetty513RevertsUnderLoadEager) { runJettyRevertScenario(false); }
TEST(Apps, Jetty513RevertsUnderLoadLazy) { runJettyRevertScenario(true); }
TEST(Apps, Email132RevertsAfterOsrEager) { runEmailRevertScenario(false); }
TEST(Apps, Email132RevertsAfterOsrLazy) { runEmailRevertScenario(true); }
