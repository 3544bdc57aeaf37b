//===----------------------------------------------------------------------===//
///
/// \file
/// Quiescence-escalation tests: the watchdog's structured report (per
/// blocking cause), every rung of the Retry -> Rescue -> Degrade -> Abort
/// ladder, the degrade-then-resume round trip, the two new fault sites,
/// and the retry-histogram counting rule.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dsu/Quiescence.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "support/FaultInjector.h"
#include "support/Telemetry.h"
#include "vm/Network.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

using Site = FaultInjector::Site;

/// Worker.spin()V: accumulate-and-sleep forever, no return instruction.
/// \p Longer inserts a reachable no-op so the body's instruction count
/// differs from the base variant (defeating the identity-remap rescue).
ClassSet spinProgram(int64_t K, bool Longer = false) {
  ClassSet Set;
  ClassBuilder CB("Worker");
  CB.staticField("sum", "I");
  MethodBuilder &M = CB.staticMethod("spin", "()V");
  M.label("top").getstatic("Worker", "sum", "I").iconst(K);
  if (Longer)
    M.nop();
  M.iadd()
      .putstatic("Worker", "sum", "I")
      .iconst(20)
      .intrinsic(IntrinsicId::SleepTicks)
      .jump("top");
  Set.add(CB.build());
  return Set;
}

/// Srv.run(I)V: accept one connection, then recv/respond until EOF. The
/// method returns, so it is a plain changed method, never "infinite loop".
ClassSet recvProgram(int64_t K, bool Longer = false) {
  ClassSet Set;
  ClassBuilder CB("Srv");
  MethodBuilder &M = CB.staticMethod("run", "(I)V");
  M.locals(3)
      .load(0)
      .intrinsic(IntrinsicId::NetAccept)
      .store(1)
      .label("loop")
      .load(1)
      .intrinsic(IntrinsicId::NetRecv)
      .store(2)
      .load(2)
      .iconst(0)
      .branch(Opcode::IfICmpLt, "done")
      .load(1)
      .load(2)
      .iconst(K);
  if (Longer)
    M.nop();
  M.iadd()
      .intrinsic(IntrinsicId::NetSend)
      .jump("loop")
      .label("done")
      .ret();
  Set.add(CB.build());
  return Set;
}

/// Busy.work()V: a bounded loop of \p Reps iterations, then returns —
/// long enough to outlive one deadline, short enough to finish.
ClassSet busyProgram(int64_t Reps, int64_t K) {
  ClassSet Set;
  ClassBuilder CB("Busy");
  CB.staticField("sum", "I");
  CB.staticMethod("work", "()V")
      .locals(1)
      .iconst(Reps)
      .store(0)
      .label("top")
      .load(0)
      .branch(Opcode::IfLe, "done")
      .getstatic("Busy", "sum", "I")
      .iconst(K)
      .iadd()
      .putstatic("Busy", "sum", "I")
      .load(0)
      .iconst(1)
      .isub()
      .store(0)
      .jump("top")
      .label("done")
      .ret();
  Set.add(CB.build());
  return Set;
}

/// Sleeper.run()V calls nap() in a loop; nap() sleeps for a very long time
/// and returns. Ticker.run()V spins so the virtual clock never
/// fast-forwards across the sleep.
ClassSet sleeperProgram(bool NewNap) {
  ClassSet Set;
  {
    ClassBuilder CB("Sleeper");
    CB.staticField("naps", "I");
    MethodBuilder &Nap = CB.staticMethod("nap", "()V");
    Nap.iconst(5'000'000);
    if (NewNap)
      Nap.nop(); // size change: the identity remap cannot release it
    Nap.intrinsic(IntrinsicId::SleepTicks)
        .getstatic("Sleeper", "naps", "I")
        .iconst(1)
        .iadd()
        .putstatic("Sleeper", "naps", "I")
        .ret();
    CB.staticMethod("run", "()V")
        .label("top")
        .invokestatic("Sleeper", "nap", "()V")
        .jump("top");
    Set.add(CB.build());
  }
  {
    ClassBuilder CB("Ticker");
    CB.staticField("n", "I");
    CB.staticMethod("run", "()V")
        .label("top")
        .getstatic("Ticker", "n", "I")
        .iconst(1)
        .iadd()
        .putstatic("Ticker", "n", "I")
        .jump("top");
    Set.add(CB.build());
  }
  return Set;
}

/// Three-class program for the degrade round trip: Spin.spin()V loops
/// until Ctl.stop is set (so it *can* return, eventually), and class D is
/// shape-changed in v2 — the part degrade must defer.
ClassSet degradeProgram(int64_t K, bool V2) {
  ClassSet Set;
  {
    ClassBuilder CB("Ctl");
    CB.staticField("stop", "I");
    CB.staticMethod("halt", "()V")
        .iconst(1)
        .putstatic("Ctl", "stop", "I")
        .ret();
    Set.add(CB.build());
  }
  {
    ClassBuilder CB("D");
    CB.field("x", "I");
    if (V2)
      CB.field("y", "I");
    Set.add(CB.build());
  }
  {
    ClassBuilder CB("Spin");
    CB.staticField("sum", "I");
    MethodBuilder &M = CB.staticMethod("spin", "()V");
    M.label("top")
        .getstatic("Ctl", "stop", "I")
        .branch(Opcode::IfNe, "done")
        .getstatic("Spin", "sum", "I")
        .iconst(K);
    if (V2)
      M.nop();
    M.iadd()
        .putstatic("Spin", "sum", "I")
        .iconst(20)
        .intrinsic(IntrinsicId::SleepTicks)
        .jump("top")
        .label("done")
        .ret();
    Set.add(CB.build());
  }
  return Set;
}

/// P gains a second static field in v2: a class update with something to
/// install (and to roll back when the class-load fault fires).
ClassSet fieldProgram(bool V2) {
  ClassSet Set;
  ClassBuilder CB("P");
  CB.staticField("x", "I");
  if (V2)
    CB.staticField("y", "I");
  CB.staticMethod("get", "()I").getstatic("P", "x", "I").iret();
  Set.add(CB.build());
  return Set;
}

int64_t staticIntOf(VM &TheVM, const char *Cls, size_t Slot) {
  ClassRegistry &Reg = TheVM.registry();
  return Reg.cls(Reg.idOf(Cls)).Statics[Slot].IntVal;
}

bool anyContains(const std::vector<std::string> &Haystack,
                 const std::string &Needle) {
  for (const std::string &S : Haystack)
    if (S.find(Needle) != std::string::npos)
      return true;
  return false;
}

} // namespace

//===--- The report ---------------------------------------------------------===//

TEST(Quiescence, InfiniteLoopDiagnosisNamesMethod) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(spinProgram(1));
  TheVM.spawnThread("Worker", "spin", "()V", {}, "spinner", true);
  TheVM.run(500);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 20'000;
  UpdateResult R = U.applyNow(
      Upt::prepare(spinProgram(1), spinProgram(2, /*Longer=*/true), "v1"),
      Opts);

  EXPECT_EQ(R.Status, UpdateStatus::TimedOut);
  EXPECT_EQ(R.ResolvedRung, QuiescenceRung::Abort);
  ASSERT_TRUE(R.Quiescence.diagnosed());
  EXPECT_FALSE(R.Quiescence.Forced);
  ASSERT_EQ(R.Quiescence.Threads.size(), 1u);
  const QuiescenceThreadInfo &T = R.Quiescence.Threads[0];
  EXPECT_EQ(T.Name, "spinner");
  ASSERT_EQ(T.PinningFrames.size(), 1u);
  const QuiescenceFrameInfo &F = T.PinningFrames[0];
  EXPECT_EQ(F.Cause, QuiescenceBlockCause::InfiniteLoop);
  EXPECT_EQ(F.QualifiedName, "Worker.spin()V");
  EXPECT_TRUE(F.BarrierArmed); // the barrier that will never fire
  EXPECT_FALSE(F.RescuableBodySwap);

  std::vector<std::string> Loops = R.Quiescence.loopingMethods();
  ASSERT_EQ(Loops.size(), 1u);
  EXPECT_EQ(Loops[0], "Worker.spin()V");

  // The abort message names the looping method.
  EXPECT_NE(R.Message.find("Worker.spin()V"), std::string::npos)
      << R.Message;
  EXPECT_NE(R.Message.find("never returns"), std::string::npos) << R.Message;

  // So does the rendered report.
  std::string Report = R.Quiescence.str();
  EXPECT_NE(Report.find("spinner"), std::string::npos) << Report;
  EXPECT_NE(Report.find("infinite loop"), std::string::npos) << Report;
}

TEST(Quiescence, SameSizeChangeIsReportedRescuable) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(spinProgram(1));
  TheVM.spawnThread("Worker", "spin", "()V", {}, "spinner", true);
  TheVM.run(500);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 10'000; // rescue stays off: the report only flags it
  UpdateResult R =
      U.applyNow(Upt::prepare(spinProgram(1), spinProgram(5), "v1"), Opts);

  EXPECT_EQ(R.Status, UpdateStatus::TimedOut);
  ASSERT_EQ(R.Quiescence.Threads.size(), 1u);
  ASSERT_EQ(R.Quiescence.Threads[0].PinningFrames.size(), 1u);
  EXPECT_TRUE(R.Quiescence.Threads[0].PinningFrames[0].RescuableBodySwap);
  EXPECT_NE(R.Quiescence.str().find("rescuable: identity remap"),
            std::string::npos);
}

TEST(Quiescence, ReportShowsBlockedRecvState) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(recvProgram(7));
  TheVM.spawnThread("Srv", "run", "(I)V", {Slot::ofInt(9)}, "srv", true);
  TheVM.injectConnection(9, {10, 20}, /*InterArrival=*/500'000);
  TheVM.run(3'000); // first request served; blocked on the distant second

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 10'000;
  UpdateResult R = U.applyNow(
      Upt::prepare(recvProgram(7), recvProgram(9, /*Longer=*/true), "v1"),
      Opts);

  EXPECT_EQ(R.Status, UpdateStatus::TimedOut);
  ASSERT_TRUE(R.Quiescence.diagnosed());
  ASSERT_EQ(R.Quiescence.Threads.size(), 1u);
  const QuiescenceThreadInfo &T = R.Quiescence.Threads[0];
  EXPECT_EQ(T.State, ThreadState::BlockedRecv);
  ASSERT_EQ(T.PinningFrames.size(), 1u);
  EXPECT_EQ(T.PinningFrames[0].Cause, QuiescenceBlockCause::ChangedMethod);
  EXPECT_TRUE(R.Quiescence.loopingMethods().empty());
  EXPECT_NE(R.Quiescence.str().find("blocked-recv"), std::string::npos)
      << R.Quiescence.str();
}

//===--- The ladder ---------------------------------------------------------===//

TEST(Quiescence, RetryRungExtendsDeadlineUntilMethodReturns) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(busyProgram(3'000, 1));
  TheVM.spawnThread("Busy", "work", "()V", {}, "worker", true);
  TheVM.run(100);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 3'000;
  Opts.MaxRetries = 8;
  UpdateResult R = U.applyNow(
      Upt::prepare(busyProgram(3'000, 1), busyProgram(3'000, 2), "v1"), Opts);

  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_GE(R.RetriesUsed, 1);
  EXPECT_EQ(R.ResolvedRung, QuiescenceRung::Retry);
  EXPECT_TRUE(R.Quiescence.diagnosed()); // each expiry re-diagnoses
}

TEST(Quiescence, RescueRungRemapsSameSizeBody) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(spinProgram(1));
  TheVM.spawnThread("Worker", "spin", "()V", {}, "spinner", true);
  TheVM.run(500);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 5'000;
  Opts.EnableRescue = true;
  UpdateResult R =
      U.applyNow(Upt::prepare(spinProgram(1), spinProgram(5), "v1"), Opts);

  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.ResolvedRung, QuiescenceRung::Rescue);
  EXPECT_GE(R.RescuedFrames, 1);

  // The remapped frame now runs the new body: sum advances in steps of 5.
  int64_t Before = staticIntOf(TheVM, "Worker", 0);
  TheVM.run(2'000);
  int64_t After = staticIntOf(TheVM, "Worker", 0);
  EXPECT_GT(After, Before);
  EXPECT_EQ((After - Before) % 5, 0);
}

TEST(Quiescence, RescueRungForceYieldsSleepingThread) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(sleeperProgram(false));
  TheVM.spawnThread("Sleeper", "run", "()V", {}, "sleeper", true);
  TheVM.spawnThread("Ticker", "run", "()V", {}, "ticker", true);
  TheVM.run(500); // sleeper is now mid-nap for 5M ticks

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 10'000;
  Opts.EnableRescue = true;
  UpdateResult R = U.applyNow(
      Upt::prepare(sleeperProgram(false), sleeperProgram(true), "v1"), Opts);

  // The size-changed nap() cannot be remapped, but cutting the sleep short
  // lets it run to its return where the barrier fires.
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.ResolvedRung, QuiescenceRung::Rescue);
  EXPECT_GE(R.ForcedYields, 1);
  EXPECT_GE(staticIntOf(TheVM, "Sleeper", 0), 1); // nap completed early
}

TEST_EAGER_AND_LAZY(Quiescence, DegradeRungAppliesBodySubsetAndResumes) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(degradeProgram(1, false));
  TheVM.spawnThread("Spin", "spin", "()V", {}, "spinner", true);
  TheVM.run(500);

  Updater U(TheVM);
  UpdateOptions Opts = modeOptions(Lazy);
  Opts.TimeoutTicks = 5'000;
  Opts.AllowDegraded = true;
  UpdateResult R = U.applyNow(
      Upt::prepare(degradeProgram(1, false), degradeProgram(2, true), "v1"),
      Opts);

  ASSERT_EQ(R.Status, UpdateStatus::Degraded) << R.Message;
  EXPECT_EQ(R.ResolvedRung, QuiescenceRung::Degrade);
  ASSERT_EQ(R.DegradedApplied.size(), 1u);
  EXPECT_EQ(R.DegradedApplied[0], "Spin.spin()V");
  EXPECT_TRUE(anyContains(R.DegradedDeferred, "class update D"))
      << R.Message;
  ASSERT_TRUE(U.hasDeferred());

  // The class-shape change did not land yet.
  ClassRegistry &Reg = TheVM.registry();
  EXPECT_EQ(Reg.cls(Reg.idOf("D")).findInstanceField("y"), nullptr);
  // The running program version carries the swapped body.
  EXPECT_NE(TheVM.program().find("Spin"), nullptr);

  // Quiesce the spinner, then resume the deferred remainder.
  TheVM.callStatic("Ctl", "halt", "()V");
  TheVM.run(50'000);
  UpdateResult R2 = U.resumeDeferred(modeOptions(Lazy));
  ASSERT_EQ(R2.Status, UpdateStatus::Applied) << R2.Message;
  EXPECT_FALSE(U.hasDeferred());
  EXPECT_NE(Reg.cls(Reg.idOf("D")).findInstanceField("y"), nullptr);
}

TEST(Quiescence, DegradeFallsThroughToAbortWithoutBodySubset) {
  // The only change is a class update: no method-body subset exists, so
  // AllowDegraded still aborts — with the report explaining the pin. The
  // pinned method is a bounded loop far longer than the deadline, so the
  // diagnosis is Blacklisted (it *would* return, just not in time), not
  // InfiniteLoop.
  ClassSet V1 = busyProgram(100'000'000, 1);
  ClassSet V2 = busyProgram(100'000'000, 1);
  ClassBuilder Extra("Aux");
  Extra.field("z", "I");
  V1.add(Extra.build());
  ClassBuilder Extra2("Aux");
  Extra2.field("z", "I");
  Extra2.field("w", "I");
  V2.add(Extra2.build());

  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  TheVM.spawnThread("Busy", "work", "()V", {}, "worker", true);
  TheVM.run(500);
  // Make the worker pin the update: blacklist its method so no rung can
  // release it.
  UpdateBundle B = Upt::prepare(V1, V2, "v1");
  B.Spec.Blacklist.push_back({"Busy", "work", "()V"});

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 5'000;
  Opts.AllowDegraded = true;
  UpdateResult R = U.applyNow(std::move(B), Opts);

  EXPECT_EQ(R.Status, UpdateStatus::TimedOut);
  EXPECT_EQ(R.ResolvedRung, QuiescenceRung::Abort);
  EXPECT_FALSE(U.hasDeferred());
  ASSERT_EQ(R.Quiescence.Threads.size(), 1u);
  EXPECT_EQ(R.Quiescence.Threads[0].PinningFrames[0].Cause,
            QuiescenceBlockCause::Blacklisted);
}

//===--- Fault sites --------------------------------------------------------===//

TEST(QuiescenceFault, ForcedExpiryAbortsWithReport) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(spinProgram(1));
  TheVM.spawnThread("Worker", "spin", "()V", {}, "spinner", true);
  TheVM.run(500);

  TheVM.faults().arm(Site::QuiescenceWatchdogExpiry, /*Fire=*/1, /*Skip=*/0);
  Updater U(TheVM);
  UpdateResult R = U.applyNow(
      Upt::prepare(spinProgram(1), spinProgram(2, /*Longer=*/true), "v1"),
      UpdateOptions()); // default 2M-tick deadline: only the fault expires it

  EXPECT_EQ(R.Status, UpdateStatus::TimedOut);
  ASSERT_TRUE(R.Quiescence.diagnosed());
  EXPECT_TRUE(R.Quiescence.Forced);
  EXPECT_EQ(TheVM.faults().fireCount(Site::QuiescenceWatchdogExpiry), 1u);
  EXPECT_NE(R.Message.find("never returns"), std::string::npos) << R.Message;
}

TEST(QuiescenceFault, ForcedExpirySurvivedByRescue) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(spinProgram(1));
  TheVM.spawnThread("Worker", "spin", "()V", {}, "spinner", true);
  TheVM.run(500);

  TheVM.faults().arm(Site::QuiescenceWatchdogExpiry, /*Fire=*/1, /*Skip=*/0);
  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.EnableRescue = true;
  UpdateResult R =
      U.applyNow(Upt::prepare(spinProgram(1), spinProgram(5), "v1"), Opts);

  // The injected expiry escalates early, but the rescue rung synthesizes
  // the identity remap and the update still lands.
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.ResolvedRung, QuiescenceRung::Rescue);
  EXPECT_GE(R.RescuedFrames, 1);
  EXPECT_TRUE(R.Quiescence.Forced);
}

TEST(QuiescenceFault, NetSlowClientStretchesArrivals) {
  VM TheVM(smallConfig());
  TheVM.faults().arm(Site::NetSlowClient, /*Fire=*/1, /*Skip=*/0);
  uint64_t Now = TheVM.scheduler().ticks();
  int Conn = TheVM.injectConnection(9, {1, 2}, /*InterArrival=*/10);
  EXPECT_EQ(TheVM.faults().fireCount(Site::NetSlowClient), 1u);

  int64_t V = 0;
  uint64_t Ready = 0;
  ASSERT_EQ(TheVM.net().recv(Conn, Now, V, Ready),
            Network::RecvStatus::Value);
  EXPECT_EQ(V, 1);
  // The 10-tick gap was stretched 50x by the fault.
  ASSERT_EQ(TheVM.net().recv(Conn, Now, V, Ready),
            Network::RecvStatus::NotReady);
  EXPECT_EQ(Ready, Now + 500);

  // Subsequent connections arrive at their natural pace again.
  int Conn2 = TheVM.injectConnection(9, {1, 2}, /*InterArrival=*/10);
  ASSERT_EQ(TheVM.net().recv(Conn2, Now, V, Ready),
            Network::RecvStatus::Value);
  ASSERT_EQ(TheVM.net().recv(Conn2, Now, V, Ready),
            Network::RecvStatus::NotReady);
  EXPECT_EQ(Ready, Now + 10);
}

TEST(QuiescenceFault, SpecListArmsExpiryAndSlowClientTogether) {
  // Both escalation sites armed at once through the --inject spec-list
  // syntax: the third connection trickles in slowly and the watchdog
  // expires on its fourth probe, yet the rescue rung still lands the
  // update.
  VM TheVM(smallConfig());
  std::vector<std::string> Errs;
  ASSERT_TRUE(TheVM.faults().armFromSpecList(
      "quiescence-watchdog-expiry:1:3,net-slow-client:1:2", &Errs))
      << Errs.front();
  TheVM.loadProgram(spinProgram(1));
  TheVM.spawnThread("Worker", "spin", "()V", {}, "spinner", true);
  for (int I = 0; I < 3; ++I)
    TheVM.injectConnection(9, {1, 2}, /*InterArrival=*/10);
  EXPECT_EQ(TheVM.faults().fireCount(Site::NetSlowClient), 1u);
  TheVM.run(500);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.EnableRescue = true;
  UpdateResult R =
      U.applyNow(Upt::prepare(spinProgram(1), spinProgram(5), "v1"), Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.ResolvedRung, QuiescenceRung::Rescue);
  EXPECT_TRUE(R.Quiescence.Forced);
  EXPECT_EQ(TheVM.faults().fireCount(Site::QuiescenceWatchdogExpiry), 1u);
}

TEST(QuiescenceFault, ArmFromSpecRejectsUnknownSiteAndBadCounts) {
  FaultInjector FI;
  std::string Err;
  EXPECT_FALSE(FI.armFromSpec("no-such-site", &Err));
  EXPECT_NE(Err.find("unknown fault site"), std::string::npos);
  EXPECT_FALSE(FI.armFromSpec("class-load:x", &Err));
  EXPECT_NE(Err.find("malformed fire count"), std::string::npos);
  EXPECT_FALSE(FI.armFromSpec("class-load:1:y", &Err));
  EXPECT_NE(Err.find("malformed skip count"), std::string::npos);

  EXPECT_TRUE(FI.armFromSpec("quiescence-watchdog-expiry:2:3"));
  EXPECT_TRUE(FI.armed(Site::QuiescenceWatchdogExpiry));

  // The site table knows all seven names (the --inject error message lists
  // them via allSiteNames()).
  std::vector<std::string> Names = FaultInjector::allSiteNames();
  ASSERT_EQ(Names.size(), FaultInjector::NumSites);
  EXPECT_TRUE(anyContains(Names, "quiescence-watchdog-expiry"));
  EXPECT_TRUE(anyContains(Names, "net-slow-client"));
}

//===--- Telemetry ----------------------------------------------------------===//

TEST_EAGER_AND_LAZY(QuiescenceTelemetry, RetryHistogramSkipsRollbackAborts) {
  bool Was = Telemetry::isEnabled();
  Telemetry &Tel = Telemetry::global();
  Tel.setEnabled(true);

  uint64_t Before = 0;
  {
    // A rollback abort happens after quiescence was reached: no sample.
    VM TheVM(smallConfig());
    Before = Tel.histogram(metrics::DsuUpdateRetries).count();
    TheVM.loadProgram(fieldProgram(false));
    TheVM.faults().arm(Site::ClassLoad);
    Updater U(TheVM);
    UpdateResult R =
        U.applyNow(Upt::prepare(fieldProgram(false), fieldProgram(true), "v1"),
                   modeOptions(Lazy));
    ASSERT_EQ(R.Status, UpdateStatus::RolledBack) << R.Message;
    EXPECT_EQ(Tel.histogram(metrics::DsuUpdateRetries).count(), Before);
  }
  {
    // An applied update samples once (with zero retries here).
    VM TheVM(smallConfig());
    TheVM.loadProgram(fieldProgram(false));
    Updater U(TheVM);
    UpdateResult R =
        U.applyNow(Upt::prepare(fieldProgram(false), fieldProgram(true), "v1"),
                   modeOptions(Lazy));
    ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
    EXPECT_EQ(Tel.histogram(metrics::DsuUpdateRetries).count(), Before + 1);
  }

  Tel.setEnabled(Was);
}

TEST(QuiescenceTelemetry, EscalationCountersAdvance) {
  bool Was = Telemetry::isEnabled();
  Telemetry &Tel = Telemetry::global();
  Tel.setEnabled(true);

  VM TheVM(smallConfig());
  uint64_t Expiries =
      Tel.counter(metrics::DsuQuiescenceExpiries).value();
  uint64_t Rescued =
      Tel.counter(metrics::DsuQuiescenceRescuedFrames).value();
  TheVM.loadProgram(spinProgram(1));
  TheVM.spawnThread("Worker", "spin", "()V", {}, "spinner", true);
  TheVM.run(500);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 5'000;
  Opts.EnableRescue = true;
  UpdateResult R =
      U.applyNow(Upt::prepare(spinProgram(1), spinProgram(5), "v1"), Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;

  EXPECT_GT(Tel.counter(metrics::DsuQuiescenceExpiries).value(), Expiries);
  EXPECT_GT(Tel.counter(metrics::DsuQuiescenceRescuedFrames).value(),
            Rescued);
  Tel.setEnabled(Was);
}
