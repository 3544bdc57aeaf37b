//===----------------------------------------------------------------------===//
///
/// \file
/// Quiescence-escalation tests: the watchdog's structured report (every
/// blocking cause, each on the frame the safe-point attempt armed a
/// barrier on), both rungs of the Rescue -> Abort ladder, the two
/// escalation fault sites, and the escalation counters.
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

/// W.spinOld()V sleeps in a loop until W.stop is set, then returns; v2
/// deletes it and adds a field to W. The shape of
/// DsuEdge.MethodDeletionRestrictsOnStackFrames, given a return so the
/// diagnosis is the deletion rather than an infinite loop.
ClassSet deletionProgram(bool V2) {
  ClassSet Set;
  ClassBuilder CB("W");
  CB.staticField("stop", "I");
  CB.field("pad", "I");
  if (V2)
    CB.field("pad2", "I");
  else
    CB.staticMethod("spinOld", "()V")
        .label("top")
        .getstatic("W", "stop", "I")
        .branch(Opcode::IfNe, "done")
        .iconst(30)
        .intrinsic(IntrinsicId::SleepTicks)
        .jump("top")
        .label("done")
        .ret();
  CB.staticMethod("other", "()I").iconst(0).iret();
  Set.add(CB.build());
  return Set;
}

/// Main.loop()V adds pick(sum) back into Main.sum and sleeps, forever;
/// the update changes only pick's body (\p K). Under an opt tier that
/// compiles on the first call, loop inlines pick.
ClassSet inlineProgram(int64_t K) {
  ClassSet Set;
  ClassBuilder CB("Main");
  CB.staticField("sum", "I");
  CB.staticMethod("pick", "(I)I").load(0).iconst(K).iadd().iret();
  CB.staticMethod("loop", "()V")
      .label("top")
      .getstatic("Main", "sum", "I")
      .invokestatic("Main", "pick", "(I)I")
      .putstatic("Main", "sum", "I")
      .iconst(20)
      .intrinsic(IntrinsicId::SleepTicks)
      .jump("top");
  Set.add(CB.build());
  return Set;
}

/// Reader.run()V reads Box.v off a static Box forever; v2 adds a field to
/// Box, which makes run() category (2): unchanged, but its compiled code
/// references an updated class.
ClassSet boxProgram(bool V2) {
  ClassSet Set;
  {
    ClassBuilder CB("Box");
    CB.field("v", "I");
    if (V2)
      CB.field("w", "I");
    Set.add(CB.build());
  }
  {
    ClassBuilder CB("Reader");
    CB.staticField("box", "LBox;");
    CB.staticField("sum", "I");
    CB.staticMethod("run", "()V")
        .newobj("Box")
        .putstatic("Reader", "box", "LBox;")
        .label("top")
        .getstatic("Reader", "sum", "I")
        .getstatic("Reader", "box", "LBox;")
        .getfield("Box", "v", "I")
        .iadd()
        .putstatic("Reader", "sum", "I")
        .iconst(20)
        .intrinsic(IntrinsicId::SleepTicks)
        .jump("top");
    Set.add(CB.build());
  }
  return Set;
}

/// Applies \p Old -> \p New against one thread spawned at \p Entry of
/// \p Cls, with a 20k-tick deadline, and returns the only frame the report
/// names. \p Cfg picks the VM (OptThreshold selects the code tier).
QuiescenceFrameInfo soleReportedFrame(const VM::Config &Cfg,
                                      const ClassSet &Old,
                                      const ClassSet &New, const char *Cls,
                                      const char *Entry, UpdateResult &R) {
  VM TheVM(Cfg);
  TheVM.loadProgram(Old);
  TheVM.spawnThread(Cls, Entry, "()V", {}, "pinned", true);
  TheVM.run(500);
  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 20'000;
  R = U.applyNow(Upt::prepare(Old, New, "v1"), Opts);
  EXPECT_EQ(R.Status, UpdateStatus::TimedOut) << R.Message;
  EXPECT_EQ(R.ResolvedRung, QuiescenceRung::Abort);
  if (R.Quiescence.Threads.size() != 1 ||
      R.Quiescence.Threads[0].PinningFrames.size() != 1) {
    ADD_FAILURE() << "expected one pinning frame:\n" << R.Quiescence.str();
    return {};
  }
  return R.Quiescence.Threads[0].PinningFrames[0];
}

VM::Config optTierConfig() {
  VM::Config C = smallConfig();
  C.OptThreshold = 1; // compile at the opt tier on the first call
  return C;
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

TEST(Quiescence, RemovedMethodOnStackIsReported) {
  UpdateResult R;
  QuiescenceFrameInfo F =
      soleReportedFrame(smallConfig(), deletionProgram(false),
                        deletionProgram(true), "W", "spinOld", R);
  EXPECT_EQ(F.Cause, QuiescenceBlockCause::RemovedMethod);
  EXPECT_EQ(F.QualifiedName, "W.spinOld()V");
  EXPECT_TRUE(F.BarrierArmed);
  EXPECT_TRUE(R.Quiescence.loopingMethods().empty());
  EXPECT_NE(R.Quiescence.str().find("removed method on stack"),
            std::string::npos)
      << R.Quiescence.str();
}

TEST(Quiescence, CallerThatInlinedAChangedBodyIsReported) {
  // loop() itself is unchanged; the pin is the old pick() body compiled
  // into it.
  UpdateResult R;
  QuiescenceFrameInfo F = soleReportedFrame(
      optTierConfig(), inlineProgram(1), inlineProgram(2), "Main", "loop", R);
  EXPECT_EQ(F.Cause, QuiescenceBlockCause::InlinedRestricted);
  EXPECT_EQ(F.QualifiedName, "Main.loop()V");
  EXPECT_TRUE(F.BarrierArmed);
  EXPECT_FALSE(F.RescuableBodySwap);
  EXPECT_NE(R.Quiescence.str().find("caller inlined a restricted method"),
            std::string::npos)
      << R.Quiescence.str();
}

TEST(Quiescence, OptCompiledIndirectFrameIsReported) {
  // At the baseline tier OSR would replace this frame; opt-compiled code
  // waits behind a barrier that never fires.
  UpdateResult R;
  QuiescenceFrameInfo F = soleReportedFrame(
      optTierConfig(), boxProgram(false), boxProgram(true), "Reader", "run", R);
  EXPECT_EQ(F.Cause, QuiescenceBlockCause::OptimizedIndirect);
  EXPECT_EQ(F.QualifiedName, "Reader.run()V");
  EXPECT_TRUE(F.BarrierArmed);
  EXPECT_NE(R.Quiescence.str().find("opt-compiled code references"),
            std::string::npos)
      << R.Quiescence.str();
}

//===--- The ladder ---------------------------------------------------------===//

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

TEST(Quiescence, DegradeFallsThroughToAbortWithoutBodySubset) {
  // The only change is a class update, and a blacklisted method pins it:
  // the ladder ends at Abort, with the report explaining the pin. (There
  // is no partial commit: the update lands whole or not at all.) The
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
  UpdateResult R = U.applyNow(std::move(B), Opts);

  EXPECT_EQ(R.Status, UpdateStatus::TimedOut);
  EXPECT_EQ(R.ResolvedRung, QuiescenceRung::Abort);
  ASSERT_EQ(R.Quiescence.Threads.size(), 1u);
  ASSERT_EQ(R.Quiescence.Threads[0].PinningFrames.size(), 1u);
  const QuiescenceFrameInfo &F = R.Quiescence.Threads[0].PinningFrames[0];
  EXPECT_EQ(F.Cause, QuiescenceBlockCause::Blacklisted);
  EXPECT_TRUE(F.BarrierArmed);
  // Nothing of the update landed: Aux kept its old shape.
  ClassRegistry &Reg = TheVM.registry();
  EXPECT_EQ(Reg.cls(Reg.idOf("Aux")).findInstanceField("w"), nullptr);
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
