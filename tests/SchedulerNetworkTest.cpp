//===----------------------------------------------------------------------===//
///
/// \file
/// Thread-scheduler and simulated-network tests: round-robin fairness,
/// yield-point parking, sleep/wake via the virtual clock, blocking accept/
/// receive, daemon accounting, and request-latency bookkeeping.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "bytecode/Builder.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "vm/Network.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

/// Two counter threads that loop forever, each bumping its own static.
ClassSet twoCounterProgram() {
  ClassSet Set;
  ClassBuilder CB("Counters");
  CB.staticField("a", "I");
  CB.staticField("b", "I");
  CB.staticMethod("runA", "()V")
      .label("top")
      .getstatic("Counters", "a", "I")
      .iconst(1)
      .iadd()
      .putstatic("Counters", "a", "I")
      .jump("top");
  CB.staticMethod("runB", "()V")
      .label("top")
      .getstatic("Counters", "b", "I")
      .iconst(1)
      .iadd()
      .putstatic("Counters", "b", "I")
      .jump("top");
  Set.add(CB.build());
  return Set;
}

int64_t staticOf(VM &TheVM, const char *Cls, int Slot) {
  return TheVM.registry()
      .cls(TheVM.registry().idOf(Cls))
      .Statics[static_cast<size_t>(Slot)]
      .IntVal;
}

} // namespace

TEST(Scheduler, RoundRobinIsFair) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(twoCounterProgram());
  TheVM.spawnThread("Counters", "runA", "()V", {}, "a", true);
  TheVM.spawnThread("Counters", "runB", "()V", {}, "b", true);
  TheVM.run(20'000);
  int64_t A = staticOf(TheVM, "Counters", 0);
  int64_t B = staticOf(TheVM, "Counters", 1);
  EXPECT_GT(A, 0);
  EXPECT_GT(B, 0);
  // Within 10% of each other.
  EXPECT_LT(std::abs(A - B), std::max(A, B) / 10 + 2);
}

TEST(Scheduler, VirtualClockAdvancesWithInstructions) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(twoCounterProgram());
  TheVM.spawnThread("Counters", "runA", "()V", {}, "a", true);
  uint64_t Before = TheVM.scheduler().ticks();
  VM::RunResult R = TheVM.run(5'000);
  EXPECT_EQ(R.TicksExecuted, TheVM.scheduler().ticks() - Before);
  EXPECT_EQ(R.TicksExecuted, 5'000u);
}

TEST(Scheduler, SleepFastForwardsWhenIdle) {
  ClassSet Set;
  ClassBuilder CB("Sleepy");
  CB.staticField("wake", "I");
  CB.staticMethod("run", "()V")
      .iconst(100'000)
      .intrinsic(IntrinsicId::SleepTicks)
      .intrinsic(IntrinsicId::CurrentTicks)
      .putstatic("Sleepy", "wake", "I")
      .ret();
  Set.add(CB.build());
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  TheVM.spawnThread("Sleepy", "run", "()V");
  // The sleep is longer than the instructions executed: the clock jumps.
  TheVM.runToCompletion(1'000'000);
  EXPECT_GE(staticOf(TheVM, "Sleepy", 0), 100'000);
  EXPECT_LT(staticOf(TheVM, "Sleepy", 0), 110'000);
}

TEST(Scheduler, RunGoesIdleWithNothingToDo) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(twoCounterProgram());
  VM::RunResult R = TheVM.run(1'000);
  EXPECT_TRUE(R.Idle);
}

TEST(Scheduler, YieldParksAllThreads) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(twoCounterProgram());
  TheVM.spawnThread("Counters", "runA", "()V", {}, "a", true);
  TheVM.spawnThread("Counters", "runB", "()V", {}, "b", true);
  TheVM.run(500);

  bool Reached = false;
  TheVM.claimDsuHooks(
      &Reached,
      [&] {
        Reached = true;
        EXPECT_TRUE(TheVM.scheduler().allAtSafePoints());
        TheVM.resumeAfterYield();
      },
      nullptr, nullptr);
  TheVM.requestYield();
  TheVM.run(5'000);
  TheVM.releaseDsuHooks(&Reached);
  EXPECT_TRUE(Reached);
  // Threads resumed and keep making progress.
  int64_t A = staticOf(TheVM, "Counters", 0);
  TheVM.run(2'000);
  EXPECT_GT(staticOf(TheVM, "Counters", 0), A);
}

TEST(Scheduler, DaemonThreadsDoNotKeepVmAlive) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(twoCounterProgram());
  TheVM.spawnThread("Counters", "runA", "()V", {}, "daemon", true);
  EXPECT_FALSE(TheVM.scheduler().hasLiveApplicationThreads());
  TheVM.spawnThread("Counters", "runB", "()V", {}, "app", false);
  EXPECT_TRUE(TheVM.scheduler().hasLiveApplicationThreads());
}

TEST(Network, InjectAcceptRecvSendRoundTrip) {
  Network Net;
  int Conn = Net.inject(80, {7, 8}, /*Now=*/0);
  EXPECT_TRUE(Net.hasPendingAccept(80));
  EXPECT_EQ(Net.tryAccept(80), Conn);
  EXPECT_EQ(Net.tryAccept(80), -1);

  int64_t V = 0;
  uint64_t Ready = 0;
  EXPECT_EQ(Net.recv(Conn, 0, V, Ready), Network::RecvStatus::Value);
  EXPECT_EQ(V, 7);
  Net.send(Conn, 70, 5);
  EXPECT_EQ(Net.recv(Conn, 10, V, Ready), Network::RecvStatus::Value);
  EXPECT_EQ(V, 8);
  EXPECT_EQ(Net.recv(Conn, 10, V, Ready), Network::RecvStatus::Eof);

  std::vector<NetResponse> Rs = Net.drainResponses();
  ASSERT_EQ(Rs.size(), 1u);
  EXPECT_EQ(Rs[0].Value, 70);
  EXPECT_EQ(Rs[0].Tick, 5u);
}

TEST(Network, InterArrivalDelaysRequests) {
  Network Net;
  int Conn = Net.inject(80, {1, 2}, /*Now=*/100, /*InterArrival=*/50);
  int64_t V = 0;
  uint64_t Ready = 0;
  EXPECT_EQ(Net.recv(Conn, 100, V, Ready), Network::RecvStatus::Value);
  // Second request arrives at tick 150.
  EXPECT_EQ(Net.recv(Conn, 120, V, Ready), Network::RecvStatus::NotReady);
  EXPECT_EQ(Ready, 150u);
  EXPECT_EQ(Net.recv(Conn, 150, V, Ready), Network::RecvStatus::Value);
}

TEST(Network, LatencyMeasuredAgainstArrival) {
  Network Net;
  int Conn = Net.inject(80, {1}, /*Now=*/100, 0, /*FirstDelay=*/20);
  int64_t V = 0;
  uint64_t Ready = 0;
  ASSERT_EQ(Net.recv(Conn, 200, V, Ready), Network::RecvStatus::Value);
  Net.send(Conn, 2, 230); // arrived at 120, answered at 230
  std::vector<double> L = Net.drainLatencies();
  ASSERT_EQ(L.size(), 1u);
  EXPECT_DOUBLE_EQ(L[0], 110);
}

TEST(Network, CloseMakesRecvEof) {
  Network Net;
  int Conn = Net.inject(80, {1, 2, 3}, 0);
  Net.close(Conn);
  EXPECT_TRUE(Net.isClosed(Conn));
  int64_t V = 0;
  uint64_t Ready = 0;
  EXPECT_EQ(Net.recv(Conn, 0, V, Ready), Network::RecvStatus::Eof);
}

TEST(Network, UnknownIdsReadEofAndClosed) {
  Network Net;
  int Conn = Net.inject(80, {1}, /*Now=*/0);
  ASSERT_EQ(Conn, 1);
  int64_t V = 0;
  uint64_t Ready = 0;
  for (int Unknown : {0, -1, Conn + 1}) {
    EXPECT_EQ(Net.recv(Unknown, 0, V, Ready), Network::RecvStatus::Eof)
        << "id " << Unknown;
    EXPECT_TRUE(Net.isClosed(Unknown)) << "id " << Unknown;
    Net.close(Unknown); // a no-op
  }
  EXPECT_FALSE(Net.isClosed(Conn));
  EXPECT_EQ(Net.recv(Conn, 0, V, Ready), Network::RecvStatus::Value);
}

TEST(Network, SendOnUnknownIdCountsResponseWithoutLatency) {
  Network Net;
  Net.send(99, 5, /*Now=*/10);
  EXPECT_EQ(Net.totalResponses(), 1u);
  std::vector<NetResponse> Rs = Net.drainResponses();
  ASSERT_EQ(Rs.size(), 1u);
  EXPECT_EQ(Rs[0].Conn, 99);
  EXPECT_TRUE(Net.drainLatencies().empty());
  EXPECT_EQ(Net.latencySumTicks(), 0u);
}

TEST(Network, SendAfterCloseRecordsLatency) {
  Network Net;
  int Conn = Net.inject(80, {1, 2}, /*Now=*/100);
  int64_t V = 0;
  uint64_t Ready = 0;
  ASSERT_EQ(Net.recv(Conn, 120, V, Ready), Network::RecvStatus::Value);
  Net.close(Conn);
  EXPECT_EQ(Net.recv(Conn, 130, V, Ready), Network::RecvStatus::Eof);
  Net.send(Conn, 7, 150); // measured against the consumed arrival, 100
  std::vector<double> L = Net.drainLatencies();
  ASSERT_EQ(L.size(), 1u);
  EXPECT_DOUBLE_EQ(L[0], 50);
  EXPECT_EQ(Net.latencySumTicks(), 50u);
}

TEST(Network, IdsStayDenseAcrossShedConnections) {
  Network Net;
  Net.setAdmissionLimit(80, 1);
  EXPECT_EQ(Net.inject(80, {1}, 0), 1);
  EXPECT_EQ(Net.inject(80, {2}, 0), 2); // shed
  EXPECT_EQ(Net.inject(80, {3}, 0), 3); // shed
  EXPECT_EQ(Net.tryAccept(80), 1);
  EXPECT_EQ(Net.inject(80, {4}, 0), 4);
  EXPECT_EQ(Net.totalConnections(), 4u);
  EXPECT_TRUE(Net.isClosed(2));
  EXPECT_TRUE(Net.isClosed(3));
  EXPECT_EQ(Net.tryAccept(80), 4);
  int64_t V = 0;
  uint64_t Ready = 0;
  ASSERT_EQ(Net.recv(4, 0, V, Ready), Network::RecvStatus::Value);
  EXPECT_EQ(V, 4);
  EXPECT_EQ(Net.recv(4, 0, V, Ready), Network::RecvStatus::Eof);
}

TEST(Network, BlockedAcceptWakesOnInjection) {
  ClassSet Set;
  ClassBuilder CB("Srv");
  CB.staticField("got", "I");
  CB.staticMethod("run", "(I)V")
      .load(0)
      .intrinsic(IntrinsicId::NetAccept)
      .putstatic("Srv", "got", "I")
      .ret();
  Set.add(CB.build());
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  ThreadId Id = TheVM.spawnThread("Srv", "run", "(I)V", {Slot::ofInt(9)});
  VM::RunResult R = TheVM.run(1'000);
  EXPECT_TRUE(R.Idle);
  EXPECT_EQ(TheVM.scheduler().findThread(Id)->State,
            ThreadState::BlockedAccept);

  int Conn = TheVM.injectConnection(9, {1});
  TheVM.runToCompletion(10'000);
  EXPECT_EQ(TheVM.scheduler().findThread(Id)->State, ThreadState::Finished);
  EXPECT_EQ(staticOf(TheVM, "Srv", 0), Conn);
}

TEST(Network, BlockedRecvWakesAtArrivalTick) {
  ClassSet Set;
  ClassBuilder CB("Srv");
  CB.staticField("sum", "I");
  CB.staticMethod("run", "(I)V")
      .locals(3)
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
      .getstatic("Srv", "sum", "I")
      .load(2)
      .iadd()
      .putstatic("Srv", "sum", "I")
      .jump("loop")
      .label("done")
      .ret();
  Set.add(CB.build());
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  TheVM.spawnThread("Srv", "run", "(I)V", {Slot::ofInt(9)});
  TheVM.injectConnection(9, {10, 20, 30}, /*InterArrival=*/5'000);
  TheVM.runToCompletion(1'000'000);
  EXPECT_EQ(staticOf(TheVM, "Srv", 0), 60);
  // Virtual time covered the arrival schedule via fast-forwarding.
  EXPECT_GE(TheVM.scheduler().ticks(), 10'000u);
}

TEST(Network, AdmissionControlShedsPastDepth) {
  Network Net;
  Net.setAdmissionLimit(80, 1);
  EXPECT_EQ(Net.admissionLimit(80), 1u);

  int C1 = Net.inject(80, {1}, /*Now=*/0);
  int C2 = Net.inject(80, {5, 6}, /*Now=*/0);
  // C1 filled the backlog; C2 was shed: closed, every request refused.
  EXPECT_FALSE(Net.isClosed(C1));
  EXPECT_TRUE(Net.isClosed(C2));
  EXPECT_EQ(Net.shedTotal(), 2u);

  std::vector<NetResponse> Rs = Net.drainResponses();
  ASSERT_EQ(Rs.size(), 2u);
  for (const NetResponse &R : Rs) {
    EXPECT_EQ(R.Conn, C2);
    EXPECT_EQ(R.Value, Network::RejectedResponse);
  }

  // The admitted connection is still there to accept.
  EXPECT_EQ(Net.tryAccept(80), C1);
  EXPECT_EQ(Net.tryAccept(80), -1);

  // Limit 0 means unlimited again.
  Net.setAdmissionLimit(80, 0);
  int C3 = Net.inject(80, {9}, /*Now=*/0);
  EXPECT_FALSE(Net.isClosed(C3));
  EXPECT_EQ(Net.shedTotal(), 2u);
}

TEST(Network, DrainGatesAcceptsUntilEnded) {
  Network Net;
  int Conn = Net.inject(80, {1}, /*Now=*/0);
  Net.beginDrain();
  EXPECT_TRUE(Net.draining());
  // The queued connection is invisible while draining, but not dropped.
  EXPECT_FALSE(Net.hasPendingAccept(80));
  EXPECT_EQ(Net.tryAccept(80), -1);
  Net.endDrain();
  EXPECT_TRUE(Net.hasPendingAccept(80));
  EXPECT_EQ(Net.tryAccept(80), Conn);
}

TEST(Network, TryAcceptDoesNotBlock) {
  ClassSet Set;
  ClassBuilder CB("Srv");
  CB.staticMethod("poll", "(I)I")
      .load(0)
      .intrinsic(IntrinsicId::NetTryAccept)
      .iret();
  Set.add(CB.build());
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  EXPECT_EQ(
      TheVM.callStatic("Srv", "poll", "(I)I", {Slot::ofInt(5)}).IntVal, -1);
  int Conn = TheVM.injectConnection(5, {1});
  EXPECT_EQ(
      TheVM.callStatic("Srv", "poll", "(I)I", {Slot::ofInt(5)}).IntVal,
      Conn);
}

namespace {

/// Echo.run(I)V: accept one connection, answer each request with
/// request + K, close on EOF. K is the version-visible constant.
ClassSet echoProgram(int64_t K) {
  ClassSet Set;
  ClassBuilder CB("Echo");
  CB.staticMethod("run", "(I)V")
      .locals(3)
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
      .iconst(K)
      .iadd()
      .intrinsic(IntrinsicId::NetSend)
      .jump("loop")
      .label("done")
      .load(1)
      .intrinsic(IntrinsicId::NetClose)
      .ret();
  Set.add(CB.build());
  return Set;
}

} // namespace

TEST(Scheduler, BlockedRecvThreadRescuedMidUpdate) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(echoProgram(7));
  TheVM.spawnThread("Echo", "run", "(I)V", {Slot::ofInt(9)}, "echo");
  // Two requests far apart: the thread answers the first, then blocks in
  // recv until the distant second arrival.
  TheVM.injectConnection(9, {10, 20}, /*InterArrival=*/200'000);
  TheVM.run(5'000);
  std::vector<NetResponse> First = TheVM.net().drainResponses();
  ASSERT_EQ(First.size(), 1u);
  EXPECT_EQ(First[0].Value, 17);

  // run(I)V changes body (same instruction count), so the blocked-recv
  // frame pins the update until the rescue rung remaps it in place.
  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 10'000;
  Opts.EnableRescue = true;
  UpdateResult R =
      U.applyNow(Upt::prepare(echoProgram(7), echoProgram(9), "v2"), Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.ResolvedRung, QuiescenceRung::Rescue);
  EXPECT_GE(R.RescuedFrames, 1);

  // The still-blocked thread wakes at the second arrival and serves it
  // with the NEW body: 20 + 9, not 20 + 7. No in-flight response is lost.
  TheVM.runToCompletion(500'000);
  std::vector<NetResponse> Second = TheVM.net().drainResponses();
  ASSERT_EQ(Second.size(), 1u);
  EXPECT_EQ(Second[0].Value, 29);
  EXPECT_EQ(TheVM.net().totalResponses(), 2u);
}
