//===----------------------------------------------------------------------===//
///
/// \file
/// Active-method update tests (§3.5 extension, UpStare-style): changed
/// methods that never leave the stack become updatable when the developer
/// supplies a pc map and (optionally) a frame transformer — including the
/// paper's two otherwise-unsupported updates (Jetty 5.1.3, JES 1.3).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "apps/EmailApp.h"
#include "apps/JettyApp.h"
#include "apps/Workload.h"
#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

/// Infinite-loop worker whose per-iteration increment is the version
/// constant; the update changes the constant (a cat-(1) body change on a
/// method that never returns).
ClassSet spinnerVersion(int64_t Delta) {
  ClassSet Set;
  ClassBuilder CB("Spinner");
  CB.staticField("total", "I");
  CB.staticMethod("run", "()V")
      .label("top")
      .getstatic("Spinner", "total", "I")
      .iconst(Delta)
      .iadd()
      .putstatic("Spinner", "total", "I")
      .iconst(20)
      .intrinsic(IntrinsicId::SleepTicks)
      .jump("top");
  CB.staticMethod("probe", "()I").getstatic("Spinner", "total", "I").iret();
  Set.add(CB.build());
  return Set;
}

int64_t probeTotal(VM &TheVM) {
  return TheVM.callStatic("Spinner", "probe", "()I").IntVal;
}

} // namespace

TEST(ActiveMethod, WithoutMappingTimesOut) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(spinnerVersion(1));
  TheVM.spawnThread("Spinner", "run", "()V", {}, "spin", true);
  TheVM.run(100);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 20'000;
  UpdateResult R =
      U.applyNow(Upt::prepare(spinnerVersion(1), spinnerVersion(1000), "v1"),
                 Opts);
  EXPECT_EQ(R.Status, UpdateStatus::TimedOut);
}

TEST(ActiveMethod, IdentityMappingReplacesRunningMethod) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(spinnerVersion(1));
  TheVM.spawnThread("Spinner", "run", "()V", {}, "spin", true);
  TheVM.run(100);

  UpdateBundle B = Upt::prepare(spinnerVersion(1), spinnerVersion(1000),
                                "v1");
  // Both versions have identical shape (only a constant differs), so the
  // identity pc map is exact.
  B.addActiveMapping(ActiveMethodMapping::identity(
      {"Spinner", "run", "()V"},
      spinnerVersion(1000).find("Spinner")->findMethod("run")->Code.size()));

  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.ActiveFramesRemapped, 1);
  EXPECT_EQ(R.ReturnBarriersInstalled, 0);

  // The *same activation* now runs the new body: increments of 1000.
  int64_t Before = probeTotal(TheVM);
  TheVM.run(500);
  int64_t Delta = probeTotal(TheVM) - Before;
  EXPECT_GE(Delta, 1000);
  EXPECT_EQ(Delta % 1000, 0);
}

TEST(ActiveMethod, ExplicitPcMapForRestructuredBody) {
  // New body inserts an extra instruction before the loop counter update,
  // shifting pcs; the explicit map targets the shifted yield points.
  ClassSet V1 = spinnerVersion(1);
  ClassSet V2 = spinnerVersion(1);
  {
    MethodDef *Run = V2.find("Spinner")->findMethod("run", "()V");
    MethodBuilder MB("run", "()V", /*IsStatic=*/true);
    MB.label("top")
        .iconst(0)
        .pop() // new: inserted prologue work each iteration
        .getstatic("Spinner", "total", "I")
        .iconst(7)
        .iadd()
        .putstatic("Spinner", "total", "I")
        .iconst(20)
        .intrinsic(IntrinsicId::SleepTicks)
        .jump("top");
    *Run = MB.build();
  }

  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  TheVM.spawnThread("Spinner", "run", "()V", {}, "spin", true);
  TheVM.run(100);

  UpdateBundle B = Upt::prepare(V1, V2, "v1");
  ActiveMethodMapping M;
  M.Method = {"Spinner", "run", "()V"};
  // Old pcs 0..6 -> new pcs shifted by 2 (except the loop head).
  M.PcMap = {{0, 0}, {1, 3}, {2, 4}, {3, 5}, {4, 6}, {5, 7}, {6, 8}};
  B.addActiveMapping(std::move(M));

  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.ActiveFramesRemapped, 1);

  int64_t Before = probeTotal(TheVM);
  TheVM.run(500);
  EXPECT_EQ((probeTotal(TheVM) - Before) % 7, 0);
  EXPECT_GT(probeTotal(TheVM), Before);
}

TEST(ActiveMethod, FrameTransformerRebuildsLocals) {
  // v2 keeps a per-iteration counter in a *new* local slot; the frame
  // transformer seeds it from virtual state.
  ClassSet V1;
  {
    ClassBuilder CB("Loop");
    CB.staticField("sum", "I");
    CB.staticMethod("run", "(I)V")
        .locals(1)
        .label("top")
        .getstatic("Loop", "sum", "I")
        .load(0)
        .iadd()
        .putstatic("Loop", "sum", "I")
        .iconst(25)
        .intrinsic(IntrinsicId::SleepTicks)
        .jump("top");
    V1.add(CB.build());
  }
  ClassSet V2;
  {
    ClassBuilder CB("Loop");
    CB.staticField("sum", "I");
    // Fresh invocations initialize the new multiplier local to 1; the
    // frame transformer seeds the *live* activation differently.
    CB.staticMethod("run", "(I)V")
        .locals(2)
        .iconst(1)
        .store(1)
        .label("top")
        .getstatic("Loop", "sum", "I")
        .load(0)
        .load(1)
        .imul()
        .iadd()
        .putstatic("Loop", "sum", "I")
        .iconst(25)
        .intrinsic(IntrinsicId::SleepTicks)
        .jump("top");
    V2.add(CB.build());
  }

  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  TheVM.spawnThread("Loop", "run", "(I)V", {Slot::ofInt(3)}, "loop", true);
  TheVM.run(100);

  UpdateBundle B = Upt::prepare(V1, V2, "v1");
  ActiveMethodMapping M;
  M.Method = {"Loop", "run", "(I)V"};
  // v2 prepends two init instructions and inserts load/imul in the loop:
  // old [get, load0, iadd, put, iconst, sleep, jump] maps into the new
  // body past the prologue.
  M.PcMap = {{0, 2}, {1, 3}, {2, 6}, {3, 7}, {4, 8}, {5, 9}, {6, 10}};
  M.Frame = [](TransformCtx &, const std::vector<Slot> &Old,
               std::vector<Slot> &New) {
    New[0] = Old[0];          // carried argument
    New[1] = Slot::ofInt(10); // new multiplier local
  };
  B.addActiveMapping(std::move(M));

  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  ASSERT_EQ(R.ActiveFramesRemapped, 1);

  // Each iteration now adds 3 * 10.
  int64_t SumBefore = TheVM.registry()
                          .cls(TheVM.registry().idOf("Loop"))
                          .Statics[0]
                          .IntVal;
  TheVM.run(400);
  int64_t Delta = TheVM.registry()
                      .cls(TheVM.registry().idOf("Loop"))
                      .Statics[0]
                      .IntVal -
                  SumBefore;
  EXPECT_GT(Delta, 0);
  EXPECT_EQ(Delta % 30, 0);
}

TEST(ActiveMethod, UnmappedParkPcStaysRestricted) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(spinnerVersion(1));
  TheVM.spawnThread("Spinner", "run", "()V", {}, "spin", true);
  TheVM.run(100);

  UpdateBundle B = Upt::prepare(spinnerVersion(1), spinnerVersion(5), "v1");
  ActiveMethodMapping M;
  M.Method = {"Spinner", "run", "()V"};
  M.PcMap = {{0, 0}}; // only the loop head; the thread parks elsewhere
  B.addActiveMapping(std::move(M));

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 20'000;
  UpdateResult R = U.applyNow(std::move(B), Opts);
  // Either the thread happened to park exactly at pc 0 (applied), or the
  // update deferred and timed out — never a crash. With sleep-resume pcs
  // this parks at pc 6, so it times out.
  EXPECT_EQ(R.Status, UpdateStatus::TimedOut);
}

TEST_EAGER_AND_LAZY(ActiveMethod, Jetty513BecomesSupportedWithMappings) {
  AppModel App = makeJettyApp();
  ASSERT_EQ(App.release(3).Name, "5.1.3");

  VM::Config Cfg = smallConfig();
  Cfg.HeapSpaceBytes = 8u << 20;
  VM TheVM(Cfg);
  TheVM.loadProgram(App.version(2));
  startJettyThreads(TheVM);
  LoadDriver::Options LO;
  LO.Port = JettyPort;
  LoadDriver Driver(TheVM, LO);
  Driver.runWithLoad(3'000);

  UpdateBundle B = Upt::prepare(App.version(2), App.version(3), "v512");
  // acceptSocket: old [load, accept, iret] -> new
  // [load, accept, iconst, iadd, iret].
  {
    ActiveMethodMapping M;
    M.Method = {"ThreadedServer", "acceptSocket", "(I)I"};
    M.PcMap = {{0, 0}, {1, 1}, {2, 4}};
    B.addActiveMapping(std::move(M));
  }
  // PoolThread.run: old [load, call, store, load, call, jump] -> new
  // [load, call, store, load, iconst, branch, load, call, jump].
  {
    ActiveMethodMapping M;
    M.Method = {"PoolThread", "run", "(I)V"};
    M.PcMap = {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 7}, {5, 8}};
    B.addActiveMapping(std::move(M));
  }

  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_GE(R.ActiveFramesRemapped, 2); // both pool threads' run frames

  // The server keeps serving on the new version.
  LoadResult After = Driver.measure(10'000);
  EXPECT_GT(After.Responses, 20u);
  for (auto &T : TheVM.scheduler().threads())
    EXPECT_NE(T->State, ThreadState::Trapped) << T->TrapMessage;
}

TEST_EAGER_AND_LAZY(ActiveMethod, Jes13BecomesSupportedWithMappings) {
  AppModel App = makeEmailApp();
  ASSERT_EQ(App.release(4).Name, "1.3");

  VM::Config Cfg = smallConfig();
  Cfg.HeapSpaceBytes = 8u << 20;
  VM TheVM(Cfg);
  TheVM.loadProgram(App.version(3));
  startEmailThreads(TheVM);
  TheVM.run(1'000);

  UpdateBundle B = Upt::prepare(App.version(3), App.version(4), "v124");
  // The 1.3 run() changes append a dead trailing instruction, so identity
  // maps are exact.
  B.addActiveMapping(ActiveMethodMapping::identity(
      {"Pop3Processor", "run", "(I)V"},
      App.version(4).find("Pop3Processor")->findMethod("run")->Code.size()));
  B.addActiveMapping(ActiveMethodMapping::identity(
      {"SMTPSender", "run", "()V"},
      App.version(4).find("SMTPSender")->findMethod("run")->Code.size()));

  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_GE(R.ActiveFramesRemapped, 2);

  // The POP3 loop still serves sessions on the new version.
  TheVM.injectConnection(Pop3Port, {40});
  TheVM.run(10'000);
  EXPECT_FALSE(TheVM.net().drainResponses().empty());
}
