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
#include "support/FaultInjector.h"

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

//===--- Remaps inside the per-thread slot stack --------------------------===//

namespace {

/// Loop.run(a) prints 100 + helper(a, 5) six times; helper(a, b) computes
/// a * b into a local, sleeps there, then returns it plus a. While helper
/// sleeps, run sits below it at its return address with 100 on its
/// operand stack. v2's run keeps a multiplier in a new third local
/// (initially 1) and prints (100 + helper(a, 5)) * m. With \p WithPoint, a
/// Point{x} (v2: Point{x, y}) lives in Holder.p, so the update also runs a
/// DSU collection after stack repair.
ClassSet remapVersion(bool V2, bool WithPoint) {
  ClassSet Set;
  ClassBuilder CB("Loop");
  MethodBuilder &Run = CB.staticMethod("run", "(I)V");
  Run.locals(V2 ? 3 : 2).iconst(0).store(1);
  if (V2)
    Run.iconst(1).store(2);
  Run.label("top")
      .load(1)
      .iconst(6)
      .branch(Opcode::IfICmpGe, "done")
      .iconst(100)
      .load(0)
      .iconst(5)
      .invokestatic("Loop", "helper", "(II)I")
      .iadd();
  if (V2)
    Run.load(2).imul();
  Run.intrinsic(IntrinsicId::PrintInt)
      .load(1)
      .iconst(1)
      .iadd()
      .store(1)
      .jump("top")
      .label("done")
      .ret();
  CB.staticMethod("helper", "(II)I")
      .locals(3)
      .load(0)
      .load(1)
      .imul()
      .store(2)
      .iconst(1'000)
      .intrinsic(IntrinsicId::SleepTicks)
      .load(2)
      .load(0)
      .iadd()
      .iret();
  Set.add(CB.build());
  if (WithPoint) {
    ClassBuilder P("Point");
    P.field("x", "I");
    if (V2)
      P.field("y", "I");
    Set.add(P.build());
    ClassBuilder H("Holder");
    H.staticField("p", "LPoint;");
    H.staticMethod("init", "()V")
        .newobj("Point")
        .putstatic("Holder", "p", "LPoint;")
        .ret();
    Set.add(H.build());
  }
  return Set;
}

/// run's return address while helper sleeps (the instruction after the
/// call) in v1 and v2; v2's prologue initializes one more local.
constexpr uint32_t OldReturnPc = 9, NewReturnPc = 11;

/// v1 -> v2 with run's frame remapped at its return address; the frame
/// transformer keeps a and the loop counter and seeds the multiplier 2.
UpdateBundle remapBundle(bool WithPoint) {
  UpdateBundle B = Upt::prepare(remapVersion(false, WithPoint),
                                remapVersion(true, WithPoint), "v1");
  ActiveMethodMapping M;
  M.Method = {"Loop", "run", "(I)V"};
  M.PcMap = {{OldReturnPc, NewReturnPc}};
  M.Frame = [](TransformCtx &, const std::vector<Slot> &Old,
               std::vector<Slot> &New) {
    New[0] = Old[0];
    New[1] = Old[1];
    New[2] = Slot::ofInt(2);
  };
  B.addActiveMapping(std::move(M));
  return B;
}

/// Boots the program and runs until Loop.run(3) sleeps in helper during
/// its third iteration.
VMThread &startRemapLoop(VM &TheVM, bool WithPoint) {
  TheVM.loadProgram(remapVersion(false, WithPoint));
  if (WithPoint)
    TheVM.callStatic("Holder", "init", "()V");
  ThreadId Id =
      TheVM.spawnThread("Loop", "run", "(I)V", {Slot::ofInt(3)}, "loop");
  TheVM.run(2'500);
  return *TheVM.scheduler().findThread(Id);
}

/// Applies \p B while the loop sleeps in helper, without running it: the
/// sleeping thread is already at a safe point, so the update resolves in
/// the first tick (applyNow would go on serving and finish the loop).
UpdateResult updateWhileParked(VM &TheVM, UpdateBundle B,
                               UpdateOptions Opts) {
  Updater U(TheVM);
  U.schedule(std::move(B), Opts);
  TheVM.run(1);
  EXPECT_FALSE(U.pending());
  return U.result();
}

} // namespace

TEST(ActiveMethod, RemapGrowsLocalsBelowParkedCallee) {
  VM TheVM(smallConfig());
  VMThread &T = startRemapLoop(TheVM, /*WithPoint=*/false);
  ASSERT_EQ(T.State, ThreadState::Sleeping);
  ASSERT_EQ(T.Frames.size(), 2u); // run below helper
  ASSERT_EQ(T.Frames[0].Pc, OldReturnPc);
  size_t Printed = TheVM.printLog().size();
  ASSERT_GE(Printed, 1u);
  uint32_t HelperBase = T.Frames[1].Base;

  UpdateResult R = updateWhileParked(TheVM, remapBundle(false), {});
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  ASSERT_EQ(R.ActiveFramesRemapped, 1);
  ASSERT_EQ(T.Frames.size(), 2u);
  // run's third local pushed its operand stack and helper's window up.
  EXPECT_EQ(T.Frames[0].StackBase - T.Frames[0].Base, 3u);
  EXPECT_EQ(T.Frames[1].Base, HelperBase + 1);
  EXPECT_EQ(T.Frames[0].Sp, T.Frames[1].Base);

  TheVM.runToCompletion();
  ASSERT_EQ(T.State, ThreadState::Finished) << T.TrapMessage;
  // Six iterations: the ones before the update print 100 + 3 * 5 + 3; the
  // in-flight one and the rest print twice that. The in-flight one needs
  // run's operand stack (100) and helper's locals (3, 15) intact.
  const std::vector<std::string> &Log = TheVM.printLog();
  ASSERT_EQ(Log.size(), 6u);
  for (size_t I = 0; I < Log.size(); ++I)
    EXPECT_EQ(Log[I], I < Printed ? "118" : "236") << "iteration " << I;
}

TEST_EAGER_AND_LAZY(ActiveMethod, RemapRolledBackByGcFaultResumesOldFrames) {
  VM TheVM(smallConfig());
  VMThread &T = startRemapLoop(TheVM, /*WithPoint=*/true);
  ASSERT_EQ(T.State, ThreadState::Sleeping);
  ASSERT_EQ(T.Frames.size(), 2u);
  std::vector<Frame> FramesBefore = T.Frames;
  std::vector<Slot> SlotsBefore(T.Slots.begin(),
                                T.Slots.begin() + T.Frames.back().Sp);

  // The DSU collection runs after stack repair: the remap has already
  // moved the windows when the fault fires.
  TheVM.faults().arm(FaultInjector::Site::GcAllocExhaustion);
  UpdateResult R =
      updateWhileParked(TheVM, remapBundle(true), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::RolledBack) << R.Message;
  EXPECT_NE(R.Message.find("dsu-gc"), std::string::npos) << R.Message;
  EXPECT_EQ(R.ActiveFramesRemapped, 1);
  EXPECT_TRUE(R.Certified);

  // Old body, pc, windows and slot values.
  ASSERT_EQ(T.Frames.size(), FramesBefore.size());
  for (size_t I = 0; I < T.Frames.size(); ++I) {
    const Frame &F = T.Frames[I], &Old = FramesBefore[I];
    EXPECT_EQ(F.Code, Old.Code) << "frame " << I;
    EXPECT_EQ(F.Method, Old.Method) << "frame " << I;
    EXPECT_EQ(F.Pc, Old.Pc) << "frame " << I;
    EXPECT_EQ(F.Base, Old.Base) << "frame " << I;
    EXPECT_EQ(F.StackBase, Old.StackBase) << "frame " << I;
    EXPECT_EQ(F.Sp, Old.Sp) << "frame " << I;
  }
  for (size_t I = 0; I < SlotsBefore.size(); ++I) {
    EXPECT_EQ(T.Slots[I].IsRef, SlotsBefore[I].IsRef) << "slot " << I;
    EXPECT_EQ(T.Slots[I].IntVal, SlotsBefore[I].IntVal) << "slot " << I;
  }

  // From here on it prints exactly what a VM that never tried prints.
  VM Twin(smallConfig());
  startRemapLoop(Twin, /*WithPoint=*/true);
  TheVM.runToCompletion();
  Twin.runToCompletion();
  ASSERT_EQ(T.State, ThreadState::Finished) << T.TrapMessage;
  EXPECT_EQ(TheVM.printLog(), Twin.printLog());
  EXPECT_EQ(TheVM.printLog(), std::vector<std::string>(6, "118"));
}

TEST(ActiveMethod, FrameTransformerThatResizesLocalsRollsBack) {
  // The new body's window has three locals; a transformer leaving one
  // would put run's operand stack where its locals should be.
  VM TheVM(smallConfig());
  VMThread &T = startRemapLoop(TheVM, /*WithPoint=*/false);
  ASSERT_EQ(T.State, ThreadState::Sleeping);
  UpdateBundle B = remapBundle(false);
  B.ActiveMappings.begin()->second.Frame =
      [](TransformCtx &, const std::vector<Slot> &Old,
         std::vector<Slot> &New) { New = {Old[0]}; };

  UpdateResult R = updateWhileParked(TheVM, std::move(B), {});
  ASSERT_EQ(R.Status, UpdateStatus::RolledBack) << R.Message;
  EXPECT_NE(R.Message.find("left 1 locals; the new body has 3"),
            std::string::npos)
      << R.Message;
  TheVM.runToCompletion();
  ASSERT_EQ(T.State, ThreadState::Finished) << T.TrapMessage;
  EXPECT_EQ(TheVM.printLog(), std::vector<std::string>(6, "118"));
}
