//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end dynamic-software-update tests: method-body updates, class
/// updates with default and custom transformers, the Figure 2/3
/// User/EmailAddress scenario, return barriers, OSR for category-(2)
/// methods, timeouts for always-on-stack methods, rejections, subclass
/// closure, statics migration, and the E&C baseline.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dsu/EcUpdater.h"
#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

/// v1: Worker.value()I returns 1.  v2: returns 2.
ClassSet workerVersion(int64_t Value) {
  ClassSet Set;
  ClassBuilder CB("Worker");
  CB.staticMethod("value", "()I").iconst(Value).iret();
  Set.add(CB.build());
  return Set;
}

} // namespace

TEST(Dsu, MethodBodyUpdateOnIdleVm) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(workerVersion(1));
  EXPECT_EQ(TheVM.callStatic("Worker", "value", "()I").IntVal, 1);

  Updater U(TheVM);
  UpdateResult R = U.applyNow(Upt::prepare(workerVersion(1), workerVersion(2), "v1"));
  EXPECT_EQ(R.Status, UpdateStatus::Applied);
  EXPECT_EQ(TheVM.callStatic("Worker", "value", "()I").IntVal, 2);
}

TEST(Dsu, EmptyUpdateApplies) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(workerVersion(1));
  Updater U(TheVM);
  UpdateResult R = U.applyNow(Upt::prepare(workerVersion(1), workerVersion(1), "v1"));
  EXPECT_EQ(R.Status, UpdateStatus::Applied);
  EXPECT_EQ(TheVM.callStatic("Worker", "value", "()I").IntVal, 1);
}

namespace {

/// Point program versions. v1: Point{x}. v2: Point{x, y} + Probe.
ClassSet pointV1() {
  ClassSet Set;
  ClassBuilder P("Point");
  P.field("x", "I");
  Set.add(P.build());
  ClassBuilder H("Holder");
  H.staticField("p", "LPoint;");
  Set.add(H.build());
  ClassBuilder S("Setup");
  S.staticMethod("init", "(I)V")
      .locals(2)
      .newobj("Point")
      .store(1)
      .load(1)
      .load(0)
      .putfield("Point", "x", "I")
      .load(1)
      .putstatic("Holder", "p", "LPoint;")
      .ret();
  Set.add(S.build());
  return Set;
}

ClassSet pointV2() {
  ClassSet Set;
  ClassBuilder P("Point");
  P.field("x", "I");
  P.field("y", "I");
  Set.add(P.build());
  ClassBuilder H("Holder");
  H.staticField("p", "LPoint;");
  Set.add(H.build());
  ClassBuilder S("Setup");
  S.staticMethod("init", "(I)V")
      .locals(2)
      .newobj("Point")
      .store(1)
      .load(1)
      .load(0)
      .putfield("Point", "x", "I")
      .load(1)
      .putstatic("Holder", "p", "LPoint;")
      .ret();
  Set.add(S.build());
  // Probe is new in v2: returns p.x * 100 + p.y.
  ClassBuilder Pr("Probe");
  Pr.staticMethod("check", "()I")
      .getstatic("Holder", "p", "LPoint;")
      .getfield("Point", "x", "I")
      .iconst(100)
      .imul()
      .getstatic("Holder", "p", "LPoint;")
      .getfield("Point", "y", "I")
      .iadd()
      .iret();
  Set.add(Pr.build());
  return Set;
}

} // namespace

TEST_EAGER_AND_LAZY(Dsu, FieldAdditionWithDefaultTransformer) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pointV1());
  TheVM.callStatic("Setup", "init", "(I)V", {Slot::ofInt(9)});

  Updater U(TheVM);
  UpdateResult R =
      U.applyNow(Upt::prepare(pointV1(), pointV2(), "v1"), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied);
  EXPECT_EQ(R.ObjectsTransformed, 1u);
  // Default transformer: x copied, y defaults to 0.
  EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 900);
}

TEST_EAGER_AND_LAZY(Dsu, FieldAdditionWithCustomTransformer) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pointV1());
  TheVM.callStatic("Setup", "init", "(I)V", {Slot::ofInt(9)});

  UpdateBundle B = Upt::prepare(pointV1(), pointV2(), "v1");
  B.ObjectTransformers["Point"] = [](TransformCtx &Ctx, Ref To, Ref From) {
    int64_t X = Ctx.getInt(From, "x");
    Ctx.setInt(To, "x", X);
    Ctx.setInt(To, "y", X * 2);
  };
  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied);
  EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 918);
}

TEST_EAGER_AND_LAZY(Dsu, ManyInstancesAllTransformed) {
  // An array of Points behind a static; every element must be transformed
  // and aliasing must be preserved.
  ClassSet V1 = pointV1();
  {
    ClassBuilder H("ArrHolder");
    H.staticField("arr", "[LPoint;");
    V1.add(H.build());
    ClassBuilder S("ArrSetup");
    S.staticMethod("init", "()V")
        .locals(2)
        .iconst(50)
        .newarray("LPoint;")
        .putstatic("ArrHolder", "arr", "[LPoint;")
        .iconst(0)
        .store(0)
        .label("loop")
        .load(0)
        .iconst(50)
        .branch(Opcode::IfICmpGe, "done")
        .newobj("Point")
        .store(1)
        .load(1)
        .load(0)
        .putfield("Point", "x", "I")
        .getstatic("ArrHolder", "arr", "[LPoint;")
        .load(0)
        .load(1)
        .astore()
        .load(0)
        .iconst(1)
        .iadd()
        .store(0)
        .jump("loop")
        .label("done")
        .ret();
    V1.add(S.build());
  }
  ClassSet V2 = pointV2();
  {
    ClassBuilder H("ArrHolder");
    H.staticField("arr", "[LPoint;");
    V2.add(H.build());
    ClassBuilder S("ArrSetup");
    S.staticMethod("init", "()V")
        .locals(2)
        .iconst(50)
        .newarray("LPoint;")
        .putstatic("ArrHolder", "arr", "[LPoint;")
        .iconst(0)
        .store(0)
        .label("loop")
        .load(0)
        .iconst(50)
        .branch(Opcode::IfICmpGe, "done")
        .newobj("Point")
        .store(1)
        .load(1)
        .load(0)
        .putfield("Point", "x", "I")
        .getstatic("ArrHolder", "arr", "[LPoint;")
        .load(0)
        .load(1)
        .astore()
        .load(0)
        .iconst(1)
        .iadd()
        .store(0)
        .jump("loop")
        .label("done")
        .ret();
    V2.add(S.build());
    // Sum over arr of x*10 + y.
    ClassBuilder Pr("ArrProbe");
    Pr.staticMethod("sum", "()I")
        .locals(3)
        .iconst(0)
        .store(0) // total
        .iconst(0)
        .store(1) // i
        .label("loop")
        .load(1)
        .iconst(50)
        .branch(Opcode::IfICmpGe, "done")
        .getstatic("ArrHolder", "arr", "[LPoint;")
        .load(1)
        .aload()
        .store(2)
        .load(0)
        .load(2)
        .getfield("Point", "x", "I")
        .iconst(10)
        .imul()
        .iadd()
        .load(2)
        .getfield("Point", "y", "I")
        .iadd()
        .store(0)
        .load(1)
        .iconst(1)
        .iadd()
        .store(1)
        .jump("loop")
        .label("done")
        .load(0)
        .iret();
    V2.add(Pr.build());
  }

  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  TheVM.callStatic("ArrSetup", "init", "()V");

  UpdateBundle B = Upt::prepare(V1, V2, "v1");
  B.ObjectTransformers["Point"] = [](TransformCtx &Ctx, Ref To, Ref From) {
    Ctx.setInt(To, "x", Ctx.getInt(From, "x"));
    Ctx.setInt(To, "y", 1);
  };
  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied);
  EXPECT_EQ(R.ObjectsTransformed, 50u);
  // sum(i*10 + 1) for i in 0..49 = 12250 + 50
  EXPECT_EQ(TheVM.callStatic("ArrProbe", "sum", "()I").IntVal, 12300);
}

namespace {

/// The paper's Figure 2/3 scenario. v1: User.forwardAddresses is String[];
/// v2: it is EmailAddress[].
ClassSet userV1() {
  ClassSet Set;
  ClassBuilder U("User");
  U.field("username", "LString;", Access::Private, /*IsFinal=*/true);
  U.field("forwardAddresses", "[LString;", Access::Private);
  U.method("<init>", "(LString;[LString;)V")
      .load(0)
      .load(1)
      .putfield("User", "username", "LString;")
      .load(0)
      .load(2)
      .putfield("User", "forwardAddresses", "[LString;")
      .ret();
  U.method("getUsername", "()LString;")
      .load(0)
      .getfield("User", "username", "LString;")
      .aret();
  U.method("getForwardedAddresses", "()[LString;")
      .load(0)
      .getfield("User", "forwardAddresses", "[LString;")
      .aret();
  Set.add(U.build());
  ClassBuilder H("Accounts");
  H.staticField("admin", "LUser;");
  Set.add(H.build());
  ClassBuilder S("Setup");
  // init(): admin = new User("admin", ["alice@example.com", "bob@foo.org"])
  S.staticMethod("init", "()V")
      .locals(2)
      .iconst(2)
      .newarray("LString;")
      .store(1)
      .load(1)
      .iconst(0)
      .sconst("alice@example.com")
      .astore()
      .load(1)
      .iconst(1)
      .sconst("bob@foo.org")
      .astore()
      .newobj("User")
      .store(0)
      .load(0)
      .sconst("admin")
      .load(1)
      .invokespecial("User", "<init>", "(LString;[LString;)V")
      .load(0)
      .putstatic("Accounts", "admin", "LUser;")
      .ret();
  Set.add(S.build());
  return Set;
}

ClassSet userV2() {
  ClassSet Set;
  ClassBuilder E("EmailAddress");
  E.field("user", "LString;");
  E.field("domain", "LString;");
  Set.add(E.build());
  ClassBuilder U("User");
  U.field("username", "LString;", Access::Private, /*IsFinal=*/true);
  U.field("forwardAddresses", "[LEmailAddress;", Access::Private);
  U.method("<init>", "(LString;[LEmailAddress;)V")
      .load(0)
      .load(1)
      .putfield("User", "username", "LString;")
      .load(0)
      .load(2)
      .putfield("User", "forwardAddresses", "[LEmailAddress;")
      .ret();
  U.method("getUsername", "()LString;")
      .load(0)
      .getfield("User", "username", "LString;")
      .aret();
  U.method("getForwardedAddresses", "()[LEmailAddress;")
      .load(0)
      .getfield("User", "forwardAddresses", "[LEmailAddress;")
      .aret();
  Set.add(U.build());
  ClassBuilder H("Accounts");
  H.staticField("admin", "LUser;");
  Set.add(H.build());
  ClassBuilder S("Setup");
  S.staticMethod("init", "()V").ret(); // fresh v2 installs create none
  Set.add(S.build());
  // Probe: 1 if admin.getForwardedAddresses()[1].domain == "foo.org".
  ClassBuilder Pr("Probe");
  Pr.staticMethod("check", "()I")
      .getstatic("Accounts", "admin", "LUser;")
      .invokevirtual("User", "getForwardedAddresses", "()[LEmailAddress;")
      .iconst(1)
      .aload()
      .getfield("EmailAddress", "domain", "LString;")
      .sconst("foo.org")
      .intrinsic(IntrinsicId::StrEquals)
      .iret();
  Set.add(Pr.build());
  return Set;
}

} // namespace

TEST_EAGER_AND_LAZY(Dsu, Figure3UserTransformer) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(userV1());
  TheVM.callStatic("Setup", "init", "()V");

  UpdateBundle B = Upt::prepare(userV1(), userV2(), "v131");

  // The Figure 3 jvolveObject transformer: copy username, convert each
  // forwarded address string "a@b" into an EmailAddress{a, b}. Note it
  // writes the *final*, *private* username field — TransformCtx bypasses
  // access modifiers exactly like the paper's JastAdd extension.
  B.ObjectTransformers["User"] = [](TransformCtx &Ctx, Ref To, Ref From) {
    Ctx.setRef(To, "username", Ctx.getRef(From, "username"));
    Ref OldArr = Ctx.getRef(From, "forwardAddresses");
    int64_t Len = Ctx.arrayLength(OldArr);
    Ref NewArr = Ctx.allocateArray("LEmailAddress;", Len);
    Ctx.setRef(To, "forwardAddresses", NewArr);
    for (int64_t I = 0; I < Len; ++I) {
      std::string Addr = Ctx.stringValue(Ctx.getElemRef(OldArr, I));
      std::vector<std::string> Parts = splitString(Addr, '@', 2);
      Ref Email = Ctx.allocate("EmailAddress");
      Ctx.setRef(Email, "user", Ctx.newString(Parts[0]));
      Ctx.setRef(Email, "domain", Ctx.newString(Parts.size() > 1 ? Parts[1] : ""));
      Ctx.setElemRef(NewArr, I, Email);
    }
  };

  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 1);
  // The username String was carried over unchanged through the update.
  Ref Admin = TheVM.registry()
                  .cls(TheVM.registry().idOf("Accounts"))
                  .Statics[0]
                  .RefVal;
  ASSERT_NE(Admin, nullptr);
  TransformCtx Ctx(TheVM, nullptr);
  EXPECT_EQ(TheVM.stringValue(Ctx.getRef(Admin, "username")), "admin");
}

namespace {

/// Server whose loop() sleeps between calls to handle(); handle() is the
/// method the update changes.
ClassSet serverVersion(int64_t HandleValue, bool HandleSleeps) {
  ClassSet Set;
  ClassBuilder S("Server");
  S.staticField("total", "I");
  MethodBuilder &H = S.staticMethod("handle", "()V");
  if (HandleSleeps)
    H.iconst(40).intrinsic(IntrinsicId::SleepTicks);
  H.getstatic("Server", "total", "I")
      .iconst(HandleValue)
      .iadd()
      .putstatic("Server", "total", "I")
      .ret();
  S.staticMethod("loop", "()V")
      .label("top")
      .invokestatic("Server", "handle", "()V")
      .iconst(10)
      .intrinsic(IntrinsicId::SleepTicks)
      .jump("top");
  S.staticMethod("probeTotal", "()I")
      .getstatic("Server", "total", "I")
      .iret();
  Set.add(S.build());
  return Set;
}

} // namespace

TEST(Dsu, ReturnBarrierOnChangedMethod) {
  VM TheVM(smallConfig());
  ClassSet V1 = serverVersion(1, /*HandleSleeps=*/true);
  ClassSet V2 = serverVersion(1000, /*HandleSleeps=*/true);
  TheVM.loadProgram(V1);
  TheVM.spawnThread("Server", "loop", "()V", {}, "server", /*Daemon=*/true);

  // Run until the server thread is inside handle() (sleeping there).
  TheVM.run(20);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 1'000'000;
  UpdateResult R = U.applyNow(Upt::prepare(V1, V2, "v1"), Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_GE(R.ReturnBarriersInstalled, 1);
  EXPECT_GE(R.SafePointAttempts, 2);

  // After the update the loop calls the new handle(): total grows by 1000s.
  int64_t Before = TheVM.callStatic("Server", "probeTotal", "()I").IntVal;
  TheVM.run(500);
  int64_t After = TheVM.callStatic("Server", "probeTotal", "()I").IntVal;
  EXPECT_GE(After - Before, 1000);
}

TEST(Dsu, TimeoutWhenChangedMethodAlwaysOnStack) {
  // The update changes loop() itself — an infinite loop that never
  // returns, like Jetty 5.1.3's acceptSocket/PoolThread.run (paper §4.2).
  ClassSet V1 = serverVersion(1, false);
  ClassSet V2 = serverVersion(1, false);
  // Change loop()'s body in V2: different sleep constant.
  MethodDef *Loop = V2.find("Server")->findMethod("loop", "()V");
  ASSERT_NE(Loop, nullptr);
  for (Instr &I : Loop->Code)
    if (I.Op == Opcode::IConst && I.IVal == 10)
      I.IVal = 11;

  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  TheVM.spawnThread("Server", "loop", "()V", {}, "server", /*Daemon=*/true);
  TheVM.run(50);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 30'000;
  UpdateResult R = U.applyNow(Upt::prepare(V1, V2, "v1"), Opts);
  EXPECT_EQ(R.Status, UpdateStatus::TimedOut);
  EXPECT_GE(R.ReturnBarriersInstalled, 1);

  // The application was not harmed: the old loop keeps running.
  int64_t Before = TheVM.callStatic("Server", "probeTotal", "()I").IntVal;
  TheVM.run(200);
  EXPECT_GT(TheVM.callStatic("Server", "probeTotal", "()I").IntVal, Before);
}

TEST(Dsu, BlacklistForcesRestriction) {
  // loop() is unchanged, but the user blacklists it (category (3)); since
  // it never returns, the update must time out.
  ClassSet V1 = serverVersion(1, false);
  ClassSet V2 = serverVersion(2, false); // handle() body change only

  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  TheVM.spawnThread("Server", "loop", "()V", {}, "server", /*Daemon=*/true);
  TheVM.run(50);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 30'000;
  UpdateResult R = U.applyNow(
      Upt::prepare(V1, V2, "v1", {{"Server", "loop", "()V"}}), Opts);
  EXPECT_EQ(R.Status, UpdateStatus::TimedOut);
}

namespace {

/// OSR scenario: Worker.run() loops forever reading Data fields; the
/// update changes class Data (adds a field), so run() is category (2).
ClassSet osrVersion(bool WithExtraField) {
  ClassSet Set;
  {
    ClassBuilder D("Data");
    D.field("a", "I");
    if (WithExtraField)
      D.field("b", "I");
    Set.add(D.build());
  }
  {
    ClassBuilder St("Store");
    St.staticField("data", "LData;");
    St.staticField("sum", "I");
    Set.add(St.build());
  }
  {
    ClassBuilder S("Setup");
    S.staticMethod("init", "()V")
        .locals(1)
        .newobj("Data")
        .store(0)
        .load(0)
        .iconst(5)
        .putfield("Data", "a", "I")
        .load(0)
        .putstatic("Store", "data", "LData;")
        .ret();
    Set.add(S.build());
  }
  {
    ClassBuilder W("Worker");
    W.staticMethod("run", "()V")
        .label("top")
        .getstatic("Store", "sum", "I")
        .getstatic("Store", "data", "LData;")
        .getfield("Data", "a", "I")
        .iadd()
        .putstatic("Store", "sum", "I")
        .iconst(15)
        .intrinsic(IntrinsicId::SleepTicks)
        .jump("top");
    W.staticMethod("probeSum", "()I")
        .getstatic("Store", "sum", "I")
        .iret();
    Set.add(W.build());
  }
  if (WithExtraField) {
    ClassBuilder Pr("Probe");
    Pr.staticMethod("check", "()I")
        .getstatic("Store", "data", "LData;")
        .getfield("Data", "a", "I")
        .iconst(10)
        .imul()
        .getstatic("Store", "data", "LData;")
        .getfield("Data", "b", "I")
        .iadd()
        .iret();
    Set.add(Pr.build());
  }
  return Set;
}

} // namespace

TEST_EAGER_AND_LAZY(Dsu, OsrLiftsCategory2Restriction) {
  ClassSet V1 = osrVersion(false);
  ClassSet V2 = osrVersion(true);

  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  TheVM.callStatic("Setup", "init", "()V");
  TheVM.spawnThread("Worker", "run", "()V", {}, "worker", /*Daemon=*/true);
  TheVM.run(100);

  Updater U(TheVM);
  UpdateResult R = U.applyNow(Upt::prepare(V1, V2, "v1"), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_GE(R.OsrReplacements, 1);
  EXPECT_EQ(R.ObjectsTransformed, 1u);

  // Old data preserved, new field defaulted.
  EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 50);

  // The OSR'd loop keeps accumulating with the *new* field offsets.
  int64_t Before = TheVM.callStatic("Worker", "probeSum", "()I").IntVal;
  TheVM.run(2000);
  int64_t After = TheVM.callStatic("Worker", "probeSum", "()I").IntVal;
  EXPECT_GT(After, Before);
  EXPECT_EQ((After - Before) % 5, 0);
}

TEST(Dsu, WithoutOsrCategory2TimesOut) {
  // Ablation: the very same update cannot be applied when OSR is disabled,
  // because run() never leaves the stack.
  ClassSet V1 = osrVersion(false);
  ClassSet V2 = osrVersion(true);

  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  TheVM.callStatic("Setup", "init", "()V");
  ThreadId Worker =
      TheVM.spawnThread("Worker", "run", "()V", {}, "worker", /*Daemon=*/true);
  TheVM.run(100);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.EnableOsr = false;
  Opts.TimeoutTicks = 30'000;
  UpdateResult R = U.applyNow(Upt::prepare(V1, V2, "v1"), Opts);
  EXPECT_EQ(R.Status, UpdateStatus::TimedOut);

  // The report names the pinning frame for what it is: base-compiled,
  // nothing inlined, waiting only because OSR is off.
  const VMThread *W = TheVM.scheduler().findThread(Worker);
  ASSERT_EQ(W->Frames.size(), 1u);
  EXPECT_EQ(W->Frames[0].Code->T, Tier::Baseline);
  EXPECT_TRUE(W->Frames[0].Code->Inlined.empty());
  ASSERT_EQ(R.Quiescence.Threads.size(), 1u);
  ASSERT_EQ(R.Quiescence.Threads[0].PinningFrames.size(), 1u);
  EXPECT_EQ(R.Quiescence.Threads[0].PinningFrames[0].Cause,
            QuiescenceBlockCause::OsrDisabled);
  std::string Report = R.Quiescence.str();
  EXPECT_EQ(Report.find("opt-compiled"), std::string::npos) << Report;
  EXPECT_NE(Report.find("OSR disabled"), std::string::npos) << Report;
}

namespace {

ClassSet hierV1() {
  ClassSet Set;
  ClassBuilder A("Base");
  A.field("a", "I");
  Set.add(A.build());
  ClassBuilder B("Derived", "Base");
  B.field("b", "I");
  Set.add(B.build());
  ClassBuilder H("Holder");
  H.staticField("d", "LDerived;");
  Set.add(H.build());
  ClassBuilder S("Setup");
  S.staticMethod("init", "()V")
      .locals(1)
      .newobj("Derived")
      .store(0)
      .load(0)
      .iconst(3)
      .putfield("Base", "a", "I")
      .load(0)
      .iconst(4)
      .putfield("Derived", "b", "I")
      .load(0)
      .putstatic("Holder", "d", "LDerived;")
      .ret();
  Set.add(S.build());
  return Set;
}

ClassSet hierV2() {
  ClassSet Set = hierV1();
  // Add a field to Base: Derived's layout changes transitively.
  Set.find("Base")->Fields.push_back({"extra", "I", false, false,
                                      Access::Public});
  ClassBuilder Pr("Probe");
  Pr.staticMethod("check", "()I")
      .getstatic("Holder", "d", "LDerived;")
      .getfield("Base", "a", "I")
      .iconst(100)
      .imul()
      .getstatic("Holder", "d", "LDerived;")
      .getfield("Derived", "b", "I")
      .iconst(10)
      .imul()
      .iadd()
      .getstatic("Holder", "d", "LDerived;")
      .getfield("Base", "extra", "I")
      .iadd()
      .iret();
  Set.add(Pr.build());
  return Set;
}

} // namespace

TEST_EAGER_AND_LAZY(Dsu, SubclassClosureTransformsDerivedInstances) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(hierV1());
  TheVM.callStatic("Setup", "init", "()V");

  UpdateBundle B = Upt::prepare(hierV1(), hierV2(), "v1");
  // Derived must be in the closure even though its own def is unchanged.
  EXPECT_TRUE(B.Spec.isClassUpdated("Derived"));
  EXPECT_TRUE(B.Spec.isClassUpdated("Base"));

  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 340);
}

TEST_EAGER_AND_LAZY(Dsu, StaticsMigratedByDefaultClassTransformer) {
  ClassSet V1;
  {
    ClassBuilder C("Config");
    C.staticField("level", "I");
    C.field("pad", "I"); // instance field so the class has a layout
    V1.add(C.build());
    ClassBuilder S("Setup");
    S.staticMethod("init", "()V")
        .iconst(1234)
        .putstatic("Config", "level", "I")
        .ret();
    V1.add(S.build());
  }
  ClassSet V2;
  {
    ClassBuilder C("Config");
    C.staticField("level", "I");
    C.field("pad", "I");
    C.field("pad2", "I"); // class update
    V2.add(C.build());
    ClassBuilder S("Setup");
    S.staticMethod("init", "()V")
        .iconst(1234)
        .putstatic("Config", "level", "I")
        .ret();
    V2.add(S.build());
    ClassBuilder Pr("Probe");
    Pr.staticMethod("check", "()I")
        .getstatic("Config", "level", "I")
        .iret();
    V2.add(Pr.build());
  }

  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  TheVM.callStatic("Setup", "init", "()V");

  Updater U(TheVM);
  UpdateResult R = U.applyNow(Upt::prepare(V1, V2, "v1"), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 1234);
}

TEST(Dsu, RejectsUnverifiableNewVersion) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(workerVersion(1));

  // Broken v2: value() returns a null reference from an int method.
  ClassSet Broken;
  ClassBuilder CB("Worker");
  CB.staticMethod("value", "()I").nullconst().raw(
      {Opcode::IReturn, 0, "", "", ""});
  Broken.add(CB.build());

  Updater U(TheVM);
  UpdateResult R = U.applyNow(Upt::prepare(workerVersion(1), Broken, "v1"));
  EXPECT_EQ(R.Status, UpdateStatus::RejectedNotVerifiable);
  // Old program still intact.
  EXPECT_EQ(TheVM.callStatic("Worker", "value", "()I").IntVal, 1);
}

TEST(Dsu, VerifyMsTimesTheAdmissionGate) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(workerVersion(1));

  // An applied update and a rejected one both paid for verification.
  Updater U(TheVM);
  UpdateResult Applied =
      U.applyNow(Upt::prepare(workerVersion(1), workerVersion(2), "v1"));
  ASSERT_EQ(Applied.Status, UpdateStatus::Applied) << Applied.Message;
  EXPECT_GT(Applied.VerifyMs, 0.0);

  ClassSet Broken;
  ClassBuilder CB("Worker");
  CB.staticMethod("value", "()I").nullconst().raw(
      {Opcode::IReturn, 0, "", "", ""});
  Broken.add(CB.build());
  UpdateResult Rejected =
      U.applyNow(Upt::prepare(workerVersion(2), Broken, "v2"));
  ASSERT_EQ(Rejected.Status, UpdateStatus::RejectedNotVerifiable);
  EXPECT_NE(Rejected.Message.find("fails verification"), std::string::npos);
  EXPECT_GT(Rejected.VerifyMs, 0.0);

  // A truncated bundle is refused at ingest, before the gate.
  TheVM.faults().arm(FaultInjector::Site::BundleTruncated);
  UpdateResult Truncated =
      U.applyNow(Upt::prepare(workerVersion(2), workerVersion(3), "v2"));
  ASSERT_EQ(Truncated.Status, UpdateStatus::RejectedNotVerifiable);
  EXPECT_NE(Truncated.Message.find("truncated"), std::string::npos);
  EXPECT_EQ(Truncated.VerifyMs, 0.0);
  EXPECT_EQ(TheVM.callStatic("Worker", "value", "()I").IntVal, 2);
}

TEST(Dsu, RejectsHierarchyPermutation) {
  ClassSet V1;
  {
    ClassBuilder A("Alpha");
    V1.add(A.build());
    ClassBuilder B("Beta", "Alpha");
    V1.add(B.build());
  }
  ClassSet V2;
  {
    ClassBuilder B("Beta");
    V2.add(B.build());
    ClassBuilder A("Alpha", "Beta");
    V2.add(A.build());
  }
  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  Updater U(TheVM);
  UpdateResult R = U.applyNow(Upt::prepare(V1, V2, "v1"));
  EXPECT_EQ(R.Status, UpdateStatus::RejectedHierarchy);
}

TEST(Dsu, DeletedClassAndAddedClass) {
  ClassSet V1;
  {
    ClassBuilder T("Temp");
    T.field("x", "I");
    V1.add(T.build());
    ClassBuilder M("Main");
    M.staticMethod("go", "()I").iconst(1).iret();
    V1.add(M.build());
  }
  ClassSet V2;
  {
    ClassBuilder M("Main");
    M.staticMethod("go", "()I")
        .invokestatic("Fresh", "answer", "()I")
        .iret();
    V2.add(M.build());
    ClassBuilder F("Fresh");
    F.staticMethod("answer", "()I").iconst(77).iret();
    V2.add(F.build());
  }

  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  EXPECT_EQ(TheVM.callStatic("Main", "go", "()I").IntVal, 1);

  Updater U(TheVM);
  UpdateBundle B = Upt::prepare(V1, V2, "v1");
  EXPECT_EQ(B.Spec.DeletedClasses.size(), 1u);
  EXPECT_EQ(B.Spec.AddedClasses.size(), 1u);
  UpdateResult R = U.applyNow(std::move(B));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(TheVM.callStatic("Main", "go", "()I").IntVal, 77);
}

TEST(Dsu, EcUpdaterSupportsBodyOnly) {
  UpdateSpec Spec = Upt::computeSpec(workerVersion(1), workerVersion(2));
  EXPECT_TRUE(EcUpdater::supports(Spec.Summary));
}

TEST(Dsu, EcUpdaterRejectsClassUpdate) {
  UpdateSpec Spec = Upt::computeSpec(pointV1(), pointV2());
  EXPECT_FALSE(EcUpdater::supports(Spec.Summary));
}

TEST_EAGER_AND_LAZY(Dsu, ChainedUpdates) {
  // v1 -> v2 -> v3, each adding a field; version tags keep renamed old
  // classes distinct.
  ClassSet V1 = pointV1();
  ClassSet V2 = pointV2();
  ClassSet V3 = pointV2();
  V3.find("Point")->Fields.push_back({"z", "I", false, false,
                                      Access::Public});

  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  TheVM.callStatic("Setup", "init", "(I)V", {Slot::ofInt(3)});

  Updater U(TheVM);
  ASSERT_EQ(U.applyNow(Upt::prepare(V1, V2, "v1"), modeOptions(Lazy)).Status,
            UpdateStatus::Applied);
  EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 300);

  UpdateResult R2 = U.applyNow(Upt::prepare(V2, V3, "v2"), modeOptions(Lazy));
  ASSERT_EQ(R2.Status, UpdateStatus::Applied) << R2.Message;
  EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 300);
}
