//===----------------------------------------------------------------------===//
///
/// \file
/// Post-commit canary windows and health-gated revert: status-name
/// round-trips, the fault-site registry as single source of truth, the
/// health evaluator's thresholds, and end-to-end reverts that restore
/// removed fields, removed statics, and deleted classes — explicitly,
/// via injected health breaches, under lazy commits, through custom
/// inverse transformers and inverted synthesized renames, and with
/// stacked updates during the window.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dsu/Canary.h"
#include "dsu/Revert.h"
#include "dsu/Synthesis.h"
#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "heap/HeapVerifier.h"
#include "support/FaultInjector.h"
#include "support/Telemetry.h"
#include "support/TelemetryStream.h"

#include <fstream>
#include <gtest/gtest.h>
#include <set>
#include <sstream>

using namespace jvolve;
using namespace jvolve::test;

namespace {

/// v1: Box{val, secret}, Holder.b static, Legacy with one static slot.
ClassSet canaryV1() {
  ClassSet Set;
  ClassBuilder B("Box");
  B.field("val", "I");
  B.field("secret", "I");
  Set.add(B.build());
  ClassBuilder H("Holder");
  H.staticField("b", "LBox;");
  Set.add(H.build());
  ClassBuilder L("Legacy");
  L.staticField("tuning", "I");
  Set.add(L.build());
  ClassBuilder S("Setup");
  S.staticMethod("init", "(I)V")
      .locals(2)
      .newobj("Box")
      .store(1)
      .load(1)
      .load(0)
      .putfield("Box", "val", "I")
      .load(1)
      .iconst(42)
      .putfield("Box", "secret", "I")
      .load(1)
      .putstatic("Holder", "b", "LBox;")
      .ret();
  Set.add(S.build());
  ClassBuilder P("Probe");
  P.staticMethod("val", "()I")
      .getstatic("Holder", "b", "LBox;")
      .getfield("Box", "val", "I")
      .iret();
  P.staticMethod("secret", "()I")
      .getstatic("Holder", "b", "LBox;")
      .getfield("Box", "secret", "I")
      .iret();
  Set.add(P.build());
  return Set;
}

/// v2: secret removed, grade added, Legacy deleted, Probe.secret gone.
/// \p GradeConst parameterizes Probe.grade's constant so a v2 -> v2'
/// body-only update can stack on top of a canaried one.
ClassSet canaryV2(int64_t GradeConst = 5) {
  ClassSet Set;
  ClassBuilder B("Box");
  B.field("val", "I");
  B.field("grade", "I");
  Set.add(B.build());
  ClassBuilder H("Holder");
  H.staticField("b", "LBox;");
  Set.add(H.build());
  ClassBuilder S("Setup");
  S.staticMethod("init", "(I)V")
      .locals(2)
      .newobj("Box")
      .store(1)
      .load(1)
      .load(0)
      .putfield("Box", "val", "I")
      .load(1)
      .putstatic("Holder", "b", "LBox;")
      .ret();
  Set.add(S.build());
  ClassBuilder P("Probe");
  P.staticMethod("val", "()I")
      .getstatic("Holder", "b", "LBox;")
      .getfield("Box", "val", "I")
      .iret();
  P.staticMethod("grade", "()I")
      .getstatic("Holder", "b", "LBox;")
      .getfield("Box", "grade", "I")
      .iconst(GradeConst)
      .iadd()
      .iret();
  Set.add(P.build());
  return Set;
}

UpdateOptions canaryOpts(bool Lazy, uint64_t WindowTicks = 100'000'000,
                         uint64_t CheckIntervalTicks = 1'000) {
  UpdateOptions Opts = modeOptions(Lazy);
  Opts.CanaryWindow.WindowTicks = WindowTicks;
  Opts.CanaryWindow.CheckIntervalTicks = CheckIntervalTicks;
  return Opts;
}

int64_t legacyTuning(VM &TheVM) {
  ClassRegistry &Reg = TheVM.registry();
  ClassId Id = Reg.idOf("Legacy");
  EXPECT_NE(Id, InvalidClassId);
  return Id == InvalidClassId ? -1 : Reg.cls(Id).Statics[0].IntVal;
}

void setLegacyTuning(VM &TheVM, int64_t V) {
  ClassRegistry &Reg = TheVM.registry();
  Reg.cls(Reg.idOf("Legacy")).Statics[0] = Slot::ofInt(V);
}

void expectHeapClean(VM &TheVM, const char *Where) {
  HeapVerifier V(TheVM.heap(), TheVM.registry());
  std::vector<std::string> Problems = V.verify(
      [&TheVM](const std::function<void(Ref &)> &Visit) {
        TheVM.visitRoots(Visit);
      });
  ASSERT_TRUE(Problems.empty()) << Where << ": " << Problems.front();
}

CanaryController *controller(VM &TheVM) {
  return static_cast<CanaryController *>(TheVM.canary());
}

/// Boots v1, seeds one Box (val 7, secret 42) and Legacy.tuning = 99.
void bootV1(VM &TheVM) {
  TheVM.loadProgram(canaryV1());
  TheVM.callStatic("Setup", "init", "(I)V", {Slot::ofInt(7)});
  setLegacyTuning(TheVM, 99);
}

/// Asserts the VM is back to the exact pre-update v1 state: removed
/// field and static restored, program diff against v1 empty, heap clean.
void expectFullyReverted(VM &TheVM, const UpdateResult &R) {
  ASSERT_EQ(R.Status, UpdateStatus::Reverted) << R.Message;
  EXPECT_TRUE(R.Certified);
  EXPECT_TRUE(R.CertificationProblems.empty());
  EXPECT_EQ(TheVM.callStatic("Probe", "val", "()I").IntVal, 7);
  EXPECT_EQ(TheVM.callStatic("Probe", "secret", "()I").IntVal, 42);
  EXPECT_EQ(legacyTuning(TheVM), 99);
  EXPECT_TRUE(Upt::computeSpec(TheVM.program(), canaryV1()).empty());
  CanaryController *Ctl = controller(TheVM);
  ASSERT_NE(Ctl, nullptr);
  EXPECT_EQ(Ctl->state(), CanaryState::Reverted);
  EXPECT_FALSE(Ctl->windowOpen());
  EXPECT_EQ(Ctl->report().ResidualNewObjects, 0u);
  expectHeapClean(TheVM, "after revert");
}

} // namespace

//===----------------------------------------------------------------------===//
// Satellite: status strings round-trip exhaustively.
//===----------------------------------------------------------------------===//

TEST(CanaryStatus, NamesRoundTripExhaustively) {
  std::set<std::string> Seen;
  for (size_t I = 0; I < NumUpdateStatuses; ++I) {
    auto S = static_cast<UpdateStatus>(I);
    std::string Name = updateStatusName(S);
    EXPECT_FALSE(Name.empty()) << "status " << I;
    EXPECT_TRUE(Seen.insert(Name).second) << "duplicate name: " << Name;
    UpdateStatus Back;
    ASSERT_TRUE(updateStatusByName(Name, Back)) << Name;
    EXPECT_EQ(Back, S) << Name;
  }
  EXPECT_TRUE(Seen.count("reverted"));
  EXPECT_TRUE(Seen.count("revert-failed"));
  UpdateStatus Out;
  EXPECT_FALSE(updateStatusByName("no-such-status", Out));
  EXPECT_FALSE(updateStatusByName("", Out));
}

//===----------------------------------------------------------------------===//
// Satellite: the fault-site registry is the single source of truth.
//===----------------------------------------------------------------------===//

TEST(CanaryFaults, SiteRegistryRoundTripsAndIsComplete) {
  std::vector<FaultInjector::Site> Sites = FaultInjector::allSites();
  ASSERT_EQ(Sites.size(), FaultInjector::NumSites);
  std::set<std::string> Names;
  for (FaultInjector::Site S : Sites) {
    std::string Name = FaultInjector::siteName(S);
    EXPECT_FALSE(Name.empty());
    EXPECT_TRUE(Names.insert(Name).second) << "duplicate site: " << Name;
    FaultInjector::Site Back;
    ASSERT_TRUE(FaultInjector::siteByName(Name, Back)) << Name;
    EXPECT_EQ(Back, S) << Name;
  }
  std::vector<std::string> Listed = FaultInjector::allSiteNames();
  ASSERT_EQ(Listed.size(), FaultInjector::NumSites);
  for (const std::string &N : Listed)
    EXPECT_TRUE(Names.count(N)) << N;
  FaultInjector::Site Out;
  EXPECT_FALSE(FaultInjector::siteByName("no-such-site", Out));
  EXPECT_TRUE(Names.count("canary-health-breach"));
}

#ifdef JVOLVE_SOURCE_DIR
TEST(CanaryFaults, DocsListEverySite) {
  std::ifstream In(std::string(JVOLVE_SOURCE_DIR) + "/docs/INTERNALS.md");
  ASSERT_TRUE(In.good()) << "docs/INTERNALS.md not found";
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Docs = Buf.str();
  for (const std::string &Name : FaultInjector::allSiteNames())
    EXPECT_NE(Docs.find("`" + Name + "`"), std::string::npos)
        << "docs/INTERNALS.md is missing fault site `" << Name << "`";
}
#endif

//===----------------------------------------------------------------------===//
// Health evaluator thresholds.
//===----------------------------------------------------------------------===//

namespace {

CanaryHealthSample sample(uint64_t Traps, uint64_t Shed, uint64_t LazyFailed,
                          uint64_t Responses, uint64_t LatencySum) {
  CanaryHealthSample S;
  S.Traps = Traps;
  S.Shed = Shed;
  S.LazyFailed = LazyFailed;
  S.Responses = Responses;
  S.LatencySumTicks = LatencySum;
  return S;
}

bool breached(const std::vector<CanaryBreach> &Bs, const std::string &Monitor) {
  for (const CanaryBreach &B : Bs)
    if (B.Monitor == Monitor)
      return true;
  return false;
}

} // namespace

TEST(CanaryHealth, TrapDeltaAgainstBudget) {
  CanaryPolicy P; // MaxTrapDelta = 0: any trap reverts
  CanaryHealthSample Base = sample(3, 0, 0, 0, 0);
  CanaryHealthSample Arm = sample(3, 0, 0, 0, 0);
  EXPECT_TRUE(breached(
      evaluateCanaryHealth(P, Base, Arm, sample(4, 0, 0, 0, 0)), "traps"));
  EXPECT_TRUE(evaluateCanaryHealth(P, Base, Arm, Arm).empty());
  P.MaxTrapDelta = 2;
  EXPECT_FALSE(breached(
      evaluateCanaryHealth(P, Base, Arm, sample(5, 0, 0, 0, 0)), "traps"));
  EXPECT_TRUE(breached(
      evaluateCanaryHealth(P, Base, Arm, sample(6, 0, 0, 0, 0)), "traps"));
  P.MaxTrapDelta = -1; // disabled
  EXPECT_TRUE(
      evaluateCanaryHealth(P, Base, Arm, sample(50, 0, 0, 0, 0)).empty());
}

TEST(CanaryHealth, FailedTransformsBreach) {
  CanaryPolicy P; // MaxFailedTransforms = 0
  CanaryHealthSample Zero = sample(0, 0, 0, 0, 0);
  EXPECT_TRUE(breached(
      evaluateCanaryHealth(P, Zero, Zero, sample(0, 0, 1, 0, 0)),
      "failed-transforms"));
}

TEST(CanaryHealth, ShedIsOptIn) {
  CanaryPolicy P; // MaxShedDelta = -1: not monitored by default
  CanaryHealthSample Zero = sample(0, 0, 0, 0, 0);
  EXPECT_TRUE(
      evaluateCanaryHealth(P, Zero, Zero, sample(0, 10, 0, 0, 0)).empty());
  P.MaxShedDelta = 0;
  EXPECT_TRUE(breached(
      evaluateCanaryHealth(P, Zero, Zero, sample(0, 10, 0, 0, 0)), "shed"));
}

TEST(CanaryHealth, LatencyComparedToPreUpdateBaseline) {
  CanaryPolicy P; // MaxLatencyDeltaPct = -1: off by default
  // Baseline mean 10 ticks over 100 responses.
  CanaryHealthSample Base = sample(0, 0, 0, 100, 1'000);
  CanaryHealthSample Arm = Base;
  // Window: 100 more responses at mean 16 (+60%).
  CanaryHealthSample Slow = sample(0, 0, 0, 200, 1'000 + 1'600);
  EXPECT_TRUE(evaluateCanaryHealth(P, Base, Arm, Slow).empty());
  P.MaxLatencyDeltaPct = 50;
  EXPECT_TRUE(breached(evaluateCanaryHealth(P, Base, Arm, Slow), "latency"));
  // Window mean 12 (+20%) stays within the 50% budget.
  CanaryHealthSample Ok = sample(0, 0, 0, 200, 1'000 + 1'200);
  EXPECT_TRUE(evaluateCanaryHealth(P, Base, Arm, Ok).empty());
  // No window traffic: nothing to judge.
  EXPECT_TRUE(evaluateCanaryHealth(P, Base, Arm, Arm).empty());
}

TEST(CanaryHealth, LatencyIgnoresTelemetryWindows) {
  // A completed telemetry window of slow responses, such as jvolve-serve
  // --stats keeps (5,000-tick windows against the canary's 500-tick
  // checks), can predate the canary. It must not decide the verdict: the
  // monitor judges the responses of its own window only.
  VM TheVM(smallConfig());
  Telemetry &Tel = Telemetry::global();
  bool WasEnabled = Telemetry::isEnabled();
  uint64_t WasWindowTicks = Tel.windows().windowTicks();
  Tel.setEnabled(true);
  Tel.windows().configure(5'000);
  TelHistogram &Latency = Tel.histogram(metrics::NetLatencyTicks);
  for (int I = 0; I < 100; ++I)
    Latency.record(50); // 5x the baseline mean
  Tel.windows().roll(5'000);

  // Baseline mean 10 ticks over 100 responses; the canary window serves
  // 100 more at the same mean.
  CanaryHealthSample Base = sample(0, 0, 0, 100, 1'000);
  CanaryHealthSample Now = CanaryHealthSample::take(TheVM);
  Now.Responses = 200;
  Now.LatencySumTicks = 2'000;
  CanaryPolicy P;
  P.MaxLatencyDeltaPct = 50;
  EXPECT_FALSE(breached(evaluateCanaryHealth(P, Base, Base, Now), "latency"));

  Tel.windows().configure(WasWindowTicks);
  Tel.setEnabled(WasEnabled);
}

//===----------------------------------------------------------------------===//
// End-to-end reverts.
//===----------------------------------------------------------------------===//

TEST_EAGER_AND_LAZY(Canary, ExplicitRevertRestoresRemovedState) {
  VM TheVM(smallConfig());
  bootV1(TheVM);

  Updater U(TheVM);
  UpdateResult Fwd =
      U.applyNow(Upt::prepare(canaryV1(), canaryV2(), "v1"), canaryOpts(Lazy));
  ASSERT_EQ(Fwd.Status, UpdateStatus::Applied) << Fwd.Message;
  EXPECT_TRUE(Fwd.CanaryArmed);
  ASSERT_NE(controller(TheVM), nullptr);
  EXPECT_TRUE(controller(TheVM)->windowOpen());
  EXPECT_EQ(TheVM.callStatic("Probe", "grade", "()I").IntVal, 5);
  EXPECT_EQ(TheVM.registry().idOf("Legacy"), InvalidClassId);

  UpdateResult Rev = U.revert("operator says no");
  expectFullyReverted(TheVM, Rev);
  EXPECT_NE(Rev.Message.find("operator says no"), std::string::npos);
}

TEST_EAGER_AND_LAZY(Canary, InjectedHealthBreachAutoReverts) {
  VM TheVM(smallConfig());
  bootV1(TheVM);

  Updater U(TheVM);
  UpdateResult Fwd = U.applyNow(Upt::prepare(canaryV1(), canaryV2(), "v1"),
                                canaryOpts(Lazy, 100'000'000, 500));
  ASSERT_EQ(Fwd.Status, UpdateStatus::Applied) << Fwd.Message;
  ASSERT_TRUE(Fwd.CanaryArmed);

  // The next health check probes this site and opens a revert; the canary
  // watchdog keeps the virtual clock moving on the otherwise idle VM.
  TheVM.faults().arm(FaultInjector::Site::CanaryHealthBreach, 1);
  CanaryController *Ctl = controller(TheVM);
  for (int Round = 0; Ctl->windowOpen() && Round < 1'000; ++Round)
    TheVM.run(10'000);

  expectFullyReverted(TheVM, Ctl->revertResult());
  CanaryReport Rep = Ctl->report();
  ASSERT_FALSE(Rep.Breaches.empty());
  EXPECT_EQ(Rep.Breaches.front().Monitor, "fault-injector");
  EXPECT_GE(Rep.ChecksRun, 1u);
}

TEST_EAGER_AND_LAZY(Canary, HealthyWindowRetiresAndRevertIsThenRefused) {
  VM TheVM(smallConfig());
  bootV1(TheVM);

  Updater U(TheVM);
  UpdateResult Fwd = U.applyNow(Upt::prepare(canaryV1(), canaryV2(), "v1"),
                                canaryOpts(Lazy, 3'000, 500));
  ASSERT_EQ(Fwd.Status, UpdateStatus::Applied) << Fwd.Message;
  ASSERT_TRUE(Fwd.CanaryArmed);

  CanaryController *Ctl = controller(TheVM);
  for (int Round = 0; Ctl->windowOpen() && Round < 1'000; ++Round)
    TheVM.run(1'000);
  EXPECT_EQ(Ctl->state(), CanaryState::Retired);

  // The update stands; the undo log is gone, so a late revert is refused.
  EXPECT_EQ(TheVM.callStatic("Probe", "grade", "()I").IntVal, 5);
  UpdateResult Rev = U.revert("too late");
  EXPECT_EQ(Rev.Status, UpdateStatus::RevertFailed);
  EXPECT_EQ(TheVM.callStatic("Probe", "grade", "()I").IntVal, 5);
}

TEST(Canary, LazyForwardCommitStillRevertsWhole) {
  VM TheVM(smallConfig());
  bootV1(TheVM);

  Updater U(TheVM);
  UpdateResult Fwd = U.applyNow(Upt::prepare(canaryV1(), canaryV2(), "v1"),
                                canaryOpts(/*Lazy=*/true));
  ASSERT_EQ(Fwd.Status, UpdateStatus::Applied) << Fwd.Message;
  ASSERT_TRUE(Fwd.CanaryArmed);

  // Revert before any read barrier fires: the reverse update drains the
  // lazy engine first, then reinstates v1 eagerly and completely.
  UpdateResult Rev = U.revert("lazy rollback");
  expectFullyReverted(TheVM, Rev);
}

TEST_EAGER_AND_LAZY(Canary, CustomInverseTransformerIsTrusted) {
  VM TheVM(smallConfig());
  bootV1(TheVM);

  UpdateBundle B = Upt::prepare(canaryV1(), canaryV2(), "v1");
  // A registered inverse replaces both the default copy-back and the
  // undo-log restore: whatever it writes is the post-revert truth.
  B.InverseObjectTransformers["Box"] = [](TransformCtx &Ctx, Ref To,
                                          Ref From) {
    Ctx.setInt(To, "val", Ctx.getInt(From, "val") * 2);
    Ctx.setInt(To, "secret", 77);
  };
  Updater U(TheVM);
  UpdateResult Fwd = U.applyNow(std::move(B), canaryOpts(Lazy));
  ASSERT_EQ(Fwd.Status, UpdateStatus::Applied) << Fwd.Message;

  UpdateResult Rev = U.revert("use the inverse");
  ASSERT_EQ(Rev.Status, UpdateStatus::Reverted) << Rev.Message;
  EXPECT_EQ(TheVM.callStatic("Probe", "val", "()I").IntVal, 14);
  EXPECT_EQ(TheVM.callStatic("Probe", "secret", "()I").IntVal, 77);
  // Statics still restore from the undo log (no class inverse given).
  EXPECT_EQ(legacyTuning(TheVM), 99);
  expectHeapClean(TheVM, "after inverse-transformer revert");
}

namespace {

/// v1: C{a, keep} whose constructor stores its argument in a; v2: C{b,
/// keep} storing it in b — the copy-chain-proven rename a -> b. Setup
/// seeds one C (a 5, keep 3); v2's Mutate.run writes b 7 and keep 9.
ClassSet renameVersion(bool V2) {
  const char *Field = V2 ? "b" : "a";
  ClassSet Set;
  ClassBuilder C("C");
  C.field(Field, "I");
  C.field("keep", "I");
  C.method("<init>", "(I)V")
      .load(0)
      .load(1)
      .putfield("C", Field, "I")
      .ret();
  Set.add(C.build());
  ClassBuilder H("Holder");
  H.staticField("obj", "LC;");
  Set.add(H.build());
  ClassBuilder S("Setup");
  S.staticMethod("init", "()V")
      .newobj("C")
      .dup()
      .iconst(5)
      .putfield("C", Field, "I")
      .dup()
      .iconst(3)
      .putfield("C", "keep", "I")
      .putstatic("Holder", "obj", "LC;")
      .ret();
  Set.add(S.build());
  ClassBuilder P("Probe");
  P.staticMethod("renamed", "()I")
      .getstatic("Holder", "obj", "LC;")
      .getfield("C", Field, "I")
      .iret();
  P.staticMethod("keep", "()I")
      .getstatic("Holder", "obj", "LC;")
      .getfield("C", "keep", "I")
      .iret();
  Set.add(P.build());
  if (V2) {
    ClassBuilder M("Mutate");
    M.staticMethod("run", "()V")
        .getstatic("Holder", "obj", "LC;")
        .iconst(7)
        .putfield("C", "b", "I")
        .getstatic("Holder", "obj", "LC;")
        .iconst(9)
        .putfield("C", "keep", "I")
        .ret();
    Set.add(M.build());
  }
  ensureBuiltins(Set);
  return Set;
}

} // namespace

TEST_EAGER_AND_LAZY(Canary, RevertCarriesSynthesizedRenameBack) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(renameVersion(false));
  TheVM.callStatic("Setup", "init", "()V");

  ClassSet Old = renameVersion(false), New = renameVersion(true);
  UpdateBundle B = Upt::prepare(Old, New, "v1");
  TransformerSynthesis::installTransformers(
      B, TransformerSynthesis(Old, New).synthesize(B.Spec));
  ASSERT_EQ(B.Renames["C"].size(), 1u);
  Updater U(TheVM);
  UpdateResult Fwd = U.applyNow(std::move(B), canaryOpts(Lazy));
  ASSERT_EQ(Fwd.Status, UpdateStatus::Applied) << Fwd.Message;
  EXPECT_EQ(TheVM.callStatic("Probe", "renamed", "()I").IntVal, 5);

  // Writes after commit must survive the revert: the reverse plan copies
  // b back into a instead of restoring a's commit-time value.
  TheVM.callStatic("Mutate", "run", "()V");
  UpdateResult Rev = U.revert("rename revert");
  ASSERT_EQ(Rev.Status, UpdateStatus::Reverted) << Rev.Message;
  EXPECT_TRUE(Rev.Certified);
  EXPECT_EQ(TheVM.callStatic("Probe", "renamed", "()I").IntVal, 7);
  EXPECT_EQ(TheVM.callStatic("Probe", "keep", "()I").IntVal, 9);
  EXPECT_EQ(controller(TheVM)->report().ResidualNewObjects, 0u);
  expectHeapClean(TheVM, "after rename revert");
}

//===----------------------------------------------------------------------===//
// Stacked updates during the window.
//===----------------------------------------------------------------------===//

namespace {

/// Applies v1 -> v2 with a canary window, then stacks the body-only
/// v2 -> v2' update committed with \p StackedOpts while the window still
/// observes.
void stackOnObservingWindow(bool Lazy, const UpdateOptions &StackedOpts) {
  VM TheVM(smallConfig());
  bootV1(TheVM);

  Updater U1(TheVM);
  UpdateResult Fwd = U1.applyNow(Upt::prepare(canaryV1(), canaryV2(5), "v1"),
                                 canaryOpts(Lazy));
  ASSERT_EQ(Fwd.Status, UpdateStatus::Applied) << Fwd.Message;
  ASSERT_TRUE(controller(TheVM)->windowOpen());

  // A second update while the first is still observing supersedes it:
  // the window settles (the operator has vouched by stacking) and the
  // new update proceeds normally.
  Updater U2(TheVM);
  UpdateResult Next =
      U2.applyNow(Upt::prepare(canaryV2(5), canaryV2(6), "v2"), StackedOpts);
  ASSERT_EQ(Next.Status, UpdateStatus::Applied) << Next.Message;
  EXPECT_EQ(Next.CodeVersioned, StackedOpts.CodeVersioning);
  EXPECT_EQ(controller(TheVM)->state(), CanaryState::Retired);
  EXPECT_EQ(TheVM.callStatic("Probe", "grade", "()I").IntVal, 6);
  expectHeapClean(TheVM, "after stacked update");
}

} // namespace

TEST_EAGER_AND_LAZY(Canary, StackedUpdateSettlesObservingWindow) {
  stackOnObservingWindow(Lazy, modeOptions(Lazy));
}

TEST(Canary, StackedVersionedUpdateSettlesObservingWindow) {
  UpdateOptions Versioned;
  Versioned.CodeVersioning = true;
  stackOnObservingWindow(/*Lazy=*/false, Versioned);
}

TEST_EAGER_AND_LAZY(Canary, RejectedStackedUpdateKeepsWindowObserving) {
  VM TheVM(smallConfig());
  bootV1(TheVM);

  Updater U1(TheVM);
  UpdateResult Fwd = U1.applyNow(Upt::prepare(canaryV1(), canaryV2(5), "v1"),
                                 canaryOpts(Lazy));
  ASSERT_EQ(Fwd.Status, UpdateStatus::Applied) << Fwd.Message;

  // v2': Probe.grade returns its int with areturn, so v2' never verifies.
  // Refusing it must not settle the window it would have superseded.
  ClassSet Broken = canaryV2(5);
  Broken.find("Probe")->findMethod("grade", "()I")->Code.back().Op =
      Opcode::AReturn;
  Updater U2(TheVM);
  UpdateResult Next =
      U2.applyNow(Upt::prepare(canaryV2(5), Broken, "v2"), modeOptions(Lazy));
  ASSERT_EQ(Next.Status, UpdateStatus::RejectedNotVerifiable) << Next.Message;
  ASSERT_EQ(controller(TheVM)->state(), CanaryState::Observing);
  EXPECT_TRUE(controller(TheVM)->windowOpen());

  // The window still guards v1 -> v2: a revert takes the VM back to v1.
  expectFullyReverted(TheVM, U1.revert("breach after a refused update"));
}

TEST_EAGER_AND_LAZY(Canary, StackedUpdateDuringRevertIsRefused) {
  VM TheVM(smallConfig());
  bootV1(TheVM);

  Updater U1(TheVM);
  UpdateResult Fwd = U1.applyNow(Upt::prepare(canaryV1(), canaryV2(5), "v1"),
                                 canaryOpts(Lazy));
  ASSERT_EQ(Fwd.Status, UpdateStatus::Applied) << Fwd.Message;

  // Open the revert but do not drive it to completion yet.
  CanaryController *Ctl = controller(TheVM);
  ASSERT_TRUE(Ctl->requestRevert("operator revert"));
  ASSERT_EQ(Ctl->state(), CanaryState::Reverting);

  // While the old version is on its way back, new updates are refused —
  // they would race the reverse transformation.
  Updater U2(TheVM);
  U2.schedule(Upt::prepare(canaryV2(5), canaryV2(6), "v2"), modeOptions(Lazy));
  EXPECT_EQ(U2.result().Status, UpdateStatus::RejectedCanaryBusy);

  // The revert itself still completes.
  for (int Round = 0; Ctl->windowOpen() && Round < 1'000; ++Round)
    TheVM.run(10'000);
  expectFullyReverted(TheVM, Ctl->revertResult());
}

//===----------------------------------------------------------------------===//
// Second-order faults (fault inside the revert).
//===----------------------------------------------------------------------===//

/// A fault that lands while the revert is already running must resolve to
/// a defined terminal state — RevertFailed when it breaks the reverse
/// path, never a window stuck observing/reverting or a corrupted heap.
/// A recording pass with only the health breach armed captures, via
/// probesAtFirstFire(), how many times each nested site was probed before
/// the breach fired; every later probe index lands inside the revert.
TEST_EAGER_AND_LAZY(Canary, FaultDuringRevertResolvesToDefinedTerminalState) {
  using Site = FaultInjector::Site;

  FaultInjector::SiteCounts Lo{}, Hi{};
  {
    VM Rec(smallConfig());
    bootV1(Rec);
    Updater U(Rec);
    UpdateResult Fwd = U.applyNow(Upt::prepare(canaryV1(), canaryV2(), "v1"),
                                  canaryOpts(Lazy, 100'000'000, 500));
    ASSERT_EQ(Fwd.Status, UpdateStatus::Applied) << Fwd.Message;
    Rec.faults().arm(Site::CanaryHealthBreach, 1);
    CanaryController *Ctl = controller(Rec);
    for (int Round = 0; Ctl->windowOpen() && Round < 1'000; ++Round)
      Rec.run(10'000);
    ASSERT_EQ(Ctl->state(), CanaryState::Reverted);
    Lo = Rec.faults().probesAtFirstFire();
    Hi = Rec.faults().probeCounts();
  }

  size_t Window = 0;
  size_t RevertsBroken = 0;
  for (Site Nested : {Site::ClassLoad, Site::TransformerNthObject}) {
    size_t N = static_cast<size_t>(Nested);
    // arm() zeroes the site's probe counter, so arming right where the
    // recording pass armed the breach makes skips relative to that point:
    // the revert's own probes are indices [0, Hi - Lo).
    for (uint64_t Skip = 0; Skip < Hi[N] - Lo[N]; ++Skip, ++Window) {
      SCOPED_TRACE(std::string("nested ") + FaultInjector::siteName(Nested) +
                   " skip=" + std::to_string(Skip));
      VM TheVM(smallConfig());
      bootV1(TheVM);
      Updater U(TheVM);
      UpdateResult Fwd = U.applyNow(Upt::prepare(canaryV1(), canaryV2(), "v1"),
                                    canaryOpts(Lazy, 100'000'000, 500));
      ASSERT_EQ(Fwd.Status, UpdateStatus::Applied) << Fwd.Message;

      TheVM.faults().arm(Site::CanaryHealthBreach, 1);
      TheVM.faults().arm(Nested, 1, Skip);
      CanaryController *Ctl = controller(TheVM);
      for (int Round = 0; Ctl->windowOpen() && Round < 1'000; ++Round)
        TheVM.run(10'000);

      ASSERT_GT(TheVM.faults().fireCounts()[N], 0u);
      EXPECT_FALSE(Ctl->windowOpen());
      CanaryState Terminal = Ctl->state();
      ASSERT_TRUE(Terminal == CanaryState::RevertFailed ||
                  Terminal == CanaryState::Reverted)
          << "state " << canaryStateName(Terminal);
      if (Terminal == CanaryState::RevertFailed) {
        ++RevertsBroken;
        EXPECT_EQ(Ctl->revertResult().Status, UpdateStatus::RevertFailed);
      } else {
        expectFullyReverted(TheVM, Ctl->revertResult());
      }
      expectHeapClean(TheVM, "after fault-during-revert");
    }
  }
  // The revert reinstalls classes and re-transforms objects, so both
  // nested windows must be non-empty and at least one injection must have
  // actually broken the reverse path.
  EXPECT_GT(Window, 0u);
  EXPECT_GT(RevertsBroken, 0u);
}
