//===----------------------------------------------------------------------===//
///
/// \file
/// Transformer-synthesis tests: field-mapping plans (copy, ctor-evidenced
/// rename, ambiguous and retyped fields flagged), transformer
/// installation precedence (handwritten wins, defaults install nothing),
/// end-to-end synthesized renames through a real update, the
/// synth-transformer-field fault rolling an eager update back (and
/// failing lazy shells, reverted under a canary), a lazy drain that
/// transforms layout-unchanged classes like any other, and the
/// dsu.synth.* / dsu.impact.* metrics.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dsu/Canary.h"
#include "dsu/LazyTransform.h"
#include "dsu/Synthesis.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "heap/HeapVerifier.h"
#include "support/FaultInjector.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

const FieldMapping *mappingFor(const ClassPlan &P, const std::string &Name) {
  for (const FieldMapping &M : P.Fields)
    if (M.NewField == Name && !M.IsStatic)
      return &M;
  return nullptr;
}

/// Synthesizes the plan for a two-version program pair.
SynthesisReport planFor(const ClassSet &Old, const ClassSet &New) {
  UpdateBundle B = Upt::prepare(Old, New, "test");
  return TransformerSynthesis(Old, New).synthesize(B.Spec);
}

ClassSet withBuiltins(ClassSet Set) {
  ensureBuiltins(Set);
  return Set;
}

//===--------------------------------------------------------------------===//
// Plan-only fixtures
//===--------------------------------------------------------------------===//

/// v1: C{a, p}; v2: C{a, p, n} — pure growth.
ClassSet growthVersion(bool V2) {
  ClassSet Set;
  Set.add(ClassBuilder("Peer").build());
  ClassBuilder C("C");
  C.field("a", "I");
  C.field("p", "LPeer;");
  if (V2)
    C.field("n", "I");
  Set.add(C.build());
  return withBuiltins(std::move(Set));
}

/// v1: C{a} with ctor a = p1; v2: C{b} with ctor b = p1 — the evidenced
/// rename. The Holder/Setup/Probe scaffolding makes the pair a runnable
/// program so the VM tests reuse the same fixture.
ClassSet renameVersion(bool V2) {
  const char *Field = V2 ? "b" : "a";
  ClassSet Set;
  ClassBuilder C("C");
  C.field(Field, "I");
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
      .putstatic("Holder", "obj", "LC;")
      .ret();
  Set.add(S.build());
  ClassBuilder P("Probe");
  P.staticMethod("get", "()I")
      .getstatic("Holder", "obj", "LC;")
      .getfield("C", Field, "I")
      .iret();
  Set.add(P.build());
  return withBuiltins(std::move(Set));
}

//===--------------------------------------------------------------------===//
// Untouched-class fixture: 64 Points (updated, layout unchanged) + 4
// Stamps (gains a field). Only the Stamps' layout changes.
//===--------------------------------------------------------------------===//

constexpr int NumPoints = 64;
constexpr int NumStamps = 4;

void addArrayFill(ClassBuilder &S, const char *MethodName, const char *Cls,
                  const char *Field, const char *Holder, int Count) {
  std::string Elem = std::string("L") + Cls + ";";
  std::string Arr = "[" + Elem;
  S.staticMethod(MethodName, "()V")
      .locals(2)
      .iconst(Count)
      .newarray(Elem)
      .putstatic(Holder, "arr", Arr)
      .iconst(0)
      .store(0)
      .label("loop")
      .load(0)
      .iconst(Count)
      .branch(Opcode::IfICmpGe, "done")
      .newobj(Cls)
      .store(1)
      .load(1)
      .load(0)
      .putfield(Cls, Field, "I")
      .getstatic(Holder, "arr", Arr)
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
}

void addArraySum(ClassBuilder &P, const char *MethodName, const char *Cls,
                 const char *Field, const char *Holder, int Count) {
  std::string Arr = std::string("[L") + Cls + ";";
  P.staticMethod(MethodName, "()I")
      .locals(2)
      .iconst(0)
      .store(0)
      .iconst(0)
      .store(1)
      .label("loop")
      .load(1)
      .iconst(Count)
      .branch(Opcode::IfICmpGe, "done")
      .load(0)
      .getstatic(Holder, "arr", Arr)
      .load(1)
      .aload()
      .getfield(Cls, Field, "I")
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
}

ClassSet settleVersion(bool V2) {
  ClassSet Set;
  ClassBuilder P("Point");
  P.field("x", "I");
  P.method("get", "()I").load(0).getfield("Point", "x", "I").iret();
  if (V2) // class update (new TIB slot) with an identical instance layout
    P.method("extra", "()I").iconst(1).iret();
  Set.add(P.build());
  ClassBuilder S("Stamp");
  S.field("s", "I");
  if (V2)
    S.field("t", "I");
  Set.add(S.build());
  ClassBuilder PH("PHolder");
  PH.staticField("arr", "[LPoint;");
  Set.add(PH.build());
  ClassBuilder SH("SHolder");
  SH.staticField("arr", "[LStamp;");
  Set.add(SH.build());
  ClassBuilder Su("Setup");
  addArrayFill(Su, "points", "Point", "x", "PHolder", NumPoints);
  addArrayFill(Su, "stamps", "Stamp", "s", "SHolder", NumStamps);
  Set.add(Su.build());
  ClassBuilder Pr("Probe");
  addArraySum(Pr, "sumX", "Point", "x", "PHolder", NumPoints);
  addArraySum(Pr, "sumS", "Stamp", "s", "SHolder", NumStamps);
  Set.add(Pr.build());
  return withBuiltins(std::move(Set));
}

void expectHeapHealthy(VM &TheVM, const char *Where) {
  HeapVerifier V(TheVM.heap(), TheVM.registry());
  if (VmLazyEngine *Engine = TheVM.lazyEngine())
    V.setLazyContext([Engine](Ref O) { return Engine->isPendingShell(O); },
                     /*AllowOldCopyReserved=*/!Engine->drained());
  std::vector<std::string> Problems = V.verify(
      [&TheVM](const std::function<void(Ref &)> &Visit) {
        TheVM.visitRoots(Visit);
      });
  EXPECT_TRUE(Problems.empty())
      << Where << ": " << (Problems.empty() ? "" : Problems.front());
}

} // namespace

//===--------------------------------------------------------------------===//
// Field-mapping plans
//===--------------------------------------------------------------------===//

TEST(Synthesis, SameNameFieldsCopyAndNewFieldsKeep) {
  SynthesisReport R = planFor(growthVersion(false), growthVersion(true));

  const ClassPlan *P = R.plan("C");
  ASSERT_NE(P, nullptr);
  ASSERT_EQ(mappingFor(*P, "a")->Action, FieldAction::Copy);
  ASSERT_EQ(mappingFor(*P, "p")->Action, FieldAction::Copy);
  ASSERT_EQ(mappingFor(*P, "n")->Action, FieldAction::Keep);
  EXPECT_FALSE(P->needsHumanRule());
  EXPECT_FALSE(P->LayoutUnchanged); // a field was added
  EXPECT_EQ(R.NumCopies, 2u);
  EXPECT_EQ(R.NumRenames, 0u);
  EXPECT_EQ(R.NumFlagged, 0u);
  EXPECT_TRUE(R.flaggedFields().empty());
}

TEST(Synthesis, ConstructorEvidencePairsRename) {
  SynthesisReport R = planFor(renameVersion(false), renameVersion(true));

  const ClassPlan *P = R.plan("C");
  ASSERT_NE(P, nullptr);
  const FieldMapping *M = mappingFor(*P, "b");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Action, FieldAction::Rename);
  EXPECT_EQ(M->OldField, "a");
  EXPECT_NE(M->Note.find("constructor parameter"), std::string::npos);
  EXPECT_EQ(R.NumRenames, 1u);
  EXPECT_EQ(R.NumFlagged, 0u);
}

TEST(Synthesis, AmbiguousRenameCandidatesAreFlagged) {
  // Two same-type fields dropped, two added, no constructors: guessing
  // either pairing could silently shear data, so both are flagged.
  auto Version = [](bool V2) {
    ClassSet Set;
    ClassBuilder C("C");
    C.field(V2 ? "c" : "a", "I");
    C.field(V2 ? "d" : "b", "I");
    Set.add(C.build());
    return withBuiltins(std::move(Set));
  };
  SynthesisReport R = planFor(Version(false), Version(true));

  const ClassPlan *P = R.plan("C");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(mappingFor(*P, "c")->Action, FieldAction::Flagged);
  EXPECT_EQ(mappingFor(*P, "d")->Action, FieldAction::Flagged);
  EXPECT_TRUE(P->needsHumanRule());
  EXPECT_EQ(R.NumFlagged, 2u);
  std::vector<std::string> Flagged = R.flaggedFields();
  EXPECT_NE(std::find(Flagged.begin(), Flagged.end(), "C.c"), Flagged.end());
  EXPECT_NE(std::find(Flagged.begin(), Flagged.end(), "C.d"), Flagged.end());
}

TEST(Synthesis, RetypedFieldIsFlaggedNotConverted) {
  // Fig. 2's String[] -> EmailAddress[]: same name, new type. Only a
  // human can write the value conversion; the plan says so.
  auto Version = [](bool V2) {
    ClassSet Set;
    Set.add(ClassBuilder("Addr").build());
    ClassBuilder C("C");
    C.field("addrs", V2 ? "[LAddr;" : "[LString;");
    Set.add(C.build());
    return withBuiltins(std::move(Set));
  };
  SynthesisReport R = planFor(Version(false), Version(true));

  const ClassPlan *P = R.plan("C");
  ASSERT_NE(P, nullptr);
  const FieldMapping *M = mappingFor(*P, "addrs");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Action, FieldAction::Flagged);
  EXPECT_NE(M->Note.find("type changed"), std::string::npos);
  EXPECT_EQ(R.flaggedFields(),
            (std::vector<std::string>{"C.addrs"}));
}

TEST(Synthesis, LayoutUnchangedUpdatedClassIsUntouched) {
  SynthesisReport R = planFor(settleVersion(false), settleVersion(true));

  const ClassPlan *P = R.plan("Point");
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(P->LayoutUnchanged);
  EXPECT_TRUE(R.UntouchedClasses.count("Point"));
  EXPECT_TRUE(R.ImpactClasses.count("Point"));
  const ClassPlan *S = R.plan("Stamp");
  ASSERT_NE(S, nullptr);
  EXPECT_FALSE(S->LayoutUnchanged);
  EXPECT_FALSE(R.UntouchedClasses.count("Stamp"));
}

TEST(Synthesis, ImpactClosureFollowsRefFieldsButNotBystanders) {
  auto Version = [](bool V2) {
    ClassSet Set;
    ClassBuilder O("Other");
    O.field("v", "I");
    Set.add(O.build());
    ClassBuilder U("Unrelated");
    U.field("u", "I");
    Set.add(U.build());
    ClassBuilder C("C");
    C.field("r", "LOther;");
    if (V2)
      C.field("n", "I");
    Set.add(C.build());
    return withBuiltins(std::move(Set));
  };
  ClassSet Old = Version(false), New = Version(true);
  UpdateBundle B = Upt::prepare(Old, New, "test");
  SynthesisReport R = TransformerSynthesis(Old, New).synthesize(B.Spec);

  EXPECT_TRUE(R.ImpactClasses.count("C"));
  EXPECT_TRUE(R.ImpactClasses.count("Other"));
  EXPECT_FALSE(R.ImpactClasses.count("Unrelated"));
  // The runtime mirror (what the updater computes at certify time from
  // the new program and spec alone) agrees with the synthesis report.
  EXPECT_EQ(TransformerSynthesis::impactClasses(New, B.Spec),
            R.ImpactClasses);
}

//===--------------------------------------------------------------------===//
// Installation precedence
//===--------------------------------------------------------------------===//

TEST(Synthesis, DefaultOnlyPlansInstallNoTransformer) {
  ClassSet Old = growthVersion(false), New = growthVersion(true);
  UpdateBundle B = Upt::prepare(Old, New, "test");
  SynthesisReport R = TransformerSynthesis(Old, New).synthesize(B.Spec);
  TransformerSynthesis::installTransformers(B, R);
  // Copies and keeps are exactly what the UPT default already does;
  // installing a transformer for them would only slow the drain down.
  EXPECT_TRUE(B.ObjectTransformers.empty());
  EXPECT_TRUE(B.ClassTransformers.empty());
  EXPECT_TRUE(B.Renames.empty());
}

TEST_EAGER_AND_LAZY(Synthesis, RenamePlanInstallsTransformerUnlessHandwritten) {
  ClassSet Old = renameVersion(false), New = renameVersion(true);
  {
    UpdateBundle B = Upt::prepare(Old, New, "test");
    SynthesisReport R = TransformerSynthesis(Old, New).synthesize(B.Spec);
    TransformerSynthesis::installTransformers(B, R);
    // The rename is bundle data for the runner's default plan, not a
    // transformer that replaces it.
    EXPECT_TRUE(B.ObjectTransformers.empty());
    EXPECT_EQ(B.Renames["C"],
              (std::map<std::string, std::string>{{"b", "a"}}));
  }
  {
    UpdateBundle B = Upt::prepare(Old, New, "test");
    B.ObjectTransformers["C"] = [](TransformCtx &Ctx, Ref To, Ref) {
      Ctx.setInt(To, "b", 1234);
    };
    SynthesisReport R = TransformerSynthesis(Old, New).synthesize(B.Spec);
    TransformerSynthesis::installTransformers(B, R);
    EXPECT_TRUE(B.Renames.empty());

    // The handwritten rule must survive installation: apply the update
    // and observe its effect (the synthesized rename would copy 5).
    VM TheVM(smallConfig());
    TheVM.loadProgram(renameVersion(false));
    TheVM.callStatic("Setup", "init", "()V");
    Updater U(TheVM);
    UpdateResult Res = U.applyNow(std::move(B), modeOptions(Lazy));
    ASSERT_EQ(Res.Status, UpdateStatus::Applied) << Res.Message;
    EXPECT_EQ(TheVM.callStatic("Probe", "get", "()I").IntVal, 1234);
  }
}

//===--------------------------------------------------------------------===//
// End-to-end behavior
//===--------------------------------------------------------------------===//

TEST_EAGER_AND_LAZY(Synthesis, SynthesizedRenameCarriesHeapStateAcrossUpdate) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(renameVersion(false));
  TheVM.callStatic("Setup", "init", "()V");
  ASSERT_EQ(TheVM.callStatic("Probe", "get", "()I").IntVal, 5);

  UpdateBundle B =
      Upt::prepare(renameVersion(false), renameVersion(true), "v1");
  SynthesisReport R =
      TransformerSynthesis(renameVersion(false), renameVersion(true))
          .synthesize(B.Spec);
  // renameVersion keeps its own ClassSets alive only inside the calls
  // above; synthesize copies everything it needs into the report.
  TransformerSynthesis::installTransformers(B, R);

  Updater U(TheVM);
  UpdateResult Res = U.applyNow(std::move(B), modeOptions(Lazy));
  ASSERT_EQ(Res.Status, UpdateStatus::Applied) << Res.Message;
  // a's value rode the rename into b; the default would have zeroed it.
  EXPECT_EQ(TheVM.callStatic("Probe", "get", "()I").IntVal, 5);
  expectHeapHealthy(TheVM, "after rename update");
}

TEST_EAGER_AND_LAZY(Synthesis, FaultedMappingRollsBackEagerUpdate) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(renameVersion(false));
  TheVM.callStatic("Setup", "init", "()V");

  UpdateBundle B =
      Upt::prepare(renameVersion(false), renameVersion(true), "v1");
  TheVM.faults().arm(FaultInjector::Site::SynthTransformerField);
  SynthesisReport R =
      TransformerSynthesis(renameVersion(false), renameVersion(true))
          .synthesize(B.Spec, &TheVM.faults());
  ASSERT_NE(R.plan("C"), nullptr);
  ASSERT_TRUE(R.plan("C")->Faulted);
  TransformerSynthesis::installTransformers(B, R);

  Updater U(TheVM);
  UpdateResult Res = U.applyNow(std::move(B), modeOptions(Lazy));
  // The corrupted mapping reads a nonexistent source field. Eagerly, the
  // plan throws mid-transaction and the snapshot is restored; lazily, the
  // update has committed, so the shell settles Failed with the diagnostic.
  const std::string Diag = "class v1_C has no field 'a__fault'";
  if (!Lazy) {
    EXPECT_EQ(Res.Status, UpdateStatus::FailedTransformer) << Res.Message;
    EXPECT_NE(Res.Message.find(Diag), std::string::npos) << Res.Message;
    EXPECT_EQ(TheVM.callStatic("Probe", "get", "()I").IntVal, 5);
  } else {
    EXPECT_EQ(Res.Status, UpdateStatus::Applied) << Res.Message;
    auto *Engine = dynamic_cast<LazyTransformEngine *>(TheVM.lazyEngine());
    ASSERT_NE(Engine, nullptr);
    EXPECT_EQ(Engine->failedTransforms(), 1u);
    ASSERT_EQ(TheVM.lazyFailureLog().size(), 1u);
    EXPECT_NE(TheVM.lazyFailureLog()[0].find(Diag), std::string::npos)
        << TheVM.lazyFailureLog()[0];
    EXPECT_EQ(TheVM.callStatic("Probe", "get", "()I").IntVal, 0);
  }
  expectHeapHealthy(TheVM, Lazy ? "after failed settle" : "after rollback");
}

TEST(Synthesis, LazyDrainTransformsLayoutUnchangedClassToo) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(settleVersion(false));
  TheVM.callStatic("Setup", "points", "()V");
  TheVM.callStatic("Setup", "stamps", "()V");
  const int64_t SumX = NumPoints * (NumPoints - 1) / 2;
  const int64_t SumS = NumStamps * (NumStamps - 1) / 2;
  ASSERT_EQ(TheVM.callStatic("Probe", "sumX", "()I").IntVal, SumX);

  Updater U(TheVM);
  UpdateResult Res = U.applyNow(
      Upt::prepare(settleVersion(false), settleVersion(true), "v1"),
      modeOptions(/*Lazy=*/true));
  ASSERT_EQ(Res.Status, UpdateStatus::Applied) << Res.Message;
  ASSERT_TRUE(Res.LazyInstalled);

  auto *Engine = dynamic_cast<LazyTransformEngine *>(TheVM.lazyEngine());
  ASSERT_NE(Engine, nullptr);
  // The Points (layout unchanged) are transformed one by one like the
  // Stamps (whose layout grew): the untouched set is a report, not a
  // shortcut.
  EXPECT_EQ(Engine->onDemandTransforms() + Engine->backgroundTransforms(),
            static_cast<uint64_t>(NumPoints + NumStamps));
  EXPECT_TRUE(Engine->drained());
  EXPECT_EQ(Engine->pendingCount(), 0u);

  EXPECT_EQ(TheVM.callStatic("Probe", "sumX", "()I").IntVal, SumX);
  EXPECT_EQ(TheVM.callStatic("Probe", "sumS", "()I").IntVal, SumS);
  expectHeapHealthy(TheVM, "after lazy drain");
}

namespace {

/// settleVersion v1 -> v2 with the synth-transformer-field fault fired on
/// the first inferred mapping, Point.x: Point's layout is unchanged, but
/// its plan now reads a field that does not exist.
UpdateBundle faultedSettleBundle(VM &TheVM) {
  UpdateBundle B =
      Upt::prepare(settleVersion(false), settleVersion(true), "v1");
  TheVM.faults().arm(FaultInjector::Site::SynthTransformerField);
  SynthesisReport R =
      TransformerSynthesis(settleVersion(false), settleVersion(true))
          .synthesize(B.Spec, &TheVM.faults());
  EXPECT_TRUE(R.plan("Point") && R.plan("Point")->Faulted);
  EXPECT_TRUE(R.plan("Stamp") && !R.plan("Stamp")->Faulted);
  TransformerSynthesis::installTransformers(B, R);
  return B;
}

} // namespace

TEST(Synthesis, FaultedUntouchedClassFailsEachShell) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(settleVersion(false));
  TheVM.callStatic("Setup", "points", "()V");
  TheVM.callStatic("Setup", "stamps", "()V");

  Updater U(TheVM);
  UpdateResult Res =
      U.applyNow(faultedSettleBundle(TheVM), modeOptions(/*Lazy=*/true));
  ASSERT_EQ(Res.Status, UpdateStatus::Applied) << Res.Message;

  auto *Engine = dynamic_cast<LazyTransformEngine *>(TheVM.lazyEngine());
  ASSERT_NE(Engine, nullptr);
  // Each Point runs its faulted plan and fails; the Stamps transform
  // normally.
  EXPECT_EQ(Engine->failedTransforms(), static_cast<uint64_t>(NumPoints));
  EXPECT_EQ(Engine->onDemandTransforms() + Engine->backgroundTransforms(),
            static_cast<uint64_t>(NumStamps));
  EXPECT_TRUE(Engine->drained());
  EXPECT_EQ(TheVM.callStatic("Probe", "sumX", "()I").IntVal, 0);
  expectHeapHealthy(TheVM, "after faulted lazy drain");
}

TEST(Synthesis, FaultedUntouchedClassBreachRevertsWithoutResidue) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(settleVersion(false));
  TheVM.callStatic("Setup", "points", "()V");
  TheVM.callStatic("Setup", "stamps", "()V");
  const int64_t SumX = NumPoints * (NumPoints - 1) / 2;
  const int64_t SumS = NumStamps * (NumStamps - 1) / 2;

  UpdateOptions Opts = modeOptions(/*Lazy=*/true);
  Opts.CanaryWindow.WindowTicks = 100'000'000;
  Opts.CanaryWindow.CheckIntervalTicks = 500;
  Updater U(TheVM);
  UpdateResult Res = U.applyNow(faultedSettleBundle(TheVM), Opts);
  ASSERT_EQ(Res.Status, UpdateStatus::Applied) << Res.Message;
  ASSERT_TRUE(Res.CanaryArmed);

  // The failed Points breach the window, which reverts the update.
  auto *Ctl = static_cast<CanaryController *>(TheVM.canary());
  ASSERT_NE(Ctl, nullptr);
  for (int Round = 0; Ctl->windowOpen() && Round < 1'000; ++Round)
    TheVM.run(10'000);
  ASSERT_EQ(Ctl->state(), CanaryState::Reverted);
  ASSERT_FALSE(Ctl->report().Breaches.empty());
  EXPECT_EQ(Ctl->report().Breaches.front().Monitor, "failed-transforms");
  EXPECT_TRUE(Ctl->revertResult().Certified);
  EXPECT_EQ(Ctl->report().ResidualNewObjects, 0u);
  // The corrupted mapping was not inverted, and the x values the faulted
  // plan dropped come back from the undo log.
  EXPECT_EQ(TheVM.callStatic("Probe", "sumX", "()I").IntVal, SumX);
  EXPECT_EQ(TheVM.callStatic("Probe", "sumS", "()I").IntVal, SumS);
  expectHeapHealthy(TheVM, "after revert");
}

//===--------------------------------------------------------------------===//
// Metrics
//===--------------------------------------------------------------------===//

TEST(Synthesis, RecordSynthesisMetricsPublishesCountersAndGauges) {
  SynthesisReport R = planFor(renameVersion(false), renameVersion(true));

  Telemetry &Tel = Telemetry::global();
  Tel.setEnabled(true);
  uint64_t RunsBefore = Tel.counter(metrics::DsuSynthRuns).value();
  uint64_t RenamesBefore = Tel.counter(metrics::DsuSynthRenames).value();
  recordSynthesisMetrics(R);
  EXPECT_EQ(Tel.counter(metrics::DsuSynthRuns).value(), RunsBefore + 1);
  EXPECT_EQ(Tel.counter(metrics::DsuSynthRenames).value(),
            RenamesBefore + 1);
  EXPECT_EQ(Tel.gauge(metrics::DsuImpactClasses).value(),
            static_cast<int64_t>(R.ImpactClasses.size()));
  EXPECT_EQ(Tel.gauge(metrics::DsuImpactUntouched).value(),
            static_cast<int64_t>(R.UntouchedClasses.size()));
  Tel.setEnabled(false);
}
