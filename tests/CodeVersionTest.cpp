//===----------------------------------------------------------------------===//
///
/// \file
/// Per-method code-versioning tests: chain lifecycle (install, atomic
/// switch, stacked chains, revert pop), poll-point observation and stale
/// frames finishing on superseded code, transactional unwind under the
/// `codeversion-install` fault, and EcUpdater parity across the 22
/// release streams.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "apps/CrossFtpApp.h"
#include "apps/EmailApp.h"
#include "apps/JettyApp.h"
#include "dsu/CodeVersion.h"
#include "dsu/EcUpdater.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

/// Main.run()I returns K; Main.aux()I returns K+10. Bumping K is a
/// strictly body-only diff touching two methods.
ClassSet pairProgram(int64_t K) {
  ClassSet Set;
  ClassBuilder CB("Main");
  CB.staticMethod("run", "()I").iconst(K).iret();
  CB.staticMethod("aux", "()I").iconst(K + 10).iret();
  Set.add(CB.build());
  return Set;
}

/// Ctl.stop gates Spin.spin()V: add K to Spin.sum, sleep, loop until
/// halted. Changing K (plus a size-changing nop) is strictly body-only,
/// and the spinner's in-flight frame never returns until Ctl.halt().
ClassSet spinStopProgram(int64_t K, bool V2 = false) {
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

MethodId methodIdOf(VM &TheVM, const std::string &Cls,
                    const std::string &Name, const std::string &Sig) {
  ClassRegistry &Reg = TheVM.registry();
  return Reg.resolveMethod(Reg.idOf(Cls), Name, Sig);
}

int64_t staticIntOf(VM &TheVM, const char *Cls, size_t Slot) {
  ClassRegistry &Reg = TheVM.registry();
  return Reg.cls(Reg.idOf(Cls)).Statics[Slot].IntVal;
}

bool hasEvent(const UpdateResult &R, UpdateEventKind K) {
  for (const UpdateEvent &E : R.Trace.events())
    if (E.Kind == K)
      return true;
  return false;
}

UpdateOptions versionedOpts() {
  UpdateOptions Opts;
  Opts.CodeVersioning = true;
  return Opts;
}

/// Applies \p B to a fresh VM running \p Running, committed through the
/// versioned path or through the safe-point pipeline, and expects the
/// prior version (pairProgram(1)) to keep serving.
UpdateResult applyOnFreshVm(const ClassSet &Running, UpdateBundle B,
                            bool Versioned) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(Running);
  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), Versioned ? versionedOpts()
                                                      : UpdateOptions());
  EXPECT_EQ(TheVM.callStatic("Main", "run", "()I").IntVal, 1);
  EXPECT_EQ(TheVM.callStatic("Main", "aux", "()I").IntVal, 11);
  EXPECT_FALSE(R.CodeVersioned);
  return R;
}

/// Expects \p B, applied on top of \p Running, to roll back with
/// \p Message on both commit paths.
void expectBothPathsRollBack(const ClassSet &Running, const UpdateBundle &B,
                             const std::string &Message) {
  for (bool Versioned : {false, true}) {
    SCOPED_TRACE(Versioned ? "versioned" : "safe-point pipeline");
    UpdateResult R = applyOnFreshVm(Running, B, Versioned);
    EXPECT_EQ(R.Status, UpdateStatus::RolledBack);
    EXPECT_EQ(R.Message, Message);
  }
}

} // namespace

//===--- Chain lifecycle ----------------------------------------------------===//

TEST(CodeVersion, VersionedInstallSwitchesWithoutSafePoint) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairProgram(1));
  EXPECT_EQ(TheVM.callStatic("Main", "run", "()I").IntVal, 1);
  EXPECT_EQ(TheVM.callStatic("Main", "aux", "()I").IntVal, 11);
  MethodId Run = methodIdOf(TheVM, "Main", "run", "()I");
  uint64_t HeatBefore = TheVM.registry().method(Run).InvokeCount;
  EXPECT_GE(HeatBefore, 1u);

  Updater U(TheVM);
  UpdateResult R = U.applyNow(
      Upt::prepare(pairProgram(1), pairProgram(2), "v1"), versionedOpts());

  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_TRUE(R.CodeVersioned);
  EXPECT_EQ(R.CodeVersionedMethods, 2);
  EXPECT_EQ(R.SafePointAttempts, 0);
  EXPECT_EQ(R.TicksToSafePoint, 0u);
  EXPECT_TRUE(R.Certified) << "registry certification should pass";
  EXPECT_TRUE(hasEvent(R, UpdateEventKind::CodeVersionInstalled));
  EXPECT_TRUE(hasEvent(R, UpdateEventKind::CodeVersionSwitched));
  EXPECT_FALSE(hasEvent(R, UpdateEventKind::SafePointAttempt));

  // Both bodies switched; the chains record v0 -> v1.
  EXPECT_EQ(TheVM.callStatic("Main", "run", "()I").IntVal, 2);
  EXPECT_EQ(TheVM.callStatic("Main", "aux", "()I").IntVal, 12);
  CodeVersionManager &CVM = CodeVersionManager::of(TheVM);
  EXPECT_EQ(CVM.epoch(), 1u);
  EXPECT_EQ(CVM.installs(), 2u);
  EXPECT_EQ(CVM.chains(), 2u);
  const MethodVersionChain *VC = CVM.chainFor(Run);
  ASSERT_NE(VC, nullptr);
  ASSERT_EQ(VC->Chain.size(), 2u);
  EXPECT_EQ(VC->Chain.back().VersionId, 1u);
  EXPECT_EQ(VC->Chain.back().Tag, "v1");
  EXPECT_EQ(VC->Chain.front().Tag, "v0");
  // The install preserved the profile heat instead of re-profiling from
  // zero (setMethodBody alone would reset it) — repromotion, not restart.
  EXPECT_GE(TheVM.registry().method(Run).InvokeCount, HeatBefore);
}

TEST(CodeVersion, StackedInstallsComposeAndRevertPops) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairProgram(1));
  MethodId Run = methodIdOf(TheVM, "Main", "run", "()I");
  Updater U(TheVM);

  ASSERT_EQ(U.applyNow(Upt::prepare(pairProgram(1), pairProgram(2), "v1"),
                       versionedOpts())
                .Status,
            UpdateStatus::Applied);
  ASSERT_EQ(U.applyNow(Upt::prepare(pairProgram(2), pairProgram(3), "v2"),
                       versionedOpts())
                .Status,
            UpdateStatus::Applied);

  CodeVersionManager &CVM = CodeVersionManager::of(TheVM);
  const MethodVersionChain *VC = CVM.chainFor(Run);
  ASSERT_NE(VC, nullptr);
  ASSERT_EQ(VC->Chain.size(), 3u); // v0 -> v1 -> v2 stacked
  EXPECT_EQ(VC->Chain.back().VersionId, 2u);
  EXPECT_EQ(TheVM.callStatic("Main", "run", "()I").IntVal, 3);

  // Installing the parent's exact bodies pops the chains instead of
  // growing them — the body-only revert path.
  UpdateResult R = U.applyNow(
      Upt::prepare(pairProgram(3), pairProgram(2), "undo"), versionedOpts());
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_TRUE(hasEvent(R, UpdateEventKind::CodeVersionReverted));
  EXPECT_EQ(CVM.revertPops(), 2u); // run + aux both popped
  VC = CVM.chainFor(Run);
  ASSERT_EQ(VC->Chain.size(), 2u);
  EXPECT_EQ(VC->Chain.back().VersionId, 1u);
  EXPECT_EQ(VC->Chain.back().Tag, "v1");
  EXPECT_EQ(TheVM.callStatic("Main", "run", "()I").IntVal, 2);
  EXPECT_EQ(CVM.epoch(), 3u); // every batch committed one switch
}

//===--- Poll observation and stale frames ----------------------------------===//

TEST(CodeVersion, InFlightFrameFinishesOnOldVersion) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(spinStopProgram(1));
  TheVM.spawnThread("Spin", "spin", "()V", {}, "spinner", true);
  TheVM.run(500);

  Updater U(TheVM);
  UpdateResult R =
      U.applyNow(Upt::prepare(spinStopProgram(1), spinStopProgram(1000, true),
                              "v1"),
                 versionedOpts());
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  ASSERT_TRUE(R.CodeVersioned);

  CodeVersionManager &CVM = CodeVersionManager::of(TheVM);
  EXPECT_GE(CVM.staleFrames(), 1u) << "spinner still on the superseded body";

  // The stale frame keeps stepping by the OLD constant: rejit semantics,
  // in-flight activations never see the switch mid-frame.
  int64_t Before = staticIntOf(TheVM, "Spin", 0);
  TheVM.run(2'000);
  int64_t Delta = staticIntOf(TheVM, "Spin", 0) - Before;
  EXPECT_GT(Delta, 0);
  EXPECT_LT(Delta, 1000) << "frame adopted the new body mid-flight";
  // Threads stamped the new epoch at their poll points while the stale
  // frame kept running.
  EXPECT_GE(CVM.pollObservations(), 1u);

  // Once the spinner returns, the stale count drops to zero and fresh
  // activations run the new body.
  TheVM.callStatic("Ctl", "halt", "()V");
  TheVM.run(50'000);
  EXPECT_EQ(CVM.staleFrames(), 0u);
  int64_t AtHalt = staticIntOf(TheVM, "Spin", 0);
  ClassRegistry &Reg = TheVM.registry();
  Reg.cls(Reg.idOf("Ctl")).Statics[0] = Slot::ofInt(0); // re-open the gate
  TheVM.spawnThread("Spin", "spin", "()V", {}, "spinner2", true);
  TheVM.run(100);
  TheVM.callStatic("Ctl", "halt", "()V");
  TheVM.run(50'000);
  int64_t Delta2 = staticIntOf(TheVM, "Spin", 0) - AtHalt;
  EXPECT_GT(Delta2, 0);
  EXPECT_EQ(Delta2 % 1000, 0) << "fresh activation must run the new body";
}

//===--- Transactional unwind -----------------------------------------------===//

TEST(CodeVersion, FaultedInstallUnwindsAndPriorVersionsServe) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairProgram(1));
  // First probe passes, second fires: the batch fails mid-chain with one
  // method already swapped.
  TheVM.faults().arm(FaultInjector::Site::CodeVersionInstall, /*Fire=*/1,
                     /*Skip=*/1);

  Updater U(TheVM);
  UpdateResult R = U.applyNow(
      Upt::prepare(pairProgram(1), pairProgram(2), "v1"), versionedOpts());

  ASSERT_EQ(R.Status, UpdateStatus::RolledBack) << R.Message;
  EXPECT_NE(R.Message.find("codeversion-install"), std::string::npos)
      << R.Message;
  EXPECT_FALSE(R.CodeVersioned);

  // The swapped prefix unwound: both methods serve the old bodies, no
  // chain survives, and the epoch never advanced — no thread could have
  // observed the partial switch.
  EXPECT_EQ(TheVM.callStatic("Main", "run", "()I").IntVal, 1);
  EXPECT_EQ(TheVM.callStatic("Main", "aux", "()I").IntVal, 11);
  CodeVersionManager &CVM = CodeVersionManager::of(TheVM);
  EXPECT_EQ(CVM.epoch(), 0u);
  EXPECT_EQ(CVM.chains(), 0u);
  EXPECT_EQ(CVM.chainFor(methodIdOf(TheVM, "Main", "run", "()I")), nullptr);

  // The site disarms after firing: the retry commits.
  UpdateResult R2 = U.applyNow(
      Upt::prepare(pairProgram(1), pairProgram(2), "v1"), versionedOpts());
  ASSERT_EQ(R2.Status, UpdateStatus::Applied) << R2.Message;
  EXPECT_EQ(TheVM.callStatic("Main", "run", "()I").IntVal, 2);
}

//===--- Unresolvable spec entries ------------------------------------------===//

// A body-only spec naming a method the running VM lacks, or one the new
// version lacks, must resolve the same way through the versioned commit as
// through the safe-point pipeline: rolled back, prior versions serving.

TEST(CodeVersion, SpecMethodUnknownToVmRollsBack) {
  UpdateBundle B = Upt::prepare(pairProgram(1), pairProgram(2), "v1");
  B.Spec.MethodBodyUpdates.push_back({"Main", "nosuch", "()I"});
  expectBothPathsRollBack(pairProgram(1), B,
                          "update rolled back (install: body update on "
                          "unknown method Main.nosuch()I)");
}

TEST(CodeVersion, SpecMethodMissingFromNewVersionRollsBack) {
  // pairProgram plus Main.other()I, changed too; the bundle's new version
  // then loses other() while its spec still lists the body update.
  auto Triple = [](int64_t K) {
    ClassSet Set = pairProgram(K);
    ClassBuilder CB("Main");
    CB.staticMethod("other", "()I").iconst(K + 20).iret();
    Set.find("Main")->Methods.push_back(CB.build().Methods.front());
    return Set;
  };
  UpdateBundle B = Upt::prepare(Triple(1), Triple(2), "v1");
  std::vector<MethodDef> &Methods = B.NewProgram.find("Main")->Methods;
  Methods.erase(std::find_if(Methods.begin(), Methods.end(),
                             [](const MethodDef &M) {
                               return M.Name == "other";
                             }));
  expectBothPathsRollBack(Triple(1), B,
                          "update rolled back (install: spec references "
                          "Main.other()I, which is missing from the new "
                          "version)");
}

//===--- EcUpdater parity across the release streams ------------------------===//

TEST(CodeVersion, StreamParityBodyOnlyReleasesCertifyThroughManager) {
  AppModel Apps[] = {makeJettyApp(), makeEmailApp(), makeCrossFtpApp()};
  int Total = 0, EcOk = 0, BodyOnly = 0;
  for (const AppModel &App : Apps) {
    for (size_t V = 1; V < App.numVersions(); ++V) {
      ++Total;
      const ClassSet &Prev = App.version(V - 1);
      const ClassSet &Next = App.version(V);
      UpdateSpec Spec = Upt::computeSpec(Prev, Next);
      if (EcUpdater::supports(Spec.Summary))
        ++EcOk;
      bool StrictlyBodyOnly =
          Spec.ClassUpdates.empty() && Spec.AddedClasses.empty() &&
          Spec.DeletedClasses.empty() && Spec.RemovedMethods.empty() &&
          !Spec.MethodBodyUpdates.empty();
      if (!StrictlyBodyOnly)
        continue;
      ++BodyOnly;
      SCOPED_TRACE(App.name() + " " + App.release(V).Name);

      // Versioned commit.
      VM::Config C;
      C.HeapSpaceBytes = 8u << 20;
      VM Versioned(C);
      Versioned.loadProgram(Prev);
      UpdateResult RV = Updater(Versioned).applyNow(
          Upt::prepare(Prev, Next, App.release(V).Name), versionedOpts());
      ASSERT_EQ(RV.Status, UpdateStatus::Applied) << RV.Message;
      EXPECT_TRUE(RV.CodeVersioned);
      EXPECT_EQ(RV.CodeVersionedMethods,
                static_cast<int>(Spec.MethodBodyUpdates.size()));
      EXPECT_TRUE(RV.Certified);

      // Full safe-point pipeline on a twin VM.
      VM Pipeline(C);
      Pipeline.loadProgram(Prev);
      UpdateResult RP = Updater(Pipeline).applyNow(
          Upt::prepare(Prev, Next, App.release(V).Name));
      ASSERT_EQ(RP.Status, UpdateStatus::Applied) << RP.Message;
      EXPECT_FALSE(RP.CodeVersioned);
      EXPECT_TRUE(RP.Certified);

      // Parity: both paths left the identical active body per method.
      for (const MethodRef &M : Spec.MethodBodyUpdates) {
        MethodId IdV = methodIdOf(Versioned, M.ClassName, M.Name, M.Sig);
        MethodId IdP = methodIdOf(Pipeline, M.ClassName, M.Name, M.Sig);
        ASSERT_NE(IdV, InvalidMethodId) << M.key();
        ASSERT_NE(IdP, InvalidMethodId) << M.key();
        EXPECT_TRUE(Versioned.registry().method(IdV).Def->codeEquals(
            *Pipeline.registry().method(IdP).Def))
            << M.key();
      }
      EXPECT_EQ(CodeVersionManager::of(Versioned).installs(),
                Spec.MethodBodyUpdates.size());
    }
  }
  EXPECT_EQ(Total, 22);
  // The paper reports 9 method-body-only supported updates; our table
  // reconstruction yields 8 (see EXPERIMENTS.md). 6 of those are
  // *strictly* body-only bundles the manager commits directly — the
  // other two (jetty 5.1.1, email 1.3.3) carry class updates whose
  // method-body subset EcUpdater certifies but whose full bundle
  // rightly takes the safe-point pipeline.
  EXPECT_EQ(EcOk, 8);
  EXPECT_EQ(BodyOnly, 6);
}
