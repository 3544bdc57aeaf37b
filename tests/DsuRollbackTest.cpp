//===----------------------------------------------------------------------===//
///
/// \file
/// Transactional-update tests: every FaultInjector site plus the organic
/// failures they model must resolve to RolledBack / FailedTransformer /
/// TimedOut — never process death — with the heap certifying clean and the
/// old program version still serving correct answers afterwards. Also
/// covers safe-point starvation inside the single deadline and the
/// certification option.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "heap/HeapVerifier.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

using Site = FaultInjector::Site;

namespace {

/// True when \p S fires inside the transformer phase. The transformer-
/// failure tests assert the eager transactional contract: transformers run
/// *before* commit, so a fault rolls the whole update back. A lazy update
/// runs them after commit, where a fault degrades the update instead
/// (LazyDrainFaultDegradesInsteadOfRollingBack and LazyTransformTest cover
/// that policy).
bool isTransformerSite(Site S) {
  return S == Site::TransformerNthObject || S == Site::TransformerCycle ||
         S == Site::LazyDrainTransformer;
}

/// Point program with a probe present in both versions. v1: Point{x},
/// Probe.check() = p.x. v2: Point{x, y}, Probe.check() = p.x * 100 + p.y.
/// A rolled-back update must keep answering the v1 value.
ClassSet ptVersion(bool V2) {
  ClassSet Set;
  ClassBuilder P("Point");
  P.field("x", "I");
  if (V2)
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
  ClassBuilder Pr("Probe");
  MethodBuilder &M = Pr.staticMethod("check", "()I");
  if (V2)
    M.getstatic("Holder", "p", "LPoint;")
        .getfield("Point", "x", "I")
        .iconst(100)
        .imul()
        .getstatic("Holder", "p", "LPoint;")
        .getfield("Point", "y", "I")
        .iadd()
        .iret();
  else
    M.getstatic("Holder", "p", "LPoint;")
        .getfield("Point", "x", "I")
        .iret();
  Set.add(Pr.build());
  return Set;
}

/// Array-of-points variant so per-object transformer faults can hit the
/// N-th object. v1 sum = 0+1+..+7 = 28; v2 sum = sum(x*10 + y) = 280.
ClassSet arrVersion(bool V2) {
  constexpr int N = 8;
  ClassSet Set;
  ClassBuilder P("Point");
  P.field("x", "I");
  if (V2)
    P.field("y", "I");
  Set.add(P.build());
  ClassBuilder H("ArrHolder");
  H.staticField("arr", "[LPoint;");
  Set.add(H.build());
  ClassBuilder S("ArrSetup");
  S.staticMethod("init", "()V")
      .locals(2)
      .iconst(N)
      .newarray("LPoint;")
      .putstatic("ArrHolder", "arr", "[LPoint;")
      .iconst(0)
      .store(0)
      .label("loop")
      .load(0)
      .iconst(N)
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
  Set.add(S.build());
  ClassBuilder Pr("ArrProbe");
  MethodBuilder &M = Pr.staticMethod("sum", "()I").locals(3);
  M.iconst(0)
      .store(0)
      .iconst(0)
      .store(1)
      .label("loop")
      .load(1)
      .iconst(N)
      .branch(Opcode::IfICmpGe, "done")
      .getstatic("ArrHolder", "arr", "[LPoint;")
      .load(1)
      .aload()
      .store(2)
      .load(0)
      .load(2)
      .getfield("Point", "x", "I");
  if (V2)
    M.iconst(10).imul().iadd().load(2).getfield("Point", "y", "I").iadd();
  else
    M.iadd();
  M.store(0)
      .load(1)
      .iconst(1)
      .iadd()
      .store(1)
      .jump("loop")
      .label("done")
      .load(0)
      .iret();
  Set.add(Pr.build());
  return Set;
}

/// Server with a sleeping handle() inside an endless loop() — the fixture
/// for safe-point-starvation tests (an update to handle() needs a return
/// barrier, so the safe point is only reached once handle() returns).
ClassSet serverVersion(int64_t HandleValue) {
  ClassSet Set;
  ClassBuilder S("Server");
  S.staticField("total", "I");
  S.staticMethod("handle", "()V")
      .iconst(40)
      .intrinsic(IntrinsicId::SleepTicks)
      .getstatic("Server", "total", "I")
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

/// Runs the full certification stack by hand (independent of the
/// updater's own post-update pass).
void expectHealthy(VM &TheVM, const char *Where) {
  HeapVerifier V(TheVM.heap(), TheVM.registry());
  std::vector<std::string> Problems = V.verify(
      [&TheVM](const std::function<void(Ref &)> &Visit) {
        TheVM.visitRoots(Visit);
      });
  EXPECT_TRUE(Problems.empty())
      << Where << ": " << (Problems.empty() ? "" : Problems.front());
  std::vector<std::string> Reg = TheVM.registry().checkConsistency();
  EXPECT_TRUE(Reg.empty()) << Where << ": " << (Reg.empty() ? "" : Reg.front());
}

/// Common assertions for any rolled-back update: certification ran clean,
/// the terminal trace event is the rollback, the VM still certifies, and
/// the registry is exactly as \p Before, taken just before the update
/// (no thread runs in these tests, so nothing else writes it).
void expectRolledBackCleanly(VM &TheVM, const UpdateResult &R,
                             const char *Where,
                             const ClassRegistry::Fingerprint &Before) {
  EXPECT_TRUE(R.Certified) << Where;
  EXPECT_TRUE(R.CertificationProblems.empty())
      << Where << ": "
      << (R.CertificationProblems.empty() ? ""
                                          : R.CertificationProblems.front());
  ASSERT_FALSE(R.Trace.events().empty());
  EXPECT_EQ(R.Trace.events().back().Kind, UpdateEventKind::RolledBack);
  EXPECT_GE(R.Trace.count(UpdateEventKind::InstallFailed), 1);
  EXPECT_EQ(R.Trace.count(UpdateEventKind::Certified), 1);
  expectHealthy(TheVM, Where);
  std::vector<std::string> Diff = TheVM.registry().fingerprintDiff(Before);
  EXPECT_TRUE(Diff.empty()) << Where << ": " << Diff.size()
                            << " registry difference(s), first: "
                            << (Diff.empty() ? "" : Diff.front());
}

} // namespace

//===--- Site: class-load --------------------------------------------------===//

TEST_EAGER_AND_LAZY(DsuRollback, ClassLoadFailureRollsBack) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(ptVersion(false));
  TheVM.callStatic("Setup", "init", "(I)V", {Slot::ofInt(9)});

  TheVM.faults().arm(Site::ClassLoad);
  Updater U(TheVM);
  ClassRegistry::Fingerprint Before = TheVM.registry().fingerprint();
  UpdateResult R = U.applyNow(
      Upt::prepare(ptVersion(false), ptVersion(true), "v1"), modeOptions(Lazy));
  EXPECT_EQ(R.Status, UpdateStatus::RolledBack);
  EXPECT_NE(R.Message.find("class-load"), std::string::npos) << R.Message;
  expectRolledBackCleanly(TheVM, R, "after class-load rollback", Before);
  EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 9);

  // With the fault disarmed the very same update applies cleanly.
  TheVM.faults().reset();
  UpdateResult R2 = U.applyNow(
      Upt::prepare(ptVersion(false), ptVersion(true), "v1"), modeOptions(Lazy));
  ASSERT_EQ(R2.Status, UpdateStatus::Applied) << R2.Message;
  EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 900);
}

//===--- Site: transformer-nth-object --------------------------------------===//

TEST(DsuRollback, TransformerFaultOnNthObjectRollsBack) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(arrVersion(false));
  TheVM.callStatic("ArrSetup", "init", "()V");
  EXPECT_EQ(TheVM.callStatic("ArrProbe", "sum", "()I").IntVal, 28);

  // Fail on the 4th transformed object: three Points are already done when
  // the transaction aborts, so rollback must undo partial progress.
  TheVM.faults().arm(Site::TransformerNthObject, /*Fire=*/1, /*Skip=*/3);
  Updater U(TheVM);
  ClassRegistry::Fingerprint Before = TheVM.registry().fingerprint();
  UpdateResult R =
      U.applyNow(Upt::prepare(arrVersion(false), arrVersion(true), "v1"));
  EXPECT_EQ(R.Status, UpdateStatus::FailedTransformer);
  EXPECT_NE(R.Message.find("transform"), std::string::npos) << R.Message;
  expectRolledBackCleanly(TheVM, R, "after nth-object rollback", Before);
  EXPECT_EQ(TheVM.callStatic("ArrProbe", "sum", "()I").IntVal, 28);

  TheVM.faults().reset();
  UpdateResult R2 =
      U.applyNow(Upt::prepare(arrVersion(false), arrVersion(true), "v1"));
  ASSERT_EQ(R2.Status, UpdateStatus::Applied) << R2.Message;
  EXPECT_EQ(R2.ObjectsTransformed, 8u);
  EXPECT_EQ(TheVM.callStatic("ArrProbe", "sum", "()I").IntVal, 280);
}

TEST(DsuRollback, ThrowingCustomTransformerRollsBack) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(ptVersion(false));
  TheVM.callStatic("Setup", "init", "(I)V", {Slot::ofInt(9)});

  UpdateBundle B = Upt::prepare(ptVersion(false), ptVersion(true), "v1");
  B.ObjectTransformers["Point"] = [](TransformCtx &Ctx, Ref, Ref From) {
    Ctx.getInt(From, "nope"); // no such field: UpdateError("transform")
  };
  Updater U(TheVM);
  ClassRegistry::Fingerprint Before = TheVM.registry().fingerprint();
  UpdateResult R = U.applyNow(std::move(B));
  EXPECT_EQ(R.Status, UpdateStatus::FailedTransformer);
  expectRolledBackCleanly(TheVM, R, "after throwing transformer", Before);
  EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 9);
}

//===--- Site: transformer-cycle -------------------------------------------===//

TEST(DsuRollback, InjectedTransformerCycleRollsBack) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(ptVersion(false));
  TheVM.callStatic("Setup", "init", "(I)V", {Slot::ofInt(9)});

  TheVM.faults().arm(Site::TransformerCycle);
  Updater U(TheVM);
  ClassRegistry::Fingerprint Before = TheVM.registry().fingerprint();
  UpdateResult R = U.applyNow(Upt::prepare(ptVersion(false), ptVersion(true), "v1"));
  EXPECT_EQ(R.Status, UpdateStatus::FailedTransformer);
  EXPECT_NE(R.Message.find("cycle"), std::string::npos) << R.Message;
  expectRolledBackCleanly(TheVM, R, "after injected cycle", Before);
  EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 9);
}

TEST(DsuRollback, RealTransformerCycleRollsBack) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(ptVersion(false));
  TheVM.callStatic("Setup", "init", "(I)V", {Slot::ofInt(9)});

  // An ill-defined transformer that demands its own target be transformed
  // first — the minimal genuine cycle (paper §3.4's "special VM function"
  // with cycle detection).
  UpdateBundle B = Upt::prepare(ptVersion(false), ptVersion(true), "v1");
  B.ObjectTransformers["Point"] = [](TransformCtx &Ctx, Ref To, Ref) {
    Ctx.ensureTransformed(To);
  };
  Updater U(TheVM);
  ClassRegistry::Fingerprint Before = TheVM.registry().fingerprint();
  UpdateResult R = U.applyNow(std::move(B));
  EXPECT_EQ(R.Status, UpdateStatus::FailedTransformer);
  EXPECT_NE(R.Message.find("cycle"), std::string::npos) << R.Message;
  expectRolledBackCleanly(TheVM, R, "after real cycle", Before);
  EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 9);
}

//===--- Site: lazy-drain-transformer ---------------------------------------===//

TEST(DsuRollback, LazyDrainFaultDegradesInsteadOfRollingBack) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(arrVersion(false));
  TheVM.callStatic("ArrSetup", "init", "()V");
  EXPECT_EQ(TheVM.callStatic("ArrProbe", "sum", "()I").IntVal, 28);

  // Fire on the 2nd background-drain transform. The update has already
  // committed when the fault hits, so rollback is impossible: the update
  // still resolves Applied, the failed shell settles as a valid zeroed
  // object, and the VM records a structured diagnostic instead of dying.
  TheVM.faults().arm(Site::LazyDrainTransformer, /*Fire=*/1, /*Skip=*/1);
  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.LazyTransform = true;
  UpdateResult R =
      U.applyNow(Upt::prepare(arrVersion(false), arrVersion(true), "v1"), Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_TRUE(R.LazyInstalled);
  EXPECT_EQ(TheVM.faults().fireCount(Site::LazyDrainTransformer), 1u);
  EXPECT_EQ(R.ObjectsTransformed, 7u); // 8 shells, 1 settled as Failed
  ASSERT_EQ(TheVM.lazyFailureLog().size(), 1u);
  EXPECT_NE(TheVM.lazyFailureLog().front().find("lazy-drain"),
            std::string::npos)
      << TheVM.lazyFailureLog().front();

  // Seven of eight Points carry v2 values; the failed shell reads as
  // default-initialized (x contributes 0), so the v2 probe still runs —
  // degraded, not corrupt.
  int64_t Sum = TheVM.callStatic("ArrProbe", "sum", "()I").IntVal;
  EXPECT_GE(Sum, 210);
  EXPECT_LE(Sum, 280);
  expectHealthy(TheVM, "after degraded lazy drain");
}

//===--- Site: gc-alloc-exhaustion -----------------------------------------===//

TEST(DsuRollback, InjectedGcExhaustionRollsBack) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(ptVersion(false));
  TheVM.callStatic("Setup", "init", "(I)V", {Slot::ofInt(9)});

  TheVM.faults().arm(Site::GcAllocExhaustion);
  Updater U(TheVM);
  ClassRegistry::Fingerprint Before = TheVM.registry().fingerprint();
  UpdateResult R = U.applyNow(Upt::prepare(ptVersion(false), ptVersion(true), "v1"));
  EXPECT_EQ(R.Status, UpdateStatus::RolledBack);
  EXPECT_NE(R.Message.find("dsu-gc"), std::string::npos) << R.Message;
  expectRolledBackCleanly(TheVM, R, "after injected gc exhaustion", Before);
  EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 9);
}

TEST(DsuRollback, RealToSpaceExhaustionRollsBack) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(ptVersion(false));
  TheVM.callStatic("Setup", "init", "(I)V", {Slot::ofInt(9)});

  // Pin live Points until ~55% of a semispace is full. With the to-space
  // placement of old duplicates, the DSU collection needs a new-version
  // copy (one int bigger) *plus* an old-version duplicate per object —
  // over 110% of the space — so it genuinely runs out of to-space
  // mid-collection, with no fault injection at all.
  ClassId PointId = TheVM.registry().idOf("Point");
  TransformCtx Ctx(TheVM, nullptr);
  size_t Budget = TheVM.heap().spaceBytes() * 55 / 100;
  size_t NumPinned = 0;
  while (TheVM.heap().bytesAllocated() < Budget) {
    Ref P = TheVM.allocateObject(PointId);
    ASSERT_NE(P, nullptr);
    Ctx.setInt(P, "x", 7);
    TheVM.pinnedRoots().push_back(P);
    ++NumPinned;
  }

  UpdateOptions Opts;
  Opts.UseOldCopySpace = false;
  Updater U(TheVM);
  ClassRegistry::Fingerprint Before = TheVM.registry().fingerprint();
  UpdateResult R =
      U.applyNow(Upt::prepare(ptVersion(false), ptVersion(true), "v1"), Opts);
  EXPECT_EQ(R.Status, UpdateStatus::RolledBack);
  EXPECT_NE(R.Message.find("dsu-gc"), std::string::npos) << R.Message;
  expectRolledBackCleanly(TheVM, R, "after real to-space exhaustion", Before);

  // Old version intact: the static probe and every pinned object survived.
  EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 9);
  ASSERT_EQ(TheVM.pinnedRoots().size(), NumPinned);
  for (size_t I = 0; I < NumPinned; I += NumPinned / 16 + 1)
    EXPECT_EQ(Ctx.getInt(TheVM.pinnedRoots()[I], "x"), 7);
}

//===--- Site: safe-point-starvation ---------------------------------------===//

TEST(DsuRollback, TransientStarvationResolvesWithRetry) {
  ClassSet V1 = serverVersion(1);
  ClassSet V2 = serverVersion(1000);
  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  TheVM.spawnThread("Server", "loop", "()V", {}, "server", /*Daemon=*/true);
  TheVM.run(20);

  // The first safe-point attempt is starved; the re-attempt, a tenth of
  // the deadline later, must succeed and the update still applies.
  TheVM.faults().arm(Site::SafePointStarvation, /*Fire=*/1);
  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 1'000'000;
  UpdateResult R = U.applyNow(Upt::prepare(V1, V2, "v1"), Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_GE(R.SafePointAttempts, 2);
  EXPECT_EQ(R.ResolvedRung, QuiescenceRung::None); // inside the deadline
  EXPECT_EQ(TheVM.faults().fireCount(Site::SafePointStarvation), 1u);
  expectHealthy(TheVM, "after starvation retry");

  int64_t Before = TheVM.callStatic("Server", "probeTotal", "()I").IntVal;
  TheVM.run(500);
  EXPECT_GE(TheVM.callStatic("Server", "probeTotal", "()I").IntVal - Before,
            1000);
}

TEST(DsuRollback, PersistentStarvationTimesOutAfterRetries) {
  ClassSet V1 = serverVersion(1);
  ClassSet V2 = serverVersion(1000);
  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  TheVM.spawnThread("Server", "loop", "()V", {}, "server", /*Daemon=*/true);
  TheVM.run(20);

  // Every attempt is starved: the updater re-attempts every tenth of the
  // deadline until it expires once, then resolves TimedOut — not a crash,
  // not a hang.
  TheVM.faults().arm(Site::SafePointStarvation, /*Fire=*/1'000'000);
  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 20'000;
  UpdateResult R = U.applyNow(Upt::prepare(V1, V2, "v1"), Opts);
  EXPECT_EQ(R.Status, UpdateStatus::TimedOut);
  EXPECT_EQ(R.ResolvedRung, QuiescenceRung::Abort);
  EXPECT_GE(R.SafePointAttempts, 2);
  EXPECT_EQ(R.Trace.count(UpdateEventKind::WatchdogExpired), 1);
  EXPECT_EQ(R.Trace.count(UpdateEventKind::TimedOut), 1);
  expectHealthy(TheVM, "after persistent starvation");

  // The application is unharmed and still runs the old version.
  int64_t Before = TheVM.callStatic("Server", "probeTotal", "()I").IntVal;
  TheVM.run(500);
  EXPECT_GT(TheVM.callStatic("Server", "probeTotal", "()I").IntVal, Before);
}

//===--- Certification -----------------------------------------------------===//

TEST_EAGER_AND_LAZY(DsuRollback, AppliedUpdateIsCertified) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(ptVersion(false));
  TheVM.callStatic("Setup", "init", "(I)V", {Slot::ofInt(9)});

  Updater U(TheVM);
  UpdateResult R = U.applyNow(
      Upt::prepare(ptVersion(false), ptVersion(true), "v1"), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_TRUE(R.Certified);
  EXPECT_TRUE(R.CertificationProblems.empty());
  EXPECT_EQ(R.Trace.count(UpdateEventKind::Certified), 1);
  // Certification is part of the transaction: it precedes the terminal event.
  EXPECT_EQ(R.Trace.events().back().Kind, UpdateEventKind::Applied);
}

//===--- Acceptance sweep ---------------------------------------------------===//

TEST_EAGER_AND_LAZY(DsuRollback, EveryFaultSiteResolvesWithoutProcessDeath) {
  for (size_t S = 0; S < FaultInjector::NumSites; ++S) {
    for (uint64_t Skip : {uint64_t(0), uint64_t(2)}) {
      Site Where = static_cast<Site>(S);
      if (Lazy && isTransformerSite(Where))
        continue; // post-commit in lazy mode: degrades, no rollback
      SCOPED_TRACE(std::string("site=") + FaultInjector::siteName(Where) +
                   " skip=" + std::to_string(Skip));

      VM TheVM(smallConfig());
      TheVM.loadProgram(ptVersion(false));
      TheVM.callStatic("Setup", "init", "(I)V", {Slot::ofInt(9)});
      TheVM.faults().arm(Where, /*Fire=*/1, Skip);

      Updater U(TheVM);
      UpdateOptions Opts = modeOptions(Lazy);
      Opts.TimeoutTicks = 20'000;
      ClassRegistry::Fingerprint Before = TheVM.registry().fingerprint();
      UpdateResult R =
          U.applyNow(Upt::prepare(ptVersion(false), ptVersion(true), "v1"), Opts);

      // Terminal, recoverable statuses only — and with a high Skip the
      // fault may simply never fire, which must mean a clean apply.
      // `bundle-truncated` rejects at ingest (RejectedNotVerifiable), the
      // clean-refusal analogue of a rollback.
      EXPECT_TRUE(R.Status == UpdateStatus::Applied ||
                  R.Status == UpdateStatus::RolledBack ||
                  R.Status == UpdateStatus::FailedTransformer ||
                  R.Status == UpdateStatus::TimedOut ||
                  R.Status == UpdateStatus::RejectedNotVerifiable)
          << updateStatusName(R.Status) << ": " << R.Message;

      expectHealthy(TheVM, "post-update certification");
      if (R.Status == UpdateStatus::RolledBack ||
          R.Status == UpdateStatus::FailedTransformer) {
        EXPECT_EQ(TheVM.registry().fingerprintDiff(Before),
                  std::vector<std::string>());
      }
      int64_t Expect = R.Status == UpdateStatus::Applied ? 900 : 9;
      EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, Expect);

      // Whatever happened, the VM takes a clean retry of the same update.
      TheVM.faults().reset();
      UpdateResult R2 =
          U.applyNow(Upt::prepare(ptVersion(false), ptVersion(true),
                                  R.Status == UpdateStatus::Applied ? "v2" : "v1"),
                     Opts);
      if (R.Status != UpdateStatus::Applied) {
        ASSERT_EQ(R2.Status, UpdateStatus::Applied) << R2.Message;
        EXPECT_EQ(TheVM.callStatic("Probe", "check", "()I").IntVal, 900);
      }
    }
  }
}

//===--- Second-order faults (fault inside the rollback) -------------------===//

/// A second fault landing inside the rollback itself (the nested-fault
/// path Updater::install hardens) must still resolve to the rollback's
/// terminal status with the old version serving — never process death or
/// a stuck transaction.
TEST(DsuRollback, NestedFaultDuringRollbackStillTerminates) {
  // Recording pass for each candidate nested site: how many probes land
  // after the trigger fires (i.e. inside rollback + certification).
  VM Rec(smallConfig());
  Rec.loadProgram(arrVersion(false));
  Rec.callStatic("ArrSetup", "init", "()V");
  Rec.faults().arm(Site::TransformerNthObject, /*Fire=*/1, /*Skip=*/3);
  UpdateResult RecR = Updater(Rec).applyNow(
      Upt::prepare(arrVersion(false), arrVersion(true), "v1"));
  ASSERT_EQ(RecR.Status, UpdateStatus::FailedTransformer) << RecR.Message;

  for (Site Nested : {Site::HeapAllocNth, Site::GcAllocExhaustion}) {
    size_t I = static_cast<size_t>(Nested);
    uint64_t Lo = Rec.faults().probesAtFirstFire()[I];
    uint64_t Hi = Rec.faults().probeCounts()[I];
    for (uint64_t Skip = Lo; Skip < Hi; ++Skip) {
      SCOPED_TRACE(std::string("nested=") + FaultInjector::siteName(Nested) +
                   " skip=" + std::to_string(Skip));
      VM TheVM(smallConfig());
      TheVM.loadProgram(arrVersion(false));
      TheVM.callStatic("ArrSetup", "init", "()V");
      TheVM.faults().arm(Site::TransformerNthObject, /*Fire=*/1, /*Skip=*/3);
      TheVM.faults().arm(Nested, /*Fire=*/1, Skip);
      UpdateResult R = Updater(TheVM).applyNow(
          Upt::prepare(arrVersion(false), arrVersion(true), "v1"));
      // The nested fault may skip certification, but the status must be
      // the rollback family and the old version must still answer.
      EXPECT_TRUE(R.Status == UpdateStatus::FailedTransformer ||
                  R.Status == UpdateStatus::RolledBack)
          << updateStatusName(R.Status) << ": " << R.Message;
      EXPECT_EQ(TheVM.callStatic("ArrProbe", "sum", "()I").IntVal, 28);
      expectHealthy(TheVM, "after nested-fault rollback");
    }
  }
}
