//===----------------------------------------------------------------------===//
///
/// \file
/// Lazy object-transformation tests: the update commits with untransformed
/// shells behind a read barrier, objects transform on first touch or from
/// the background drainer, the barrier retires to zero steady-state cost,
/// and post-commit transformer failures degrade (trap + diagnostic)
/// instead of rolling back. Mid-drain states are observed via schedule()
/// plus manual driving — applyNow() intentionally completes the drain.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dsu/LazyTransform.h"
#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "heap/HeapVerifier.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

constexpr int NumPoints = 96;

/// v1: Point{x}, a static array of NumPoints instances (x = 0..N-1), a
/// probe summing x, and an Idler daemon that keeps the VM schedulable
/// without ever touching a Point. v2: Point{x, y}; probe sums x*10 + y.
/// v1 sum = 1128; v2 sum with default-transformed objects (y = 0) = 11280.
ClassSet lazyVersion(bool V2) {
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
      .iconst(NumPoints)
      .newarray("LPoint;")
      .putstatic("ArrHolder", "arr", "[LPoint;")
      .iconst(0)
      .store(0)
      .label("loop")
      .load(0)
      .iconst(NumPoints)
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
      .iconst(NumPoints)
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
  ClassBuilder I("Idler");
  I.staticMethod("loop", "()V")
      .label("top")
      .iconst(20)
      .intrinsic(IntrinsicId::SleepTicks)
      .jump("top");
  Set.add(I.build());
  return Set;
}

constexpr int64_t SumV1 = NumPoints * (NumPoints - 1) / 2;
constexpr int64_t SumV2 = 10 * NumPoints * (NumPoints - 1) / 2;

/// Boots the v1 program, builds the array, and starts the idler daemon so
/// the scheduler always has a runnable thread (and the drainer gets real
/// quanta instead of synchronous settling).
std::unique_ptr<VM> bootLazyFixture() {
  auto TheVM = std::make_unique<VM>(smallConfig());
  TheVM->loadProgram(lazyVersion(false));
  TheVM->callStatic("ArrSetup", "init", "()V");
  TheVM->spawnThread("Idler", "loop", "()V", {}, "idler", /*Daemon=*/true);
  TheVM->run(100);
  return TheVM;
}

/// schedule() + tiny driving chunks so the test regains control right at
/// resolution, while most shells are still pending: the drainer settles
/// roughly one shell per tick it is scheduled, so the chunk size bounds
/// how much of the drain can slip past the commit inside one chunk.
UpdateResult scheduleLazyAndResolve(VM &TheVM, Updater &U,
                                    UpdateBundle Bundle,
                                    UpdateOptions Opts) {
  U.schedule(std::move(Bundle), Opts);
  for (int I = 0; I < 100'000 && U.pending(); ++I)
    TheVM.run(25);
  return U.result();
}

LazyTransformEngine *engineOf(VM &TheVM) {
  return static_cast<LazyTransformEngine *>(TheVM.lazyEngine());
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

TEST(LazyTransform, CommitDefersTransformsAndBarrierSettlesOnDemand) {
  std::unique_ptr<VM> TheVM = bootLazyFixture();
  EXPECT_EQ(TheVM->callStatic("ArrProbe", "sum", "()I").IntVal, SumV1);

  Updater U(*TheVM);
  UpdateOptions Opts;
  Opts.LazyTransform = true;
  Opts.LazyDrainBatch = 1; // trickle so the test observes pending shells
  UpdateResult R = scheduleLazyAndResolve(
      *TheVM, U, Upt::prepare(lazyVersion(false), lazyVersion(true), "v1"),
      Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_TRUE(R.LazyInstalled);
  EXPECT_EQ(R.LazyPendingAtCommit, static_cast<uint64_t>(NumPoints));
  EXPECT_EQ(R.Trace.count(UpdateEventKind::LazyCommitted), 1);

  LazyTransformEngine *Engine = engineOf(*TheVM);
  ASSERT_NE(Engine, nullptr);
  ASSERT_GT(Engine->pendingCount(), 0u) << "drain finished before the test "
                                           "could observe the lazy window";
  expectHeapHealthy(*TheVM, "mid-drain");

  // First touch of each remaining shell runs its transformer behind the
  // read barrier — the probe sees fully transformed v2 values.
  EXPECT_EQ(TheVM->callStatic("ArrProbe", "sum", "()I").IntVal, SumV2);
  EXPECT_GT(Engine->onDemandTransforms(), 0u);
  EXPECT_GE(Engine->barrierHits(), Engine->onDemandTransforms());
  EXPECT_TRUE(Engine->drained());
  EXPECT_EQ(Engine->onDemandTransforms() + Engine->backgroundTransforms(),
            static_cast<uint64_t>(NumPoints));
}

TEST(LazyTransform, BackgroundDrainerRetiresBarrierAndReleasesOldCopySpace) {
  std::unique_ptr<VM> TheVM = bootLazyFixture();

  Updater U(*TheVM);
  UpdateOptions Opts;
  Opts.LazyTransform = true;
  Opts.LazyDrainBatch = 4;
  Opts.UseOldCopySpace = true;
  UpdateResult R = scheduleLazyAndResolve(
      *TheVM, U, Upt::prepare(lazyVersion(false), lazyVersion(true), "v1"),
      Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  ASSERT_TRUE(R.LazyInstalled);

  // Never touch a Point: the background drainer alone must settle every
  // shell and then retire the barrier.
  LazyTransformEngine *Engine = engineOf(*TheVM);
  ASSERT_NE(Engine, nullptr);
  for (int I = 0; I < 10'000 && !Engine->retired(); ++I)
    TheVM->run(200);
  ASSERT_TRUE(Engine->retired());
  EXPECT_TRUE(Engine->drained());
  EXPECT_EQ(Engine->onDemandTransforms(), 0u);
  EXPECT_EQ(Engine->backgroundTransforms(),
            static_cast<uint64_t>(NumPoints));
  EXPECT_GT(Engine->drainTicks(), 0u);

  // Retirement returns steady state to exactly zero: no compiled method
  // carries the barrier bit, and the old-copy block is released.
  ClassRegistry &Reg = TheVM->registry();
  for (size_t M = 0; M < Reg.numMethods(); ++M) {
    if (auto &Code = Reg.method(static_cast<MethodId>(M)).Code) {
      EXPECT_FALSE(Code->LazyBarriers)
          << Reg.method(static_cast<MethodId>(M)).Name;
    }
  }
  EXPECT_FALSE(TheVM->heap().hasOldCopySpace());

  EXPECT_EQ(TheVM->callStatic("ArrProbe", "sum", "()I").IntVal, SumV2);
  expectHeapHealthy(*TheVM, "after retirement");
}

TEST(LazyTransform, OnDemandFailureTrapsTouchingThreadAndDegrades) {
  std::unique_ptr<VM> TheVM = bootLazyFixture();

  UpdateBundle B = Upt::prepare(lazyVersion(false), lazyVersion(true), "v1");
  B.ObjectTransformers["Point"] = [](TransformCtx &Ctx, Ref, Ref From) {
    Ctx.getInt(From, "nope"); // no such field: UpdateError("transform")
  };
  Updater U(*TheVM);
  UpdateOptions Opts;
  Opts.LazyTransform = true;
  Opts.LazyDrainBatch = 1;
  UpdateResult R = scheduleLazyAndResolve(*TheVM, U, std::move(B), Opts);

  // Post-commit there is no snapshot left: the update stays Applied and
  // failures degrade it instead of rolling it back.
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  ASSERT_TRUE(R.LazyInstalled);
  LazyTransformEngine *Engine = engineOf(*TheVM);
  ASSERT_NE(Engine, nullptr);
  ASSERT_GT(Engine->pendingCount(), 0u);

  // A reader touching a pending shell hits the barrier, the transformer
  // throws, and the thread traps with the structured diagnostic.
  ThreadId Reader = TheVM->spawnThread("ArrProbe", "sum", "()I", {}, "reader");
  TheVM->run(20'000);
  VMThread *T = TheVM->scheduler().findThread(Reader);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->State, ThreadState::Trapped);
  EXPECT_NE(T->TrapMessage.find("lazy-transform failed"), std::string::npos)
      << T->TrapMessage;

  EXPECT_GE(Engine->failedTransforms(), 1u);
  ASSERT_FALSE(Engine->failures().empty());
  EXPECT_FALSE(TheVM->lazyFailureLog().empty());
  EXPECT_NE(TheVM->lazyFailureLog().front().find("Point"),
            std::string::npos);

  // The drainer records the remaining failures and still retires: failed
  // shells settle as valid default-initialized objects, the heap verifies,
  // and the VM survives.
  for (int I = 0; I < 10'000 && !Engine->retired(); ++I)
    TheVM->run(200);
  ASSERT_TRUE(Engine->retired());
  EXPECT_EQ(Engine->failedTransforms(), static_cast<uint64_t>(NumPoints));
  expectHeapHealthy(*TheVM, "after degraded drain");
  std::vector<std::string> Reg = TheVM->registry().checkConsistency();
  EXPECT_TRUE(Reg.empty()) << Reg.front();
}

TEST(LazyTransform, StackedUpdateDrainsPredecessorSynchronously) {
  std::unique_ptr<VM> TheVM = bootLazyFixture();

  Updater U(*TheVM);
  UpdateOptions Opts;
  Opts.LazyTransform = true;
  Opts.LazyDrainBatch = 1;
  UpdateResult R1 = scheduleLazyAndResolve(
      *TheVM, U, Upt::prepare(lazyVersion(false), lazyVersion(true), "v1"),
      Opts);
  ASSERT_EQ(R1.Status, UpdateStatus::Applied) << R1.Message;
  ASSERT_NE(TheVM->lazyEngine(), nullptr);
  ASSERT_GT(TheVM->lazyEngine()->pendingCount(), 0u);

  // Stack a second (eager, body-only) update while the first still drains:
  // scheduling it settles the predecessor synchronously first — its DSU
  // collection must never see pending shells. The changed method must not
  // be on any stack (the idler's loop never returns).
  ClassSet V3 = lazyVersion(true);
  V3.find("ArrProbe")->findMethod("sum", "()I")->Code.push_back(
      {Opcode::Nop, 0, "", "", ""});
  UpdateResult R2 =
      U.applyNow(Upt::prepare(lazyVersion(true), V3, "v2"));
  ASSERT_EQ(R2.Status, UpdateStatus::Applied) << R2.Message;
  EXPECT_FALSE(R2.LazyInstalled);
  EXPECT_EQ(TheVM->lazyEngine(), nullptr);

  // Every predecessor shell was settled before the second update ran.
  EXPECT_EQ(TheVM->callStatic("ArrProbe", "sum", "()I").IntVal, SumV2);
  expectHeapHealthy(*TheVM, "after stacked update");
}

TEST(LazyTransform, RegularGcDuringDrainMigratesOldCopies) {
  std::unique_ptr<VM> TheVM = bootLazyFixture();

  Updater U(*TheVM);
  UpdateOptions Opts;
  Opts.LazyTransform = true;
  Opts.LazyDrainBatch = 1;
  Opts.UseOldCopySpace = true;
  UpdateResult R = scheduleLazyAndResolve(
      *TheVM, U, Upt::prepare(lazyVersion(false), lazyVersion(true), "v1"),
      Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  LazyTransformEngine *Engine = engineOf(*TheVM);
  ASSERT_NE(Engine, nullptr);
  ASSERT_GT(Engine->pendingCount(), 0u);
  size_t PendingBefore = Engine->pendingCount();

  // A regular collection mid-drain: unsettled shells and old copies are
  // engine roots, so they survive the move; each shell carries its log
  // index in its header, and the engine releases the now-empty dedicated
  // old-copy block.
  TheVM->collectGarbage();
  EXPECT_EQ(Engine->pendingCount(), PendingBefore);
  EXPECT_FALSE(TheVM->heap().hasOldCopySpace());
  expectHeapHealthy(*TheVM, "after mid-drain collection");

  // A second move before first touch: the header index must survive
  // being copied twice (back into the semi-space the shells started in).
  TheVM->collectGarbage();
  EXPECT_EQ(Engine->pendingCount(), PendingBefore);
  expectHeapHealthy(*TheVM, "after a second mid-drain collection");

  // On-demand transforms still work against the migrated old copies.
  EXPECT_EQ(TheVM->callStatic("ArrProbe", "sum", "()I").IntVal, SumV2);
  EXPECT_TRUE(Engine->drained());

  for (int I = 0; I < 10'000 && !Engine->retired(); ++I)
    TheVM->run(200);
  EXPECT_TRUE(Engine->retired());
  expectHeapHealthy(*TheVM, "after retirement");
}
