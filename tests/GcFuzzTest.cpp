//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized GC stress: seeded random mutations of an object graph with
/// collections forced at random points (and dynamic updates sprinkled in),
/// validated by checksums and the heap-invariant verifier. Parameterized
/// over seeds — a property-style test of collector correctness.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dsu/Canary.h"
#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "heap/HeapVerifier.h"
#include "support/ChaosCampaign.h"
#include "support/FaultInjector.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

/// Graph node with two out-edges and a payload.
ClassSet graphVersion(bool Extra) {
  ClassSet Set;
  ClassBuilder N("GNode");
  N.field("v", "I");
  N.field("left", "LGNode;");
  N.field("right", "LGNode;");
  if (Extra)
    N.field("tag", "I");
  Set.add(N.build());
  ClassBuilder H("GRoots");
  H.staticField("slots", "[LGNode;");
  Set.add(H.build());
  return Set;
}

constexpr int NumRootSlots = 16;

Ref rootsArray(VM &TheVM) {
  return TheVM.registry()
      .cls(TheVM.registry().idOf("GRoots"))
      .Statics[0]
      .RefVal;
}

/// Deterministic checksum of everything reachable from the root slots.
int64_t graphChecksum(VM &TheVM) {
  TransformCtx Ctx(TheVM, nullptr);
  Ref Arr = rootsArray(TheVM);
  int64_t Sum = 0;
  std::vector<Ref> Stack;
  std::set<Ref> Seen;
  for (int64_t I = 0; I < NumRootSlots; ++I)
    if (Ref R = Ctx.getElemRef(Arr, I))
      Stack.push_back(R);
  int64_t Position = 1;
  while (!Stack.empty()) {
    Ref Cur = Stack.back();
    Stack.pop_back();
    if (!Cur || !Seen.insert(Cur).second)
      continue;
    Sum += Ctx.getInt(Cur, "v") * (Position++ % 1009);
    Stack.push_back(Ctx.getRef(Cur, "left"));
    Stack.push_back(Ctx.getRef(Cur, "right"));
  }
  return Sum;
}

/// The chaos campaigns' state-invariant oracles: heap certification with
/// the lazy engine's pending-shell context, registry consistency, and no
/// undo-log roots pinned by a settled canary window — strictly stronger
/// than the bare HeapVerifier pass this test used before.
void verifyInvariants(VM &TheVM, const char *Where) {
  std::vector<std::string> Problems = checkStateInvariants(TheVM);
  ASSERT_TRUE(Problems.empty()) << Where << ": " << Problems.front();
}

/// One fuzz case: the seed, and whether the updates commit lazily.
struct FuzzCase {
  uint64_t Seed;
  bool Lazy;
};

/// Prints the seed alone, so the eager suite keeps its
/// Seeds/GcFuzzTest.<Test>/<seed> case names and the lazy one mirrors them
/// under LazySeeds/.
void PrintTo(const FuzzCase &C, std::ostream *OS) { *OS << C.Seed; }

std::vector<FuzzCase> fuzzCases(bool Lazy) {
  std::vector<FuzzCase> Cases;
  for (uint64_t Seed : {1, 2, 3, 5, 8, 13, 21, 34})
    Cases.push_back({Seed, Lazy});
  return Cases;
}

/// Faults that fire after a lazy commit: the transformer sites, and heap
/// allocation inside the post-commit transformers. They degrade the update
/// by design (zeroed shells change the checksum) instead of rolling it
/// back; DsuRollbackTest covers that policy.
bool firesAfterLazyCommit(FaultInjector::Site S) {
  using Site = FaultInjector::Site;
  return S == Site::TransformerNthObject || S == Site::TransformerCycle ||
         S == Site::LazyDrainTransformer || S == Site::HeapAllocNth;
}

class GcFuzzTest : public ::testing::TestWithParam<FuzzCase> {
protected:
  uint64_t seed() const { return GetParam().Seed; }
  /// Default UpdateOptions for this case's mode.
  UpdateOptions opts() const { return modeOptions(GetParam().Lazy); }
};

} // namespace

TEST_P(GcFuzzTest, RandomMutationsSurviveCollectionsAndUpdates) {
  Rng R(seed());
  VM::Config Cfg = smallConfig();
  Cfg.HeapSpaceBytes = 1u << 20; // small: organic collections under churn
  VM TheVM(Cfg);
  TheVM.loadProgram(graphVersion(false));

  ClassRegistry &Reg = TheVM.registry();
  ClassId NodeId = Reg.idOf("GNode");
  ClassId ArrId = Reg.arrayClassOf(Type::refTy("GNode"));
  Reg.cls(Reg.idOf("GRoots")).Statics[0] =
      Slot::ofRef(TheVM.allocateArray(ArrId, NumRootSlots));

  TransformCtx Ctx(TheVM, nullptr);
  int64_t NextValue = 1;

  for (int Step = 0; Step < 4'000; ++Step) {
    uint64_t Op = R.nextBelow(100);
    Ref Arr = rootsArray(TheVM);
    int64_t SlotA = static_cast<int64_t>(R.nextBelow(NumRootSlots));
    int64_t SlotB = static_cast<int64_t>(R.nextBelow(NumRootSlots));

    if (Op < 45) {
      // Allocate a node referencing two random roots.
      Ref Node = TheVM.allocateObject(NodeId);
      ASSERT_NE(Node, nullptr);
      Arr = rootsArray(TheVM); // allocation may have collected
      Ctx.setInt(Node, "v", NextValue++);
      Ctx.setRef(Node, "left", Ctx.getElemRef(Arr, SlotA));
      Ctx.setRef(Node, "right", Ctx.getElemRef(Arr, SlotB));
      Ctx.setElemRef(Arr, static_cast<int64_t>(R.nextBelow(NumRootSlots)),
                     Node);
    } else if (Op < 65) {
      // Rewire an edge.
      if (Ref Node = Ctx.getElemRef(Arr, SlotA))
        Ctx.setRef(Node, R.nextBelow(2) ? "left" : "right",
                   Ctx.getElemRef(Arr, SlotB));
    } else if (Op < 80) {
      // Drop a root (creates garbage).
      Ctx.setElemRef(Arr, SlotA, nullptr);
    } else if (Op < 95) {
      // Pure garbage churn.
      for (int I = 0; I < 16; ++I)
        ASSERT_NE(TheVM.allocateObject(NodeId), nullptr);
    } else {
      // Forced full collection with checksum validation.
      int64_t Before = graphChecksum(TheVM);
      TheVM.collectGarbage();
      EXPECT_EQ(graphChecksum(TheVM), Before) << "step " << Step;
    }
  }
  verifyInvariants(TheVM, "after churn");

  // Finale: a dynamic update over whatever graph the fuzz left behind.
  int64_t Before = graphChecksum(TheVM);
  Updater U(TheVM);
  UpdateOptions Opts = opts();
  Opts.UseOldCopySpace = seed() % 2 == 0; // alternate configurations
  UpdateResult Res = U.applyNow(
      Upt::prepare(graphVersion(false), graphVersion(true), "v1"), Opts);
  ASSERT_EQ(Res.Status, UpdateStatus::Applied) << Res.Message;
  EXPECT_EQ(graphChecksum(TheVM), Before);
  verifyInvariants(TheVM, "after update");

  TheVM.collectGarbage();
  EXPECT_EQ(graphChecksum(TheVM), Before);
  verifyInvariants(TheVM, "after post-update collection");
}

TEST_P(GcFuzzTest, RandomFaultsDuringUpdateNeverCorrupt) {
  // A seeded random fault site fires probabilistically mid-update. Whatever
  // terminal status results, the graph must checksum identically (the v2
  // "tag" field never feeds the checksum), the heap must verify, and once
  // the fault is disarmed the same update must land cleanly.
  Rng R(seed() * 7919 + 17);
  VM TheVM(smallConfig());
  TheVM.loadProgram(graphVersion(false));

  ClassRegistry &Reg = TheVM.registry();
  ClassId NodeId = Reg.idOf("GNode");
  ClassId ArrId = Reg.arrayClassOf(Type::refTy("GNode"));
  Reg.cls(Reg.idOf("GRoots")).Statics[0] =
      Slot::ofRef(TheVM.allocateArray(ArrId, NumRootSlots));

  TransformCtx Ctx(TheVM, nullptr);
  for (int I = 0; I < 400; ++I) {
    Ref Node = TheVM.allocateObject(NodeId);
    ASSERT_NE(Node, nullptr);
    Ref Arr = rootsArray(TheVM);
    Ctx.setInt(Node, "v", I + 1);
    Ctx.setRef(Node, "left",
               Ctx.getElemRef(Arr, static_cast<int64_t>(R.nextBelow(NumRootSlots))));
    Ctx.setRef(Node, "right",
               Ctx.getElemRef(Arr, static_cast<int64_t>(R.nextBelow(NumRootSlots))));
    Ctx.setElemRef(Arr, static_cast<int64_t>(R.nextBelow(NumRootSlots)), Node);
  }
  int64_t Before = graphChecksum(TheVM);

  // A lazy case draws again until the site fires before the commit.
  FaultInjector::Site Where;
  do {
    Where = static_cast<FaultInjector::Site>(
        R.nextBelow(FaultInjector::NumSites));
  } while (GetParam().Lazy && firesAfterLazyCommit(Where));
  TheVM.faults().armRandom(Where, 0.3, seed());

  Updater U(TheVM);
  UpdateOptions Opts = opts();
  Opts.TimeoutTicks = 20'000;
  Opts.UseOldCopySpace = seed() % 2 == 0;
  UpdateResult Res = U.applyNow(
      Upt::prepare(graphVersion(false), graphVersion(true), "v1"), Opts);
  EXPECT_TRUE(Res.Status == UpdateStatus::Applied ||
              Res.Status == UpdateStatus::RolledBack ||
              Res.Status == UpdateStatus::FailedTransformer ||
              Res.Status == UpdateStatus::TimedOut ||
              Res.Status == UpdateStatus::RejectedNotVerifiable)
      << updateStatusName(Res.Status) << ": " << Res.Message;
  TheVM.faults().reset();

  EXPECT_EQ(graphChecksum(TheVM), Before)
      << "site " << FaultInjector::siteName(Where) << " corrupted the graph";
  verifyInvariants(TheVM, "after faulted update");
  TheVM.collectGarbage();
  EXPECT_EQ(graphChecksum(TheVM), Before);
  verifyInvariants(TheVM, "after post-fault collection");

  if (Res.Status != UpdateStatus::Applied) {
    UpdateResult Clean = U.applyNow(
        Upt::prepare(graphVersion(false), graphVersion(true), "v1"), Opts);
    ASSERT_EQ(Clean.Status, UpdateStatus::Applied) << Clean.Message;
    EXPECT_EQ(graphChecksum(TheVM), Before);
    verifyInvariants(TheVM, "after clean retry");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcFuzzTest,
                         ::testing::ValuesIn(fuzzCases(/*Lazy=*/false)));
INSTANTIATE_TEST_SUITE_P(LazySeeds, GcFuzzTest,
                         ::testing::ValuesIn(fuzzCases(/*Lazy=*/true)));

TEST_P(GcFuzzTest, CanaryChurnAndFaultedRevertNeverCorrupt) {
  // Mid-canary: the undo log's retained refs must survive random mutation
  // churn and forced collections like any other root. Mid-revert: a seeded
  // random fault fires inside the reverse update; whether the revert lands
  // or fails, the graph must checksum identically and the heap must verify.
  Rng R(seed() * 104'729 + 5);
  VM TheVM(smallConfig());
  TheVM.loadProgram(graphVersion(false));

  ClassRegistry &Reg = TheVM.registry();
  ClassId NodeId = Reg.idOf("GNode");
  ClassId ArrId = Reg.arrayClassOf(Type::refTy("GNode"));
  Reg.cls(Reg.idOf("GRoots")).Statics[0] =
      Slot::ofRef(TheVM.allocateArray(ArrId, NumRootSlots));

  TransformCtx Ctx(TheVM, nullptr);
  for (int I = 0; I < 400; ++I) {
    Ref Node = TheVM.allocateObject(NodeId);
    ASSERT_NE(Node, nullptr);
    Ref Arr = rootsArray(TheVM);
    Ctx.setInt(Node, "v", I + 1);
    Ctx.setRef(Node, "left",
               Ctx.getElemRef(Arr, static_cast<int64_t>(R.nextBelow(NumRootSlots))));
    Ctx.setRef(Node, "right",
               Ctx.getElemRef(Arr, static_cast<int64_t>(R.nextBelow(NumRootSlots))));
    Ctx.setElemRef(Arr, static_cast<int64_t>(R.nextBelow(NumRootSlots)), Node);
  }

  Updater U(TheVM);
  UpdateOptions Opts = opts();
  Opts.UseOldCopySpace = seed() % 2 == 0;
  Opts.CanaryWindow.WindowTicks = 1'000'000'000; // only a revert closes it
  Opts.CanaryWindow.CheckIntervalTicks = 2'000;
  UpdateResult Res = U.applyNow(
      Upt::prepare(graphVersion(false), graphVersion(true), "v1"), Opts);
  ASSERT_EQ(Res.Status, UpdateStatus::Applied) << Res.Message;
  ASSERT_TRUE(Res.CanaryArmed);
  // TransformCtx reads bypass the interpreter's read barrier, so settle
  // any lazily-committed shells before the checksum walks the graph.
  TheVM.drainLazyEngineNow();

  // Churn inside the observation window: mutations, garbage, collections,
  // and enough ticks for the watchdog-driven health checks to run.
  int64_t NextValue = 1'000;
  for (int Step = 0; Step < 600; ++Step) {
    uint64_t Op = R.nextBelow(100);
    Ref Arr = rootsArray(TheVM);
    int64_t SlotA = static_cast<int64_t>(R.nextBelow(NumRootSlots));
    int64_t SlotB = static_cast<int64_t>(R.nextBelow(NumRootSlots));
    if (Op < 40) {
      Ref Node = TheVM.allocateObject(NodeId);
      ASSERT_NE(Node, nullptr);
      Arr = rootsArray(TheVM);
      Ctx.setInt(Node, "v", NextValue++);
      Ctx.setRef(Node, "left", Ctx.getElemRef(Arr, SlotA));
      Ctx.setRef(Node, "right", Ctx.getElemRef(Arr, SlotB));
      Ctx.setElemRef(Arr, static_cast<int64_t>(R.nextBelow(NumRootSlots)),
                     Node);
    } else if (Op < 60) {
      if (Ref Node = Ctx.getElemRef(Arr, SlotA))
        Ctx.setRef(Node, R.nextBelow(2) ? "left" : "right",
                   Ctx.getElemRef(Arr, SlotB));
    } else if (Op < 75) {
      Ctx.setElemRef(Arr, SlotA, nullptr);
    } else if (Op < 90) {
      TheVM.run(500); // let the canary's health checks tick
    } else {
      TheVM.collectGarbage(); // undo-log roots must survive and reindex
    }
  }
  verifyInvariants(TheVM, "after mid-canary churn");
  int64_t Before = graphChecksum(TheVM);

  auto Where =
      static_cast<FaultInjector::Site>(R.nextBelow(FaultInjector::NumSites));
  TheVM.faults().armRandom(Where, 0.3, seed());
  UpdateResult Rev = U.revert("fuzz revert", /*MaxDriveTicks=*/5'000'000);
  TheVM.faults().reset();
  EXPECT_TRUE(Rev.Status == UpdateStatus::Reverted ||
              Rev.Status == UpdateStatus::RevertFailed)
      << updateStatusName(Rev.Status) << ": " << Rev.Message;

  // The v2 "tag" field never feeds the checksum, so it is invariant
  // across both outcomes: old version back, or new version standing.
  EXPECT_EQ(graphChecksum(TheVM), Before)
      << "site " << FaultInjector::siteName(Where) << " corrupted the graph";
  verifyInvariants(TheVM, "after faulted revert");
  TheVM.collectGarbage();
  EXPECT_EQ(graphChecksum(TheVM), Before);
  verifyInvariants(TheVM, "after post-revert collection");

  auto *Ctl = static_cast<CanaryController *>(TheVM.canary());
  ASSERT_NE(Ctl, nullptr);
  if (Rev.Status == UpdateStatus::Reverted) {
    EXPECT_TRUE(Upt::computeSpec(TheVM.program(), graphVersion(false)).empty());
    EXPECT_EQ(Ctl->report().ResidualNewObjects, 0u);
  } else {
    // The forward update stands when its revert fails.
    EXPECT_EQ(Ctl->state(), CanaryState::RevertFailed);
    EXPECT_TRUE(Upt::computeSpec(TheVM.program(), graphVersion(true)).empty());
  }
}
