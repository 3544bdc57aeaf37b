//===----------------------------------------------------------------------===//
///
/// \file
/// Heap-invariant verifier tests: healthy heaps after allocation, GC, and
/// dynamic updates report no problems; seeded corruptions are detected.
/// Used as a property check over DSU scenarios.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "heap/HeapVerifier.h"
#include "runtime/ObjectModel.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace jvolve;
using namespace jvolve::test;

namespace {

ClassSet pairVersion(bool Extra) {
  ClassSet Set;
  ClassBuilder P("PairX");
  P.field("v", "I");
  P.field("other", "LPairX;");
  if (Extra)
    P.field("extra", "I");
  Set.add(P.build());
  ClassBuilder H("H");
  H.staticField("root", "LPairX;");
  Set.add(H.build());
  return Set;
}

std::vector<std::string> verifyHeap(VM &TheVM) {
  HeapVerifier V(TheVM.heap(), TheVM.registry());
  return V.verify([&TheVM](const std::function<void(Ref &)> &Visit) {
    TheVM.visitRoots(Visit);
  });
}

Ref makePair(VM &TheVM, int64_t V, Ref Other) {
  Ref Obj = TheVM.allocateObject(TheVM.registry().idOf("PairX"));
  TransformCtx Ctx(TheVM, nullptr);
  Ctx.setInt(Obj, "v", V);
  Ctx.setRef(Obj, "other", Other);
  return Obj;
}

/// Allocates a 4-element PairX array as the heap's last object, overwrites
/// its length word with \p Len, and verifies. \p Offset receives the
/// array's offset in the current space.
std::vector<std::string> verifyWithArrayLength(int64_t Len, size_t &Offset) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref Arr = TheVM.allocateArray(
      TheVM.registry().arrayClassOf(Type::refTy("PairX")), 4);
  Offset = static_cast<size_t>(Arr - TheVM.heap().currentSpaceStart());
  setIntAt(Arr, ArrayLengthOffset, Len);
  return verifyHeap(TheVM);
}

} // namespace

TEST(HeapVerifier, CleanAfterAllocation) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  Ref B = makePair(TheVM, 2, A);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(B);
  EXPECT_TRUE(verifyHeap(TheVM).empty());
}

TEST(HeapVerifier, CleanAfterCollection) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref Live = makePair(TheVM, 7, nullptr);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(Live);
  for (int I = 0; I < 5'000; ++I)
    makePair(TheVM, I, nullptr); // garbage
  TheVM.collectGarbage();
  std::vector<std::string> Problems = verifyHeap(TheVM);
  EXPECT_TRUE(Problems.empty())
      << (Problems.empty() ? "" : Problems.front());
}

TEST_EAGER_AND_LAZY(HeapVerifier, CleanAfterDynamicUpdate) {
  for (bool OldCopySpace : {false, true}) {
    VM TheVM(smallConfig());
    TheVM.loadProgram(pairVersion(false));
    Ref A = makePair(TheVM, 1, nullptr);
    Ref B = makePair(TheVM, 2, A);
    TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
        Slot::ofRef(B);

    UpdateOptions Opts = modeOptions(Lazy);
    Opts.UseOldCopySpace = OldCopySpace;
    Updater U(TheVM);
    ASSERT_EQ(
        U.applyNow(Upt::prepare(pairVersion(false), pairVersion(true), "v1"),
                   Opts)
            .Status,
        UpdateStatus::Applied);
    std::vector<std::string> Problems = verifyHeap(TheVM);
    // The to-space placement leaves the (unreachable) old duplicates in
    // the heap; they are well-formed objects, so the walk stays clean
    // either way.
    EXPECT_TRUE(Problems.empty())
        << (Problems.empty() ? "" : Problems.front());
  }
}

TEST(HeapVerifier, DetectsDanglingFieldPointer) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(A);
  // Point a ref field outside the heap.
  static uint8_t Junk[64];
  TransformCtx Ctx(TheVM, nullptr);
  Ctx.setRef(A, "other", Junk);
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("outside the live heap"), std::string::npos);
}

TEST(HeapVerifier, DetectsInteriorPointer) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  Ref B = makePair(TheVM, 2, nullptr);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(A);
  TransformCtx Ctx(TheVM, nullptr);
  Ctx.setRef(A, "other", B + 8); // interior pointer
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("middle of an object"), std::string::npos);
}

TEST(HeapVerifier, DetectsUnalignedInteriorPointer) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  Ref B = makePair(TheVM, 2, nullptr);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(A);
  TransformCtx Ctx(TheVM, nullptr);
  Ctx.setRef(A, "other", B + 3); // not even slot-aligned
  EXPECT_EQ(verifyHeap(TheVM),
            std::vector<std::string>{
                "PairX.other points into the middle of an object"});
}

TEST(HeapVerifier, LabelsFieldElementAndRootExactly) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  static uint8_t Junk[64];
  Ref A = makePair(TheVM, 1, Junk);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(A);
  Ref Arr = TheVM.allocateArray(
      TheVM.registry().arrayClassOf(Type::refTy("PairX")), 4);
  setRefAt(Arr, arrayElemOffset(2), Junk);
  size_t NumRoots = 0;
  TheVM.visitRoots([&NumRoots](Ref &) { ++NumRoots; });
  TheVM.pinnedRoots().push_back(Junk);
  // Pass 2 walks objects in address order, then pass 3 the roots.
  EXPECT_EQ(verifyHeap(TheVM),
            (std::vector<std::string>{
                "PairX.other points outside the live heap",
                "[LPairX;[2] points outside the live heap",
                "root #" + std::to_string(NumRoots) +
                    " points outside the live heap"}));
  TheVM.pinnedRoots().clear();
}

TEST(HeapVerifier, DetectsNegativeArrayLength) {
  size_t Offset = 0;
  std::vector<std::string> Problems = verifyWithArrayLength(-2, Offset);
  EXPECT_EQ(Problems, std::vector<std::string>{
                          "array at +" + std::to_string(Offset) +
                          " has corrupt length -2"});
}

TEST(HeapVerifier, DetectsMinusOneArrayLength) {
  // Sized naively, -1 elements make a 16-byte "array" whose successor is
  // read out of the length word as a phantom object.
  size_t Offset = 0;
  std::vector<std::string> Problems = verifyWithArrayLength(-1, Offset);
  EXPECT_EQ(Problems, std::vector<std::string>{
                          "array at +" + std::to_string(Offset) +
                          " has corrupt length -1"});
}

TEST(HeapVerifier, DetectsArrayLengthThatWrapsItsSize) {
  // 2^61 elements of 8 bytes wrap the byte size to a small number.
  size_t Offset = 0;
  std::vector<std::string> Problems =
      verifyWithArrayLength(int64_t(1) << 61, Offset);
  EXPECT_EQ(Problems, std::vector<std::string>{
                          "array at +" + std::to_string(Offset) +
                          " has corrupt length " +
                          std::to_string(int64_t(1) << 61)});
}

TEST(HeapVerifier, DetectsCorruptClassId) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  header(A)->Class = 0xDEAD;
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("invalid class id"), std::string::npos);
}

TEST(HeapVerifier, DetectsStaleForwardingFlag) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  header(A)->Flags |= FlagForwarded;
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("forwarded"), std::string::npos);
}

TEST(HeapVerifier, DetectsCorruptRoot) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  static uint8_t Junk[64];
  TheVM.pinnedRoots().push_back(Junk);
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  TheVM.pinnedRoots().clear();
}

TEST(HeapVerifier, LazyShellsAllowedOnlyWhileEngineVouchesForThem) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(A);
  header(A)->Flags |= FlagUninitialized | FlagLazyPending;
  auto Roots = [&TheVM](const std::function<void(Ref &)> &Visit) {
    TheVM.visitRoots(Visit);
  };

  // Without a lazy context, an uninitialized object is corruption.
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("uninitialized"), std::string::npos);

  // While a draining engine lists the shell as pending, it is legitimate.
  {
    HeapVerifier V(TheVM.heap(), TheVM.registry());
    V.setLazyContext([A](Ref O) { return O == A; },
                     /*AllowOldCopyReserved=*/true);
    EXPECT_TRUE(V.verify(Roots).empty());
  }

  // Once the engine reports drained it no longer vouches for anything:
  // a leftover shell is corruption again.
  {
    HeapVerifier V(TheVM.heap(), TheVM.registry());
    V.setLazyContext([](Ref) { return false; },
                     /*AllowOldCopyReserved=*/false);
    std::vector<std::string> P = V.verify(Roots);
    ASSERT_FALSE(P.empty());
    EXPECT_NE(P[0].find("uninitialized"), std::string::npos);
  }
  header(A)->Flags &= ~(FlagUninitialized | FlagLazyPending);
}

TEST(HeapVerifier, DetectsLazyFlagOnInitializedObject) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(A);
  // A barrier flag on a fully initialized object means a transform settled
  // without clearing it — every later read would take the slow path.
  header(A)->Flags |= FlagLazyPending;
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("lazy-pending"), std::string::npos);
  header(A)->Flags &= ~FlagLazyPending;
}

TEST(HeapVerifier, ReportsOldCopySpaceHeldWithNoDrainingUpdate) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  TheVM.heap().reserveOldCopySpace(1u << 12);
  auto Roots = [&TheVM](const std::function<void(Ref &)> &Visit) {
    TheVM.visitRoots(Visit);
  };

  // Reserved with nothing draining: a leak, reported.
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("old-copy space still reserved"),
            std::string::npos);

  // Legitimate while a lazy engine still drains.
  {
    HeapVerifier V(TheVM.heap(), TheVM.registry());
    V.setLazyContext([](Ref) { return false; },
                     /*AllowOldCopyReserved=*/true);
    EXPECT_TRUE(V.verify(Roots).empty());
  }
  TheVM.heap().releaseOldCopySpace();
  EXPECT_TRUE(verifyHeap(TheVM).empty());
}

TEST(HeapVerifier, WalksHeldOldCopyBlockAndChecksRefsIntoIt) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(A);
  // An old copy of A in the block, pointing back at A, held by a root.
  const RtClass &Pair = TheVM.registry().cls(classOf(A));
  TheVM.heap().reserveOldCopySpace(1u << 12);
  Ref Copy = TheVM.heap().allocateInOldCopySpace(Pair.InstanceSize);
  std::memcpy(Copy, A, Pair.InstanceSize);
  TransformCtx Ctx(TheVM, nullptr);
  Ctx.setRef(Copy, "other", A);
  TheVM.pinnedRoots().push_back(Copy);
  auto Roots = [&TheVM](const std::function<void(Ref &)> &Visit) {
    TheVM.visitRoots(Visit);
  };
  auto Draining = [&] {
    HeapVerifier V(TheVM.heap(), TheVM.registry());
    V.setLazyContext([](Ref) { return false; },
                     /*AllowOldCopyReserved=*/true);
    return V.verify(Roots);
  };

  // While the block is legitimately held, a root at a block object start
  // is valid and the copy's own fields are checked.
  EXPECT_TRUE(Draining().empty());
  static uint8_t Junk[64];
  Ctx.setRef(Copy, "other", Junk);
  std::vector<std::string> P = Draining();
  ASSERT_EQ(P.size(), 1u);
  EXPECT_EQ(P[0], "PairX.other points outside the live heap");
  Ctx.setRef(Copy, "other", A);

  // A reference into the block is valid only at an object start.
  TheVM.pinnedRoots().back() = Copy + 8;
  P = Draining();
  ASSERT_EQ(P.size(), 1u);
  EXPECT_NE(P[0].find("points into the middle of an object"),
            std::string::npos)
      << P[0];

  // A corrupt header in the block is reported with its block offset.
  TheVM.pinnedRoots().back() = Copy;
  header(Copy)->Flags |= FlagForwarded;
  P = Draining();
  ASSERT_EQ(P.size(), 1u);
  EXPECT_EQ(P[0], "old-copy object at +0 (PairX) is forwarded outside a "
                  "collection");
  header(Copy)->Flags &= ~FlagForwarded;

  // With no update draining, the block is not walked: the root points
  // outside the live heap and the reservation is a leak.
  P = verifyHeap(TheVM);
  ASSERT_EQ(P.size(), 2u);
  EXPECT_NE(P[0].find("points outside the live heap"), std::string::npos)
      << P[0];
  EXPECT_NE(P[1].find("old-copy space still reserved"), std::string::npos)
      << P[1];
  TheVM.pinnedRoots().clear();
  TheVM.heap().releaseOldCopySpace();
}

TEST_EAGER_AND_LAZY(HeapVerifier, CleanAcrossAppUpdateStream) {
  // Property sweep: the heap stays well-formed after every applied update
  // of the CrossFTP stream (smallest of the three apps).
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  // (App streams are exercised in AppsTest; here we chain three updates
  // on one VM and verify after each.)
  ClassSet V1 = pairVersion(false);
  ClassSet V2 = pairVersion(true);
  ClassSet V3 = pairVersion(true);
  V3.find("PairX")->Fields.push_back({"third", "I", false, false,
                                      Access::Public});
  Ref A = makePair(TheVM, 3, nullptr);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(A);

  Updater U(TheVM);
  ASSERT_EQ(U.applyNow(Upt::prepare(V1, V2, "s1"), modeOptions(Lazy)).Status,
            UpdateStatus::Applied);
  EXPECT_TRUE(verifyHeap(TheVM).empty());
  ASSERT_EQ(U.applyNow(Upt::prepare(V2, V3, "s2"), modeOptions(Lazy)).Status,
            UpdateStatus::Applied);
  EXPECT_TRUE(verifyHeap(TheVM).empty());
  TheVM.collectGarbage();
  EXPECT_TRUE(verifyHeap(TheVM).empty());
}
