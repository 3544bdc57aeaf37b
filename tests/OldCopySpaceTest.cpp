//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the §3.5 old-copy-space optimization (the default placement
/// of old-version duplicates): correctness matches the to-space placement,
/// duplicates land in the dedicated block, the block is released right
/// after transformation (or when a lazy update has nothing left to drain),
/// to-space occupancy right after an update is strictly lower than with
/// the to-space placement, and a block allocation is a fault point like a
/// to-space one.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

ClassSet recVersion(bool Extra) {
  ClassSet Set;
  ClassBuilder R("Rec");
  R.field("v", "I");
  R.field("peer", "LRec;");
  if (Extra)
    R.field("extra", "I");
  Set.add(R.build());
  ClassBuilder H("H");
  H.staticField("arr", "[LRec;");
  Set.add(H.build());
  return Set;
}

/// Populates H.arr with \p N linked Rec objects.
void populate(VM &TheVM, int N) {
  ClassRegistry &Reg = TheVM.registry();
  ClassId RecId = Reg.idOf("Rec");
  ClassId ArrId = Reg.arrayClassOf(Type::refTy("Rec"));
  Ref Arr = TheVM.allocateArray(ArrId, N);
  Reg.cls(Reg.idOf("H")).Statics[0] = Slot::ofRef(Arr);
  TransformCtx Ctx(TheVM, nullptr);
  Ref Prev = nullptr;
  for (int I = 0; I < N; ++I) {
    Ref Obj = TheVM.allocateObject(RecId);
    Ctx.setInt(Obj, "v", I);
    Ctx.setRef(Obj, "peer", Prev);
    Arr = Reg.cls(Reg.idOf("H")).Statics[0].RefVal;
    Ctx.setElemRef(Arr, I, Obj);
    Prev = Obj;
  }
}

int64_t checksum(VM &TheVM) {
  ClassRegistry &Reg = TheVM.registry();
  TransformCtx Ctx(TheVM, nullptr);
  Ref Arr = Reg.cls(Reg.idOf("H")).Statics[0].RefVal;
  int64_t Sum = 0;
  for (int64_t I = 0; I < Ctx.arrayLength(Arr); ++I) {
    Ref Obj = Ctx.getElemRef(Arr, I);
    Sum += Ctx.getInt(Obj, "v");
    Ref Peer = Ctx.getRef(Obj, "peer");
    if (Peer)
      Sum += Ctx.getInt(Peer, "v") % 7;
  }
  return Sum;
}

UpdateResult applyWithOption(VM &TheVM, bool UseOldCopySpace, bool Lazy) {
  UpdateOptions Opts = modeOptions(Lazy);
  Opts.UseOldCopySpace = UseOldCopySpace;
  Updater U(TheVM);
  return U.applyNow(Upt::prepare(recVersion(false), recVersion(true), "v1"),
                    Opts);
}

} // namespace

TEST_EAGER_AND_LAZY(OldCopySpace, SemanticsIdenticalToDefault) {
  int64_t Sums[2];
  for (int Mode = 0; Mode < 2; ++Mode) {
    VM TheVM(smallConfig());
    TheVM.loadProgram(recVersion(false));
    populate(TheVM, 300);
    int64_t Before = checksum(TheVM);
    UpdateResult R = applyWithOption(TheVM, Mode == 1, Lazy);
    ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
    EXPECT_EQ(R.ObjectsTransformed, 300u);
    Sums[Mode] = checksum(TheVM);
    EXPECT_EQ(Sums[Mode], Before);
  }
  EXPECT_EQ(Sums[0], Sums[1]);
}

TEST_EAGER_AND_LAZY(OldCopySpace, DuplicatesLandInSeparateBlock) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(recVersion(false));
  populate(TheVM, 200);
  UpdateResult R = applyWithOption(TheVM, true, Lazy);
  ASSERT_EQ(R.Status, UpdateStatus::Applied);
  // 200 Rec objects of 32 bytes each were duplicated outside to-space.
  EXPECT_GE(R.Gc.OldCopySpaceBytes, 200u * 32);
}

TEST_EAGER_AND_LAZY(OldCopySpace, BlockReleasedAfterUpdate) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(recVersion(false));
  populate(TheVM, 100);
  ASSERT_EQ(applyWithOption(TheVM, true, Lazy).Status, UpdateStatus::Applied);
  EXPECT_FALSE(TheVM.heap().hasOldCopySpace());
}

TEST_EAGER_AND_LAZY(OldCopySpace, ReducesToSpaceOccupancy) {
  size_t Occupancy[2];
  for (int Mode = 0; Mode < 2; ++Mode) {
    VM TheVM(smallConfig());
    TheVM.loadProgram(recVersion(false));
    populate(TheVM, 500);
    ASSERT_EQ(applyWithOption(TheVM, Mode == 1, Lazy).Status,
              UpdateStatus::Applied);
    Occupancy[Mode] = TheVM.heap().bytesAllocated();
  }
  // With the separate block, the heap right after the update does not
  // carry the dead duplicates.
  EXPECT_LT(Occupancy[1], Occupancy[0]);
  EXPECT_GE(Occupancy[0] - Occupancy[1], 500u * 32);
}

TEST_EAGER_AND_LAZY(OldCopySpace, ImmediateReclamationMatchesDeferredOne) {
  // Default mode reclaims the duplicates at the *next* collection; the
  // old-copy space already has. After one extra GC both configurations
  // converge to the same live size.
  size_t LiveBytes[2];
  for (int Mode = 0; Mode < 2; ++Mode) {
    VM TheVM(smallConfig());
    TheVM.loadProgram(recVersion(false));
    populate(TheVM, 400);
    ASSERT_EQ(applyWithOption(TheVM, Mode == 1, Lazy).Status,
              UpdateStatus::Applied);
    TheVM.collectGarbage();
    LiveBytes[Mode] = TheVM.heap().bytesAllocated();
  }
  EXPECT_EQ(LiveBytes[0], LiveBytes[1]);
}

TEST_EAGER_AND_LAZY(OldCopySpace, ForceTransformWorksAcrossSpaces) {
  // ensureTransformed must work when old copies live outside to-space.
  VM TheVM(smallConfig());
  TheVM.loadProgram(recVersion(false));
  populate(TheVM, 50);

  UpdateBundle B = Upt::prepare(recVersion(false), recVersion(true), "v1");
  B.ObjectTransformers["Rec"] = [](TransformCtx &Ctx, Ref To, Ref From) {
    Ctx.setInt(To, "v", Ctx.getInt(From, "v"));
    Ref Peer = Ctx.getRef(From, "peer");
    Ctx.setRef(To, "peer", Peer);
    if (Peer) {
      Ctx.ensureTransformed(Peer);
      Ctx.setInt(To, "extra", Ctx.getInt(Peer, "v"));
    }
  };
  UpdateOptions Opts = modeOptions(Lazy);
  Opts.UseOldCopySpace = true;
  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.ObjectsTransformed, 50u);

  TransformCtx Ctx(TheVM, nullptr);
  Ref Arr = TheVM.registry()
                .cls(TheVM.registry().idOf("H"))
                .Statics[0]
                .RefVal;
  Ref Last = Ctx.getElemRef(Arr, 49);
  EXPECT_EQ(Ctx.getInt(Last, "extra"), 48);
}

TEST(OldCopySpace, LazyCommitCertifiesPendingOldCopiesInBlock) {
  // Every pending entry's old copy lives in the block and is an engine
  // root, so commit-time certification must walk the block instead of
  // reporting those roots as pointing outside the live heap.
  VM TheVM(smallConfig());
  TheVM.loadProgram(recVersion(false));
  populate(TheVM, 100);
  int64_t Before = checksum(TheVM);

  UpdateOptions Opts = modeOptions(/*Lazy=*/true);
  Opts.UseOldCopySpace = true;
  Opts.LazyDrainBatch = 1;
  Updater U(TheVM);
  UpdateResult R = U.applyNow(
      Upt::prepare(recVersion(false), recVersion(true), "v1"), Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.LazyPendingAtCommit, 100u);
  EXPECT_TRUE(R.Certified) << (R.CertificationProblems.empty()
                                   ? ""
                                   : R.CertificationProblems.front());
  EXPECT_EQ(checksum(TheVM), Before);
  EXPECT_FALSE(TheVM.heap().hasOldCopySpace());
}

TEST(OldCopySpace, LazyUpdateWithNothingPendingReleasesBlockAtCommit) {
  // A class update with no live instances: the engine is drained at
  // commit, so it retires there and the block is gone before
  // certification looks for a leaked one.
  VM TheVM(smallConfig());
  TheVM.loadProgram(recVersion(false));

  UpdateOptions Opts = modeOptions(/*Lazy=*/true);
  Opts.UseOldCopySpace = true;
  Updater U(TheVM);
  UpdateResult R = U.applyNow(
      Upt::prepare(recVersion(false), recVersion(true), "v1"), Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.LazyPendingAtCommit, 0u);
  EXPECT_TRUE(R.Certified) << (R.CertificationProblems.empty()
                                   ? ""
                                   : R.CertificationProblems.front());
  EXPECT_FALSE(TheVM.heap().hasOldCopySpace());
}

TEST_EAGER_AND_LAZY(OldCopySpace, BytesCopiedCountsToSpaceOnly) {
  // The same update on the same heap moves the same bytes in either
  // placement; BytesCopied counts only those that landed in to-space.
  uint64_t ToSpace[2], Block[2];
  for (int Mode = 0; Mode < 2; ++Mode) {
    VM TheVM(smallConfig());
    TheVM.loadProgram(recVersion(false));
    populate(TheVM, 300);
    UpdateResult R = applyWithOption(TheVM, Mode == 1, Lazy);
    ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
    ToSpace[Mode] = R.Gc.BytesCopied;
    Block[Mode] = R.Gc.OldCopySpaceBytes;
  }
  EXPECT_EQ(Block[0], 0u);
  EXPECT_GE(Block[1], 300u * 32);
  EXPECT_EQ(ToSpace[0], ToSpace[1] + Block[1]);
}

TEST_EAGER_AND_LAZY(OldCopySpace, DuplicateAllocationProbesLikeToSpace) {
  // Both placements probe gc-alloc-exhaustion once per allocation, so a
  // chaos sweep enumerates the same fault points whichever is used.
  uint64_t Probes[2];
  for (int Mode = 0; Mode < 2; ++Mode) {
    VM TheVM(smallConfig());
    TheVM.loadProgram(recVersion(false));
    populate(TheVM, 40);
    ASSERT_EQ(applyWithOption(TheVM, Mode == 1, Lazy).Status,
              UpdateStatus::Applied);
    Probes[Mode] =
        TheVM.faults().probeCount(FaultInjector::Site::GcAllocExhaustion);
  }
  EXPECT_GE(Probes[0], 2u * 40);
  EXPECT_EQ(Probes[0], Probes[1]);
}

TEST_EAGER_AND_LAZY(OldCopySpace, InjectedFaultOnDuplicateRollsBack) {
  // Fire gc-alloc-exhaustion on successive probes until one lands on an
  // old-version duplicate: the update rolls back, the heap keeps its
  // values, and the block is released.
  bool HitDuplicate = false;
  for (uint64_t Skip = 0; Skip < 16 && !HitDuplicate; ++Skip) {
    VM TheVM(smallConfig());
    TheVM.loadProgram(recVersion(false));
    populate(TheVM, 20);
    int64_t Before = checksum(TheVM);
    TheVM.faults().arm(FaultInjector::Site::GcAllocExhaustion, 1, Skip);
    UpdateResult R = applyWithOption(TheVM, true, Lazy);
    ASSERT_EQ(R.Status, UpdateStatus::RolledBack) << R.Message;
    HitDuplicate =
        R.Message.find("old-version duplicate") != std::string::npos;
    EXPECT_TRUE(R.Certified) << (R.CertificationProblems.empty()
                                     ? ""
                                     : R.CertificationProblems.front());
    EXPECT_EQ(checksum(TheVM), Before);
    EXPECT_FALSE(TheVM.heap().hasOldCopySpace());
  }
  EXPECT_TRUE(HitDuplicate);
}
