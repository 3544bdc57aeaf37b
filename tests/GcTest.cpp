//===----------------------------------------------------------------------===//
///
/// \file
/// Garbage-collector tests: survival across collections, identity
/// preservation under forwarding, root coverage (statics, stacks, pinned
/// handles), and allocation-triggered collection.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "runtime/ObjectModel.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

/// Node class for building linked structures: { int v; Node next; }.
ClassSet nodeProgram() {
  ClassSet Set;
  ClassBuilder CB("Node");
  CB.field("v", "I");
  CB.field("next", "LNode;");
  Set.add(CB.build());
  ClassBuilder Holder("Holder");
  Holder.staticField("root", "LNode;");
  Set.add(Holder.build());
  ClassBuilder Main("Main");
  Main.staticMethod("noop", "()V").ret();
  Set.add(Main.build());
  return Set;
}

Ref allocNode(VM &TheVM, int64_t V, Ref Next) {
  ClassId Cls = TheVM.registry().idOf("Node");
  Ref Obj = TheVM.allocateObject(Cls);
  const RtClass &C = TheVM.registry().cls(Cls);
  setIntAt(Obj, C.findInstanceField("v")->Offset, V);
  setRefAt(Obj, C.findInstanceField("next")->Offset, Next);
  return Obj;
}

int64_t nodeValue(VM &TheVM, Ref Obj) {
  const RtClass &C = TheVM.registry().cls(classOf(Obj));
  return getIntAt(Obj, C.findInstanceField("v")->Offset);
}

Ref nodeNext(VM &TheVM, Ref Obj) {
  const RtClass &C = TheVM.registry().cls(classOf(Obj));
  return getRefAt(Obj, C.findInstanceField("next")->Offset);
}

Slot &staticRoot(VM &TheVM) {
  ClassId Holder = TheVM.registry().idOf("Holder");
  RtClass &C = TheVM.registry().cls(Holder);
  return C.Statics[C.findStaticField("root")->Offset];
}

} // namespace

TEST(Gc, LiveChainSurvivesCollection) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(nodeProgram());

  // Build a 100-node chain rooted in a static.
  Ref Chain = nullptr;
  for (int I = 0; I < 100; ++I)
    Chain = allocNode(TheVM, I, Chain);
  staticRoot(TheVM) = Slot::ofRef(Chain);

  CollectionStats St = TheVM.collectGarbage();
  EXPECT_GE(St.ObjectsCopied, 100u);

  // Walk the (moved) chain: values 99..0.
  Ref Cur = staticRoot(TheVM).RefVal;
  for (int I = 99; I >= 0; --I) {
    ASSERT_NE(Cur, nullptr);
    EXPECT_EQ(nodeValue(TheVM, Cur), I);
    Cur = nodeNext(TheVM, Cur);
  }
  EXPECT_EQ(Cur, nullptr);
}

TEST(Gc, GarbageIsReclaimed) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(nodeProgram());

  for (int I = 0; I < 1000; ++I)
    allocNode(TheVM, I, nullptr); // all garbage
  size_t Before = TheVM.heap().bytesAllocated();
  CollectionStats St = TheVM.collectGarbage();
  EXPECT_EQ(St.ObjectsCopied, 0u);
  EXPECT_LT(TheVM.heap().bytesAllocated(), Before);
}

TEST(Gc, AliasingPreservedUnderForwarding) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(nodeProgram());

  Ref Shared = allocNode(TheVM, 7, nullptr);
  Ref A = allocNode(TheVM, 1, Shared);
  Ref B = allocNode(TheVM, 2, Shared);
  staticRoot(TheVM) = Slot::ofRef(A);
  TheVM.pinnedRoots().push_back(B);

  TheVM.collectGarbage();

  Ref NewA = staticRoot(TheVM).RefVal;
  Ref NewB = TheVM.pinnedRoots().back();
  ASSERT_NE(NewA, nullptr);
  ASSERT_NE(NewB, nullptr);
  // Both parents still point at the *same* moved child.
  EXPECT_EQ(nodeNext(TheVM, NewA), nodeNext(TheVM, NewB));
  EXPECT_EQ(nodeValue(TheVM, nodeNext(TheVM, NewA)), 7);
  TheVM.pinnedRoots().clear();
}

TEST(Gc, RefArraysAreTraced) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(nodeProgram());

  ClassId ArrCls = TheVM.registry().arrayClassOf(Type::refTy("Node"));
  Ref Arr = TheVM.allocateArray(ArrCls, 10);
  for (int64_t I = 0; I < 10; ++I)
    setRefAt(Arr, arrayElemOffset(I), allocNode(TheVM, I * 11, nullptr));
  TheVM.pinnedRoots().push_back(Arr);

  TheVM.collectGarbage();

  Ref Moved = TheVM.pinnedRoots().back();
  ASSERT_EQ(arrayLength(Moved), 10);
  for (int64_t I = 0; I < 10; ++I) {
    Ref Elem = getRefAt(Moved, arrayElemOffset(I));
    ASSERT_NE(Elem, nullptr);
    EXPECT_EQ(nodeValue(TheVM, Elem), I * 11);
  }
  TheVM.pinnedRoots().clear();
}

TEST(Gc, AllocationTriggersCollection) {
  VM::Config C = smallConfig();
  C.HeapSpaceBytes = 256 << 10;
  VM TheVM(C);
  TheVM.loadProgram(nodeProgram());

  // Keep one small live object; churn through many dead ones. Allocation
  // pressure must trigger collections automatically.
  staticRoot(TheVM) = Slot::ofRef(allocNode(TheVM, 42, nullptr));
  for (int I = 0; I < 100'000; ++I)
    ASSERT_NE(allocNode(TheVM, I, nullptr), nullptr);
  EXPECT_GT(TheVM.stats().Collections, 0u);
  EXPECT_EQ(nodeValue(TheVM, staticRoot(TheVM).RefVal), 42);
}

TEST(Gc, ThreadStackRootsAreScanned) {
  // A bytecode loop keeps a chain in a local while allocating garbage; the
  // collection triggered by allocation must keep the local alive.
  ClassSet Set = nodeProgram();
  {
    ClassBuilder CB("Churn");
    MethodBuilder &M = CB.staticMethod("run", "()I");
    M.locals(3);
    // live = new Node{v: 5}
    M.newobj("Node").store(0);
    M.load(0).iconst(5).putfield("Node", "v", "I");
    // for (i = 0; i < 50000; i++) new Node();
    M.iconst(0).store(1);
    M.label("loop");
    M.load(1).iconst(50000).branch(Opcode::IfICmpGe, "done");
    M.newobj("Node").store(2);
    M.load(1).iconst(1).iadd().store(1);
    M.jump("loop");
    M.label("done");
    M.load(0).getfield("Node", "v", "I").iret();
  Set.add(CB.build());
  }
  VM::Config C = smallConfig();
  C.HeapSpaceBytes = 128 << 10;
  VM TheVM(C);
  TheVM.loadProgram(Set);
  EXPECT_EQ(TheVM.callStatic("Churn", "run", "()I").IntVal, 5);
  EXPECT_GT(TheVM.stats().Collections, 0u);
}

TEST_EAGER_AND_LAZY(Gc, OldCopySpaceExhaustionRollsBackAndRetryWorks) {
  // §3.5: the old-copy block is normally reserved at the worst case (the
  // whole live heap) and can never overflow. An explicit undersized cap
  // makes the exhaustion path reachable; the DSU collection must abort
  // with a *recoverable* error, roll the update back, and leave the heap
  // exactly as it was so an uncapped retry succeeds.
  VM TheVM(smallConfig());
  TheVM.loadProgram(nodeProgram());

  Ref Chain = nullptr;
  for (int I = 0; I < 200; ++I)
    Chain = allocNode(TheVM, I, Chain);
  staticRoot(TheVM) = Slot::ofRef(Chain);

  ClassSet V2 = nodeProgram();
  V2.find("Node")->Fields.push_back(
      {"w", "I", false, false, Access::Public});

  auto expectChainIntact = [&TheVM](const char *When) {
    Ref Cur = staticRoot(TheVM).RefVal;
    for (int I = 199; I >= 0; --I) {
      ASSERT_NE(Cur, nullptr) << When;
      EXPECT_EQ(nodeValue(TheVM, Cur), I) << When;
      Cur = nodeNext(TheVM, Cur);
    }
    EXPECT_EQ(Cur, nullptr) << When;
  };

  // 200 duplicated Nodes need far more than 256 bytes of old-copy space.
  Updater U(TheVM);
  UpdateOptions Opts = modeOptions(Lazy);
  Opts.UseOldCopySpace = true;
  Opts.OldCopyReserveLimitBytes = 256;
  UpdateResult R =
      U.applyNow(Upt::prepare(nodeProgram(), V2, "v-cramped"), Opts);
  EXPECT_EQ(R.Status, UpdateStatus::RolledBack) << R.Message;
  EXPECT_NE(R.Message.find("old-copy"), std::string::npos) << R.Message;
  EXPECT_FALSE(TheVM.heap().hasOldCopySpace());
  expectChainIntact("after rolled-back update");

  // Uncapped (0 = worst case) the same update goes through.
  Opts.OldCopyReserveLimitBytes = 0;
  UpdateResult R2 =
      U.applyNow(Upt::prepare(nodeProgram(), V2, "v-roomy"), Opts);
  ASSERT_EQ(R2.Status, UpdateStatus::Applied) << R2.Message;
  EXPECT_FALSE(TheVM.heap().hasOldCopySpace());
  expectChainIntact("after applied retry");
  // The added field defaults to zero on every transformed Node.
  const RtClass &C =
      TheVM.registry().cls(classOf(staticRoot(TheVM).RefVal));
  EXPECT_EQ(getIntAt(staticRoot(TheVM).RefVal,
                     C.findInstanceField("w")->Offset),
            0);
}

TEST(Gc, StringsSurviveCollection) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(nodeProgram());
  Ref S = TheVM.newString("persistent payload");
  TheVM.pinnedRoots().push_back(S);
  TheVM.collectGarbage();
  EXPECT_EQ(TheVM.stringValue(TheVM.pinnedRoots().back()),
            "persistent payload");
  TheVM.pinnedRoots().clear();
}
