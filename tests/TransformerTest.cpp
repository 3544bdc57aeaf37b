//===----------------------------------------------------------------------===//
///
/// \file
/// Transformer-runtime tests: the privileged TransformCtx accessors, the
/// force-transform path for dereferencing not-yet-transformed objects
/// (paper §3.4), cycle detection, and default transformer semantics.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "runtime/ObjectModel.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

/// v1: Node{v, next}. v2: adds `cached` initialized from next's state —
/// which requires dereferencing the *next* node during transformation.
ClassSet nodeVersion(bool WithCache) {
  ClassSet Set;
  ClassBuilder N("Node");
  N.field("v", "I");
  N.field("next", "LNode;");
  if (WithCache)
    N.field("cached", "I");
  Set.add(N.build());
  ClassBuilder H("Holder");
  H.staticField("head", "LNode;");
  Set.add(H.build());
  ClassBuilder S("Setup");
  // init(): head = Node{v:1, next: Node{v:2, next: null}}
  S.staticMethod("init", "()V")
      .locals(2)
      .newobj("Node")
      .store(0)
      .load(0)
      .iconst(2)
      .putfield("Node", "v", "I")
      .newobj("Node")
      .store(1)
      .load(1)
      .iconst(1)
      .putfield("Node", "v", "I")
      .load(1)
      .load(0)
      .putfield("Node", "next", "LNode;")
      .load(1)
      .putstatic("Holder", "head", "LNode;")
      .ret();
  Set.add(S.build());
  if (WithCache) {
    ClassBuilder P("Probe");
    P.staticMethod("headCached", "()I")
        .getstatic("Holder", "head", "LNode;")
        .getfield("Node", "cached", "I")
        .iret();
    Set.add(P.build());
  }
  return Set;
}

} // namespace

TEST_EAGER_AND_LAZY(Transformer, ForceTransformMakesReferencedStateReadable) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(nodeVersion(false));
  TheVM.callStatic("Setup", "init", "()V");

  UpdateBundle B = Upt::prepare(nodeVersion(false), nodeVersion(true), "v1");
  // cached = v of the *next* node. The next node may not have been
  // transformed yet, so the transformer forces it first (the paper's
  // special VM function).
  B.ObjectTransformers["Node"] = [](TransformCtx &Ctx, Ref To, Ref From) {
    Ctx.setInt(To, "v", Ctx.getInt(From, "v"));
    Ref Next = Ctx.getRef(From, "next"); // already the new version
    Ctx.setRef(To, "next", Next);
    if (Next) {
      Ctx.ensureTransformed(Next);
      Ctx.setInt(To, "cached", Ctx.getInt(Next, "v"));
    } else {
      Ctx.setInt(To, "cached", -1);
    }
  };

  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_EQ(R.ObjectsTransformed, 2u);
  // head.v = 1, head.next.v = 2 -> head.cached = 2.
  EXPECT_EQ(TheVM.callStatic("Probe", "headCached", "()I").IntVal, 2);
}

TEST(Transformer, CycleInForceTransformAborts) {
  // Two nodes pointing at each other, each transformer forcing the other
  // before initializing itself: an ill-defined transformer set, detected
  // by the cycle check (paper §3.4 aborts the update; MiniVM rolls the
  // transaction back and resolves the update FailedTransformer).
  VM TheVM(smallConfig());
  TheVM.loadProgram(nodeVersion(false));
  // Build the 2-cycle by hand.
  ClassRegistry &Reg = TheVM.registry();
  ClassId NodeId = Reg.idOf("Node");
  Ref A = TheVM.allocateObject(NodeId);
  Ref B = TheVM.allocateObject(NodeId);
  const RtField *Next = Reg.cls(NodeId).findInstanceField("next");
  setRefAt(A, Next->Offset, B);
  setRefAt(B, Next->Offset, A);
  RtClass &Holder = Reg.cls(Reg.idOf("Holder"));
  Holder.Statics[0] = Slot::ofRef(A);

  UpdateBundle Bundle =
      Upt::prepare(nodeVersion(false), nodeVersion(true), "v1");
  Bundle.ObjectTransformers["Node"] = [](TransformCtx &Ctx, Ref To,
                                         Ref From) {
    Ref Other = Ctx.getRef(From, "next");
    if (Other)
      Ctx.ensureTransformed(Other); // A forces B forces A: cycle
    Ctx.setInt(To, "v", 0);
    Ctx.setRef(To, "next", Other);
    Ctx.setInt(To, "cached", 0);
  };

  Updater U(TheVM);
  UpdateResult Res = U.applyNow(std::move(Bundle));
  EXPECT_EQ(Res.Status, UpdateStatus::FailedTransformer);
  EXPECT_NE(Res.Message.find("transformer cycle"), std::string::npos)
      << Res.Message;
  // The rollback preserved the old version: the cycle is intact.
  Ref Head = Reg.cls(Reg.idOf("Holder")).Statics[0].RefVal;
  ASSERT_EQ(Head, A);
  EXPECT_EQ(getRefAt(A, Next->Offset), B);
  EXPECT_EQ(getRefAt(B, Next->Offset), A);
}

TEST_EAGER_AND_LAZY(Transformer, DefaultSkipsRetypedFields) {
  // When a field's type changes, the default transformer leaves the new
  // field at its default value ("the default transformer would have:
  // to.forwardAddresses = null", Fig. 3).
  ClassSet V1;
  {
    ClassBuilder C("Rec");
    C.field("same", "I");
    C.field("becomesRef", "I");
    V1.add(C.build());
    ClassBuilder H("H");
    H.staticField("r", "LRec;");
    V1.add(H.build());
  }
  ClassSet V2;
  {
    ClassBuilder C("Rec");
    C.field("same", "I");
    C.field("becomesRef", "LRec;"); // type change
    V2.add(C.build());
    ClassBuilder H("H");
    H.staticField("r", "LRec;");
    V2.add(H.build());
  }

  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  ClassRegistry &Reg = TheVM.registry();
  Ref Obj = TheVM.allocateObject(Reg.idOf("Rec"));
  {
    TransformCtx Ctx(TheVM, nullptr);
    Ctx.setInt(Obj, "same", 41);
    Ctx.setInt(Obj, "becomesRef", 99);
  }
  Reg.cls(Reg.idOf("H")).Statics[0] = Slot::ofRef(Obj);

  Updater U(TheVM);
  UpdateResult R = U.applyNow(Upt::prepare(V1, V2, "v1"), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;

  Ref New = Reg.cls(Reg.idOf("H")).Statics[0].RefVal;
  TransformCtx Ctx(TheVM, nullptr);
  EXPECT_EQ(Ctx.getInt(New, "same"), 41);
  EXPECT_EQ(Ctx.getRef(New, "becomesRef"), nullptr);
}

TEST_EAGER_AND_LAZY(Transformer, StaticsAccessorsReachOldAndNewNamespaces) {
  // A custom class transformer reads the renamed old class's statics and
  // writes the new ones (jvolveClass semantics).
  ClassSet V1;
  {
    ClassBuilder C("Cfg");
    C.field("pad", "I");
    C.staticField("level", "I");
    V1.add(C.build());
  }
  ClassSet V2;
  {
    ClassBuilder C("Cfg");
    C.field("pad", "I");
    C.field("pad2", "I");
    C.staticField("level", "I");
    V2.add(C.build());
  }

  VM TheVM(smallConfig());
  TheVM.loadProgram(V1);
  {
    TransformCtx Ctx(TheVM, nullptr);
    Ctx.setStaticInt("Cfg", "level", 7);
  }

  UpdateBundle B = Upt::prepare(V1, V2, "v1");
  B.ClassTransformers["Cfg"] = [](TransformCtx &Ctx) {
    // Old statics live under the version-prefixed name.
    Ctx.setStaticInt("Cfg", "level",
                     Ctx.getStaticInt("v1_Cfg", "level") * 10);
  };
  Updater U(TheVM);
  ASSERT_EQ(U.applyNow(std::move(B), modeOptions(Lazy)).Status,
            UpdateStatus::Applied);
  TransformCtx Ctx(TheVM, nullptr);
  EXPECT_EQ(Ctx.getStaticInt("Cfg", "level"), 70);
}

TEST(Transformer, AccessBypassesModifiersAndFinal) {
  // The Ctx writes a private final field: the JastAdd-extension behaviour
  // of §2.3.
  ClassSet Set;
  ClassBuilder C("Locked");
  C.field("secret", "I", Access::Private, /*IsFinal=*/true);
  Set.add(C.build());
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  Ref Obj = TheVM.allocateObject(TheVM.registry().idOf("Locked"));
  TransformCtx Ctx(TheVM, nullptr);
  Ctx.setInt(Obj, "secret", 123);
  EXPECT_EQ(Ctx.getInt(Obj, "secret"), 123);
}

TEST(Transformer, AllocationHelpersWork) {
  ClassSet Set;
  ClassBuilder C("Thing");
  C.field("tag", "LString;");
  Set.add(C.build());
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  TransformCtx Ctx(TheVM, nullptr);

  Ref T = Ctx.allocate("Thing");
  ASSERT_NE(T, nullptr);
  Ctx.setRef(T, "tag", Ctx.newString("hello"));
  EXPECT_EQ(Ctx.stringValue(Ctx.getRef(T, "tag")), "hello");

  Ref Arr = Ctx.allocateArray("LThing;", 3);
  ASSERT_NE(Arr, nullptr);
  EXPECT_EQ(Ctx.arrayLength(Arr), 3);
  Ctx.setElemRef(Arr, 2, T);
  EXPECT_EQ(Ctx.getElemRef(Arr, 2), T);
  EXPECT_EQ(Ctx.getElemRef(Arr, 0), nullptr);

  Ref IntArr = Ctx.allocateArray("I", 2);
  Ctx.setElemInt(IntArr, 1, 55);
  EXPECT_EQ(Ctx.getElemInt(IntArr, 1), 55);
}

TEST(Transformer, EnsureTransformedIsNoOpOutsideUpdates) {
  ClassSet Set = nodeVersion(false);
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  Ref Obj = TheVM.allocateObject(TheVM.registry().idOf("Node"));
  TransformCtx Ctx(TheVM, nullptr);
  Ctx.ensureTransformed(Obj); // must not crash
  Ctx.ensureTransformed(nullptr);
}
