//===----------------------------------------------------------------------===//
///
/// \file
/// Bytecode-verifier tests. Jvolve's type-safety argument leans on
/// verification of the complete new program version, so the verifier gets
/// thorough negative coverage: stack discipline, type mismatches,
/// unresolved references, access control, hierarchy problems, and control
/// flow, plus positive cases for joins and merges.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "bytecode/Builtins.h"
#include "bytecode/Verifier.h"

#include <gtest/gtest.h>

using namespace jvolve;

namespace {

/// Wraps a single static method into a verifiable program and returns the
/// diagnostics.
std::vector<VerifyError> verifyMethodBody(
    const std::string &Sig, const std::function<void(MethodBuilder &)> &Fill,
    const std::function<void(ClassSet &)> &AddClasses = nullptr) {
  ClassSet Set;
  if (AddClasses)
    AddClasses(Set);
  ClassBuilder CB("T");
  MethodBuilder &M = CB.staticMethod("m", Sig);
  Fill(M);
  Set.add(CB.build());
  ensureBuiltins(Set);
  return Verifier(Set).verifyAll();
}

bool verifiesBody(const std::string &Sig,
                  const std::function<void(MethodBuilder &)> &Fill,
                  const std::function<void(ClassSet &)> &AddClasses =
                      nullptr) {
  return verifyMethodBody(Sig, Fill, AddClasses).empty();
}

void addBoxClass(ClassSet &Set) {
  ClassBuilder CB("Box");
  CB.field("v", "I");
  CB.field("next", "LBox;");
  CB.method("get", "()I").load(0).getfield("Box", "v", "I").iret();
  Set.add(CB.build());
}

} // namespace

//===----------------------------------------------------------------------===//
// Positive cases
//===----------------------------------------------------------------------===//

TEST(Verifier, AcceptsStraightLine) {
  EXPECT_TRUE(verifiesBody("()I", [](MethodBuilder &M) {
    M.iconst(1).iconst(2).iadd().iret();
  }));
}

TEST(Verifier, AcceptsLoopsWithMerge) {
  EXPECT_TRUE(verifiesBody("(I)I", [](MethodBuilder &M) {
    M.locals(2);
    M.iconst(0).store(1);
    M.label("loop");
    M.load(0).branch(Opcode::IfLe, "done");
    M.load(1).load(0).iadd().store(1);
    M.load(0).iconst(1).isub().store(0);
    M.jump("loop");
    M.label("done");
    M.load(1).iret();
  }));
}

TEST(Verifier, AcceptsNullMergesWithRef) {
  EXPECT_TRUE(verifiesBody(
      "(I)LBox;",
      [](MethodBuilder &M) {
        M.locals(2);
        M.load(0).branch(Opcode::IfEq, "mknull");
        M.newobj("Box").store(1).jump("out");
        M.label("mknull");
        M.nullconst().store(1);
        M.label("out");
        M.load(1).aret();
      },
      addBoxClass));
}

TEST(Verifier, AcceptsCommonSuperclassMerge) {
  auto Classes = [](ClassSet &Set) {
    Set.add(ClassBuilder("Animal").build());
    Set.add(ClassBuilder("Cat", "Animal").build());
    Set.add(ClassBuilder("Dog", "Animal").build());
  };
  EXPECT_TRUE(verifiesBody(
      "(I)V",
      [](MethodBuilder &M) {
        M.locals(2);
        M.load(0).branch(Opcode::IfEq, "cat");
        M.newobj("Dog").store(1).jump("use");
        M.label("cat");
        M.newobj("Cat").store(1);
        M.label("use");
        // Merged local type is Animal: instanceof works on it.
        M.load(1).instanceofOp("Animal").pop().ret();
      },
      Classes));
}

TEST(Verifier, AcceptsUnreachableTrailingCode) {
  // Dead code after a return (used by the app models as a pure body
  // change) must not fail verification.
  EXPECT_TRUE(verifiesBody("()I", [](MethodBuilder &M) {
    M.iconst(1).iret().nop();
  }));
}

TEST(Verifier, AcceptsCovariantRefArrays) {
  auto Classes = [](ClassSet &Set) {
    Set.add(ClassBuilder("Animal").build());
    Set.add(ClassBuilder("Cat", "Animal").build());
  };
  EXPECT_TRUE(verifiesBody(
      "()V",
      [](MethodBuilder &M) {
        M.locals(1);
        M.iconst(2).newarray("LCat;").store(0);
        M.load(0).iconst(0).newobj("Cat").astore();
        M.ret();
      },
      Classes));
}

TEST(Verifier, AcceptsIntrinsics) {
  EXPECT_TRUE(verifiesBody("()I", [](MethodBuilder &M) {
    M.sconst("x").sconst("y").intrinsic(IntrinsicId::StrConcat);
    M.intrinsic(IntrinsicId::StrLength).iret();
  }));
}

//===----------------------------------------------------------------------===//
// Stack discipline
//===----------------------------------------------------------------------===//

TEST(Verifier, RejectsStackUnderflow) {
  EXPECT_FALSE(verifiesBody("()I", [](MethodBuilder &M) {
    M.iadd().iret(); // nothing on the stack
  }));
}

TEST(Verifier, RejectsHeightMismatchAtJoin) {
  EXPECT_FALSE(verifiesBody("(I)I", [](MethodBuilder &M) {
    M.load(0).branch(Opcode::IfEq, "join");
    M.iconst(1).iconst(2); // two values on one path
    M.label("join");
    M.iconst(3).iret();
  }));
}

TEST(Verifier, RejectsIncompatibleStackJoin) {
  EXPECT_FALSE(verifiesBody("(I)V", [](MethodBuilder &M) {
    M.load(0).branch(Opcode::IfEq, "other");
    M.iconst(1).jump("join");
    M.label("other");
    M.nullconst();
    M.label("join");
    M.pop().ret();
  }));
}

TEST(Verifier, RejectsDupOnEmptyStack) {
  EXPECT_FALSE(verifiesBody("()V", [](MethodBuilder &M) {
    M.dup().pop().pop().ret();
  }));
}

//===----------------------------------------------------------------------===//
// Type mismatches
//===----------------------------------------------------------------------===//

TEST(Verifier, RejectsArithmeticOnRef) {
  EXPECT_FALSE(verifiesBody("()I", [](MethodBuilder &M) {
    M.nullconst().iconst(1).iadd().iret();
  }));
}

TEST(Verifier, RejectsIntWhereRefExpected) {
  EXPECT_FALSE(verifiesBody("()V", [](MethodBuilder &M) {
    M.iconst(5).branch(Opcode::IfNull, "x").ret().label("x").ret();
  }));
}

TEST(Verifier, RejectsWrongReturnKind) {
  EXPECT_FALSE(verifiesBody("()I", [](MethodBuilder &M) {
    M.nullconst().aret();
  }));
  EXPECT_FALSE(verifiesBody("()V", [](MethodBuilder &M) {
    M.iconst(1).iret();
  }));
  EXPECT_FALSE(verifiesBody("()I", [](MethodBuilder &M) { M.ret(); }));
}

TEST(Verifier, RejectsReturnLeavingOperands) {
  // The opt tier inlines returns as jumps to the code after the call, so
  // an operand left below the return value would stay in the caller.
  std::vector<VerifyError> Errs =
      verifyMethodBody("(I)I", [](MethodBuilder &M) {
        M.iconst(9).load(0).iret();
      });
  ASSERT_EQ(Errs.size(), 1u);
  EXPECT_EQ(Errs[0].Pc, 2);
  EXPECT_EQ(Errs[0].Message, "return leaves 1 operand(s) on the stack");
  EXPECT_FALSE(verifiesBody("()V", [](MethodBuilder &M) {
    M.iconst(1).iconst(2).ret();
  }));
  EXPECT_FALSE(verifiesBody(
      "()LBox;",
      [](MethodBuilder &M) { M.iconst(1).newobj("Box").aret(); },
      addBoxClass));
  // One return with a leftover is enough, though the other one is clean.
  EXPECT_FALSE(verifiesBody("(I)I", [](MethodBuilder &M) {
    M.load(0).branch(Opcode::IfEq, "z").load(0).iret();
    M.label("z").iconst(7).iconst(0).iret();
  }));
}

TEST(Verifier, RejectsReturnValueSubtypeViolation) {
  auto Classes = [](ClassSet &Set) {
    Set.add(ClassBuilder("Animal").build());
    Set.add(ClassBuilder("Cat", "Animal").build());
  };
  // Returning an Animal where a Cat is promised.
  EXPECT_FALSE(verifiesBody(
      "()LCat;",
      [](MethodBuilder &M) { M.newobj("Animal").aret(); }, Classes));
  // The reverse is fine.
  EXPECT_TRUE(verifiesBody(
      "()LAnimal;",
      [](MethodBuilder &M) { M.newobj("Cat").aret(); }, Classes));
}

TEST(Verifier, RejectsUninitializedLocalRead) {
  EXPECT_FALSE(verifiesBody("()I", [](MethodBuilder &M) {
    M.locals(2);
    M.load(1).iret();
  }));
}

TEST(Verifier, RejectsLocalSlotOutOfRange) {
  EXPECT_FALSE(verifiesBody("()V", [](MethodBuilder &M) {
    M.locals(1);
    M.raw({Opcode::Load, 5, "", "", ""}).pop().ret();
  }));
}

TEST(Verifier, LocalsMayHoldConflictingTypesIfUnused) {
  // A local holding int on one path and a ref on the other is fine as long
  // as it is not read after the join.
  EXPECT_TRUE(verifiesBody("(I)V", [](MethodBuilder &M) {
    M.locals(2);
    M.load(0).branch(Opcode::IfEq, "other");
    M.iconst(1).store(1).jump("join");
    M.label("other");
    M.nullconst().store(1);
    M.label("join");
    M.ret();
  }));
  // ...but reading it after the join is an error.
  EXPECT_FALSE(verifiesBody("(I)I", [](MethodBuilder &M) {
    M.locals(2);
    M.load(0).branch(Opcode::IfEq, "other");
    M.iconst(1).store(1).jump("join");
    M.label("other");
    M.nullconst().store(1);
    M.label("join");
    M.load(1).iret();
  }));
}

//===----------------------------------------------------------------------===//
// Field and method references
//===----------------------------------------------------------------------===//

TEST(Verifier, RejectsUnknownClassInNew) {
  EXPECT_FALSE(verifiesBody("()V", [](MethodBuilder &M) {
    M.newobj("Ghost").pop().ret();
  }));
}

TEST(Verifier, RejectsUnknownField) {
  EXPECT_FALSE(verifiesBody(
      "()I",
      [](MethodBuilder &M) {
        M.newobj("Box").getfield("Box", "ghost", "I").iret();
      },
      addBoxClass));
}

TEST(Verifier, RejectsFieldTypeMismatch) {
  EXPECT_FALSE(verifiesBody(
      "()V",
      [](MethodBuilder &M) {
        // Instruction claims v is a reference; it is an int.
        M.newobj("Box").getfield("Box", "v", "LBox;").pop().ret();
      },
      addBoxClass));
}

TEST(Verifier, RejectsStaticnessMismatch) {
  EXPECT_FALSE(verifiesBody(
      "()I",
      [](MethodBuilder &M) {
        M.getstatic("Box", "v", "I").iret(); // v is an instance field
      },
      addBoxClass));
}

TEST(Verifier, RejectsStoreOfWrongFieldType) {
  EXPECT_FALSE(verifiesBody(
      "()V",
      [](MethodBuilder &M) {
        M.newobj("Box").nullconst().putfield("Box", "v", "I").ret();
      },
      addBoxClass));
}

TEST(Verifier, RejectsUnknownMethod) {
  EXPECT_FALSE(verifiesBody(
      "()V",
      [](MethodBuilder &M) {
        M.newobj("Box").invokevirtual("Box", "ghost", "()V").ret();
      },
      addBoxClass));
}

TEST(Verifier, RejectsCallArgumentMismatch) {
  auto Classes = [](ClassSet &Set) {
    ClassBuilder CB("Util");
    CB.staticMethod("want", "(I)V").ret();
    Set.add(CB.build());
  };
  EXPECT_FALSE(verifiesBody(
      "()V",
      [](MethodBuilder &M) {
        M.nullconst().invokestatic("Util", "want", "(I)V").ret();
      },
      Classes));
}

TEST(Verifier, RejectsCallArityMismatch) {
  auto Classes = [](ClassSet &Set) {
    ClassBuilder CB("Util");
    CB.staticMethod("want", "(II)I").iconst(0).iret();
    Set.add(CB.build());
  };
  EXPECT_FALSE(verifiesBody(
      "()I",
      [](MethodBuilder &M) {
        M.iconst(1).invokestatic("Util", "want", "(II)I").iret();
      },
      Classes));
}

TEST(Verifier, RejectsPrivateFieldAccessAcrossClasses) {
  auto Classes = [](ClassSet &Set) {
    ClassBuilder CB("Secretive");
    CB.field("hidden", "I", Access::Private);
    Set.add(CB.build());
  };
  EXPECT_FALSE(verifiesBody(
      "()I",
      [](MethodBuilder &M) {
        M.newobj("Secretive").getfield("Secretive", "hidden", "I").iret();
      },
      Classes));
}

TEST(Verifier, AllowsProtectedAccessFromSubclass) {
  ClassSet Set;
  ClassBuilder Base("Base");
  Base.field("shared", "I", Access::Protected);
  Set.add(Base.build());
  ClassBuilder Sub("Sub", "Base");
  Sub.method("read", "()I")
      .load(0)
      .getfield("Sub", "shared", "I")
      .iret();
  Set.add(Sub.build());
  ensureBuiltins(Set);
  EXPECT_TRUE(Verifier(Set).verifyAll().empty());

  // And rejects it from an unrelated class.
  ClassBuilder Other("Other");
  Other.method("read", "(LSub;)I")
      .load(1)
      .getfield("Sub", "shared", "I")
      .iret();
  Set.add(Other.build());
  EXPECT_FALSE(Verifier(Set).verifyAll().empty());
}

TEST(Verifier, RejectsFinalFieldWriteOutsideDeclaringClass) {
  ClassSet Set;
  ClassBuilder CB("Frozen");
  CB.field("k", "I", Access::Public, /*IsFinal=*/true);
  Set.add(CB.build());
  ClassBuilder Other("Other");
  Other.staticMethod("poke", "(LFrozen;)V")
      .load(0)
      .iconst(1)
      .putfield("Frozen", "k", "I")
      .ret();
  Set.add(Other.build());
  ensureBuiltins(Set);
  EXPECT_FALSE(Verifier(Set).verifyAll().empty());
}

//===----------------------------------------------------------------------===//
// Control flow and class-level checks
//===----------------------------------------------------------------------===//

TEST(Verifier, RejectsFallingOffTheEnd) {
  EXPECT_FALSE(verifiesBody("()V", [](MethodBuilder &M) {
    M.iconst(1).pop();
  }));
}

TEST(Verifier, RejectsBranchOutOfBounds) {
  EXPECT_FALSE(verifiesBody("()V", [](MethodBuilder &M) {
    M.raw({Opcode::Goto, 99, "", "", ""}).ret();
  }));
}

TEST(Verifier, RejectsEmptyBody) {
  ClassSet Set;
  ClassDef C("T", "Object");
  MethodDef M;
  M.Name = "m";
  M.Sig = "()V";
  M.IsStatic = true;
  C.Methods.push_back(M);
  Set.add(C);
  ensureBuiltins(Set);
  EXPECT_FALSE(Verifier(Set).verifyAll().empty());
}

TEST(Verifier, RejectsUnknownSuperclass) {
  ClassSet Set;
  Set.add(ClassBuilder("Orphan", "Ghost").build());
  ensureBuiltins(Set);
  EXPECT_FALSE(Verifier(Set).verifyAll().empty());
}

TEST(Verifier, RejectsSuperclassCycle) {
  ClassSet Set;
  ClassDef A("A", "B"), B("B", "A");
  Set.add(A);
  Set.add(B);
  ensureBuiltins(Set);
  EXPECT_FALSE(Verifier(Set).verifyAll().empty());
}

TEST(Verifier, RejectsFieldShadowing) {
  ClassSet Set;
  ClassBuilder A("A");
  A.field("x", "I");
  Set.add(A.build());
  ClassBuilder B("B", "A");
  B.field("x", "I");
  Set.add(B.build());
  ensureBuiltins(Set);
  EXPECT_FALSE(Verifier(Set).verifyAll().empty());
}

TEST(Verifier, RejectsDuplicateMembers) {
  ClassSet Set;
  ClassDef C("C", "Object");
  C.Fields.push_back({"x", "I", false, false, Access::Public});
  C.Fields.push_back({"x", "I", false, false, Access::Public});
  Set.add(C);
  ensureBuiltins(Set);
  EXPECT_FALSE(Verifier(Set).verifyAll().empty());
}

TEST(Verifier, RejectsFieldOfUnknownClassType) {
  ClassSet Set;
  ClassBuilder C("C");
  C.field("x", "LGhost;");
  Set.add(C.build());
  ensureBuiltins(Set);
  EXPECT_FALSE(Verifier(Set).verifyAll().empty());
}

TEST(Verifier, RejectsStaticnessChangeInOverride) {
  ClassSet Set;
  ClassBuilder A("A");
  A.method("m", "()I").iconst(1).iret();
  Set.add(A.build());
  ClassBuilder B("B", "A");
  B.staticMethod("m", "()I").iconst(2).iret();
  Set.add(B.build());
  ensureBuiltins(Set);
  EXPECT_FALSE(Verifier(Set).verifyAll().empty());
}

TEST(Verifier, ErrorMessagesCarryLocation) {
  std::vector<VerifyError> Errs =
      verifyMethodBody("()I", [](MethodBuilder &M) {
        M.iconst(1).iconst(2).iadd().iadd().iret();
      });
  ASSERT_FALSE(Errs.empty());
  EXPECT_EQ(Errs[0].ClassName, "T");
  EXPECT_EQ(Errs[0].Pc, 3);
  EXPECT_NE(Errs[0].str().find("T.m()I@3"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Parameterized: every conditional branch opcode checks its operand kinds.
//===----------------------------------------------------------------------===//

class BranchOperandTest : public ::testing::TestWithParam<Opcode> {};

TEST_P(BranchOperandTest, IntBranchRejectsRef) {
  Opcode Op = GetParam();
  EXPECT_FALSE(verifiesBody("()V", [Op](MethodBuilder &M) {
    M.nullconst().branch(Op, "t").ret().label("t").ret();
  }));
}

INSTANTIATE_TEST_SUITE_P(IntBranches, BranchOperandTest,
                         ::testing::Values(Opcode::IfEq, Opcode::IfNe,
                                           Opcode::IfLt, Opcode::IfGe,
                                           Opcode::IfGt, Opcode::IfLe));

class RefBranchOperandTest : public ::testing::TestWithParam<Opcode> {};

TEST_P(RefBranchOperandTest, RefBranchRejectsInt) {
  Opcode Op = GetParam();
  EXPECT_FALSE(verifiesBody("()V", [Op](MethodBuilder &M) {
    M.iconst(0).branch(Op, "t").ret().label("t").ret();
  }));
}

INSTANTIATE_TEST_SUITE_P(RefBranches, RefBranchOperandTest,
                         ::testing::Values(Opcode::IfNull,
                                           Opcode::IfNonNull));

//===----------------------------------------------------------------------===//
// Diagnostic quality: errors name the method, the pc, and the stack shape
//===----------------------------------------------------------------------===//

TEST(VerifierDiagnostics, UnderflowNamesTheOpcode) {
  std::vector<VerifyError> Errs =
      verifyMethodBody("()V", [](MethodBuilder &M) { M.pop().ret(); });
  ASSERT_FALSE(Errs.empty());
  EXPECT_NE(Errs[0].Message.find("operand stack underflow"),
            std::string::npos)
      << Errs[0].Message;
  EXPECT_NE(Errs[0].Message.find("pop"), std::string::npos)
      << Errs[0].Message;
  EXPECT_EQ(Errs[0].Pc, 0);
  EXPECT_EQ(Errs[0].MethodName, "m()V");
}

TEST(VerifierDiagnostics, TypeMismatchShowsTheWholeStack) {
  // iadd over [int, null]: the message must show what was actually there.
  std::vector<VerifyError> Errs =
      verifyMethodBody("()V", [](MethodBuilder &M) {
        M.iconst(1).nullconst().iadd().pop().ret();
      });
  ASSERT_FALSE(Errs.empty());
  EXPECT_NE(Errs[0].Message.find("expected int"), std::string::npos)
      << Errs[0].Message;
  EXPECT_NE(Errs[0].Message.find("(stack was [int, null])"),
            std::string::npos)
      << Errs[0].Message;
}

TEST(VerifierDiagnostics, JoinHeightMismatchShowsBothShapes) {
  // One branch leaves an extra int on the stack before the merge point.
  std::vector<VerifyError> Errs =
      verifyMethodBody("(I)V", [](MethodBuilder &M) {
        M.load(0).branch(Opcode::IfEq, "skip");
        M.iconst(7);
        M.label("skip");
        M.ret();
      });
  ASSERT_FALSE(Errs.empty());
  EXPECT_NE(Errs[0].Message.find("stack height mismatch"), std::string::npos)
      << Errs[0].Message;
  EXPECT_NE(Errs[0].Message.find("[int]"), std::string::npos)
      << Errs[0].Message;
  EXPECT_NE(Errs[0].Message.find("[]"), std::string::npos)
      << Errs[0].Message;
}

TEST(VerifierDiagnostics, ErrorStringCarriesMethodAndPc) {
  std::vector<VerifyError> Errs =
      verifyMethodBody("()V", [](MethodBuilder &M) { M.pop().ret(); });
  ASSERT_FALSE(Errs.empty());
  EXPECT_NE(Errs[0].str().find("T.m()V@0"), std::string::npos)
      << Errs[0].str();
}

//===----------------------------------------------------------------------===//
// computeStackShapes: the verifier's dataflow exposed to the analyzer
//===----------------------------------------------------------------------===//

TEST(StackShapes, StraightLineShapes) {
  ClassSet Set;
  ClassBuilder CB("T");
  CB.staticMethod("m", "()I").iconst(1).iconst(2).iadd().iret();
  Set.add(CB.build());
  ensureBuiltins(Set);
  const ClassDef &Cls = *Set.find("T");
  auto Shapes = computeStackShapes(Set, Cls, *Cls.findMethod("m"));
  ASSERT_EQ(Shapes.size(), 4u);
  ASSERT_TRUE(Shapes[0].has_value());
  EXPECT_TRUE(Shapes[0]->empty());
  ASSERT_TRUE(Shapes[2].has_value());
  ASSERT_EQ(Shapes[2]->size(), 2u); // before iadd: [int, int]
  EXPECT_EQ((*Shapes[2])[0], "int");
  ASSERT_TRUE(Shapes[3].has_value());
  EXPECT_EQ(Shapes[3]->size(), 1u); // before iret: [int]
}

TEST(StackShapes, UnreachableCodeHasNoShape) {
  ClassSet Set;
  ClassBuilder CB("T");
  CB.staticMethod("m", "()V").ret().ret(); // second ret unreachable
  Set.add(CB.build());
  ensureBuiltins(Set);
  const ClassDef &Cls = *Set.find("T");
  auto Shapes = computeStackShapes(Set, Cls, *Cls.findMethod("m"));
  ASSERT_EQ(Shapes.size(), 2u);
  EXPECT_TRUE(Shapes[0].has_value());
  EXPECT_FALSE(Shapes[1].has_value());
}

TEST(StackShapes, NonVerifyingMethodYieldsNothing) {
  ClassSet Set;
  ClassBuilder CB("T");
  CB.staticMethod("m", "()V").pop().ret(); // underflows
  Set.add(CB.build());
  ensureBuiltins(Set);
  const ClassDef &Cls = *Set.find("T");
  auto Shapes = computeStackShapes(Set, Cls, *Cls.findMethod("m"));
  EXPECT_TRUE(Shapes.empty());
}

namespace {

/// One table-driven computeStackShapes case: a method body plus the
/// expected shape at selected pcs. nullopt expects an unreachable pc.
struct ShapeCase {
  const char *Name;
  const char *Sig;
  std::function<void(MethodBuilder &, ClassSet &)> Build;
  std::vector<std::pair<size_t, std::optional<StackShape>>> Expect;
};

void addSiblingClasses(ClassSet &Set) {
  Set.add(ClassBuilder("Base").build());
  Set.add(ClassBuilder("LeafA", "Base").build());
  Set.add(ClassBuilder("LeafB", "Base").build());
}

} // namespace

/// Unreachable-block joins and back-edge widening: the analyzer trusts
/// these shapes when it checks ActiveMethodMapping pc maps, so the join
/// rules get pinned down case by case. Back-edge cases seed a loop-carried
/// stack slot with one type and feed a different one around the back edge;
/// the fixpoint must revisit the loop head and publish the widened merge
/// (null ∪ T = T, siblings = common super, mismatched arrays = Object),
/// not the first-visit shape.
TEST(StackShapes, JoinAndBackEdgeTable) {
  const std::vector<ShapeCase> Cases = {
      {"join-skips-unreachable-pred", "()V",
       [](MethodBuilder &M, ClassSet &) {
         // pc2 falls through into the join but is itself unreachable: the
         // join shape must come from the jump alone, not a bottom merge.
         M.iconst(1).jump("end").iconst(9).label("end").pop().ret();
       },
       {{0, StackShape{}},
        {1, StackShape{"int"}},
        {2, std::nullopt},
        {3, StackShape{"int"}},
        {4, StackShape{}}}},

      {"whole-loop-unreachable", "(I)V",
       [](MethodBuilder &M, ClassSet &) {
         // A complete loop (including its back edge) behind a ret: no pc
         // in it gets a shape, and the back edge must not resurrect it.
         M.ret();
         M.label("top").load(0).branch(Opcode::IfEq, "top").ret();
       },
       {{0, StackShape{}},
        {1, std::nullopt},
        {2, std::nullopt},
        {3, std::nullopt}}},

      {"back-edge-stable-shape", "(I)V",
       [](MethodBuilder &M, ClassSet &) {
         // Back-edge state equals the first-visit state: one pass
         // converges and the loop head keeps its seeded shape.
         M.label("top").load(0).branch(Opcode::IfNe, "top").ret();
       },
       {{0, StackShape{}}, {1, StackShape{"int"}}, {2, StackShape{}}}},

      {"back-edge-widens-null-to-class", "(I)V",
       [](MethodBuilder &M, ClassSet &) {
         // Loop-carried slot is null on entry, a T around the back edge.
         M.nullconst();
         M.label("top").load(0).branch(Opcode::IfEq, "done");
         M.pop().newobj("T").jump("top");
         M.label("done").pop().ret();
       },
       {{1, StackShape{"T"}},
        {2, StackShape{"T", "int"}},
        {6, StackShape{"T"}}}},

      {"back-edge-widens-siblings-to-super", "(I)V",
       [](MethodBuilder &M, ClassSet &Set) {
         addSiblingClasses(Set);
         // LeafA on entry, LeafB around the back edge: the head must
         // republish the common supertype once the fixpoint settles.
         M.newobj("LeafA");
         M.label("top").load(0).branch(Opcode::IfEq, "done");
         M.pop().newobj("LeafB").jump("top");
         M.label("done").pop().ret();
       },
       {{1, StackShape{"Base"}},
        {2, StackShape{"Base", "int"}},
        {6, StackShape{"Base"}}}},

      {"back-edge-widens-mismatched-arrays", "(I)V",
       [](MethodBuilder &M, ClassSet &) {
         // [I on entry, [LT; around the back edge: arrays of different
         // element types merge to Object, and downstream pcs see it.
         M.iconst(4).newarray("I");
         M.label("top").load(0).branch(Opcode::IfEq, "done");
         M.pop().iconst(4).newarray("LT;").jump("top");
         M.label("done").pop().ret();
       },
       {{1, StackShape{"int"}},
        {2, StackShape{"Object"}},
        {3, StackShape{"Object", "int"}},
        {8, StackShape{"Object"}}}},
  };

  for (const ShapeCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    ClassSet Set;
    ClassBuilder CB("T");
    MethodBuilder &M = CB.staticMethod("m", C.Sig);
    C.Build(M, Set);
    Set.add(CB.build());
    ensureBuiltins(Set);
    const ClassDef &Cls = *Set.find("T");
    ASSERT_TRUE(Verifier(Set).verifyAll().empty());
    auto Shapes = computeStackShapes(Set, Cls, *Cls.findMethod("m"));
    ASSERT_FALSE(Shapes.empty());
    for (const auto &[Pc, Want] : C.Expect) {
      SCOPED_TRACE("pc " + std::to_string(Pc));
      ASSERT_LT(Pc, Shapes.size());
      ASSERT_EQ(Shapes[Pc].has_value(), Want.has_value());
      if (Want) {
        EXPECT_EQ(*Shapes[Pc], *Want);
      }
    }
  }
}
