//===----------------------------------------------------------------------===//
///
/// \file
/// ClassSet sharing and copy-on-write: copies share every definition, and
/// mutating a copy through find(), replace() or remove() never changes
/// what the original holds — neither its values nor the identity of its
/// definitions. A definition one set alone owns is mutated in place. The
/// registry's methods share their bytecode with the definitions they were
/// loaded from, as one more owner.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "bytecode/Builtins.h"
#include "bytecode/Verifier.h"
#include "runtime/ClassRegistry.h"

#include <gtest/gtest.h>
#include <utility>

using namespace jvolve;

namespace {

ClassSet twoClasses() {
  ClassSet Set;
  ClassBuilder A("A");
  A.field("x", "I");
  A.method("get", "()I").iconst(1).iret();
  Set.add(A.build());
  ClassBuilder B("B", "A");
  B.field("y", "I");
  Set.add(B.build());
  return Set;
}

const ClassDef *identity(const ClassSet &Set, const char *Name) {
  const ClassSet::DefPtr *P = Set.shared(Name);
  return P ? P->get() : nullptr;
}

} // namespace

TEST(ClassSetCow, CopySharesEveryDefinition) {
  ClassSet Original = twoClasses();
  ClassSet Copy = Original;
  for (const char *Name : {"A", "B"}) {
    EXPECT_EQ(identity(Copy, Name), identity(Original, Name));
    EXPECT_EQ(std::as_const(Copy).find(Name), identity(Original, Name));
  }
}

TEST(ClassSetCow, FindOnACopyClonesAndLeavesTheOriginal) {
  ClassSet Original = twoClasses();
  const ClassDef *A0 = identity(Original, "A");
  ClassDef Before = *A0;
  ClassSet Copy = Original;

  ClassDef *Mutable = Copy.find("A");
  EXPECT_NE(Mutable, A0);
  Mutable->Fields.push_back({"z", "I"});
  Mutable->findMethod("get")->Code.front().IVal = 7;

  EXPECT_EQ(identity(Original, "A"), A0);
  EXPECT_EQ(*identity(Original, "A"), Before);
  EXPECT_EQ(identity(Copy, "A"), Mutable);
  EXPECT_EQ(std::as_const(Copy).find("A")->Fields.size(), 2u);
  // Classes the copy did not touch stay shared.
  EXPECT_EQ(identity(Copy, "B"), identity(Original, "B"));
}

TEST(ClassSetCow, ReplaceOnACopyLeavesTheOriginal) {
  ClassSet Original = twoClasses();
  const ClassDef *A0 = identity(Original, "A");
  ClassDef Before = *A0;
  ClassSet Copy = Original;

  ClassDef NewA("A", "Object");
  NewA.Fields.push_back({"w", "I"});
  Copy.replace(NewA);
  EXPECT_EQ(identity(Original, "A"), A0);
  EXPECT_EQ(*identity(Original, "A"), Before);
  EXPECT_NE(identity(Copy, "A"), A0);
  EXPECT_EQ(*identity(Copy, "A"), NewA);
}

TEST(ClassSetCow, RemoveOnACopyLeavesTheOriginal) {
  ClassSet Original = twoClasses();
  const ClassDef *B0 = identity(Original, "B");
  ClassDef Before = *B0;
  ClassSet Copy = Original;

  Copy.remove("B");
  EXPECT_FALSE(Copy.contains("B"));
  ASSERT_TRUE(Original.contains("B"));
  EXPECT_EQ(identity(Original, "B"), B0);
  EXPECT_EQ(*B0, Before);
}

TEST(ClassSetCow, UnsharedDefinitionIsMutatedInPlace) {
  ClassSet Set = twoClasses();
  const ClassDef *A0 = identity(Set, "A");
  ClassDef *Mutable = Set.find("A");
  EXPECT_EQ(Mutable, A0);
  Mutable->Fields.push_back({"z", "I"});
  EXPECT_EQ(identity(Set, "A"), A0);
  EXPECT_EQ(Set.find("A")->Fields.size(), 2u);

  // Once the copy that shared it is gone, the clone is the set's own.
  {
    ClassSet Copy = Set;
    EXPECT_NE(Set.find("A"), A0);
  }
  const ClassDef *A1 = identity(Set, "A");
  EXPECT_EQ(Set.find("A"), A1);

  ClassDef NewA("A", "Object");
  Set.replace(NewA);
  EXPECT_EQ(identity(Set, "A"), A1);
  EXPECT_EQ(*identity(Set, "A"), NewA);
}

TEST(ClassSetCow, BuiltinsAreSharedAcrossSets) {
  ClassSet X, Y;
  ensureBuiltins(X);
  ensureBuiltins(Y);
  for (const char *Name : {ObjectClassName, StringClassName}) {
    ASSERT_NE(identity(X, Name), nullptr);
    EXPECT_EQ(identity(X, Name), identity(Y, Name));
  }
  // Changing one set's built-in never reaches the other's.
  X.find(StringClassName)->Fields.clear();
  EXPECT_EQ(std::as_const(Y).find(StringClassName)->Fields.size(), 1u);
}

TEST(ClassSetCow, VerificationRecordKeepsItsDefinitionsUnchanged) {
  // The record shares every definition it names, so the set that was
  // verified clones instead of changing a recorded definition in place,
  // and the record still names the old one.
  ClassSet Set = twoClasses();
  ensureBuiltins(Set);
  VerifyOutcome O = Verifier(Set).verify(VerificationRecord());
  ASSERT_TRUE(O.Errors.empty());
  const ClassDef *A0 = identity(Set, "A");
  EXPECT_EQ(O.Record.definition("A"), A0);

  ClassDef *Mutable = Set.find("A");
  EXPECT_NE(Mutable, A0);
  Mutable->Fields.push_back({"z", "I"});
  EXPECT_EQ(O.Record.definition("A"), A0);
  EXPECT_EQ(A0->Fields.size(), 1u);
}

TEST(ClassSetCow, RunningMethodsKeepTheirBytecodeWhileTheSetIsEdited) {
  // Loading shares each method's bytecode with its definition instead of
  // copying it. The share is one more owner of the definition, so editing
  // the set through find() clones it, and the loaded methods keep the
  // bytecode they were loaded with.
  ClassSet Set = twoClasses();
  ensureBuiltins(Set);
  ClassRegistry Reg;
  Reg.loadAll(Set);
  const ClassDef *A0 = identity(Set, "A");
  MethodId Get = Reg.resolveMethod(Reg.idOf("A"), "get", "()I");
  ASSERT_NE(Get, InvalidMethodId);
  EXPECT_EQ(Reg.method(Get).Def.get(), &A0->Methods.front());

  ClassDef *Mutable = Set.find("A");
  EXPECT_NE(Mutable, A0);
  Mutable->findMethod("get")->Code.front().IVal = 7;
  EXPECT_EQ(Reg.method(Get).Def.get(), &A0->Methods.front());
  EXPECT_EQ(Reg.method(Get).Def->Code.front().IVal, 1);
  EXPECT_EQ(Reg.checkConsistency(), std::vector<std::string>());
}
