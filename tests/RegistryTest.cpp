//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime class-model tests: field layout with hard-coded offsets, TIB
/// construction (overrides share slots, new methods append), statics
/// storage, array classes, the DSU renaming hooks, the update log's undo
/// of every kind of write, and the detection-parity corpus of the scoped
/// (logged-entries) consistency check against the full one.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "bytecode/Builtins.h"
#include "exec/CompiledMethod.h"
#include "runtime/ClassRegistry.h"
#include "runtime/ObjectModel.h"

#include <gtest/gtest.h>

#include <functional>

using namespace jvolve;

namespace {

ClassSet hierarchySet() {
  ClassSet Set;
  ClassBuilder A("Animal");
  A.field("age", "I");
  A.field("name", "LString;");
  A.method("speak", "()I").iconst(0).iret();
  A.method("age", "()I").load(0).getfield("Animal", "age", "I").iret();
  Set.add(A.build());
  ClassBuilder B("Bird", "Animal");
  B.field("wingspan", "I");
  B.method("speak", "()I").iconst(1).iret(); // override
  B.method("fly", "()V").ret();              // new virtual method
  Set.add(B.build());
  ensureBuiltins(Set);
  return Set;
}

} // namespace

TEST(Registry, LoadsAllAndBindsNames) {
  ClassRegistry Reg;
  Reg.loadAll(hierarchySet());
  EXPECT_NE(Reg.idOf("Animal"), InvalidClassId);
  EXPECT_NE(Reg.idOf("Bird"), InvalidClassId);
  EXPECT_NE(Reg.idOf("Object"), InvalidClassId);
  EXPECT_EQ(Reg.idOf("Ghost"), InvalidClassId);
}

TEST(Registry, SubclassLayoutExtendsSuperclassLayout) {
  ClassRegistry Reg;
  Reg.loadAll(hierarchySet());
  const RtClass &Animal = Reg.cls(Reg.idOf("Animal"));
  const RtClass &Bird = Reg.cls(Reg.idOf("Bird"));

  // Inherited fields keep their superclass offsets, so superclass compiled
  // code works unchanged on subclass instances.
  const RtField *AgeA = Animal.findInstanceField("age");
  const RtField *AgeB = Bird.findInstanceField("age");
  ASSERT_NE(AgeA, nullptr);
  ASSERT_NE(AgeB, nullptr);
  EXPECT_EQ(AgeA->Offset, AgeB->Offset);
  EXPECT_EQ(AgeA->Offset, ObjectHeaderBytes);

  const RtField *Wing = Bird.findInstanceField("wingspan");
  ASSERT_NE(Wing, nullptr);
  EXPECT_EQ(Wing->Offset, Animal.InstanceSize);
  EXPECT_EQ(Bird.InstanceSize, Animal.InstanceSize + SlotBytes);
}

TEST(Registry, FieldRefnessRecorded) {
  ClassRegistry Reg;
  Reg.loadAll(hierarchySet());
  const RtClass &Animal = Reg.cls(Reg.idOf("Animal"));
  EXPECT_FALSE(Animal.findInstanceField("age")->IsRef);
  EXPECT_TRUE(Animal.findInstanceField("name")->IsRef);
}

TEST(Registry, TibOverridesShareSlotNewMethodsAppend) {
  ClassRegistry Reg;
  Reg.loadAll(hierarchySet());
  const RtClass &Animal = Reg.cls(Reg.idOf("Animal"));
  const RtClass &Bird = Reg.cls(Reg.idOf("Bird"));

  int SpeakSlot = Animal.VTableIndex.at("speak()I");
  EXPECT_EQ(Bird.VTableIndex.at("speak()I"), SpeakSlot);
  // Same slot, different implementation.
  EXPECT_NE(Animal.VTable[SpeakSlot], Bird.VTable[SpeakSlot]);
  // Inherited non-overridden method shares the implementation.
  int AgeSlot = Animal.VTableIndex.at("age()I");
  EXPECT_EQ(Animal.VTable[AgeSlot], Bird.VTable[AgeSlot]);
  // New virtual methods extend the table.
  EXPECT_GT(Bird.VTable.size(), Animal.VTable.size());
  EXPECT_TRUE(Bird.VTableIndex.count("fly()V"));
  EXPECT_FALSE(Animal.VTableIndex.count("fly()V"));
}

TEST(Registry, StaticsGetSlotsAndTags) {
  ClassSet Set;
  ClassBuilder C("Cfg");
  C.staticField("level", "I");
  C.staticField("root", "LCfg;");
  Set.add(C.build());
  ensureBuiltins(Set);
  ClassRegistry Reg;
  Reg.loadAll(Set);
  RtClass &Cfg = Reg.cls(Reg.idOf("Cfg"));
  ASSERT_EQ(Cfg.Statics.size(), 2u);
  EXPECT_FALSE(Cfg.Statics[0].IsRef);
  EXPECT_TRUE(Cfg.Statics[1].IsRef);
  EXPECT_EQ(Cfg.findStaticField("level")->Offset, 0u);
  EXPECT_EQ(Cfg.findStaticField("root")->Offset, 1u);
}

TEST(Registry, ResolveStaticThroughChain) {
  ClassSet Set;
  ClassBuilder A("Parent");
  A.staticField("shared", "I");
  Set.add(A.build());
  Set.add(ClassBuilder("Child", "Parent").build());
  ensureBuiltins(Set);
  ClassRegistry Reg;
  Reg.loadAll(Set);
  ClassId Declaring = InvalidClassId;
  RtField *F =
      Reg.resolveStaticField(Reg.idOf("Child"), "shared", &Declaring);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(Declaring, Reg.idOf("Parent"));
}

TEST(Registry, ArrayClassesCreatedOnDemandAndShared) {
  ClassRegistry Reg;
  Reg.loadAll(hierarchySet());
  ClassId A1 = Reg.arrayClassOf(Type::refTy("Animal"));
  ClassId A2 = Reg.arrayClassOf(Type::refTy("Animal"));
  ClassId I1 = Reg.arrayClassOf(Type::intTy());
  EXPECT_EQ(A1, A2);
  EXPECT_NE(A1, I1);
  EXPECT_TRUE(Reg.cls(A1).IsArray);
  EXPECT_TRUE(Reg.cls(A1).ElemIsRef);
  EXPECT_FALSE(Reg.cls(I1).ElemIsRef);
  EXPECT_EQ(Reg.cls(A1).Name, "[LAnimal;");
}

TEST(Registry, IsSubclassOf) {
  ClassRegistry Reg;
  Reg.loadAll(hierarchySet());
  EXPECT_TRUE(Reg.isSubclassOf(Reg.idOf("Bird"), Reg.idOf("Animal")));
  EXPECT_TRUE(Reg.isSubclassOf(Reg.idOf("Bird"), Reg.idOf("Object")));
  EXPECT_FALSE(Reg.isSubclassOf(Reg.idOf("Animal"), Reg.idOf("Bird")));
}

TEST(Registry, RenameForUpdateFreesNameAndMarksObsolete) {
  ClassRegistry Reg;
  Reg.loadAll(hierarchySet());
  ClassId OldId = Reg.idOf("Animal");
  Reg.renameClassForUpdate(OldId, "v1_Animal");

  EXPECT_EQ(Reg.idOf("Animal"), InvalidClassId);
  EXPECT_EQ(Reg.idOf("v1_Animal"), OldId);
  EXPECT_TRUE(Reg.cls(OldId).Obsolete);
  for (MethodId M : Reg.cls(OldId).Methods) {
    EXPECT_TRUE(Reg.method(M).Obsolete);
    EXPECT_EQ(Reg.method(M).Code, nullptr);
  }

  // A replacement class can now be loaded under the original name.
  ClassSet Replacement;
  ClassBuilder NewAnimal("Animal");
  NewAnimal.field("age", "I");
  Replacement.add(NewAnimal.build());
  ensureBuiltins(Replacement);
  ClassId NewId = Reg.loadClass(*Replacement.shared("Animal"), Replacement);
  EXPECT_EQ(Reg.idOf("Animal"), NewId);
  EXPECT_NE(NewId, OldId);
  EXPECT_FALSE(Reg.cls(NewId).Obsolete);
}

TEST(Registry, SetMethodBodyInvalidatesCode) {
  ClassRegistry Reg;
  ClassSet Set = hierarchySet();
  Reg.loadAll(Set);
  MethodId Speak = Reg.resolveMethod(Reg.idOf("Animal"), "speak", "()I");
  ASSERT_NE(Speak, InvalidMethodId);
  // Fake a compiled body.
  Reg.method(Speak).Code = std::make_shared<CompiledMethod>();
  Reg.method(Speak).InvokeCount = 7;

  MethodBuilder MB("speak", "()I", false);
  MB.iconst(9).iret();
  Reg.setMethodBody(Speak, std::make_shared<const MethodDef>(MB.build()));
  EXPECT_EQ(Reg.method(Speak).Code, nullptr);
  EXPECT_EQ(Reg.method(Speak).InvokeCount, 0u);
  EXPECT_EQ(Reg.method(Speak).Def->Code[0].IVal, 9);
}

TEST(Registry, VisitStaticRootsSkipsNulls) {
  ClassSet Set;
  ClassBuilder C("Cfg");
  C.staticField("a", "LCfg;");
  C.staticField("b", "LCfg;");
  Set.add(C.build());
  ensureBuiltins(Set);
  ClassRegistry Reg;
  Reg.loadAll(Set);
  RtClass &Cfg = Reg.cls(Reg.idOf("Cfg"));
  uint8_t Dummy;
  Cfg.Statics[0].RefVal = &Dummy;
  int Visited = 0;
  Reg.visitStaticRoots([&](Ref &R) {
    ++Visited;
    EXPECT_EQ(R, &Dummy);
  });
  EXPECT_EQ(Visited, 1);
}

TEST(Registry, ResolveMethodWalksChain) {
  ClassRegistry Reg;
  Reg.loadAll(hierarchySet());
  // age() is declared on Animal, resolvable from Bird.
  EXPECT_NE(Reg.resolveMethod(Reg.idOf("Bird"), "age", "()I"),
            InvalidMethodId);
  EXPECT_EQ(Reg.resolveMethod(Reg.idOf("Bird"), "age", "(I)I"),
            InvalidMethodId);
}

//===--- Update log: undo and scoped certification --------------------------===//

namespace jvolve {
/// Plants name-map corruptions the registry's interface cannot produce.
struct RegistryCorruption {
  static void bind(ClassRegistry &Reg, const std::string &Name, ClassId Id) {
    Reg.ByName[Name] = Id;
  }
  static void unbind(ClassRegistry &Reg, const std::string &Name) {
    Reg.ByName.erase(Name);
  }
};
} // namespace jvolve

namespace {

/// hierarchySet plus an unrelated Cage (static ref + method) and a class
/// Gone that the update deletes.
ClassSet installBase() {
  ClassSet Set = hierarchySet();
  ClassBuilder C("Cage");
  C.staticField("keeper", "LCage;");
  C.staticField("size", "I");
  C.method("open", "()V").ret();
  Set.add(C.build());
  ClassBuilder G("Gone");
  G.method("stay", "()V").ret();
  Set.add(G.build());
  return Set;
}

/// The new version: Animal changes shape (a new field and a static).
ClassSet replacementAnimal() {
  ClassSet Set;
  ClassBuilder A("Animal");
  A.field("age", "I");
  A.field("name", "LString;");
  A.field("legs", "I");
  A.staticField("count", "I");
  A.method("speak", "()I").iconst(2).iret();
  A.method("age", "()I").load(0).getfield("Animal", "age", "I").iret();
  Set.add(A.build());
  ensureBuiltins(Set);
  return Set;
}

/// A registry after an install-shaped sequence of logged writes: Animal
/// renamed and replaced, Gone deleted (renamed, its name left unbound),
/// Bird.fly given a new body, compiled code installed on Cage.open, and
/// Cage's statics written. The log is closed, as after a commit.
struct Installed {
  ClassRegistry Reg;
  ClassSet Base = installBase();
  ClassSet Next = replacementAnimal();
  ClassId OldAnimal = InvalidClassId, NewAnimal = InvalidClassId;
  ClassId Cage = InvalidClassId, OldGone = InvalidClassId;
  MethodId Fly = InvalidMethodId;

  Installed() {
    Reg.loadAll(Base);
    OldAnimal = Reg.idOf("Animal");
    Cage = Reg.idOf("Cage");
    OldGone = Reg.idOf("Gone");
    Fly = Reg.resolveMethod(Reg.idOf("Bird"), "fly", "()V");
    Reg.beginUpdateLog();
    Reg.renameClassForUpdate(OldAnimal, "v1_Animal");
    Reg.renameClassForUpdate(OldGone, "v1_Gone");
    NewAnimal = Reg.loadClass(*Next.shared("Animal"), Next);
    MethodBuilder MB("fly", "()V", false);
    MB.ret();
    Reg.setMethodBody(Fly, std::make_shared<const MethodDef>(MB.build()));
    Reg.setCode(Reg.resolveMethod(Cage, "open", "()V"),
                std::make_shared<CompiledMethod>());
    Reg.setStatic(Cage, 1, Slot::ofInt(42));
    Reg.closeUpdateLog();
  }
};

/// The check each corpus case names as the one scoped check that catches
/// it, by the wording of its report.
struct ParityCase {
  const char *Name;
  std::function<void(Installed &)> Plant;
  const char *Expect; ///< substring of the one scoped report
};

std::vector<ParityCase> parityCorpus() {
  return {
      {"out-of-range TIB entry",
       [](Installed &I) {
         I.Reg.cls(I.NewAnimal).VTable[0] =
             static_cast<MethodId>(I.Reg.numMethods() + 5);
       },
       "class 'Animal' has an out-of-range TIB entry"},
      {"declared method owned by another class",
       [](Installed &I) {
         I.Reg.method(I.Reg.cls(I.NewAnimal).Methods[0]).Owner = I.Cage;
       },
       "is declared by 'Animal' but owned by another class"},
      {"obsolete class with a live method",
       [](Installed &I) {
         I.Reg.method(I.Reg.cls(I.OldAnimal).Methods[0]).Obsolete = false;
       },
       "obsolete class 'v1_Animal' has non-obsolete method"},
      {"stale name binding",
       // The deleted class's name still bound, to Cage, whose own binding
       // went missing: the map keeps its size.
       [](Installed &I) {
         RegistryCorruption::bind(I.Reg, "Gone", I.Cage);
         RegistryCorruption::unbind(I.Reg, "Cage");
       },
       "name 'Gone' maps to class named 'Cage'"},
      {"method with no bytecode",
       [](Installed &I) { I.Reg.method(I.Fly).Def = nullptr; },
       "method 'fly()V' has no bytecode"},
      {"static field past its table",
       [](Installed &I) {
         I.Reg.cls(I.NewAnimal).StaticFields[0].Offset = 7;
       },
       "static field 'Animal.count' points past the statics table"},
      {"superclass cycle through a loaded class",
       [](Installed &I) {
         I.Reg.cls(I.NewAnimal).Super = I.Cage;
         I.Reg.cls(I.Cage).Super = I.NewAnimal;
       },
       "superclass cycle reachable from 'Animal'"},
      {"extra name binding",
       [](Installed &I) { RegistryCorruption::bind(I.Reg, "Ghost", I.Cage); },
       "name map holds"},
  };
}

} // namespace

TEST(Registry, UpdateLogRollbackUndoesEveryWrite) {
  ClassRegistry Reg;
  ClassSet Base = installBase();
  ClassSet Next = replacementAnimal();
  Reg.loadAll(Base);
  ClassId Cage = Reg.idOf("Cage");
  MethodId Open = Reg.resolveMethod(Cage, "open", "()V");
  MethodId Fly = Reg.resolveMethod(Reg.idOf("Bird"), "fly", "()V");
  uint8_t FromSpace = 0, ToSpace = 0;
  Reg.setStatic(Cage, 0, Slot::ofRef(&FromSpace));
  Reg.method(Open).Code = std::make_shared<CompiledMethod>();
  Reg.method(Open).InvokeCount = 11;
  ClassRegistry::Fingerprint Before = Reg.fingerprint();
  size_t Bindings = Reg.numClasses();

  Reg.beginUpdateLog();
  ClassId OldAnimal = Reg.idOf("Animal");
  Reg.renameClassForUpdate(OldAnimal, "v1_Animal");
  Reg.renameClassForUpdate(Reg.idOf("Gone"), "v1_Gone");
  ClassId NewAnimal = Reg.loadClass(*Next.shared("Animal"), Next);
  Reg.arrayClassOf(Type::refTy("Cage"));
  MethodBuilder MB("fly", "()V", false);
  MB.ret();
  Reg.setMethodBody(Fly, std::make_shared<const MethodDef>(MB.build()));
  Reg.invalidateCode(Open);
  Reg.setMethodState(Open, Reg.method(Open).Def, nullptr, 0);
  Reg.setStatic(Cage, 1, Slot::ofInt(42));
  Reg.setStatic(NewAnimal, 0, Slot::ofInt(5)); // appended: not logged
  // The DSU collection forwards static roots; a second visit forwards the
  // already-forwarded value again (replay restores the first).
  Reg.visitStaticRoots([&](Ref &R) { R = &ToSpace; });
  Reg.visitStaticRoots([&](Ref &R) { R = &ToSpace + 1; });
  Reg.dropObsoleteStatics(OldAnimal);
  Reg.dropObsoleteStatics(Cage);
  EXPECT_NE(Reg.fingerprintDiff(Before), std::vector<std::string>());
  EXPECT_EQ(Reg.checkLoggedConsistency(), std::vector<std::string>());

  Reg.rollbackUpdateLog();
  EXPECT_EQ(Reg.fingerprintDiff(Before), std::vector<std::string>());
  EXPECT_EQ(Reg.checkConsistency(), std::vector<std::string>());
  EXPECT_EQ(Reg.idOf("Animal"), OldAnimal);
  EXPECT_EQ(Reg.idOf("v1_Animal"), InvalidClassId);
  EXPECT_NE(Reg.idOf("Gone"), InvalidClassId);
  EXPECT_EQ(Reg.idOf("[LCage;"), InvalidClassId);
  EXPECT_EQ(Reg.numClasses(), Bindings);
  EXPECT_EQ(Reg.cls(Cage).Statics[0].RefVal, &FromSpace);
}

TEST(Registry, FingerprintDiffNamesEachKindOfChange) {
  ClassRegistry Reg;
  Reg.loadAll(installBase());
  ClassRegistry::Fingerprint Before = Reg.fingerprint();
  EXPECT_TRUE(Reg.fingerprintDiff(Before).empty());
  ClassId Cage = Reg.idOf("Cage");
  MethodId Open = Reg.resolveMethod(Cage, "open", "()V");
  Reg.cls(Cage).Statics[1].IntVal = 3;
  Reg.method(Open).InvokeCount = 2;
  Reg.method(Open).Code = std::make_shared<CompiledMethod>();
  std::vector<std::string> Diff = Reg.fingerprintDiff(Before);
  ASSERT_EQ(Diff.size(), 3u);
  EXPECT_NE(Diff[0].find("static values changed"), std::string::npos);
  EXPECT_NE(Diff[1].find("compiled code replaced"), std::string::npos);
  EXPECT_NE(Diff[2].find("invoke count 0 -> 2"), std::string::npos);
}

TEST(Registry, ScopedCheckPassesAfterACleanInstall) {
  Installed I;
  EXPECT_EQ(I.Reg.checkLoggedConsistency(), std::vector<std::string>());
  EXPECT_EQ(I.Reg.checkConsistency(), std::vector<std::string>());
}

TEST(Registry, ScopedAndFullChecksDetectEveryParityCase) {
  // Each corruption sits in an entry the log touched. Both checks must
  // report it, and exactly one scoped check does: deleting any scoped
  // check leaves at least one case unreported.
  for (const ParityCase &C : parityCorpus()) {
    SCOPED_TRACE(C.Name);
    Installed I;
    C.Plant(I);
    std::vector<std::string> Scoped = I.Reg.checkLoggedConsistency();
    std::vector<std::string> Full = I.Reg.checkConsistency();
    ASSERT_EQ(Scoped.size(), 1u) << (Scoped.empty() ? "" : Scoped.back());
    EXPECT_NE(Scoped[0].find(C.Expect), std::string::npos) << Scoped[0];
    EXPECT_FALSE(Full.empty());
    bool FullNamesIt = false;
    for (const std::string &P : Full)
      FullNamesIt |= P.find(C.Expect) != std::string::npos;
    // The extra binding's size report is scoped-only wording; the full
    // check names the binding itself.
    if (std::string(C.Expect) != "name map holds") {
      EXPECT_TRUE(FullNamesIt) << Full.front();
    }
  }
}

TEST(Registry, ScopedCheckAccountsForEveryAppend) {
  // A class appended while the log was not recording is well-formed, so
  // the full check sees nothing; only the log's table accounting can.
  Installed I;
  I.Reg.arrayClassOf(Type::refTy("Cage"));
  std::vector<std::string> Scoped = I.Reg.checkLoggedConsistency();
  ASSERT_EQ(Scoped.size(), 1u);
  EXPECT_NE(Scoped[0].find("the log accounts for"), std::string::npos)
      << Scoped[0];
  EXPECT_EQ(I.Reg.checkConsistency(), std::vector<std::string>());
}

TEST(Registry, ScopedCheckDoesNotSeeUntouchedEntries) {
  // The documented deviation: a stray write into an entry install never
  // touched is outside the scoped check's view; the full check, which the
  // tests, the chaos oracle and rollback certification keep, catches it.
  Installed I;
  I.Reg.cls(I.Cage).VTable[0] = static_cast<MethodId>(I.Reg.numMethods());
  EXPECT_EQ(I.Reg.checkLoggedConsistency(), std::vector<std::string>());
  EXPECT_FALSE(I.Reg.checkConsistency().empty());
}

TEST(Registry, StaticRootScanWalksOnlyClassesWithReferenceStatics) {
  // Cage owns a reference static; Animal and Bird own none. A reference
  // written into an int static (a transformer may do that) makes its
  // class a root owner too, so the scan still finds it.
  ClassRegistry Reg;
  Reg.loadAll(installBase());
  uint8_t A = 0, B = 0;
  ClassId Cage = Reg.idOf("Cage");
  Reg.setStatic(Cage, 0, Slot::ofRef(&A));
  ClassSet Counter;
  ClassBuilder C("Counter");
  C.staticField("n", "I");
  Counter.add(C.build());
  ensureBuiltins(Counter);
  ClassId Cnt = Reg.loadClass(*Counter.shared("Counter"), Counter);
  Reg.setStatic(Cnt, 0, Slot::ofRef(&B));
  std::vector<Ref> Seen;
  Reg.visitStaticRoots([&](Ref &R) { Seen.push_back(R); });
  EXPECT_EQ(Seen, (std::vector<Ref>{&A, &B}));
}
