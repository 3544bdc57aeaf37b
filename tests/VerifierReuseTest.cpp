//===----------------------------------------------------------------------===//
///
/// \file
/// Verification against a prior record (Verifier::verify) is differential
/// to verifyAll: byte-identical VerifyError::str() lists, in order, for
/// every mutant of the seeded corpus verified against its base version's
/// record, and for every release pair of the three modeled apps in both
/// directions. The record an incremental verification leaves must equal
/// the one a fresh verification of the same program records.
///
//===----------------------------------------------------------------------===//

#include "VerifierMutants.h"

#include "bytecode/Builder.h"
#include "bytecode/Verifier.h"

#include <algorithm>
#include <gtest/gtest.h>
#include <map>
#include <sstream>
#include <utility>

using namespace jvolve;

namespace {

std::vector<std::string> strs(const std::vector<VerifyError> &Errs) {
  std::vector<std::string> Out;
  for (const VerifyError &E : Errs)
    Out.push_back(E.str());
  return Out;
}

ClassSet withBuiltins(const ClassSet &Set) {
  ClassSet Out = Set;
  ensureBuiltins(Out);
  return Out;
}

/// \p Rec rendered class by class over \p Set's class names: each class's
/// definition identity and its lookups with their identities, so two
/// records compare equal exactly when they would reuse the same classes.
std::string render(const VerificationRecord &Rec, const ClassSet &Set) {
  std::ostringstream Out;
  for (const auto &[Name, Def] : Set.classes()) {
    Out << Name << "=" << Rec.definition(Name) << ":";
    for (const auto &[Looked, LookedDef] : Rec.lookups(Name))
      Out << " " << Looked << "=" << LookedDef;
    Out << "\n";
  }
  return Out.str();
}

/// Verifies \p Target against \p Prior and checks it against verifyAll and
/// a fresh verification: same diagnostics, every class either verified or
/// reused, and, when clean, the record a fresh verification leaves.
void expectDifferential(const ClassSet &Target,
                        const VerificationRecord &Prior,
                        const std::string &What) {
  VerifyOutcome Reused = Verifier(Target).verify(Prior);
  EXPECT_EQ(strs(Reused.Errors), strs(Verifier(Target).verifyAll())) << What;
  EXPECT_EQ(Reused.Verified.size() + Reused.Reused, Target.size()) << What;
  VerifyOutcome Fresh = Verifier(Target).verify(VerificationRecord());
  EXPECT_EQ(Fresh.Reused, 0u) << What;
  EXPECT_EQ(Reused.Record.empty(), !Reused.Errors.empty()) << What;
  if (Reused.Errors.empty()) {
    EXPECT_EQ(render(Reused.Record, Target), render(Fresh.Record, Target))
        << What;
  }
}

} // namespace

TEST(VerifierReuse, EveryCorpusMutantAgainstItsBaseRecord) {
  // One record per base version; the mutants share every class a mutation
  // left alone with it.
  std::map<std::pair<const AppModel *, size_t>, VerificationRecord> Bases;
  size_t Mutants = 0, Reused = 0, Failing = 0;
  forEachMutant(corpusApps(), [&](const Mutant &M) {
    auto [It, Added] = Bases.try_emplace({M.App, M.Version});
    if (Added) {
      VerifyOutcome Base =
          Verifier(withBuiltins(M.App->version(M.Version)))
              .verify(VerificationRecord());
      ASSERT_TRUE(Base.Errors.empty()) << M.App->versionName(M.Version);
      It->second = std::move(Base.Record);
    }
    std::string What = M.App->name() + "/" + std::to_string(M.Version) +
                       "/" + std::to_string(M.Index) + ":" + M.Mutations;
    expectDifferential(M.Program, It->second, What);
    VerifyOutcome O = Verifier(M.Program).verify(It->second);
    ++Mutants;
    Reused += O.Reused;
    Failing += !O.Errors.empty();
  });
  EXPECT_EQ(Mutants, 25u * MutantsPerVersion);
  // The corpus exercises both sides: mutants that fail, and classes the
  // base record lets verification skip.
  EXPECT_GT(Failing, Mutants / 2);
  EXPECT_GT(Reused, 10u * Mutants);
}

TEST(VerifierReuse, EveryReleasePairInBothDirections) {
  for (const AppModel &App : corpusApps()) {
    for (size_t V = 1; V < App.numVersions(); ++V) {
      for (auto [From, To] : {std::pair{V - 1, V}, std::pair{V, V - 1}}) {
        ClassSet Old = withBuiltins(App.version(From));
        ClassSet New = withBuiltins(App.version(To));
        VerifyOutcome Prior = Verifier(Old).verify(VerificationRecord());
        ASSERT_TRUE(Prior.Errors.empty()) << App.versionName(From);
        expectDifferential(New, Prior.Record,
                           App.versionName(From) + " -> " +
                               App.versionName(To));
      }
    }
  }
}

TEST(VerifierReuse, Jetty515To516VerifiesOnlyWhatTheUpdateReaches) {
  AppModel App = makeJettyApp();
  ClassSet V515 = withBuiltins(App.version(5));
  ClassSet V516 = withBuiltins(App.version(6));
  VerifyOutcome Prior = Verifier(V515).verify(VerificationRecord());
  ASSERT_TRUE(Prior.Errors.empty());
  VerifyOutcome O = Verifier(V516).verify(Prior.Record);
  ASSERT_TRUE(O.Errors.empty());
  std::vector<std::string> Names;
  for (const ClassDef *C : O.Verified)
    Names.push_back(C->Name);
  // The four classes the release changes, and HttpHandler, which calls
  // HttpResponse.make.
  EXPECT_EQ(Names, (std::vector<std::string>{"HttpHandler", "HttpResponse",
                                             "JFill40", "JFill41",
                                             "JFill42"}));
  EXPECT_EQ(O.Reused, V516.size() - 5);
  // Verifying a program against its own record verifies nothing.
  VerifyOutcome Again = Verifier(V516).verify(O.Record);
  EXPECT_TRUE(Again.Verified.empty());
  EXPECT_EQ(Again.Reused, V516.size());
}

TEST(VerifierReuse, CachedLookupsCountForEveryClassThatMakesThem) {
  // A and B both read Conf.s and return a Leaf as a Box. For B, the second
  // class, the member resolution and Leaf's superclass chain come from the
  // verifier's caches; B must still record Conf (looked up only by the
  // member resolution) and Sub (looked up only by the chain walk).
  ClassSet Set;
  {
    ClassBuilder CB("Conf");
    CB.staticField("s", "I");
    Set.add(CB.build());
  }
  Set.add(ClassBuilder("Box").build());
  Set.add(ClassBuilder("Sub", "Box").build());
  Set.add(ClassBuilder("Leaf", "Sub").build());
  for (const char *Name : {"A", "B"}) {
    ClassBuilder CB(Name);
    CB.staticMethod("get", "()I").getstatic("Conf", "s", "I").iret();
    CB.staticMethod("up", "(LLeaf;)LBox;").locals(1).load(0).aret();
    Set.add(CB.build());
  }
  ensureBuiltins(Set);
  VerifyOutcome O = Verifier(Set).verify(VerificationRecord());
  ASSERT_TRUE(O.Errors.empty());
  auto Names = [&](const char *Cls) {
    std::vector<std::string> Out;
    for (const auto &[Name, Def] : O.Record.lookups(Cls))
      Out.push_back(Name);
    std::sort(Out.begin(), Out.end());
    return Out;
  };
  std::vector<std::string> Expected = {"A",    "Box",    "Conf",
                                       "Leaf", "Object", "Sub"};
  EXPECT_EQ(Names("A"), Expected);
  Expected[0] = "B";
  EXPECT_EQ(Names("B"), Expected);

  // Changing Conf or Sub re-verifies both readers; a Conf without the
  // field fails in both.
  ClassSet Changed = Set;
  Changed.find("Conf")->Fields.clear();
  VerifyOutcome C = Verifier(Changed).verify(O.Record);
  std::vector<std::string> Verified;
  for (const ClassDef *Def : C.Verified)
    Verified.push_back(Def->Name);
  EXPECT_EQ(Verified, (std::vector<std::string>{"A", "B", "Conf"}));
  EXPECT_EQ(strs(C.Errors), strs(Verifier(Changed).verifyAll()));
  EXPECT_EQ(C.Errors.size(), 2u);

  ClassSet Rebased = Set;
  Rebased.find("Sub")->Super = "Object";
  VerifyOutcome R = Verifier(Rebased).verify(O.Record);
  Verified.clear();
  for (const ClassDef *Def : R.Verified)
    Verified.push_back(Def->Name);
  EXPECT_EQ(Verified, (std::vector<std::string>{"A", "B", "Leaf", "Sub"}));
  EXPECT_EQ(strs(R.Errors), strs(Verifier(Rebased).verifyAll()));
  EXPECT_EQ(R.Errors.size(), 2u);
}

TEST(VerifierReuse, FailingProgramLeavesNoRecord) {
  ClassSet Set;
  {
    ClassBuilder CB("User");
    CB.staticMethod("probe", "(LObject;)I").locals(1).iconst(0).iret();
    Set.add(CB.build());
  }
  ensureBuiltins(Set);
  VerifyOutcome O = Verifier(Set).verify(VerificationRecord());
  ASSERT_TRUE(O.Errors.empty());
  EXPECT_EQ(O.Record.size(), Set.size());

  // A field of an absent class: User fails, and the outcome has no record.
  ClassSet Broken = Set;
  Broken.find("User")->Fields.push_back({"m", "LMissing;"});
  VerifyOutcome B = Verifier(Broken).verify(O.Record);
  EXPECT_EQ(strs(B.Errors), strs(Verifier(Broken).verifyAll()));
  ASSERT_EQ(B.Errors.size(), 1u);
  EXPECT_TRUE(B.Record.empty());
  EXPECT_EQ(B.Reused, Set.size() - 1);

  // With the class added, User verifies and records the lookup of Missing
  // after its own hierarchy walk.
  ClassSet Fixed = Broken;
  Fixed.add(ClassBuilder("Missing").build());
  VerifyOutcome F = Verifier(Fixed).verify(O.Record);
  EXPECT_TRUE(F.Errors.empty());
  std::vector<std::pair<std::string, const ClassDef *>> Lookups =
      F.Record.lookups("User");
  ASSERT_EQ(Lookups.size(), 3u);
  EXPECT_EQ(Lookups[0].first, "User");
  EXPECT_EQ(Lookups[1].first, "Object");
  EXPECT_EQ(Lookups[2].first, "Missing");
  EXPECT_EQ(Lookups[2].second, std::as_const(Fixed).find("Missing"));
}
