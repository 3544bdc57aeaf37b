//===----------------------------------------------------------------------===//
///
/// \file
/// Assembler front-end tests: parsing, diagnostics, execution of parsed
/// programs, and the round-trip property (write(parse(x)) == x modulo
/// formatting) swept over every version of all three application models.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "apps/CrossFtpApp.h"
#include "apps/EmailApp.h"
#include "apps/JettyApp.h"
#include "asm/Assembler.h"
#include "asm/AsmWriter.h"
#include "bytecode/Builtins.h"
#include "bytecode/Verifier.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

std::vector<AsmError> parseErrors(const std::string &Text) {
  std::vector<AsmError> Errors;
  parseProgram(Text, Errors);
  return Errors;
}

} // namespace

TEST(Asm, ParsesMinimalClass) {
  ClassSet Set = parseProgramOrDie(R"(
    class Point {
      field x I
      field y I
    }
  )");
  ASSERT_TRUE(Set.contains("Point"));
  const ClassDef *P = Set.find("Point");
  EXPECT_EQ(P->Super, "Object");
  ASSERT_EQ(P->Fields.size(), 2u);
  EXPECT_EQ(P->Fields[0].Name, "x");
}

TEST(Asm, ParsesModifiers) {
  ClassSet Set = parseProgramOrDie(R"(
    class User {
      private final field name LString;
      static field count I
      protected field shared I
    }
  )");
  const ClassDef *U = Set.find("User");
  EXPECT_EQ(U->Fields[0].Visibility, Access::Private);
  EXPECT_TRUE(U->Fields[0].IsFinal);
  EXPECT_TRUE(U->Fields[1].IsStatic);
  EXPECT_EQ(U->Fields[2].Visibility, Access::Protected);
}

TEST(Asm, ParsesInheritance) {
  ClassSet Set = parseProgramOrDie(R"(
    class Animal { }
    class Bird extends Animal { }
  )");
  EXPECT_EQ(Set.find("Bird")->Super, "Animal");
}

TEST(Asm, ParsedProgramExecutes) {
  ClassSet Set = parseProgramOrDie(R"(
    // Computes sum of 1..n iteratively.
    class Main {
      static method sum(I)I locals 2 {
        iconst 0
        store 1
      loop:
        load 0
        ifle done
        load 1
        load 0
        iadd
        store 1
        load 0
        iconst 1
        isub
        store 0
        goto loop
      done:
        load 1
        iret
      }
    }
  )");
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  EXPECT_EQ(
      TheVM.callStatic("Main", "sum", "(I)I", {Slot::ofInt(10)}).IntVal, 55);
}

TEST(Asm, ParsedObjectsAndCalls) {
  ClassSet Set = parseProgramOrDie(R"(
    class Box {
      field v I
      method get()I {
        load 0
        getfield Box.v I
        iret
      }
    }
    class Main {
      static method run()I locals 1 {
        new Box
        store 0
        load 0
        iconst 42
        putfield Box.v I
        load 0
        invokevirtual Box.get()I
        iret
      }
    }
  )");
  EXPECT_EQ(runIntMain(Set), 42);
}

TEST(Asm, ParsedStringsAndIntrinsics) {
  ClassSet Set = parseProgramOrDie(R"(
    class Main {
      static method run()I {
        sconst "hello \"quoted\" world"
        intrinsic str_length
        iret
      }
    }
  )");
  EXPECT_EQ(runIntMain(Set), 20);
}

TEST(Asm, CommentsAndWhitespace) {
  ClassSet Set = parseProgramOrDie(R"(
    # hash comment
    class Main {  // trailing comment
      static method run()I {
        iconst 7   // the answer-ish
        iret
      }
    }
  )");
  EXPECT_EQ(runIntMain(Set), 7);
}

TEST(Asm, ErrorsCarryLineNumbers) {
  std::vector<AsmError> Errors = parseErrors("class Main {\n  bogus\n}\n");
  ASSERT_FALSE(Errors.empty());
  EXPECT_EQ(Errors[0].Line, 2);
  EXPECT_NE(Errors[0].Message.find("bogus"), std::string::npos);
}

TEST(Asm, RejectsMalformedPrograms) {
  EXPECT_FALSE(parseErrors("klass Main { }").empty());
  EXPECT_FALSE(parseErrors("class Main {").empty());
  EXPECT_FALSE(parseErrors("class Main { field x }").empty());
  EXPECT_FALSE(parseErrors("class Main { field x Q }").empty());
  EXPECT_FALSE(
      parseErrors("class Main { method broken { iret } }").empty());
  EXPECT_FALSE(parseErrors("class Main { static method m()V { iconst } }")
                   .empty());
  EXPECT_FALSE(
      parseErrors("class Main { static method m()V { goto } }").empty());
  EXPECT_FALSE(parseErrors("class M { static method m()V { sconst x } }")
                   .empty());
  EXPECT_FALSE(
      parseErrors("class M { static method m()V { intrinsic nope } }")
          .empty());
  EXPECT_FALSE(parseErrors("class A { } class A { }").empty());
  EXPECT_FALSE(parseErrors(R"(class M { static method m()V { sconst "x)")
                   .empty());
}

TEST(Asm, UnboundLabelAborts) {
  EXPECT_DEATH(parseProgramOrDie(
                   "class M { static method m()V { goto nowhere } }"),
               "unbound label");
}

TEST(Asm, WriterOutputIsParseable) {
  ClassSet Set = parseProgramOrDie(R"(
    class Pair {
      field a I
      field b LPair;
      method sum()I locals 2 {
        load 0
        getfield Pair.a I
        store 1
      again:
        load 1
        ifge done
        goto again
      done:
        load 1
        iret
      }
    }
  )");
  std::string Text = writeProgramAsm(Set);
  ClassSet Again = parseProgramOrDie(Text);
  EXPECT_EQ(*Set.find("Pair"), *Again.find("Pair"));
}

namespace {

/// Round-trip check for a full program version.
void expectRoundTrip(const ClassSet &Set, const std::string &Tag) {
  std::string Text = writeProgramAsm(Set);
  std::vector<AsmError> Errors;
  std::optional<ClassSet> Again = parseProgram(Text, Errors);
  ASSERT_TRUE(Again.has_value())
      << Tag << ": " << (Errors.empty() ? "?" : Errors[0].str());
  for (const auto &[Name, Cls] : Set.classes()) {
    if (isBuiltinClass(Name))
      continue;
    const ClassDef *Re = Again->find(Name);
    ASSERT_NE(Re, nullptr) << Tag << ": lost class " << Name;
    EXPECT_EQ(*Cls, *Re) << Tag << ": class " << Name
                        << " changed in round trip";
  }
  // And the reparsed program still verifies.
  ensureBuiltins(*Again);
  EXPECT_TRUE(verifies(*Again)) << Tag;
}

} // namespace

TEST(Asm, RoundTripJettyVersions) {
  AppModel App = makeJettyApp();
  for (size_t V = 0; V < App.numVersions(); ++V)
    expectRoundTrip(App.version(V), App.versionName(V));
}

TEST(Asm, RoundTripEmailVersions) {
  AppModel App = makeEmailApp();
  for (size_t V = 0; V < App.numVersions(); ++V)
    expectRoundTrip(App.version(V), App.versionName(V));
}

TEST(Asm, RoundTripCrossFtpVersions) {
  AppModel App = makeCrossFtpApp();
  for (size_t V = 0; V < App.numVersions(); ++V)
    expectRoundTrip(App.version(V), App.versionName(V));
}
