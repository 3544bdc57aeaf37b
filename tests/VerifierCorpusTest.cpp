//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the verifier's output on the seeded mutation corpus of
/// VerifierMutants.h: every version of the three modeled apps mutated 20
/// times, 1-3 mutations each.
/// tests/golden/verifier_mutants.txt records, per mutant, every
/// VerifyError::str() of verifyAll and a digest of computeStackShapes over
/// every method with a well-formed signature. A changed verdict, message,
/// diagnostic order or stack shape shows up as a diff against it.
///
/// When the corpus changes on purpose (new app versions, a deliberate
/// change to a message), the test writes what it produced to
/// verifier_mutants.actual.txt in its build directory; review that diff
/// and copy the file over the golden one.
///
//===----------------------------------------------------------------------===//

#include "VerifierMutants.h"

#include "bytecode/Verifier.h"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <set>
#include <sstream>

using namespace jvolve;

namespace {

/// FNV-1a, continued from \p H.
uint64_t fnv1a(const std::string &S, uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Digest of computeStackShapes over every method whose signature parses:
/// "x" for a method without shapes, "-" for an unreachable pc, otherwise
/// each pc's shape.
std::string shapeDigest(const ClassSet &Set) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const auto &[Name, Cls] : Set.classes()) {
    for (const MethodDef &M : Cls->Methods) {
      if (!MethodSignature::isValidSignature(M.Sig))
        continue;
      H = fnv1a(Name + "." + M.Name + M.Sig + "{", H);
      std::vector<std::optional<StackShape>> Shapes =
          computeStackShapes(Set, *Cls, M);
      if (Shapes.empty())
        H = fnv1a("x", H);
      for (const std::optional<StackShape> &S : Shapes) {
        if (!S) {
          H = fnv1a("-;", H);
          continue;
        }
        for (const std::string &V : *S)
          H = fnv1a(V + ",", H);
        H = fnv1a(";", H);
      }
      H = fnv1a("}", H);
    }
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// The whole corpus, one block per mutant: a header naming the mutations,
/// one "  ! " line per diagnostic, and the stack-shape digest.
std::string buildCorpus() {
  std::ostringstream Out;
  forEachMutant(corpusApps(), [&Out](const Mutant &M) {
    Out << M.App->name() << "/" << M.Version << "/" << M.Index << ":"
        << M.Mutations << "\n";
    for (const VerifyError &E : Verifier(M.Program).verifyAll())
      Out << "  ! " << E.str() << "\n";
    Out << "  shapes " << shapeDigest(M.Program) << "\n";
  });
  return Out.str();
}

std::vector<std::string> lines(const std::string &Text) {
  std::vector<std::string> Out;
  std::istringstream In(Text);
  for (std::string L; std::getline(In, L);)
    Out.push_back(L);
  return Out;
}

} // namespace

TEST(VerifierCorpus, MutantDiagnosticsAndShapesMatchGolden) {
  std::string Actual = buildCorpus();
  std::vector<std::string> A = lines(Actual);

  // The corpus is only a pin if it reaches most of the verifier: count the
  // distinct message shapes (the text before the first quote or digit)
  // and the mutants that still verify, whose stack shapes it pins.
  std::set<std::string> Kinds;
  size_t Mutants = 0, Verified = 0;
  bool SawError = false;
  for (const std::string &L : A) {
    if (L.rfind("  ! ", 0) == 0) {
      SawError = true;
      std::string Msg = L.substr(L.find(": ") + 2);
      Kinds.insert(Msg.substr(0, Msg.find_first_of("'0123456789")));
    } else if (L.rfind("  shapes ", 0) == 0) {
      ++Mutants;
      Verified += !SawError;
      SawError = false;
    }
  }
  EXPECT_EQ(Mutants, 25u * MutantsPerVersion);
  EXPECT_GE(Kinds.size(), 40u);
  EXPECT_GT(Verified, 0u);

  std::ifstream In(std::string(JVOLVE_SOURCE_DIR) +
                   "/tests/golden/verifier_mutants.txt");
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Golden = Buf.str();
  if (Actual == Golden)
    return;

  std::string ActualPath =
      std::string(JVOLVE_BINARY_DIR) + "/verifier_mutants.actual.txt";
  std::ofstream(ActualPath) << Actual;
  ASSERT_TRUE(In.good() || !Golden.empty())
      << "tests/golden/verifier_mutants.txt is missing; the corpus was "
         "written to "
      << ActualPath;
  std::vector<std::string> G = lines(Golden);
  size_t N = 0;
  while (N < A.size() && N < G.size() && A[N] == G[N])
    ++N;
  ADD_FAILURE() << "verifier output differs from the golden corpus at line "
                << N + 1 << "\n  golden: "
                << (N < G.size() ? G[N] : "<end>")
                << "\n  actual: " << (N < A.size() ? A[N] : "<end>")
                << "\nfull output written to " << ActualPath;
}
