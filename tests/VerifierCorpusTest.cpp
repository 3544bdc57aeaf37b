//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the verifier's output on a seeded mutation corpus. Every version
/// of the three modeled apps is mutated 20 times, 1-3 mutations each:
/// opcodes, operands, member references, descriptors, local counts,
/// static/visibility/final flags, superclasses, duplicate fields and
/// methods, removed classes, method signatures, and dropped, repeated or
/// swapped instructions.
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

#include "apps/CrossFtpApp.h"
#include "apps/EmailApp.h"
#include "apps/JettyApp.h"
#include "bytecode/Builtins.h"
#include "bytecode/Verifier.h"
#include "support/Rng.h"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <set>
#include <sstream>

using namespace jvolve;

namespace {

constexpr int MutantsPerVersion = 20;

template <typename T> const T &pick(Rng &R, const std::vector<T> &V) {
  return V[R.nextBelow(V.size())];
}

/// Applies random mutations to one program version.
class Mutator {
public:
  Mutator(ClassSet &Set, Rng &R) : Set(Set), R(R) {
    std::set<std::string> SymSet, SigSet, MethodSigSet;
    for (const auto &[Name, Cls] : Set.classes()) {
      if (isBuiltinClass(Name))
        continue;
      ClassNames.push_back(Name);
      for (const FieldDef &F : Cls.Fields)
        SigSet.insert(F.TypeDesc);
      for (const MethodDef &M : Cls.Methods) {
        SigSet.insert(M.Sig);
        MethodSigSet.insert(M.Sig);
        if (M.Code.size() > 2)
          BodyOwners.push_back(Name);
        for (const Instr &I : M.Code) {
          if (!I.Sym.empty())
            SymSet.insert(I.Sym);
          if (!I.Sig.empty())
            SigSet.insert(I.Sig);
        }
      }
    }
    Syms.assign(SymSet.begin(), SymSet.end());
    Sigs.assign(SigSet.begin(), SigSet.end());
    MethodSigs.assign(MethodSigSet.begin(), MethodSigSet.end());
    // Broken references the verifier must name, never crash on. None is
    // "V" or an invalid descriptor a field type below can also take, so
    // no instruction reaches Type::parse with a malformed field type.
    for (const char *S : {"nodot", "Missing.f", ".x", "Object.nosuch"})
      Syms.push_back(S);
    for (const char *S : {"Q", "(I", "LMissing;", "()X", ""})
      Sigs.push_back(S);
    for (const char *S : {"(", "(V)V", "()"})
      MethodSigs.push_back(S);
  }

  /// Applies one mutation; \returns its description, or "" when the chosen
  /// kind had nothing to act on.
  std::string mutateOnce() {
    if (ClassNames.empty())
      return "";
    uint64_t Kind = R.nextBelow(16);
    // Most methods are two-instruction fillers, so instruction-level
    // mutations (kinds 0-3 and 15) go to a method with a real body.
    bool InBody = (Kind <= 3 || Kind == 15) && !BodyOwners.empty();
    std::string ClsName = pick(R, InBody ? BodyOwners : ClassNames);
    ClassDef *Cls = Set.find(ClsName);
    if (!Cls)
      return ""; // removed by an earlier mutation
    MethodDef *M = Cls->Methods.empty()
                       ? nullptr
                       : &Cls->Methods[R.nextBelow(Cls->Methods.size())];
    if (InBody)
      for (MethodDef &Body : Cls->Methods)
        if (Body.Code.size() > 2 && R.nextBelow(2))
          M = &Body;
    FieldDef *F = Cls->Fields.empty()
                      ? nullptr
                      : &Cls->Fields[R.nextBelow(Cls->Fields.size())];
    Instr *I = M && !M->Code.empty() ? &M->Code[R.nextBelow(M->Code.size())]
                                     : nullptr;
    auto At = [&] {
      return ClsName + "." + M->Name + M->Sig + "@" +
             std::to_string(I - M->Code.data());
    };

    switch (Kind) {
    case 0:
      if (!I)
        return "";
      I->Op = static_cast<Opcode>(
          R.nextBelow(static_cast<uint64_t>(Opcode::Intrinsic) + 1));
      return "opcode " + At() + "=" + opcodeName(I->Op);
    case 1: {
      if (!I)
        return "";
      const int64_t Choices[] = {I->IVal + 1, I->IVal - 1, -1, 0, 99,
                                 static_cast<int64_t>(M->Code.size())};
      I->IVal = Choices[R.nextBelow(6)];
      return "operand " + At() + "=" + std::to_string(I->IVal);
    }
    case 2:
      if (!I)
        return "";
      I->Sym = pick(R, Syms);
      return "sym " + At() + "=" + I->Sym;
    case 3:
      if (!I)
        return "";
      I->Sig = pick(R, Sigs);
      return "sig " + At() + "=" + I->Sig;
    case 4: {
      if (!M)
        return "";
      const uint16_t Choices[] = {
          0, static_cast<uint16_t>(M->NumLocals ? M->NumLocals - 1 : 0),
          static_cast<uint16_t>(M->NumLocals + 1)};
      M->NumLocals = Choices[R.nextBelow(3)];
      return "locals " + ClsName + "." + M->Name + "=" +
             std::to_string(M->NumLocals);
    }
    case 5:
      if (!M)
        return "";
      M->IsStatic = !M->IsStatic;
      return "static-method " + ClsName + "." + M->Name;
    case 6:
      if (!F)
        return "";
      F->IsStatic = !F->IsStatic;
      return "static-field " + ClsName + "." + F->Name;
    case 7:
      if (!F)
        return "";
      F->IsFinal = !F->IsFinal;
      return "final-field " + ClsName + "." + F->Name;
    case 8: {
      Access A = static_cast<Access>(R.nextBelow(3));
      if (M && (!F || R.nextBelow(2))) {
        M->Visibility = A;
        return "access " + ClsName + "." + M->Name + "=" +
               std::to_string(static_cast<int>(A));
      }
      if (!F)
        return "";
      F->Visibility = A;
      return "access " + ClsName + "." + F->Name + "=" +
             std::to_string(static_cast<int>(A));
    }
    case 9: {
      const std::string Choices[] = {pick(R, ClassNames), "Missing", ClsName,
                                     ""};
      Cls->Super = Choices[R.nextBelow(4)];
      return "super " + ClsName + "=" + Cls->Super;
    }
    case 10:
      if (!F)
        return "";
      Cls->Fields.push_back(*F);
      return "dup-field " + ClsName + "." + Cls->Fields.back().Name;
    case 11:
      if (!M)
        return "";
      Cls->Methods.push_back(*M);
      return "dup-method " + ClsName + "." + Cls->Methods.back().Name;
    case 12:
      Set.remove(ClsName);
      return "remove " + ClsName;
    case 13:
      if (!M)
        return "";
      M->Sig = pick(R, MethodSigs);
      return "method-sig " + ClsName + "." + M->Name + "=" + M->Sig;
    case 14: {
      if (!F)
        return "";
      const std::string Choices[] = {"I",         "LObject;",
                                     "[I",        "LString;",
                                     "L" + pick(R, ClassNames) + ";",
                                     "V",         "X",
                                     "[V",        "LMissing;"};
      F->TypeDesc = Choices[R.nextBelow(9)];
      return "field-type " + ClsName + "." + F->Name + "=" + F->TypeDesc;
    }
    default: {
      if (!I)
        return "";
      std::string Where = At();
      size_t Pc = static_cast<size_t>(I - M->Code.data());
      switch (R.nextBelow(3)) {
      case 0:
        M->Code.erase(M->Code.begin() + Pc);
        return "drop " + Where;
      case 1:
        M->Code.insert(M->Code.begin() + Pc, *I);
        return "repeat " + Where;
      default:
        if (Pc + 1 == M->Code.size())
          return "";
        std::swap(M->Code[Pc], M->Code[Pc + 1]);
        return "swap " + Where;
      }
    }
    }
  }

private:
  ClassSet &Set;
  Rng &R;
  std::vector<std::string> ClassNames, Syms, Sigs, MethodSigs;
  /// The class of every body longer than two instructions, once per body.
  std::vector<std::string> BodyOwners;
};

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
    for (const MethodDef &M : Cls.Methods) {
      if (!MethodSignature::isValidSignature(M.Sig))
        continue;
      H = fnv1a(Name + "." + M.Name + M.Sig + "{", H);
      std::vector<std::optional<StackShape>> Shapes =
          computeStackShapes(Set, Cls, M);
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
  std::vector<AppModel> Apps;
  Apps.push_back(makeJettyApp());
  Apps.push_back(makeEmailApp());
  Apps.push_back(makeCrossFtpApp());
  Rng R(0x7e41f1e5);
  std::ostringstream Out;
  for (const AppModel &App : Apps) {
    for (size_t V = 0; V < App.numVersions(); ++V) {
      for (int K = 0; K < MutantsPerVersion; ++K) {
        ClassSet Mutant = App.version(V);
        Mutator Mut(Mutant, R);
        uint64_t Count = 1 + R.nextBelow(3);
        Out << App.name() << "/" << V << "/" << K << ":";
        for (uint64_t I = 0; I < Count; ++I)
          Out << " [" << Mut.mutateOnce() << "]";
        Out << "\n";
        ensureBuiltins(Mutant);
        for (const VerifyError &E : Verifier(Mutant).verifyAll())
          Out << "  ! " << E.str() << "\n";
        Out << "  shapes " << shapeDigest(Mutant) << "\n";
      }
    }
  }
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
