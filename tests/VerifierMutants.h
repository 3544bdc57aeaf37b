//===----------------------------------------------------------------------===//
///
/// \file
/// The seeded mutation corpus the verifier tests share: every version of
/// the three modeled apps mutated 20 times, 1-3 mutations each — opcodes,
/// operands, member references, descriptors, local counts,
/// static/visibility/final flags, superclasses, duplicate fields and
/// methods, removed classes, method signatures, and dropped, repeated or
/// swapped instructions. VerifierCorpus pins verifyAll's output on it
/// (tests/golden/verifier_mutants.txt); VerifierReuse checks that
/// verification against the base version's record reports the same.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_TESTS_VERIFIERMUTANTS_H
#define JVOLVE_TESTS_VERIFIERMUTANTS_H

#include "apps/CrossFtpApp.h"
#include "apps/EmailApp.h"
#include "apps/JettyApp.h"
#include "bytecode/Builtins.h"
#include "support/Rng.h"

#include <set>
#include <string>
#include <vector>

namespace jvolve {

inline constexpr int MutantsPerVersion = 20;

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
      for (const FieldDef &F : Cls->Fields)
        SigSet.insert(F.TypeDesc);
      for (const MethodDef &M : Cls->Methods) {
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

/// One mutant: version \p Version of \p App after \p Mutations (one
/// "[...]" per mutation), with the built-ins added.
struct Mutant {
  const AppModel *App;
  size_t Version;
  int Index;
  std::string Mutations;
  ClassSet Program;
};

/// The three modeled apps, in corpus order.
inline const std::vector<AppModel> &corpusApps() {
  static const std::vector<AppModel> Apps = [] {
    std::vector<AppModel> Out;
    Out.push_back(makeJettyApp());
    Out.push_back(makeEmailApp());
    Out.push_back(makeCrossFtpApp());
    return Out;
  }();
  return Apps;
}

/// Calls \p Fn on every mutant of \p Apps, in corpus order, drawn from one
/// fixed seed.
template <typename Fn>
void forEachMutant(const std::vector<AppModel> &Apps, Fn &&F) {
  Rng R(0x7e41f1e5);
  for (const AppModel &App : Apps) {
    for (size_t V = 0; V < App.numVersions(); ++V) {
      for (int K = 0; K < MutantsPerVersion; ++K) {
        Mutant M{&App, V, K, "", App.version(V)};
        Mutator Mut(M.Program, R);
        uint64_t Count = 1 + R.nextBelow(3);
        for (uint64_t I = 0; I < Count; ++I)
          M.Mutations += " [" + Mut.mutateOnce() + "]";
        ensureBuiltins(M.Program);
        F(static_cast<const Mutant &>(M));
      }
    }
  }
}

} // namespace jvolve

#endif // JVOLVE_TESTS_VERIFIERMUTANTS_H
