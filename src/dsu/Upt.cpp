#include "dsu/Upt.h"

#include "bytecode/Builtins.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>

using namespace jvolve;

/// The class \p I references, if any, into \p Name: a view of the
/// instruction's own symbol, so nothing is copied. Array allocations name
/// their element's base class ("[[LFoo;" references Foo).
static bool referencedClass(const Instr &I, std::string_view &Name) {
  switch (I.Op) {
  case Opcode::New:
  case Opcode::InstanceOf:
  case Opcode::CheckCast:
    Name = I.Sym;
    return true;
  case Opcode::GetField: case Opcode::PutField:
  case Opcode::GetStatic: case Opcode::PutStatic:
  case Opcode::InvokeVirtual: case Opcode::InvokeStatic:
  case Opcode::InvokeSpecial: {
    size_t Dot = I.Sym.find('.');
    if (Dot == std::string::npos)
      return false;
    Name = std::string_view(I.Sym).substr(0, Dot);
    return true;
  }
  case Opcode::NewArray: {
    if (!Type::isValidDescriptor(I.Sig) || I.Sig == "V")
      return false;
    std::string_view Desc = I.Sig;
    while (Desc.front() == '[')
      Desc.remove_prefix(1);
    if (Desc.front() != 'L')
      return false;
    Name = Desc.substr(1, Desc.size() - 2);
    return true;
  }
  default:
    return false;
  }
}

std::vector<std::string> Upt::referencedClasses(const MethodDef &M) {
  std::set<std::string, std::less<>> Names;
  std::string_view Name;
  for (const Instr &I : M.Code)
    if (referencedClass(I, Name))
      Names.emplace(Name);
  return {Names.begin(), Names.end()};
}

/// True when \p M references a class of \p Classes; stops at the first
/// such reference and allocates nothing.
static bool referencesAny(const MethodDef &M,
                          const std::set<std::string, std::less<>> &Classes) {
  std::string_view Name;
  for (const Instr &I : M.Code)
    if (referencedClass(I, Name) && Classes.count(Name))
      return true;
  return false;
}

bool Upt::classSignatureChanged(const ClassDef &OldCls,
                                const ClassDef &NewCls) {
  if (OldCls.Super != NewCls.Super)
    return true;
  // Field layout: order-sensitive comparison of everything that affects
  // offsets, types, or access rules.
  if (OldCls.Fields.size() != NewCls.Fields.size())
    return true;
  for (size_t I = 0; I < OldCls.Fields.size(); ++I) {
    const FieldDef &A = OldCls.Fields[I];
    const FieldDef &B = NewCls.Fields[I];
    if (A.Name != B.Name || A.TypeDesc != B.TypeDesc ||
        A.IsStatic != B.IsStatic || A.IsFinal != B.IsFinal ||
        A.Visibility != B.Visibility)
      return true;
  }
  // Method set: order-sensitive because TIB slots are assigned in
  // declaration order.
  if (OldCls.Methods.size() != NewCls.Methods.size())
    return true;
  for (size_t I = 0; I < OldCls.Methods.size(); ++I) {
    const MethodDef &A = OldCls.Methods[I];
    const MethodDef &B = NewCls.Methods[I];
    if (A.Name != B.Name || A.Sig != B.Sig || A.IsStatic != B.IsStatic ||
        A.Visibility != B.Visibility)
      return true;
  }
  return false;
}

/// Field-diff counters; a type or static-ness change counts as del+add, a
/// modifier-only change counts separately (it is a class update but does
/// not appear in the add/del columns of the paper's tables).
static void summarizeFieldDiff(const ClassDef &OldCls, const ClassDef &NewCls,
                               UpdateSummary &Sum) {
  for (const FieldDef &NF : NewCls.Fields) {
    const FieldDef *OF = OldCls.findField(NF.Name);
    if (!OF) {
      ++Sum.FieldsAdded;
      continue;
    }
    if (OF->TypeDesc != NF.TypeDesc || OF->IsStatic != NF.IsStatic) {
      ++Sum.FieldsAdded;
      ++Sum.FieldsDeleted;
    } else if (OF->IsFinal != NF.IsFinal ||
               OF->Visibility != NF.Visibility) {
      ++Sum.FieldsModifierChanged;
    }
  }
  for (const FieldDef &OF : OldCls.Fields)
    if (!NewCls.findField(OF.Name))
      ++Sum.FieldsDeleted;
}

/// Method-diff counters. Methods are paired by name; leftovers after
/// matching identical signatures are paired up as signature changes, and
/// the remainder count as additions/deletions.
static void summarizeMethodDiff(const ClassDef &OldCls,
                                const ClassDef &NewCls, UpdateSummary &Sum) {
  std::map<std::string, std::multiset<std::string>> OldByName, NewByName;
  for (const MethodDef &M : OldCls.Methods)
    OldByName[M.Name].insert(M.Sig);
  for (const MethodDef &M : NewCls.Methods)
    NewByName[M.Name].insert(M.Sig);

  std::set<std::string> Names;
  for (const auto &[Name, Sigs] : OldByName)
    Names.insert(Name);
  for (const auto &[Name, Sigs] : NewByName)
    Names.insert(Name);

  for (const std::string &Name : Names) {
    std::multiset<std::string> OldSigs = OldByName[Name];
    std::multiset<std::string> NewSigs = NewByName[Name];
    // Remove exact signature matches.
    for (auto It = OldSigs.begin(); It != OldSigs.end();) {
      auto NIt = NewSigs.find(*It);
      if (NIt != NewSigs.end()) {
        NewSigs.erase(NIt);
        It = OldSigs.erase(It);
      } else {
        ++It;
      }
    }
    size_t Paired = std::min(OldSigs.size(), NewSigs.size());
    Sum.MethodsSigChanged += static_cast<int>(Paired);
    Sum.MethodsDeleted += static_cast<int>(OldSigs.size() - Paired);
    Sum.MethodsAdded += static_cast<int>(NewSigs.size() - Paired);
  }
}

UpdateSpec Upt::computeSpec(const ClassSet &Old, const ClassSet &New,
                            const std::vector<MethodRef> &Blacklist) {
  // Every loop below skips the built-ins, so whether either set holds them
  // does not matter.
  UpdateSpec S;
  S.Blacklist = Blacklist;

  for (const auto &[Name, Cls] : Old.classes()) {
    if (isBuiltinClass(Name))
      continue;
    if (!New.contains(Name)) {
      S.DeletedClasses.push_back(Name);
      ++S.Summary.ClassesDeleted;
    }
  }
  for (const auto &[Name, Cls] : New.classes()) {
    if (isBuiltinClass(Name))
      continue;
    if (!Old.contains(Name)) {
      S.AddedClasses.push_back(Name);
      ++S.Summary.ClassesAdded;
    }
  }

  // Per-class diffs. A class both versions share as one definition is
  // unchanged: there is nothing to compare.
  for (const auto &[Name, NewCls] : New.classes()) {
    if (isBuiltinClass(Name))
      continue;
    const ClassDef *OldCls = Old.find(Name);
    if (!OldCls || OldCls == NewCls.get())
      continue;

    bool SigChanged = classSignatureChanged(*OldCls, *NewCls);
    bool AnyChange = SigChanged;

    for (const MethodDef &M : NewCls->Methods) {
      const MethodDef *OM = OldCls->findMethod(M.Name, M.Sig);
      if (OM && OM->IsStatic == M.IsStatic && !OM->codeEquals(M)) {
        S.MethodBodyUpdates.push_back({Name, M.Name, M.Sig});
        ++S.Summary.MethodsBodyChanged;
        AnyChange = true;
      }
    }

    if (SigChanged)
      S.DirectClassUpdates.push_back(Name);
    if (AnyChange)
      ++S.Summary.ClassesChanged;

    summarizeFieldDiff(*OldCls, *NewCls, S.Summary);
    summarizeMethodDiff(*OldCls, *NewCls, S.Summary);
  }

  // Transitive subclass closure over the *new* hierarchy: an updated parent
  // changes the layout of every descendant.
  std::set<std::string, std::less<>> Updated(S.DirectClassUpdates.begin(),
                                             S.DirectClassUpdates.end());
  bool Grew = !Updated.empty();
  while (Grew) {
    Grew = false;
    for (const auto &[Name, Cls] : New.classes()) {
      if (isBuiltinClass(Name) || Updated.count(Name) ||
          !Old.contains(Name))
        continue;
      if (!Cls->Super.empty() && Updated.count(Cls->Super)) {
        Updated.insert(Name);
        Grew = true;
      }
    }
  }
  S.ClassUpdates.assign(Updated.begin(), Updated.end());

  // Removed methods (restricted): methods of class-updated classes that no
  // longer exist with the same signature, plus every method of every
  // deleted class.
  for (const std::string &Name : S.ClassUpdates) {
    const ClassDef *OldCls = Old.find(Name);
    const ClassDef *NewCls = New.find(Name);
    if (!OldCls || !NewCls)
      continue;
    for (const MethodDef &M : OldCls->Methods)
      if (!NewCls->findMethod(M.Name, M.Sig))
        S.RemovedMethods.push_back({Name, M.Name, M.Sig});
  }
  for (const std::string &Name : S.DeletedClasses) {
    const ClassDef *OldCls = Old.find(Name);
    for (const MethodDef &M : OldCls->Methods)
      S.RemovedMethods.push_back({Name, M.Name, M.Sig});
  }

  // Category (2): unchanged methods whose bytecode references an updated
  // class (their compiled form hard-codes offsets that are about to move).
  // Without an updated class there are none.
  if (Updated.empty())
    return S;
  for (const auto &[Name, NewCls] : New.classes()) {
    if (isBuiltinClass(Name))
      continue;
    const ClassDef *OldCls = Old.find(Name);
    if (!OldCls)
      continue;
    for (const MethodDef &M : NewCls->Methods) {
      if (OldCls != NewCls.get()) {
        const MethodDef *OM = OldCls->findMethod(M.Name, M.Sig);
        if (!OM || OM->IsStatic != M.IsStatic || !OM->codeEquals(M))
          continue; // changed methods are category (1), handled above
      }
      if (referencesAny(M, Updated))
        S.IndirectMethods.push_back({Name, M.Name, M.Sig});
    }
  }

  return S;
}

UpdateBundle Upt::prepare(const ClassSet &Old, const ClassSet &New,
                          const std::string &VersionTag,
                          const std::vector<MethodRef> &Blacklist) {
  UpdateBundle B;
  B.NewProgram = New;
  ensureBuiltins(B.NewProgram);
  B.Spec = computeSpec(Old, New, Blacklist);
  B.VersionTag = VersionTag;
  // Default transformers are implicit: the transformer runner applies the
  // copy-matching-members default for every updated class that has no
  // entry in the maps. Developers override per class, as with the
  // generated JvolveTransformers.java file.
  return B;
}
