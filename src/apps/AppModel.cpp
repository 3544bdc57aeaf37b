#include "apps/AppModel.h"

#include "bytecode/Builder.h"
#include "bytecode/Builtins.h"
#include "dsu/Upt.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace jvolve;

bool jvolve::summaryMatches(const UpdateSummary &S, const ChangeCounts &T) {
  return S.ClassesAdded == T.ClsAdd && S.ClassesDeleted == T.ClsDel &&
         S.ClassesChanged == T.ClsChanged && S.MethodsAdded == T.MAdd &&
         S.MethodsDeleted == T.MDel && S.MethodsBodyChanged == T.MBody &&
         S.MethodsSigChanged == T.MSig && S.FieldsAdded == T.FAdd &&
         S.FieldsDeleted == T.FDel;
}

std::string jvolve::describeCounts(const ChangeCounts &C) {
  return "cls +" + std::to_string(C.ClsAdd) + " -" +
         std::to_string(C.ClsDel) + " ~" + std::to_string(C.ClsChanged) +
         "  m +" + std::to_string(C.MAdd) + " -" + std::to_string(C.MDel) +
         " " + std::to_string(C.MBody) + "/" + std::to_string(C.MSig) +
         "  f +" + std::to_string(C.FAdd) + " -" + std::to_string(C.FDel);
}

std::string jvolve::describeSummary(const UpdateSummary &S) {
  ChangeCounts C;
  C.ClsAdd = S.ClassesAdded;
  C.ClsDel = S.ClassesDeleted;
  C.ClsChanged = S.ClassesChanged;
  C.MAdd = S.MethodsAdded;
  C.MDel = S.MethodsDeleted;
  C.MBody = S.MethodsBodyChanged;
  C.MSig = S.MethodsSigChanged;
  C.FAdd = S.FieldsAdded;
  C.FDel = S.FieldsDeleted;
  return describeCounts(C);
}

ClassDef AppModel::makeFillerClass(const std::string &Name, int NumFields,
                                   int NumMethods) {
  ClassBuilder CB(Name);
  for (int I = 0; I < NumFields; ++I)
    CB.field("f" + std::to_string(I), "I");
  for (int I = 0; I < NumMethods; ++I)
    CB.method("m" + std::to_string(I), "()I").iconst(I).iret();
  return CB.build();
}

AppModel::AppModel(std::string AppName, ClassSet Base,
                   std::vector<Release> Releases, std::string FillerPrefix)
    : AppName(std::move(AppName)), Base(std::move(Base)),
      Releases(std::move(Releases)), FillerPrefix(std::move(FillerPrefix)) {
  generate();
}

std::string AppModel::versionName(size_t I) const {
  if (I == 0)
    return AppName + "-base";
  return AppName + "-" + Releases.at(I - 1).Name;
}

namespace {

/// Builds a fresh trivial method "Name()I { return Value; }".
MethodDef trivialMethod(const std::string &Name, int64_t Value) {
  MethodBuilder MB(Name, "()I", /*IsStatic=*/false);
  MB.iconst(Value).iret();
  return MB.build();
}

/// Bumps the first integer constant in \p M (a body change).
bool bumpBodyConstant(MethodDef &M) {
  for (Instr &I : M.Code)
    if (I.Op == Opcode::IConst) {
      ++I.IVal;
      return true;
    }
  return false;
}

/// Toggles a method's signature between ()I and (I)I, keeping the body.
void toggleSignature(MethodDef &M) {
  M.Sig = M.Sig == "()I" ? "(I)I" : "()I";
  M.NumLocals = std::max<uint16_t>(M.NumLocals, M.numParamSlots());
}

} // namespace

void AppModel::applyFiller(const ClassSet &Prev, ClassSet &Cur,
                           const ChangeCounts &Target, size_t ReleaseIndex) {
  UpdateSummary Scripted = Upt::computeSpec(Prev, Cur).Summary;

  ChangeCounts R; // remaining filler budget
  R.ClsAdd = Target.ClsAdd - Scripted.ClassesAdded;
  R.ClsDel = Target.ClsDel - Scripted.ClassesDeleted;
  R.ClsChanged = Target.ClsChanged - Scripted.ClassesChanged;
  R.MAdd = Target.MAdd - Scripted.MethodsAdded;
  R.MDel = Target.MDel - Scripted.MethodsDeleted;
  R.MBody = Target.MBody - Scripted.MethodsBodyChanged;
  R.MSig = Target.MSig - Scripted.MethodsSigChanged;
  R.FAdd = Target.FAdd - Scripted.FieldsAdded;
  R.FDel = Target.FDel - Scripted.FieldsDeleted;
  if (R.ClsAdd < 0 || R.ClsDel < 0 || R.ClsChanged < 0 || R.MAdd < 0 ||
      R.MDel < 0 || R.MBody < 0 || R.MSig < 0 || R.FAdd < 0 || R.FDel < 0)
    fatalError(AppName + " release " + std::to_string(ReleaseIndex) +
               ": scripted changes exceed the table row (" +
               describeSummary(Scripted) + " vs " + describeCounts(Target) +
               ")");

  // Identify untouched filler classes available for mutation or deletion.
  std::set<std::string> TouchedByScripted;
  {
    UpdateSpec S = Upt::computeSpec(Prev, Cur);
    for (const std::string &C : S.DirectClassUpdates)
      TouchedByScripted.insert(C);
    for (const MethodRef &M : S.MethodBodyUpdates)
      TouchedByScripted.insert(M.ClassName);
  }
  std::vector<std::string> Pool;
  for (const auto &[Name, Def] : Cur.classes())
    if (Name.rfind(FillerPrefix, 0) == 0 && !TouchedByScripted.count(Name))
      Pool.push_back(Name);
  std::sort(Pool.begin(), Pool.end());

  // Deletions first, from the end of the pool (never the classes we are
  // about to mutate).
  for (int I = 0; I < R.ClsDel; ++I) {
    if (Pool.empty())
      fatalError(AppName + ": filler pool exhausted for deletions");
    Cur.remove(Pool.back());
    Pool.pop_back();
  }

  // Pick the classes that will carry this release's filler mutations,
  // rotating through the pool so successive releases touch different
  // classes.
  if (static_cast<int>(Pool.size()) < R.ClsChanged)
    fatalError(AppName + ": filler pool too small (" +
               std::to_string(Pool.size()) + " < " +
               std::to_string(R.ClsChanged) + " changed classes needed)");
  std::vector<ClassDef *> Mutants;
  size_t Start = (ReleaseIndex * 7) % std::max<size_t>(Pool.size(), 1);
  for (int I = 0; I < R.ClsChanged; ++I)
    Mutants.push_back(Cur.find(Pool[(Start + I) % Pool.size()]));

  // Distribute the unit operations round-robin over the mutant classes.
  enum class OpKind { FAdd, FDel, MAdd, MDel, MBody, MSig };
  std::vector<OpKind> Ops;
  for (int I = 0; I < R.MBody; ++I)
    Ops.push_back(OpKind::MBody);
  for (int I = 0; I < R.MSig; ++I)
    Ops.push_back(OpKind::MSig);
  for (int I = 0; I < R.MAdd; ++I)
    Ops.push_back(OpKind::MAdd);
  for (int I = 0; I < R.MDel; ++I)
    Ops.push_back(OpKind::MDel);
  for (int I = 0; I < R.FAdd; ++I)
    Ops.push_back(OpKind::FAdd);
  for (int I = 0; I < R.FDel; ++I)
    Ops.push_back(OpKind::FDel);
  if (!Mutants.empty() && Ops.size() < Mutants.size())
    fatalError(AppName + ": not enough member changes (" +
               std::to_string(Ops.size()) + ") to touch " +
               std::to_string(Mutants.size()) + " classes");
  if (Mutants.empty() && !Ops.empty())
    fatalError(AppName + ": member changes requested but no class may "
                         "change");

  // Track members touched this release so operations never overlap: a
  // method added and then deleted (or changed) in the same release would
  // collapse into fewer counted changes than the table requires.
  std::set<std::string> TouchedMethods; ///< "Class.name" added/changed
  std::set<std::string> AddedFields;    ///< "Class.name" added this release
  for (size_t I = 0; I < Ops.size(); ++I) {
    ClassDef &Cls = *Mutants[I % Mutants.size()];
    switch (Ops[I]) {
    case OpKind::FAdd: {
      std::string Name = "xf" + std::to_string(UniqueCounter++);
      AddedFields.insert(Cls.Name + "." + Name);
      Cls.Fields.push_back({Name, "I", false, false, Access::Public});
      break;
    }
    case OpKind::FDel: {
      bool Done = false;
      for (auto It = Cls.Fields.rbegin(); It != Cls.Fields.rend(); ++It) {
        if (AddedFields.count(Cls.Name + "." + It->Name))
          continue; // never delete a field added this release
        Cls.Fields.erase(std::next(It).base());
        Done = true;
        break;
      }
      if (!Done)
        fatalError(AppName + ": no field left to delete in " + Cls.Name);
      break;
    }
    case OpKind::MAdd: {
      std::string Name = "xm" + std::to_string(UniqueCounter++);
      TouchedMethods.insert(Cls.Name + "." + Name);
      Cls.Methods.push_back(trivialMethod(Name, 1));
      break;
    }
    case OpKind::MDel: {
      bool Done = false;
      for (auto It = Cls.Methods.rbegin(); It != Cls.Methods.rend(); ++It) {
        if (TouchedMethods.count(Cls.Name + "." + It->Name))
          continue; // never delete a method added/changed this release
        Cls.Methods.erase(std::next(It).base());
        Done = true;
        break;
      }
      if (!Done)
        fatalError(AppName + ": no method left to delete in " + Cls.Name);
      break;
    }
    case OpKind::MBody: {
      bool Done = false;
      for (MethodDef &M : Cls.Methods) {
        if (TouchedMethods.count(Cls.Name + "." + M.Name))
          continue;
        if (bumpBodyConstant(M)) {
          TouchedMethods.insert(Cls.Name + "." + M.Name);
          Done = true;
          break;
        }
      }
      if (!Done)
        fatalError(AppName + ": no method available for a body change in " +
                   Cls.Name);
      break;
    }
    case OpKind::MSig: {
      bool Done = false;
      for (MethodDef &M : Cls.Methods) {
        if (TouchedMethods.count(Cls.Name + "." + M.Name))
          continue;
        if (M.Sig != "()I" && M.Sig != "(I)I")
          continue;
        toggleSignature(M);
        TouchedMethods.insert(Cls.Name + "." + M.Name);
        Done = true;
        break;
      }
      if (!Done)
        fatalError(AppName + ": no method available for a sig change in " +
                   Cls.Name);
      break;
    }
    }
  }

  // Class additions last (added classes never count as changed).
  for (int I = 0; I < R.ClsAdd; ++I)
    Cur.add(makeFillerClass(FillerPrefix + "N" +
                                std::to_string(UniqueCounter++),
                            4, 6));
}

void AppModel::generate() {
  Versions.push_back(Base);
  for (size_t RI = 0; RI < Releases.size(); ++RI) {
    const Release &Rel = Releases[RI];
    ClassSet Cur = Versions.back();
    if (Rel.Scripted)
      Rel.Scripted(Cur);
    applyFiller(Versions.back(), Cur, Rel.Target, RI);

    // Generation invariant: the UPT summary matches the table row exactly.
    UpdateSummary Got = Upt::computeSpec(Versions.back(), Cur).Summary;
    if (!summaryMatches(Got, Rel.Target))
      fatalError(AppName + " " + Rel.Name + ": generated diff (" +
                 describeSummary(Got) + ") does not match the table row (" +
                 describeCounts(Rel.Target) + ")");
    Versions.push_back(std::move(Cur));
  }
}
