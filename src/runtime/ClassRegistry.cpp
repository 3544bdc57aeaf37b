#include "runtime/ClassRegistry.h"

#include "bytecode/Builtins.h"
#include "runtime/ObjectModel.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace jvolve;

const RtField *RtClass::findInstanceField(std::string_view Name) const {
  // Instance fields include inherited ones; later (more-derived) entries
  // never shadow earlier ones (the verifier rejects shadowing), so a linear
  // scan is unambiguous.
  for (const RtField &F : InstanceFields)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

RtField *RtClass::findStaticField(std::string_view Name) {
  for (RtField &F : StaticFields)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

const RtField *RtClass::findStaticField(std::string_view Name) const {
  for (const RtField &F : StaticFields)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

ClassId ClassRegistry::idOf(const std::string &Name) const {
  auto It = ByName.find(Name);
  return It == ByName.end() ? InvalidClassId : It->second;
}

RtMethod &ClassRegistry::method(MethodId Id) {
  assert(Id < Methods.size() && "invalid method id");
  return *Methods[Id];
}

const RtMethod &ClassRegistry::method(MethodId Id) const {
  assert(Id < Methods.size() && "invalid method id");
  return *Methods[Id];
}

ClassId ClassRegistry::loadClass(const ClassSet::DefPtr &Def,
                                 const ClassSet &Context) {
  std::vector<std::string> Loading;
  return loadClassImpl(Def, Context, Loading);
}

ClassId ClassRegistry::loadClassImpl(const ClassSet::DefPtr &DefPtr,
                                     const ClassSet &Context,
                                     std::vector<std::string> &Loading) {
  const ClassDef &Def = *DefPtr;
  if (ByName.count(Def.Name))
    fatalError("class '" + Def.Name + "' is already loaded");
  for (const std::string &Name : Loading)
    if (Name == Def.Name)
      fatalError("superclass cycle while loading '" + Def.Name + "'");
  Loading.push_back(Def.Name);

  // Ensure the superclass is loaded first.
  ClassId SuperId = InvalidClassId;
  if (!Def.Super.empty()) {
    SuperId = idOf(Def.Super);
    if (SuperId == InvalidClassId) {
      const ClassSet::DefPtr *SuperDef = Context.shared(Def.Super);
      if (!SuperDef)
        fatalError("superclass '" + Def.Super + "' of '" + Def.Name +
                   "' not found");
      SuperId = loadClassImpl(*SuperDef, Context, Loading);
    }
  }

  auto Cls = std::make_unique<RtClass>();
  ClassId Id = static_cast<ClassId>(Classes.size());
  Cls->Id = Id;
  Cls->Name = Def.Name;
  Cls->Super = SuperId;

  // Instance field layout: superclass fields first (same offsets as in the
  // superclass, so compiled superclass code works on subclass instances),
  // then this class's fields.
  // The table is allocated once, at its final size: it lives as long as
  // the class, and an update's growth steps would leave freed fragments
  // among the collection's transient blocks.
  uint32_t NextOffset = static_cast<uint32_t>(ObjectHeaderBytes);
  const RtClass *Super = SuperId != InvalidClassId ? &cls(SuperId) : nullptr;
  Cls->InstanceFields.reserve(
      (Super ? Super->InstanceFields.size() : 0) + Def.Fields.size());
  if (Super) {
    Cls->InstanceFields.assign(Super->InstanceFields.begin(),
                               Super->InstanceFields.end());
    NextOffset = Super->InstanceSize;
    Cls->VTable = Super->VTable;
    Cls->VTableIndex = Super->VTableIndex;
  }
  for (const FieldDef &F : Def.Fields) {
    if (F.IsStatic) {
      RtField S;
      S.Name = F.Name;
      S.Ty = F.type();
      S.Offset = static_cast<uint32_t>(Cls->Statics.size());
      S.IsRef = S.Ty.isReferenceLike();
      S.IsFinal = F.IsFinal;
      S.Visibility = F.Visibility;
      S.Declaring = Def.Name;
      Cls->StaticFields.push_back(S);
      Slot Init;
      Init.IsRef = S.IsRef;
      Cls->Statics.push_back(Init);
      continue;
    }
    RtField I;
    I.Name = F.Name;
    I.Ty = F.type();
    I.Offset = NextOffset;
    NextOffset += SlotBytes;
    I.IsRef = I.Ty.isReferenceLike();
    I.IsFinal = F.IsFinal;
    I.Visibility = F.Visibility;
    I.Declaring = Def.Name;
    Cls->InstanceFields.push_back(I);
  }
  Cls->InstanceSize = NextOffset;
  for (const RtField &F : Cls->StaticFields)
    if (F.IsRef) {
      StaticRootOwners.push_back(Id);
      break;
    }
  for (const RtField &F : Cls->InstanceFields)
    if (F.IsRef)
      Cls->RefOffsets.push_back(F.Offset);

  // Methods and the TIB.
  for (const MethodDef &M : Def.Methods) {
    auto RtM = std::make_unique<RtMethod>();
    MethodId MId = static_cast<MethodId>(Methods.size());
    RtM->Id = MId;
    RtM->Owner = Id;
    RtM->Name = M.Name;
    RtM->Sig = M.Sig;
    RtM->IsStatic = M.IsStatic;
    RtM->Visibility = M.Visibility;
    RtM->Def = std::shared_ptr<const MethodDef>(DefPtr, &M);
    Methods.push_back(std::move(RtM));
    if (Log.Recording)
      Log.add(UndoLog::Kind::AppendMethod, MId);
    Cls->Methods.push_back(MId);

    if (!M.IsStatic) {
      std::string Key = M.Name + M.Sig;
      auto It = Cls->VTableIndex.find(Key);
      if (It != Cls->VTableIndex.end()) {
        Cls->VTable[static_cast<size_t>(It->second)] = MId; // override
      } else {
        Cls->VTableIndex[Key] = static_cast<int>(Cls->VTable.size());
        Cls->VTable.push_back(MId);
      }
    }
  }

  logBinding(Def.Name);
  ByName[Def.Name] = Id;
  Classes.push_back(std::move(Cls));
  if (Log.Recording)
    Log.add(UndoLog::Kind::AppendClass, Id);
  Loading.pop_back();
  return Id;
}

void ClassRegistry::loadAll(const ClassSet &Set) {
  for (const auto &[Name, Def] : Set.classes())
    if (idOf(Name) == InvalidClassId)
      loadClass(Def, Set);
}

ClassId ClassRegistry::arrayClassOf(const Type &Elem) {
  std::string Name = "[" + Elem.descriptor();
  ClassId Existing = idOf(Name);
  if (Existing != InvalidClassId)
    return Existing;

  auto Cls = std::make_unique<RtClass>();
  ClassId Id = static_cast<ClassId>(Classes.size());
  Cls->Id = Id;
  Cls->Name = Name;
  Cls->Super = idOf(ObjectClassName); // may be Invalid before builtins load
  Cls->IsArray = true;
  Cls->ElemTy = Elem;
  Cls->ElemIsRef = Elem.isReferenceLike();
  Cls->InstanceSize = static_cast<uint32_t>(ArrayElemsOffset);
  logBinding(Name);
  ByName[Name] = Id;
  Classes.push_back(std::move(Cls));
  if (Log.Recording)
    Log.add(UndoLog::Kind::AppendClass, Id);
  return Id;
}

MethodId ClassRegistry::resolveMethod(ClassId Cls0, const std::string &Name,
                                      const std::string &Sig) const {
  ClassId Cur = Cls0;
  while (Cur != InvalidClassId) {
    const RtClass &C = cls(Cur);
    for (MethodId MId : C.Methods) {
      const RtMethod &M = method(MId);
      if (M.Name == Name && M.Sig == Sig)
        return MId;
    }
    Cur = C.Super;
  }
  return InvalidMethodId;
}

const RtField *
ClassRegistry::resolveInstanceField(ClassId Cls0,
                                    const std::string &Name) const {
  return cls(Cls0).findInstanceField(Name);
}

RtField *ClassRegistry::resolveStaticField(ClassId Cls0,
                                           std::string_view Name,
                                           ClassId *DeclaringOut) {
  ClassId Cur = Cls0;
  while (Cur != InvalidClassId) {
    RtClass &C = cls(Cur);
    if (RtField *F = C.findStaticField(Name)) {
      if (DeclaringOut)
        *DeclaringOut = Cur;
      return F;
    }
    Cur = C.Super;
  }
  return nullptr;
}

bool ClassRegistry::isSubclassOf(ClassId Sub, ClassId Super) const {
  ClassId Cur = Sub;
  while (Cur != InvalidClassId) {
    if (Cur == Super)
      return true;
    Cur = cls(Cur).Super;
  }
  return false;
}

void ClassRegistry::logBinding(const std::string &Name) {
  if (!Log.Recording)
    return;
  auto It = ByName.find(Name);
  bool Bound = It != ByName.end();
  UndoLog::Entry &E =
      Log.add(UndoLog::Kind::Binding, Bound ? It->second : InvalidClassId);
  E.Flag = Bound;
  E.Name = Name;
}

void ClassRegistry::logMethod(MethodId Id) {
  if (!Log.Recording)
    return;
  const RtMethod &M = method(Id);
  UndoLog::Entry &E = Log.add(UndoLog::Kind::Method, Id);
  E.Flag = M.Obsolete;
  E.Count = M.InvokeCount;
  E.Def = M.Def;
  E.Code = M.Code;
}

void ClassRegistry::renameClassForUpdate(ClassId Id,
                                         const std::string &NewName) {
  RtClass &C = cls(Id);
  if (ByName.count(NewName))
    fatalError("rename target '" + NewName + "' already exists");
  auto It = ByName.find(C.Name);
  assert(It != ByName.end() && "class missing from name map");
  // Only unbind the original name if it still points at this class (a chain
  // of updates may have rebound it already).
  if (It->second == Id) {
    logBinding(C.Name);
    ByName.erase(It);
  }
  if (Log.Recording) {
    UndoLog::Entry &E = Log.add(UndoLog::Kind::Class, Id);
    E.Flag = C.Obsolete;
    E.Name = C.Name;
  }
  C.Name = NewName;
  C.Obsolete = true;
  logBinding(NewName);
  ByName[NewName] = Id;
  for (MethodId MId : C.Methods) {
    logMethod(MId);
    RtMethod &M = method(MId);
    M.Obsolete = true;
    M.Code = nullptr;
  }
}

void ClassRegistry::setMethodBody(MethodId Id,
                                  std::shared_ptr<const MethodDef> NewBody) {
  logMethod(Id);
  RtMethod &M = method(Id);
  assert(M.Name == NewBody->Name && M.Sig == NewBody->Sig &&
         "method-body update must preserve the signature");
  M.Def = std::move(NewBody);
  M.Code = nullptr;
  M.InvokeCount = 0; // the paper lets the adaptive system re-profile
}

void ClassRegistry::setCode(MethodId Id, std::shared_ptr<CompiledMethod> Code) {
  logMethod(Id);
  method(Id).Code = std::move(Code);
}

void ClassRegistry::setMethodState(MethodId Id,
                                   std::shared_ptr<const MethodDef> Def,
                                   std::shared_ptr<CompiledMethod> Code,
                                   uint64_t InvokeCount) {
  logMethod(Id);
  RtMethod &M = method(Id);
  M.Def = std::move(Def);
  M.Code = std::move(Code);
  M.InvokeCount = InvokeCount;
}

void ClassRegistry::logStatic(ClassId Id, uint32_t Index) {
  // A class appended since the log began goes away whole on rollback.
  if (!Log.Recording || Id >= Log.ClassesBefore)
    return;
  UndoLog::Entry &E = Log.add(UndoLog::Kind::Static, Id);
  E.Index = Index;
  E.Value = cls(Id).Statics[Index];
}

void ClassRegistry::setStatic(ClassId Id, uint32_t Index, Slot Value) {
  logStatic(Id, Index);
  if (Value.IsRef) {
    auto It = std::lower_bound(StaticRootOwners.begin(),
                               StaticRootOwners.end(), Id);
    if (It == StaticRootOwners.end() || *It != Id)
      StaticRootOwners.insert(It, Id);
  }
  cls(Id).Statics[Index] = Value;
}

void ClassRegistry::dropObsoleteStatics(ClassId Id) {
  std::vector<Slot> &Statics = cls(Id).Statics;
  for (uint32_t I = 0; I < Statics.size(); ++I)
    if (Statics[I].IsRef && Statics[I].RefVal) {
      logStatic(Id, I);
      Statics[I].RefVal = nullptr;
    }
}

void ClassRegistry::visitStaticRoots(
    const std::function<void(Ref &)> &Visit) {
  for (ClassId Id : StaticRootOwners) {
    std::vector<Slot> &Statics = Classes[Id]->Statics;
    for (uint32_t I = 0; I < Statics.size(); ++I) {
      if (!Statics[I].IsRef || !Statics[I].RefVal)
        continue;
      // The DSU collection forwards every root it visits: record the
      // from-space value a rollback must put back.
      logStatic(Id, I);
      Visit(Statics[I].RefVal);
    }
  }
}

void ClassRegistry::beginUpdateLog() {
  Log.Entries.clear();
  Log.Recording = true;
  Log.ClassesBefore = Classes.size();
  Log.MethodsBefore = Methods.size();
}

void ClassRegistry::closeUpdateLog() { Log.Recording = false; }

void ClassRegistry::rollbackUpdateLog() {
  Log.Recording = false;
  using Kind = UndoLog::Kind;
  for (auto It = Log.Entries.rbegin(); It != Log.Entries.rend(); ++It) {
    UndoLog::Entry &E = *It;
    switch (E.K) {
    case Kind::AppendClass:
      assert(E.Id + 1 == Classes.size() && "classes appended out of order");
      Classes.pop_back();
      if (!StaticRootOwners.empty() && StaticRootOwners.back() == E.Id)
        StaticRootOwners.pop_back();
      break;
    case Kind::AppendMethod:
      assert(E.Id + 1 == Methods.size() && "methods appended out of order");
      Methods.pop_back();
      break;
    case Kind::Binding:
      if (E.Flag)
        ByName[E.Name] = E.Id;
      else
        ByName.erase(E.Name);
      break;
    case Kind::Class: {
      RtClass &C = cls(E.Id);
      C.Name = std::move(E.Name);
      C.Obsolete = E.Flag;
      break;
    }
    case Kind::Method: {
      RtMethod &M = method(E.Id);
      M.Def = std::move(E.Def);
      M.Code = std::move(E.Code);
      M.InvokeCount = E.Count;
      M.Obsolete = E.Flag;
      break;
    }
    case Kind::Static:
      cls(E.Id).Statics[E.Index] = E.Value;
      break;
    }
  }
  Log.Entries.clear();
  assert(Classes.size() == Log.ClassesBefore &&
         Methods.size() == Log.MethodsBefore &&
         "rollback left appended entries behind");
}

void ClassRegistry::checkName(const std::string &Name, ClassId Id,
                              std::vector<std::string> &Problems) const {
  if (Id >= Classes.size())
    Problems.push_back("name '" + Name + "' maps to out-of-range class id");
  else if (Classes[Id]->Name != Name)
    Problems.push_back("name '" + Name + "' maps to class named '" +
                       Classes[Id]->Name + "'");
}

void ClassRegistry::checkClass(size_t I,
                               std::vector<std::string> &Problems) const {
  auto Bad = [&](std::string Msg) { Problems.push_back(std::move(Msg)); };
  const RtClass &C = *Classes[I];
  if (C.Id != static_cast<ClassId>(I))
    Bad("class '" + C.Name + "' has id " + std::to_string(C.Id) +
        " but sits at index " + std::to_string(I));
  auto It = ByName.find(C.Name);
  if (It == ByName.end() || It->second != C.Id)
    Bad("class '" + C.Name + "' is not bound to its name");
  if (C.Super != InvalidClassId && C.Super >= Classes.size())
    Bad("class '" + C.Name + "' has out-of-range superclass id");
  // Superclass chains must terminate (no cycles).
  ClassId Cur = C.Super;
  size_t Steps = 0;
  while (Cur != InvalidClassId && Cur < Classes.size()) {
    if (++Steps > Classes.size()) {
      Bad("superclass cycle reachable from '" + C.Name + "'");
      break;
    }
    Cur = Classes[Cur]->Super;
  }
  for (MethodId MId : C.VTable)
    if (MId >= Methods.size())
      Bad("class '" + C.Name + "' has an out-of-range TIB entry");
  for (MethodId MId : C.Methods) {
    if (MId >= Methods.size()) {
      Bad("class '" + C.Name + "' declares an out-of-range method id");
      continue;
    }
    if (Methods[MId]->Owner != C.Id)
      Bad("method '" + Methods[MId]->qualifiedName() + "' is declared by '" +
          C.Name + "' but owned by another class");
    if (C.Obsolete && !Methods[MId]->Obsolete)
      Bad("obsolete class '" + C.Name + "' has non-obsolete method '" +
          Methods[MId]->qualifiedName() + "'");
  }
  for (const RtField &F : C.StaticFields)
    if (F.Offset >= C.Statics.size())
      Bad("static field '" + C.Name + "." + F.Name +
          "' points past the statics table");
}

void ClassRegistry::checkMethod(size_t I,
                                std::vector<std::string> &Problems) const {
  const RtMethod &M = *Methods[I];
  if (M.Id != static_cast<MethodId>(I))
    Problems.push_back("method '" + M.qualifiedName() + "' has id " +
                       std::to_string(M.Id) + " but sits at index " +
                       std::to_string(I));
  if (M.Owner >= Classes.size())
    Problems.push_back("method '" + M.qualifiedName() +
                       "' has an out-of-range owner");
  if (!M.Def)
    Problems.push_back("method '" + M.qualifiedName() + "' has no bytecode");
}

std::vector<std::string> ClassRegistry::checkConsistency() const {
  std::vector<std::string> Problems;
  for (const auto &[Name, Id] : ByName)
    checkName(Name, Id, Problems);
  for (size_t I = 0; I < Classes.size(); ++I)
    checkClass(I, Problems);
  for (size_t I = 0; I < Methods.size(); ++I)
    checkMethod(I, Problems);
  return Problems;
}

std::vector<std::string> ClassRegistry::checkLoggedConsistency() const {
  using Kind = UndoLog::Kind;
  std::vector<std::string> Problems;
  size_t ClassesAppended = 0, MethodsAppended = 0;
  // One pass over the log, checking each entry's class, method or name as
  // it is now. An entry written twice is checked twice; its reports are
  // deduplicated below.
  for (const UndoLog::Entry &E : Log.Entries) {
    switch (E.K) {
    case Kind::AppendClass:
      ++ClassesAppended;
      [[fallthrough]];
    case Kind::Class:
      if (E.Id < Classes.size())
        checkClass(E.Id, Problems);
      break;
    case Kind::AppendMethod:
      ++MethodsAppended;
      [[fallthrough]];
    case Kind::Method:
      if (E.Id < Methods.size())
        checkMethod(E.Id, Problems);
      break;
    case Kind::Binding:
      if (auto It = ByName.find(E.Name); It != ByName.end())
        checkName(E.Name, It->second, Problems);
      break;
    case Kind::Static:
      break; // a value write leaves the structure as it was
    }
  }
  // Names are unique and every checked class is bound to its own, so a
  // name map larger than the class table holds a binding no class owns.
  if (ByName.size() != Classes.size())
    Problems.push_back("name map holds " + std::to_string(ByName.size()) +
                       " bindings for " + std::to_string(Classes.size()) +
                       " classes");
  if (Classes.size() != Log.ClassesBefore + ClassesAppended ||
      Methods.size() != Log.MethodsBefore + MethodsAppended)
    Problems.push_back(
        "tables hold " + std::to_string(Classes.size()) + " classes and " +
        std::to_string(Methods.size()) + " methods; the log accounts for " +
        std::to_string(Log.ClassesBefore + ClassesAppended) + " and " +
        std::to_string(Log.MethodsBefore + MethodsAppended));
  std::sort(Problems.begin(), Problems.end());
  Problems.erase(std::unique(Problems.begin(), Problems.end()),
                 Problems.end());
  return Problems;
}

ClassRegistry::Fingerprint ClassRegistry::fingerprint() const {
  Fingerprint F;
  F.Classes.reserve(Classes.size());
  for (const auto &C : Classes)
    F.Classes.push_back({C->Name, C->Obsolete, C->Super, C->Statics});
  F.Methods.reserve(Methods.size());
  for (const auto &M : Methods)
    F.Methods.push_back({M->Def, M->Code, M->Obsolete, M->InvokeCount});
  return F;
}

std::vector<std::string>
ClassRegistry::fingerprintDiff(const Fingerprint &Before) const {
  std::vector<std::string> Diff;
  if (Before.Classes.size() != Classes.size())
    Diff.push_back("class count " + std::to_string(Before.Classes.size()) +
                   " -> " + std::to_string(Classes.size()));
  if (Before.Methods.size() != Methods.size())
    Diff.push_back("method count " + std::to_string(Before.Methods.size()) +
                   " -> " + std::to_string(Methods.size()));
  size_t NumClasses = std::min(Before.Classes.size(), Classes.size());
  for (size_t I = 0; I < NumClasses; ++I) {
    const Fingerprint::ClassPrint &P = Before.Classes[I];
    const RtClass &C = *Classes[I];
    std::string Where = "class '" + P.Name + "' (id " + std::to_string(I) + ")";
    if (C.Name != P.Name)
      Diff.push_back(Where + " renamed to '" + C.Name + "'");
    if (C.Obsolete != P.Obsolete)
      Diff.push_back(Where + " obsolete bit changed");
    if (C.Super != P.Super)
      Diff.push_back(Where + " superclass changed");
    bool StaticsSame = C.Statics.size() == P.Statics.size();
    for (size_t S = 0; StaticsSame && S < P.Statics.size(); ++S)
      StaticsSame = C.Statics[S].IsRef == P.Statics[S].IsRef &&
                    C.Statics[S].IntVal == P.Statics[S].IntVal &&
                    C.Statics[S].RefVal == P.Statics[S].RefVal;
    if (!StaticsSame)
      Diff.push_back(Where + " static values changed");
  }
  size_t NumMethods = std::min(Before.Methods.size(), Methods.size());
  for (size_t I = 0; I < NumMethods; ++I) {
    const Fingerprint::MethodPrint &P = Before.Methods[I];
    const RtMethod &M = *Methods[I];
    std::string Where = "method '" + M.qualifiedName() + "' (id " +
                        std::to_string(I) + ")";
    if (M.Def != P.Def)
      Diff.push_back(Where + " bytecode replaced");
    if (M.Code != P.Code)
      Diff.push_back(Where + " compiled code replaced");
    if (M.Obsolete != P.Obsolete)
      Diff.push_back(Where + " obsolete bit changed");
    if (M.InvokeCount != P.InvokeCount)
      Diff.push_back(Where + " invoke count " +
                     std::to_string(P.InvokeCount) + " -> " +
                     std::to_string(M.InvokeCount));
  }
  return Diff;
}
