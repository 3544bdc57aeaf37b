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

ClassId ClassRegistry::loadClass(const ClassDef &Def,
                                 const ClassSet &Context) {
  std::vector<std::string> Loading;
  return loadClassImpl(Def, Context, Loading);
}

ClassId ClassRegistry::loadClassImpl(const ClassDef &Def,
                                     const ClassSet &Context,
                                     std::vector<std::string> &Loading) {
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
      const ClassDef *SuperDef = Context.find(Def.Super);
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
  uint32_t NextOffset = static_cast<uint32_t>(ObjectHeaderBytes);
  if (SuperId != InvalidClassId) {
    const RtClass &Super = cls(SuperId);
    Cls->InstanceFields = Super.InstanceFields;
    NextOffset = Super.InstanceSize;
    Cls->VTable = Super.VTable;
    Cls->VTableIndex = Super.VTableIndex;
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
    RtM->Def = std::make_shared<const MethodDef>(M);
    Methods.push_back(std::move(RtM));
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

  ByName[Def.Name] = Id;
  Classes.push_back(std::move(Cls));
  Loading.pop_back();
  return Id;
}

void ClassRegistry::loadAll(const ClassSet &Set) {
  for (const auto &[Name, Def] : Set.classes())
    if (idOf(Name) == InvalidClassId)
      loadClass(*Def, Set);
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
  ByName[Name] = Id;
  Classes.push_back(std::move(Cls));
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

void ClassRegistry::renameClassForUpdate(ClassId Id,
                                         const std::string &NewName) {
  RtClass &C = cls(Id);
  if (ByName.count(NewName))
    fatalError("rename target '" + NewName + "' already exists");
  auto It = ByName.find(C.Name);
  assert(It != ByName.end() && "class missing from name map");
  // Only unbind the original name if it still points at this class (a chain
  // of updates may have rebound it already).
  if (It->second == Id)
    ByName.erase(It);
  C.Name = NewName;
  C.Obsolete = true;
  ByName[NewName] = Id;
  for (MethodId MId : C.Methods) {
    RtMethod &M = method(MId);
    M.Obsolete = true;
    M.Code = nullptr;
  }
}

void ClassRegistry::setMethodBody(MethodId Id, const MethodDef &NewBody) {
  RtMethod &M = method(Id);
  assert(M.Name == NewBody.Name && M.Sig == NewBody.Sig &&
         "method-body update must preserve the signature");
  M.Def = std::make_shared<const MethodDef>(NewBody);
  M.Code = nullptr;
  M.InvokeCount = 0; // the paper lets the adaptive system re-profile
}

void ClassRegistry::invalidateCode(MethodId Id) { method(Id).Code = nullptr; }

void ClassRegistry::dropObsoleteStatics() {
  for (auto &C : Classes)
    if (C->Obsolete)
      for (Slot &S : C->Statics)
        if (S.IsRef)
          S.RefVal = nullptr;
}

void ClassRegistry::visitStaticRoots(
    const std::function<void(Ref &)> &Visit) {
  for (auto &C : Classes)
    for (Slot &S : C->Statics)
      if (S.IsRef && S.RefVal)
        Visit(S.RefVal);
}

ClassRegistry::RegistrySnapshot ClassRegistry::snapshot() const {
  RegistrySnapshot S;
  S.NumClasses = Classes.size();
  S.NumMethods = Methods.size();
  S.ByName = ByName;
  S.ClassStates.reserve(Classes.size());
  for (const auto &C : Classes)
    S.ClassStates.push_back({C->Name, C->Obsolete, C->Statics});
  S.MethodStates.reserve(Methods.size());
  for (const auto &M : Methods)
    S.MethodStates.push_back({M->Def, M->Code, M->Obsolete, M->InvokeCount});
  return S;
}

void ClassRegistry::restore(const RegistrySnapshot &S) {
  assert(Classes.size() >= S.NumClasses && Methods.size() >= S.NumMethods &&
         "registry shrank since the snapshot was taken");
  // Drop everything the failed install appended...
  Classes.resize(S.NumClasses);
  Methods.resize(S.NumMethods);
  ByName = S.ByName;
  // ...and undo the mutations to pre-existing entries: renames, obsolete
  // marks, replaced bytecode, invalidated code, cleared statics.
  for (size_t I = 0; I < S.NumClasses; ++I) {
    RtClass &C = *Classes[I];
    const RegistrySnapshot::ClassState &CS = S.ClassStates[I];
    C.Name = CS.Name;
    C.Obsolete = CS.Obsolete;
    C.Statics = CS.Statics;
  }
  for (size_t I = 0; I < S.NumMethods; ++I) {
    RtMethod &M = *Methods[I];
    const RegistrySnapshot::MethodState &MS = S.MethodStates[I];
    M.Def = MS.Def;
    M.Code = MS.Code;
    M.Obsolete = MS.Obsolete;
    M.InvokeCount = MS.InvokeCount;
  }
}

std::vector<std::string> ClassRegistry::checkConsistency() const {
  std::vector<std::string> Problems;
  auto Bad = [&](std::string Msg) { Problems.push_back(std::move(Msg)); };

  for (const auto &[Name, Id] : ByName) {
    if (Id >= Classes.size()) {
      Bad("name '" + Name + "' maps to out-of-range class id");
      continue;
    }
    if (Classes[Id]->Name != Name)
      Bad("name '" + Name + "' maps to class named '" + Classes[Id]->Name +
          "'");
  }

  for (size_t I = 0; I < Classes.size(); ++I) {
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
        Bad("method '" + Methods[MId]->qualifiedName() +
            "' is declared by '" + C.Name + "' but owned by another class");
      if (C.Obsolete && !Methods[MId]->Obsolete)
        Bad("obsolete class '" + C.Name + "' has non-obsolete method '" +
            Methods[MId]->qualifiedName() + "'");
    }
    for (const RtField &F : C.StaticFields)
      if (F.Offset >= C.Statics.size())
        Bad("static field '" + C.Name + "." + F.Name +
            "' points past the statics table");
  }

  for (size_t I = 0; I < Methods.size(); ++I) {
    const RtMethod &M = *Methods[I];
    if (M.Id != static_cast<MethodId>(I))
      Bad("method '" + M.qualifiedName() + "' has id " +
          std::to_string(M.Id) + " but sits at index " + std::to_string(I));
    if (M.Owner >= Classes.size())
      Bad("method '" + M.qualifiedName() + "' has an out-of-range owner");
    if (!M.Def)
      Bad("method '" + M.qualifiedName() + "' has no bytecode");
  }

  return Problems;
}
