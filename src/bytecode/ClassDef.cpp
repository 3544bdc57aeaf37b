#include "bytecode/ClassDef.h"

#include "support/Error.h"

using namespace jvolve;

const FieldDef *ClassDef::findField(const std::string &FieldName) const {
  for (const FieldDef &F : Fields)
    if (F.Name == FieldName)
      return &F;
  return nullptr;
}

const MethodDef *ClassDef::findMethod(const std::string &MethodName,
                                      const std::string &MethodSig) const {
  for (const MethodDef &M : Methods)
    if (M.Name == MethodName && (MethodSig.empty() || M.Sig == MethodSig))
      return &M;
  return nullptr;
}

MethodDef *ClassDef::findMethod(const std::string &MethodName,
                                const std::string &MethodSig) {
  for (MethodDef &M : Methods)
    if (M.Name == MethodName && (MethodSig.empty() || M.Sig == MethodSig))
      return &M;
  return nullptr;
}

void ClassSet::add(ClassDef Def) {
  add(std::make_shared<ClassDef>(std::move(Def)));
}

void ClassSet::add(DefPtr Def) {
  auto [It, Added] = Classes.try_emplace(Def->Name, Def);
  if (!Added)
    fatalError("duplicate class '" + Def->Name + "' in class set");
}

void ClassSet::replace(ClassDef Def) {
  auto It = Classes.find(Def.Name);
  if (It == Classes.end()) {
    add(std::move(Def));
  } else if (It->second.use_count() == 1) {
    *const_cast<ClassDef *>(It->second.get()) = std::move(Def);
  } else {
    It->second = std::make_shared<ClassDef>(std::move(Def));
  }
}

void ClassSet::remove(const std::string &Name) {
  if (!Classes.erase(Name))
    fatalError("removing unknown class '" + Name + "'");
}

const ClassDef *ClassSet::find(std::string_view Name) const {
  auto It = Classes.find(Name);
  return It == Classes.end() ? nullptr : It->second.get();
}

ClassDef *ClassSet::find(std::string_view Name) {
  auto It = Classes.find(Name);
  if (It == Classes.end())
    return nullptr;
  if (It->second.use_count() != 1)
    It->second = std::make_shared<ClassDef>(*It->second);
  // Every definition is created non-const (see add(DefPtr)), and this set
  // is now its only owner.
  return const_cast<ClassDef *>(It->second.get());
}

const FieldDef *ClassSet::resolveField(const std::string &Name,
                                       const std::string &FieldName,
                                       std::string *DeclaringClass) const {
  for (const std::string &C : superChain(Name)) {
    const ClassDef *Def = find(C);
    if (!Def)
      break;
    if (const FieldDef *F = Def->findField(FieldName)) {
      if (DeclaringClass)
        *DeclaringClass = C;
      return F;
    }
  }
  return nullptr;
}

const MethodDef *ClassSet::resolveMethod(const std::string &Name,
                                         const std::string &MethodName,
                                         const std::string &MethodSig,
                                         std::string *DeclaringClass) const {
  for (const std::string &C : superChain(Name)) {
    const ClassDef *Def = find(C);
    if (!Def)
      break;
    if (const MethodDef *M = Def->findMethod(MethodName, MethodSig)) {
      if (DeclaringClass)
        *DeclaringClass = C;
      return M;
    }
  }
  return nullptr;
}

bool ClassSet::isSubclassOf(const std::string &Sub,
                            const std::string &Super) const {
  for (const std::string &C : superChain(Sub))
    if (C == Super)
      return true;
  return false;
}

std::vector<std::string> ClassSet::superChain(const std::string &Name) const {
  std::vector<std::string> Chain;
  std::string Cur = Name;
  while (!Cur.empty()) {
    // Guard against supers cycles; the verifier reports them properly.
    for (const std::string &Seen : Chain)
      if (Seen == Cur)
        return Chain;
    Chain.push_back(Cur);
    const ClassDef *Def = find(Cur);
    if (!Def)
      break;
    Cur = Def->Super;
  }
  return Chain;
}
