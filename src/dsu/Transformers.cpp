#include "dsu/Transformers.h"

#include "runtime/ObjectModel.h"
#include "support/Error.h"
#include "support/Stopwatch.h"

#include <cassert>
#include <cstring>

using namespace jvolve;

const RtField *TransformCtx::lookupField(Ref Obj,
                                         std::string_view Field) const {
  const RtClass &C = TheVM.registry().cls(classOf(Obj));
  const RtField *F = C.findInstanceField(Field);
  if (!F)
    throw UpdateError("transform", "class " + C.Name + " has no field '" +
                                       std::string(Field) + "'");
  FieldCursor *Cur = nullptr;
  for (FieldCursor &Candidate : Recent)
    if (Candidate.Class == C.Id)
      Cur = &Candidate;
  if (!Cur) {
    Cur = &Recent[NextVictim];
    NextVictim = 1 - NextVictim;
  }
  uint32_t Count = static_cast<uint32_t>(C.InstanceFields.size());
  uint32_t Index = static_cast<uint32_t>(F - C.InstanceFields.data());
  *Cur = {C.Id, C.InstanceFields.data(), Count,
          Index + 1 == Count ? 0 : Index + 1};
  return F;
}

/// The class that owns the storage of static \p Field of \p Cls, and the
/// field's slot index there.
static std::pair<ClassId, uint32_t>
staticSlot(VM &TheVM, std::string_view Cls, std::string_view Field) {
  std::string ClsName(Cls);
  ClassId Id = TheVM.registry().idOf(ClsName);
  if (Id == InvalidClassId)
    throw UpdateError("transform", "unknown class '" + ClsName + "'");
  ClassId Declaring = InvalidClassId;
  RtField *F = TheVM.registry().resolveStaticField(Id, Field, &Declaring);
  if (!F)
    throw UpdateError("transform", "class " + ClsName + " has no static '" +
                                       std::string(Field) + "'");
  return {Declaring, F->Offset};
}

int64_t TransformCtx::getStaticInt(std::string_view Cls,
                                   std::string_view Field) const {
  auto [Id, Index] = staticSlot(TheVM, Cls, Field);
  return TheVM.registry().cls(Id).Statics[Index].IntVal;
}

Ref TransformCtx::getStaticRef(std::string_view Cls,
                               std::string_view Field) const {
  auto [Id, Index] = staticSlot(TheVM, Cls, Field);
  return TheVM.registry().cls(Id).Statics[Index].RefVal;
}

// Writes go through the registry: its update log records the old value, so
// a rolled-back update restores it.
void TransformCtx::setStaticInt(std::string_view Cls, std::string_view Field,
                                int64_t Value) {
  auto [Id, Index] = staticSlot(TheVM, Cls, Field);
  Slot S = TheVM.registry().cls(Id).Statics[Index];
  S.IntVal = Value;
  S.IsRef = false;
  TheVM.registry().setStatic(Id, Index, S);
}

void TransformCtx::setStaticRef(std::string_view Cls, std::string_view Field,
                                Ref Value) {
  auto [Id, Index] = staticSlot(TheVM, Cls, Field);
  Slot S = TheVM.registry().cls(Id).Statics[Index];
  S.RefVal = Value;
  S.IsRef = true;
  TheVM.registry().setStatic(Id, Index, S);
}

Ref TransformCtx::allocate(const std::string &ClassName) {
  ClassId Id = TheVM.registry().idOf(ClassName);
  if (Id == InvalidClassId)
    throw UpdateError("transform", "unknown class '" + ClassName + "'");
  return TheVM.allocateObject(Id);
}

Ref TransformCtx::allocateArray(const std::string &ElemDesc, int64_t Length) {
  ClassId ArrId = TheVM.registry().arrayClassOf(Type::parse(ElemDesc));
  return TheVM.allocateArray(ArrId, Length);
}

Ref TransformCtx::newString(const std::string &Payload) {
  return TheVM.newString(Payload);
}

std::string TransformCtx::stringValue(Ref Str) const {
  return TheVM.stringValue(Str);
}

int64_t TransformCtx::arrayLength(Ref Arr) const {
  assert(Arr && "null array in transformer");
  return jvolve::arrayLength(Arr);
}

Ref TransformCtx::getElemRef(Ref Arr, int64_t Index) const {
  assert(Index >= 0 && Index < jvolve::arrayLength(Arr));
  return getRefAt(Arr, arrayElemOffset(Index));
}

int64_t TransformCtx::getElemInt(Ref Arr, int64_t Index) const {
  assert(Index >= 0 && Index < jvolve::arrayLength(Arr));
  return getIntAt(Arr, arrayElemOffset(Index));
}

void TransformCtx::setElemRef(Ref Arr, int64_t Index, Ref Value) {
  assert(Index >= 0 && Index < jvolve::arrayLength(Arr));
  setRefAt(Arr, arrayElemOffset(Index), Value);
}

void TransformCtx::setElemInt(Ref Arr, int64_t Index, int64_t Value) {
  assert(Index >= 0 && Index < jvolve::arrayLength(Arr));
  setIntAt(Arr, arrayElemOffset(Index), Value);
}

void TransformCtx::ensureTransformed(Ref Obj) {
  if (Runner && Obj)
    Runner->ensureTransformed(Obj);
}

void TransformCtx::defaultTransform(Ref To, Ref From) {
  Runner->applyDefault(To, From);
}

void TransformCtx::defaultClassTransform(const std::string &Cls) {
  Runner->applyDefaultStatics(Cls);
}

const TransformPlan &TransformerRunner::planFor(ClassId NewClass,
                                                ClassId OldClass) {
  if (NewClass >= Plans.size())
    Plans.resize(NewClass + 1);
  TransformPlan &P = Plans[NewClass];
  if (P.OldClass == OldClass)
    return P;
  ClassRegistry &Reg = TheVM.registry();
  const RtClass &New = Reg.cls(NewClass);
  const RtClass &Old = Reg.cls(OldClass);
  P = TransformPlan();
  P.OldClass = OldClass;
  auto It = Bundle.ObjectTransformers.find(New.Name);
  P.User = It != Bundle.ObjectTransformers.end() ? &It->second : nullptr;

  static const std::map<std::string, std::string> NoRenames;
  auto RIt = Bundle.Renames.find(New.Name);
  const std::map<std::string, std::string> &Renames =
      RIt != Bundle.Renames.end() ? RIt->second : NoRenames;
  std::vector<bool> Read(Old.InstanceFields.size());
  bool InPlace = Old.InstanceFields.size() == New.InstanceFields.size();
  for (const RtField &NF : New.InstanceFields) {
    auto Rename = Renames.find(NF.Name);
    bool Renamed = Rename != Renames.end();
    const std::string &Source = Renamed ? Rename->second : NF.Name;
    const RtField *OF = Old.findInstanceField(Source);
    if (!OF && Renamed && P.Error.empty())
      P.Error = "class " + Old.Name + " has no field '" + Source + "'";
    InPlace &= OF && OF->Ty == NF.Ty && OF->Offset == NF.Offset;
    if (!OF || OF->Ty != NF.Ty) // new or retyped fields keep their default
      continue;
    P.Copies.emplace_back(NF.Offset, OF->Offset);
    Read[OF - Old.InstanceFields.data()] = true;
  }
  for (uint32_t I = 0; I < Read.size(); ++I)
    if (!Read[I])
      P.Dropped.push_back(I);
  P.Identity = InPlace;
  return P;
}

/// Runs \p P's default transform from \p From into \p To.
static void copyThrough(const TransformPlan &P, Ref To, Ref From) {
  if (!P.Error.empty())
    throw UpdateError("transform", P.Error);
  // One 8-byte slot per copy, int or ref alike.
  for (const auto &[NewOffset, OldOffset] : P.Copies)
    std::memcpy(To + NewOffset, From + OldOffset, SlotBytes);
}

void TransformerRunner::applyDefault(Ref To, Ref From) {
  copyThrough(planFor(classOf(To), classOf(From)), To, From);
}

void TransformerRunner::applyDefaultStatics(const std::string &Name) {
  ClassRegistry &Reg = TheVM.registry();
  ClassId NewId = Reg.idOf(Name);
  ClassId OldId = Reg.idOf(Bundle.renamedOldClass(Name));
  if (NewId == InvalidClassId || OldId == InvalidClassId)
    return;
  const RtClass &New = Reg.cls(NewId);
  const RtClass &Old = Reg.cls(OldId);
  for (const RtField &NF : New.StaticFields) {
    const RtField *OF = Old.findStaticField(NF.Name);
    if (!OF || OF->Ty != NF.Ty)
      continue;
    Reg.setStatic(NewId, NF.Offset, Old.Statics[OF->Offset]);
  }
}

void TransformerRunner::transformEntry(size_t Index) {
  UpdateLogEntry &E = UpdateLog[Index];
  if (E.St == UpdateLogEntry::State::InProgress ||
      TheVM.faults().probe(FaultInjector::Site::TransformerCycle)) {
    // A cycle of jvolveObject calls constitutes one or more ill-defined
    // transformer functions (paper §3.4); the update cannot proceed.
    throw UpdateError("transform",
                      "transformer cycle detected while updating " +
                          TheVM.registry().cls(classOf(E.NewObj)).Name);
  }
  if (E.St == UpdateLogEntry::State::Done ||
      E.St == UpdateLogEntry::State::Failed)
    return;
  E.St = UpdateLogEntry::State::InProgress;

  if (TheVM.faults().probe(FaultInjector::Site::TransformerNthObject))
    throw UpdateError("transform",
                      "injected transformer fault on object #" +
                          std::to_string(Index) + " (class " +
                          TheVM.registry().cls(classOf(E.NewObj)).Name + ")");
  const TransformPlan &P = planFor(classOf(E.NewObj), classOf(E.OldCopy));
  if (const ObjectTransformer *User = P.User) {
    // The body may force other entries, which can grow Plans; P is not
    // touched again.
    (*User)(Ctx, E.NewObj, E.OldCopy);
  } else {
    copyThrough(P, E.NewObj, E.OldCopy);
  }

  header(E.NewObj)->Flags &= ~(FlagUninitialized | FlagLazyPending);
  E.St = UpdateLogEntry::State::Done;
  ++NumTransformed;
}

size_t TransformerRunner::entryOf(Ref Obj) const {
  size_t Index = logIndex(Obj);
  return Index < UpdateLog.size() && UpdateLog[Index].NewObj == Obj ? Index
                                                                    : NoEntry;
}

void TransformerRunner::ensureTransformed(Ref NewObj) {
  size_t Index = entryOf(NewObj);
  if (Index == NoEntry)
    return; // not a new-version object of this update
  transformEntry(Index);
}

double TransformerRunner::runClassTransformers() {
  Stopwatch Timer;
  // Class transformers first (paper §3.4), defaults for the rest.
  for (const std::string &Name : Bundle.Spec.ClassUpdates) {
    auto It = Bundle.ClassTransformers.find(Name);
    if (It != Bundle.ClassTransformers.end())
      It->second(Ctx);
    else
      applyDefaultStatics(Name);
  }
  return Timer.elapsedMs();
}

double TransformerRunner::runAll() {
  // The updater holds setTransformationInProgress across the whole install
  // transaction (snapshot to commit), so it is already set here.
  Stopwatch Timer;

  runClassTransformers();

  // Then object transformers over the whole update log.
  for (size_t I = 0; I < UpdateLog.size(); ++I)
    transformEntry(I);

  return Timer.elapsedMs();
}
