#include "dsu/Revert.h"

#include "dsu/Transformers.h"
#include "dsu/Upt.h"
#include "runtime/ObjectModel.h"

using namespace jvolve;

CanaryHealthSample CanaryHealthSample::take(VM &TheVM) {
  CanaryHealthSample S;
  S.Traps = TheVM.stats().Traps;
  S.Shed = TheVM.net().shedTotal();
  // The VM-level failure log is cumulative across engine replacements,
  // unlike the per-engine dsu.lazy.failed_transforms counter.
  S.LazyFailed = TheVM.lazyFailureLog().size();
  S.Responses = TheVM.net().totalResponses();
  S.LatencySumTicks = TheVM.net().latencySumTicks();
  return S;
}

std::vector<CanaryBreach>
jvolve::evaluateCanaryHealth(const CanaryPolicy &Policy,
                             const CanaryHealthSample &Baseline,
                             const CanaryHealthSample &AtArm,
                             const CanaryHealthSample &Now) {
  std::vector<CanaryBreach> Out;
  auto Delta = [](uint64_t A, uint64_t B) {
    return static_cast<int64_t>(A - B);
  };

  int64_t Traps = Delta(Now.Traps, AtArm.Traps);
  if (Policy.MaxTrapDelta >= 0 && Traps > Policy.MaxTrapDelta)
    Out.push_back({"traps", std::to_string(Traps) + " trap(s) within the "
                            "window (budget " +
                            std::to_string(Policy.MaxTrapDelta) + ")"});

  int64_t Failed = Delta(Now.LazyFailed, AtArm.LazyFailed);
  if (Policy.MaxFailedTransforms >= 0 && Failed > Policy.MaxFailedTransforms)
    Out.push_back({"failed-transforms",
                   std::to_string(Failed) + " failed lazy transform(s) "
                   "within the window (budget " +
                       std::to_string(Policy.MaxFailedTransforms) + ")"});

  int64_t Shed = Delta(Now.Shed, AtArm.Shed);
  if (Policy.MaxShedDelta >= 0 && Shed > Policy.MaxShedDelta)
    Out.push_back({"shed", std::to_string(Shed) + " request(s) shed within "
                           "the window (budget " +
                           std::to_string(Policy.MaxShedDelta) + ")"});

  if (Policy.MaxLatencyDeltaPct >= 0) {
    uint64_t WinResponses = Now.Responses - AtArm.Responses;
    if (WinResponses > 0 && Baseline.Responses > 0) {
      double BaseMean = static_cast<double>(Baseline.LatencySumTicks) /
                        static_cast<double>(Baseline.Responses);
      double WinMean =
          static_cast<double>(Now.LatencySumTicks - AtArm.LatencySumTicks) /
          static_cast<double>(WinResponses);
      double Limit = BaseMean * (1.0 + Policy.MaxLatencyDeltaPct / 100.0);
      if (BaseMean > 0 && WinMean > Limit)
        Out.push_back(
            {"latency", "window mean latency " + std::to_string(WinMean) +
                            " ticks exceeds baseline " +
                            std::to_string(BaseMean) + " ticks by more than " +
                            std::to_string(Policy.MaxLatencyDeltaPct) + "%"});
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// CanaryUndoLog
//===----------------------------------------------------------------------===//

void CanaryUndoLog::captureObject(VM &TheVM, Ref OldCopy, Ref NewObj,
                                  const TransformPlan &Plan) {
  const RtClass &OldCls = TheVM.registry().cls(classOf(OldCopy));
  UndoEntry E;
  for (uint32_t I : Plan.Dropped) {
    const RtField &OF = OldCls.InstanceFields[I];
    UndoField F;
    F.Name = OF.Name;
    F.IsRef = OF.IsRef;
    if (OF.IsRef)
      F.RefVal = getRefAt(OldCopy, OF.Offset);
    else
      F.IntVal = getIntAt(OldCopy, OF.Offset);
    E.Fields.push_back(std::move(F));
  }
  if (E.Fields.empty())
    return; // pure additions/body changes leave nothing to undo
  E.Obj = NewObj;
  Index[NewObj] = Entries.size();
  Entries.push_back(std::move(E));
}

void CanaryUndoLog::captureStatics(VM &TheVM, const std::string &ClassName,
                                   const std::string &RenamedOld) {
  ClassRegistry &Reg = TheVM.registry();
  ClassId OldId = Reg.idOf(RenamedOld);
  if (OldId == InvalidClassId)
    return;
  const RtClass &Old = Reg.cls(OldId);
  ClassId NewId = Reg.idOf(ClassName); // invalid when the class was deleted
  const RtClass *New = NewId != InvalidClassId ? &Reg.cls(NewId) : nullptr;
  UndoStatics S;
  S.ClassName = ClassName;
  for (const RtField &OF : Old.StaticFields) {
    const RtField *NF = New ? New->findStaticField(OF.Name) : nullptr;
    if (NF && NF->Ty == OF.Ty)
      continue; // the class transformer carries it over
    const Slot &V = Old.Statics[OF.Offset];
    UndoField F;
    F.Name = OF.Name;
    F.IsRef = OF.IsRef;
    if (OF.IsRef)
      F.RefVal = V.RefVal;
    else
      F.IntVal = V.IntVal;
    S.Fields.push_back(std::move(F));
  }
  if (!S.Fields.empty())
    Statics.push_back(std::move(S));
}

void CanaryUndoLog::restoreInto(TransformCtx &Ctx, Ref To) const {
  auto It = Index.find(To);
  if (It == Index.end())
    return;
  for (const UndoField &F : Entries[It->second].Fields) {
    if (F.IsRef)
      Ctx.setRef(To, F.Name, F.RefVal);
    else
      Ctx.setInt(To, F.Name, F.IntVal);
  }
}

void CanaryUndoLog::restoreStatics(TransformCtx &Ctx,
                                   const std::string &ClassName) const {
  for (const UndoStatics &S : Statics) {
    if (S.ClassName != ClassName)
      continue;
    for (const UndoField &F : S.Fields) {
      if (F.IsRef)
        Ctx.setStaticRef(ClassName, F.Name, F.RefVal);
      else
        Ctx.setStaticInt(ClassName, F.Name, F.IntVal);
    }
  }
}

void CanaryUndoLog::restoreStaticsDirect(VM &TheVM,
                                         const std::string &ClassName) const {
  ClassRegistry &Reg = TheVM.registry();
  ClassId Id = Reg.idOf(ClassName);
  if (Id == InvalidClassId)
    return;
  RtClass &Cls = Reg.cls(Id);
  for (const UndoStatics &S : Statics) {
    if (S.ClassName != ClassName)
      continue;
    for (const UndoField &F : S.Fields) {
      const RtField *SF = Cls.findStaticField(F.Name);
      if (!SF)
        continue;
      Cls.Statics[SF->Offset] =
          F.IsRef ? Slot::ofRef(F.RefVal) : Slot::ofInt(F.IntVal);
    }
  }
}

void CanaryUndoLog::visitRoots(const std::function<void(Ref &)> &Visit) {
  for (UndoEntry &E : Entries) {
    if (E.Obj)
      Visit(E.Obj);
    for (UndoField &F : E.Fields)
      if (F.IsRef && F.RefVal)
        Visit(F.RefVal);
  }
  for (UndoStatics &S : Statics)
    for (UndoField &F : S.Fields)
      if (F.IsRef && F.RefVal)
        Visit(F.RefVal);
}

void CanaryUndoLog::reindex() {
  Index.clear();
  for (size_t I = 0; I < Entries.size(); ++I)
    Index[Entries[I].Obj] = I;
}

void CanaryUndoLog::clear() {
  Entries.clear();
  Statics.clear();
  Index.clear();
}

//===----------------------------------------------------------------------===//
// Reverse-bundle synthesis
//===----------------------------------------------------------------------===//

ActiveMethodMapping jvolve::invertActiveMapping(const ActiveMethodMapping &M) {
  ActiveMethodMapping Out;
  Out.Method = M.Method;
  for (const auto &[OldPc, NewPc] : M.PcMap)
    Out.PcMap[NewPc] = OldPc;
  return Out;
}

UpdateBundle jvolve::synthesizeReverseBundle(VM &TheVM,
                                             const ClassSet &OldProgram,
                                             const UpdateBundle &Forward,
                                             const CanaryUndoLog &Undo,
                                             const std::string &ReverseTag) {
  UpdateBundle RB = Upt::prepare(TheVM.program(), OldProgram, ReverseTag);

  for (const std::string &Name : RB.Spec.ClassUpdates) {
    // A registered inverse is trusted in full; the fallback is the reverse
    // runner's default plan, with the forward renames inverted, followed
    // by the undo log's restore of the fields the forward plan dropped.
    auto OIt = Forward.InverseObjectTransformers.find(Name);
    if (OIt != Forward.InverseObjectTransformers.end()) {
      RB.ObjectTransformers[Name] = OIt->second;
    } else {
      // Only renames the pre-update shapes declare are inverted: a
      // corrupted mapping names an old field that never existed.
      auto RIt = Forward.Renames.find(Name);
      if (RIt != Forward.Renames.end())
        for (const auto &[NewField, OldField] : RIt->second) {
          const FieldDef *F = OldProgram.resolveField(Name, OldField);
          if (F && !F->IsStatic)
            RB.Renames[Name][OldField] = NewField;
        }
      RB.ObjectTransformers[Name] = [&Undo](TransformCtx &Ctx, Ref To,
                                            Ref From) {
        Ctx.defaultTransform(To, From);
        Undo.restoreInto(Ctx, To);
      };
    }

    auto CIt = Forward.InverseClassTransformers.find(Name);
    if (CIt != Forward.InverseClassTransformers.end())
      RB.ClassTransformers[Name] = CIt->second;
    else
      RB.ClassTransformers[Name] = [Name, &Undo](TransformCtx &Ctx) {
        Ctx.defaultClassTransform(Name);
        Undo.restoreStatics(Ctx, Name);
      };
  }

  // Methods the forward update replaced on-stack may be on-stack again
  // when the revert runs; walking them back needs the mirror-image PC
  // maps. Frame transformers do not auto-invert — those frames fall back
  // to the default slot-by-slot carry-over.
  for (const auto &[Key, M] : Forward.ActiveMappings) {
    (void)Key;
    RB.addActiveMapping(invertActiveMapping(M));
  }
  return RB;
}

uint64_t jvolve::countResidualNewVersionObjects(
    VM &TheVM, const std::vector<ClassId> &NewVersionClassIds) {
  Heap &H = TheVM.heap();
  ClassRegistry &Reg = TheVM.registry();
  uint64_t Residual = 0;
  size_t Scan = 0;
  while (Scan < H.bytesAllocated()) {
    Ref Obj = H.currentSpaceStart() + Scan;
    ObjectHeader *Hdr = header(Obj);
    for (ClassId Id : NewVersionClassIds)
      if (Hdr->Class == Id) {
        ++Residual;
        break;
      }
    size_t Bytes = objectBytes(Reg.cls(Hdr->Class), Obj);
    Scan += (Bytes + 7) & ~size_t(7);
  }
  return Residual;
}
