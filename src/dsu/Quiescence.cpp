#include "dsu/Quiescence.h"

#include "support/Error.h"
#include "vm/VM.h"

#include <algorithm>

using namespace jvolve;

const char *jvolve::quiescenceBlockCauseName(QuiescenceBlockCause C) {
  switch (C) {
  case QuiescenceBlockCause::InfiniteLoop: return "infinite-loop";
  case QuiescenceBlockCause::ChangedMethod: return "changed-method";
  case QuiescenceBlockCause::RemovedMethod: return "removed-method";
  case QuiescenceBlockCause::Blacklisted: return "blacklisted";
  case QuiescenceBlockCause::InlinedRestricted: return "inlined-restricted";
  case QuiescenceBlockCause::OptimizedIndirect: return "optimized-indirect";
  case QuiescenceBlockCause::OsrDisabled: return "osr-disabled";
  }
  unreachable("bad quiescence block cause");
}

const char *jvolve::quiescenceRungName(QuiescenceRung R) {
  switch (R) {
  case QuiescenceRung::None: return "none";
  case QuiescenceRung::Rescue: return "rescue";
  case QuiescenceRung::Abort: return "abort";
  }
  unreachable("bad quiescence rung");
}

bool jvolve::methodNeverReturns(const CompiledMethod &Code) {
  for (const RInstr &I : Code.Code)
    if (I.Op == ROp::RetVoid || I.Op == ROp::RetI || I.Op == ROp::RetA)
      return false;
  return true;
}

std::vector<std::string> QuiescenceReport::loopingMethods() const {
  std::vector<std::string> Out;
  for (const QuiescenceThreadInfo &T : Threads)
    for (const QuiescenceFrameInfo &F : T.PinningFrames)
      if (F.Cause == QuiescenceBlockCause::InfiniteLoop &&
          std::find(Out.begin(), Out.end(), F.QualifiedName) == Out.end())
        Out.push_back(F.QualifiedName);
  return Out;
}

/// Rendering detail per cause; the infinite-loop wording matches the abort
/// message so operators see one vocabulary.
static std::string causeText(const QuiescenceFrameInfo &F) {
  switch (F.Cause) {
  case QuiescenceBlockCause::InfiniteLoop:
    return "changed method never returns (infinite loop)";
  case QuiescenceBlockCause::ChangedMethod:
    return "changed method on stack";
  case QuiescenceBlockCause::RemovedMethod:
    return "removed method on stack";
  case QuiescenceBlockCause::Blacklisted:
    return "blacklisted (restricted by the update spec)";
  case QuiescenceBlockCause::InlinedRestricted:
    return "caller inlined a restricted method body";
  case QuiescenceBlockCause::OptimizedIndirect:
    return "opt-compiled code references an updated class (no OSR)";
  case QuiescenceBlockCause::OsrDisabled:
    return "base-compiled code references an updated class (OSR disabled)";
  }
  unreachable("bad quiescence block cause");
}

std::string QuiescenceReport::str() const {
  std::string Out = "quiescence report @ tick " + std::to_string(ReportTick) +
                    " (scheduled @ " + std::to_string(ScheduleTick) +
                    ", deadline @ " + std::to_string(DeadlineTick) + ", " +
                    std::to_string(Attempts) + " attempt(s)";
  if (Forced)
    Out += ", forced by injection";
  Out += "):\n";
  if (Threads.empty()) {
    Out += "  no thread pins the update\n";
    return Out;
  }
  for (const QuiescenceThreadInfo &T : Threads) {
    Out += "  thread '" + T.Name + "' (" + threadStateName(T.State);
    if (T.State == ThreadState::Sleeping || T.State == ThreadState::BlockedRecv)
      Out += ", wake @ " + std::to_string(T.WakeTick);
    Out += "): pinned by " + std::to_string(T.PinningFrames.size()) +
           " frame(s)\n";
    for (const QuiescenceFrameInfo &F : T.PinningFrames) {
      Out += "    #" + std::to_string(F.FrameIndex) + " " + F.QualifiedName +
             " @ pc " + std::to_string(F.Pc) + ": " + causeText(F);
      if (F.BarrierArmed)
        Out += " [barrier armed]";
      if (F.RescuableBodySwap)
        Out += " [rescuable: identity remap]";
      Out += '\n';
    }
  }
  return Out;
}

const ActiveMethodMapping *
QuiescenceWatchdog::mappingFor(const Frame &F) const {
  if (Bundle.ActiveMappings.empty())
    return nullptr;
  // Active replacement needs the 1:1 pc mapping of baseline code.
  if (F.Code->T != Tier::Baseline || !F.Code->Inlined.empty())
    return nullptr;
  const ClassRegistry &Reg = TheVM.registry();
  const RtMethod &M = Reg.method(F.Method);
  MethodRef Ref{Reg.cls(M.Owner).Name, M.Name, M.Sig};
  auto It = Bundle.ActiveMappings.find(Ref.key());
  // The thread must be parked at a mapped program counter.
  if (It == Bundle.ActiveMappings.end() || !It->second.PcMap.count(F.Pc))
    return nullptr;
  return &It->second;
}

FrameKind QuiescenceWatchdog::classify(const Frame &F) const {
  if (RestrictedMethodIds.count(F.Method))
    return mappingFor(F) ? FrameKind::MappedOsr : FrameKind::Restricted;

  const CompiledMethod &Code = *F.Code;
  // Inlining closure: code that inlined a restricted method must be
  // restricted too, or old bodies would keep running after the update.
  for (MethodId Inl : Code.Inlined)
    if (RestrictedMethodIds.count(Inl))
      return FrameKind::Restricted;

  bool RefsUpdated = false;
  for (ClassId C : Code.ReferencedClasses)
    if (UpdatedOldClassIds.count(C)) {
      RefsUpdated = true;
      break;
    }
  if (!RefsUpdated)
    return FrameKind::Free;

  // Category (2). OSR applies only to base-compiled code with no inlined
  // bodies (paper §3.2); everything else waits behind a return barrier.
  if (OsrEnabled && Code.T == Tier::Baseline && Code.Inlined.empty())
    return FrameKind::OsrNeeded;
  return FrameKind::Restricted;
}

QuiescenceBlockCause
QuiescenceWatchdog::causeOf(const Frame &F, const MethodRef &Method) const {
  if (RestrictedMethodIds.count(F.Method)) {
    if (methodNeverReturns(*F.Code))
      return QuiescenceBlockCause::InfiniteLoop;
    if (std::count(Bundle.Spec.RemovedMethods.begin(),
                   Bundle.Spec.RemovedMethods.end(), Method))
      return QuiescenceBlockCause::RemovedMethod;
    if (std::count(Bundle.Spec.Blacklist.begin(), Bundle.Spec.Blacklist.end(),
                   Method))
      return QuiescenceBlockCause::Blacklisted;
    return QuiescenceBlockCause::ChangedMethod;
  }
  for (MethodId Inl : F.Code->Inlined)
    if (RestrictedMethodIds.count(Inl))
      return QuiescenceBlockCause::InlinedRestricted;
  // Category (2) that OSR did not lift: code OSR cannot replace, or
  // base-compiled code with OSR turned off.
  return F.Code->T == Tier::Baseline && F.Code->Inlined.empty()
             ? QuiescenceBlockCause::OsrDisabled
             : QuiescenceBlockCause::OptimizedIndirect;
}

bool QuiescenceWatchdog::rescuableBodySwap(const Frame &F) const {
  if (!RestrictedMethodIds.count(F.Method))
    return false;
  if (F.Code->T != Tier::Baseline || !F.Code->Inlined.empty())
    return false;
  ClassRegistry &Reg = TheVM.registry();
  const RtMethod &M = Reg.method(F.Method);
  MethodRef Ref{Reg.cls(M.Owner).Name, M.Name, M.Sig};
  if (std::find(Bundle.Spec.MethodBodyUpdates.begin(),
                Bundle.Spec.MethodBodyUpdates.end(),
                Ref) == Bundle.Spec.MethodBodyUpdates.end())
    return false;
  const ClassDef *NewCls = Bundle.NewProgram.find(Ref.ClassName);
  const MethodDef *NewBody =
      NewCls ? NewCls->findMethod(Ref.Name, Ref.Sig) : nullptr;
  // Identical instruction counts give baseline code a 1:1 pc map — the
  // same invariant OSR relies on (paper §3.2).
  return NewBody && NewBody->Code.size() == F.Code->Code.size();
}

QuiescenceReport QuiescenceWatchdog::diagnose(uint64_t ScheduleTick,
                                              uint64_t DeadlineTick,
                                              int Attempts,
                                              bool Forced) const {
  QuiescenceReport R;
  R.Diagnosed = true;
  R.ScheduleTick = ScheduleTick;
  R.DeadlineTick = DeadlineTick;
  R.ReportTick = TheVM.scheduler().ticks();
  R.Attempts = Attempts;
  R.Forced = Forced;

  ClassRegistry &Reg = TheVM.registry();
  for (auto &T : TheVM.scheduler().threads()) {
    if (T->stopped())
      continue;
    QuiescenceThreadInfo TI;
    TI.Id = T->Id;
    TI.Name = T->Name;
    TI.State = T->State;
    TI.WakeTick = T->WakeTick;

    for (size_t I = 0; I < T->Frames.size(); ++I) {
      const Frame &F = T->Frames[I];
      if (classify(F) != FrameKind::Restricted)
        continue;
      QuiescenceFrameInfo FI;
      FI.FrameIndex = I;
      FI.Pc = F.Pc;
      FI.BarrierArmed = F.ReturnBarrier;
      const RtMethod &M = Reg.method(F.Method);
      FI.Method = {Reg.cls(M.Owner).Name, M.Name, M.Sig};
      // Class-qualified so the report (and the abort message built from it)
      // names the method unambiguously, e.g. "PoolThread.run(I)V".
      FI.QualifiedName = Reg.cls(M.Owner).Name + "." + M.qualifiedName();
      FI.Cause = causeOf(F, FI.Method);
      FI.RescuableBodySwap = rescuableBodySwap(F);
      TI.PinningFrames.push_back(std::move(FI));
    }

    if (!TI.PinningFrames.empty())
      R.Threads.push_back(std::move(TI));
  }
  return R;
}
