#include "dsu/Dataflow.h"

#include "dsu/UpdateSpec.h"

#include "bytecode/Type.h"
#include "bytecode/Verifier.h"

#include <algorithm>
#include <deque>

using namespace jvolve;

std::string AllocSite::str() const {
  return Method + "@" + std::to_string(Pc) + ": " + TypeName;
}

bool AbstractRef::join(const AbstractRef &Other) {
  if (Top)
    return false;
  if (Other.Top) {
    Top = true;
    Sites.clear();
    return true;
  }
  bool Changed = false;
  for (uint32_t S : Other.Sites)
    Changed |= Sites.insert(S).second;
  return Changed;
}

namespace jvolve {
/// Privileged writer for DataflowResult: the fixpoint engine lives in an
/// anonymous namespace, so this named friend hands it the internals.
struct DataflowResultBuilder {
  DataflowResult &R;
  std::vector<AllocSite> &sites() { return R.Sites; }
  std::set<std::string> &reachable() { return R.Reachable; }
  std::map<std::pair<std::string, size_t>, std::set<std::string>> &callees() {
    return R.Callees;
  }
  std::map<std::pair<std::string, size_t>, AbstractRef> &receivers() {
    return R.Receivers;
  }
  size_t &narrowed() { return R.Narrowed; }
  size_t &virtualSites() { return R.VirtualSites; }
};
} // namespace jvolve

namespace {

/// Branch successors of the instruction at \p Pc (same CFG the verifier
/// walks): fallthrough unless Goto/Return, plus the branch target.
void successors(const std::vector<Instr> &Code, size_t Pc,
                std::vector<size_t> &Out) {
  Out.clear();
  const Instr &I = Code[Pc];
  switch (I.Op) {
  case Opcode::Goto:
    Out.push_back(static_cast<size_t>(I.IVal));
    return;
  case Opcode::Return:
  case Opcode::IReturn:
  case Opcode::AReturn:
    return;
  default:
    break;
  }
  if (Pc + 1 < Code.size())
    Out.push_back(Pc + 1);
  switch (I.Op) {
  case Opcode::IfEq: case Opcode::IfNe: case Opcode::IfLt:
  case Opcode::IfGe: case Opcode::IfGt: case Opcode::IfLe:
  case Opcode::IfICmpEq: case Opcode::IfICmpNe: case Opcode::IfICmpLt:
  case Opcode::IfICmpGe: case Opcode::IfICmpGt: case Opcode::IfICmpLe:
  case Opcode::IfNull: case Opcode::IfNonNull:
  case Opcode::IfACmpEq: case Opcode::IfACmpNe:
    Out.push_back(static_cast<size_t>(I.IVal));
    return;
  default:
    return;
  }
}

/// Stack effect of an intrinsic: slots popped and whether it pushes a
/// reference (StrConcat) or an int. Mirrors the IntrinsicId signatures.
void intrinsicEffect(IntrinsicId Id, size_t &Pops, int &Pushes,
                     bool &PushesRef) {
  PushesRef = false;
  switch (Id) {
  case IntrinsicId::PrintInt: case IntrinsicId::PrintStr:
  case IntrinsicId::SleepTicks: case IntrinsicId::NetClose:
    Pops = 1; Pushes = 0; return;
  case IntrinsicId::CurrentTicks:
    Pops = 0; Pushes = 1; return;
  case IntrinsicId::NetAccept: case IntrinsicId::NetTryAccept:
  case IntrinsicId::NetRecv: case IntrinsicId::StrLength:
  case IntrinsicId::Rand:
    Pops = 1; Pushes = 1; return;
  case IntrinsicId::NetSend:
    Pops = 2; Pushes = 0; return;
  case IntrinsicId::StrEquals: case IntrinsicId::StrIndexOf:
    Pops = 2; Pushes = 1; return;
  case IntrinsicId::StrConcat:
    Pops = 2; Pushes = 1; PushesRef = true; return;
  }
  Pops = 0; Pushes = 0;
}

/// One method's flow state: an abstract value per local and stack slot.
struct FlowState {
  std::vector<AbstractRef> Locals;
  std::vector<AbstractRef> Stack;

  bool join(const FlowState &Other) {
    bool Changed = false;
    if (Locals.size() < Other.Locals.size())
      Locals.resize(Other.Locals.size());
    for (size_t I = 0; I < Other.Locals.size(); ++I)
      Changed |= Locals[I].join(Other.Locals[I]);
    // The verifier guarantees consistent stack heights at joins; resize
    // defensively so a non-verifying body cannot run us out of bounds.
    if (Stack.size() != Other.Stack.size())
      Stack.resize(std::max(Stack.size(), Other.Stack.size()));
    for (size_t I = 0; I < std::min(Stack.size(), Other.Stack.size()); ++I)
      Changed |= Stack[I].join(Other.Stack[I]);
    return Changed;
  }
};

struct MethodInfo {
  const ClassDef *Cls = nullptr;
  const MethodDef *Def = nullptr;
  std::vector<AbstractRef> ParamIn;
  AbstractRef Ret;
  bool Reached = false;
  /// The verifier's per-pc shapes, computed on first analysis: empty means
  /// the body does not verify and the engine must not trace it (it falls
  /// back to CHA edges with unknown arguments instead).
  std::vector<std::optional<StackShape>> Shapes;
  bool ShapesComputed = false;
};

/// The whole-program fixpoint engine. Monotone over a finite lattice
/// (points-to sets are bounded by the global site count and collapse to
/// Top past MaxSitesPerValue), so the repeated passes terminate.
class Engine {
public:
  Engine(const ClassSet &Set, const DataflowOptions &Opts)
      : Set(Set), Opts(Opts) {}

  DataflowResult run();

private:
  uint32_t siteId(const std::string &Key, size_t Pc) const {
    auto It = SiteIds.find({Key, Pc});
    return It == SiteIds.end() ? UINT32_MAX : It->second;
  }

  void cap(AbstractRef &V) const {
    if (!V.Top && V.Sites.size() > Opts.MaxSitesPerValue) {
      V.Top = true;
      V.Sites.clear();
    }
  }

  /// CHA dispatch targets for a virtual call through static type
  /// \p ClassName (the CallGraph fan-out rule).
  std::set<std::string> chaTargets(const std::string &ClassName,
                                   const std::string &MethodName,
                                   const std::string &Sig) const;

  /// Joins \p Args into \p Target's parameter state and marks it reached.
  void bindCall(const std::string &Target,
                const std::vector<AbstractRef> &Args);

  AbstractRef returnOf(const std::string &Target) const {
    auto It = Methods.find(Target);
    return It == Methods.end() ? AbstractRef::top() : It->second.Ret;
  }

  bool analyzeMethod(const std::string &Key, DataflowResultBuilder &RB);
  bool transfer(const std::string &Key, size_t Pc, const Instr &I,
                FlowState &St, MethodInfo &MI, DataflowResultBuilder &RB);

  const ClassSet &Set;
  const DataflowOptions &Opts;
  std::map<std::string, MethodInfo> Methods;
  std::map<std::pair<std::string, size_t>, uint32_t> SiteIds;
  std::vector<AllocSite> Sites;
  /// Per-site instance-field values, keyed by (site, "Class.field").
  std::map<std::pair<uint32_t, std::string>, AbstractRef> FieldMap;
  /// Values stored through a Top receiver, keyed by "Class.field": any
  /// object's field of that name may hold them.
  std::map<std::string, AbstractRef> TopFieldMap;
  /// Per-site array-element values, plus the Top-array bucket.
  std::map<uint32_t, AbstractRef> ElemMap;
  AbstractRef TopElem;
  bool GlobalChanged = false;
};

std::set<std::string> Engine::chaTargets(const std::string &ClassName,
                                         const std::string &MethodName,
                                         const std::string &Sig) const {
  std::set<std::string> Targets;
  std::string Declaring;
  if (!Set.resolveMethod(ClassName, MethodName, Sig, &Declaring))
    return Targets;
  Targets.insert(MethodRef{Declaring, MethodName, Sig}.key());
  for (const auto &[SubName, SubCls] : Set.classes()) {
    if (SubName == Declaring || !Set.isSubclassOf(SubName, ClassName))
      continue;
    if (SubCls->findMethod(MethodName, Sig))
      Targets.insert(MethodRef{SubName, MethodName, Sig}.key());
  }
  return Targets;
}

void Engine::bindCall(const std::string &Target,
                      const std::vector<AbstractRef> &Args) {
  auto It = Methods.find(Target);
  if (It == Methods.end())
    return;
  MethodInfo &MI = It->second;
  if (!MI.Reached) {
    MI.Reached = true;
    GlobalChanged = true;
  }
  if (MI.ParamIn.size() < Args.size())
    MI.ParamIn.resize(Args.size());
  for (size_t I = 0; I < Args.size(); ++I)
    if (MI.ParamIn[I].join(Args[I]))
      GlobalChanged = true;
}

bool Engine::transfer(const std::string &Key, size_t Pc, const Instr &I,
                      FlowState &St, MethodInfo &MI, DataflowResultBuilder &RB) {
  auto Pop = [&]() -> AbstractRef {
    if (St.Stack.empty())
      return AbstractRef::top();
    AbstractRef V = std::move(St.Stack.back());
    St.Stack.pop_back();
    return V;
  };
  auto Push = [&](AbstractRef V) {
    cap(V);
    St.Stack.push_back(std::move(V));
  };
  auto ResolveFieldKey = [&](const std::string &Sym) {
    size_t Dot = Sym.find('.');
    if (Dot == std::string::npos)
      return Sym;
    std::string Declaring;
    if (Set.resolveField(Sym.substr(0, Dot), Sym.substr(Dot + 1),
                         &Declaring))
      return Declaring + "." + Sym.substr(Dot + 1);
    return Sym;
  };

  switch (I.Op) {
  case Opcode::Nop:
    return true;
  case Opcode::IConst:
    Push({});
    return true;
  case Opcode::SConst:
  case Opcode::New:
  case Opcode::NewArray: {
    if (I.Op == Opcode::NewArray)
      Pop(); // length
    uint32_t Id = siteId(Key, Pc);
    Push(Id == UINT32_MAX ? AbstractRef::top() : AbstractRef::one(Id));
    return true;
  }
  case Opcode::NullConst:
    Push({}); // null points to no site
    return true;
  case Opcode::Load: {
    size_t Slot = static_cast<size_t>(I.IVal);
    Push(Slot < St.Locals.size() ? St.Locals[Slot] : AbstractRef::top());
    return true;
  }
  case Opcode::Store: {
    size_t Slot = static_cast<size_t>(I.IVal);
    if (Slot >= St.Locals.size())
      St.Locals.resize(Slot + 1);
    St.Locals[Slot] = Pop();
    return true;
  }
  case Opcode::IAdd: case Opcode::ISub: case Opcode::IMul:
  case Opcode::IDiv: case Opcode::IRem:
    Pop();
    Pop();
    Push({});
    return true;
  case Opcode::INeg:
    Pop();
    Push({});
    return true;
  case Opcode::Dup: {
    AbstractRef V = Pop();
    Push(V);
    Push(V);
    return true;
  }
  case Opcode::Pop:
    Pop();
    return true;
  case Opcode::Goto:
    return true;
  case Opcode::IfEq: case Opcode::IfNe: case Opcode::IfLt:
  case Opcode::IfGe: case Opcode::IfGt: case Opcode::IfLe:
  case Opcode::IfNull: case Opcode::IfNonNull:
    Pop();
    return true;
  case Opcode::IfICmpEq: case Opcode::IfICmpNe: case Opcode::IfICmpLt:
  case Opcode::IfICmpGe: case Opcode::IfICmpGt: case Opcode::IfICmpLe:
  case Opcode::IfACmpEq: case Opcode::IfACmpNe:
    Pop();
    Pop();
    return true;
  case Opcode::GetField: {
    AbstractRef Recv = Pop();
    if (!Type::isValidDescriptor(I.Sig) ||
        !Type::parse(I.Sig).isReferenceLike()) {
      Push({});
      return true;
    }
    if (Recv.Top) {
      Push(AbstractRef::top());
      return true;
    }
    std::string FKey = ResolveFieldKey(I.Sym);
    AbstractRef V;
    auto TF = TopFieldMap.find(FKey);
    if (TF != TopFieldMap.end())
      V.join(TF->second);
    for (uint32_t S : Recv.Sites) {
      auto It = FieldMap.find({S, FKey});
      if (It != FieldMap.end())
        V.join(It->second);
    }
    Push(V);
    return true;
  }
  case Opcode::PutField: {
    AbstractRef Val = Pop();
    AbstractRef Recv = Pop();
    if (Val.bottom())
      return true; // ints and nulls carry nothing
    std::string FKey = ResolveFieldKey(I.Sym);
    if (Recv.Top) {
      if (TopFieldMap[FKey].join(Val))
        GlobalChanged = true;
      cap(TopFieldMap[FKey]);
      return true;
    }
    for (uint32_t S : Recv.Sites) {
      AbstractRef &F = FieldMap[{S, FKey}];
      if (F.join(Val))
        GlobalChanged = true;
      cap(F);
    }
    return true;
  }
  case Opcode::GetStatic:
    // Statics may have been written by boot code that predates the
    // analyzed region (the entry points are post-boot run loops), so a
    // static read is unknown provenance by policy.
    if (Type::isValidDescriptor(I.Sig) &&
        Type::parse(I.Sig).isReferenceLike())
      Push(AbstractRef::top());
    else
      Push({});
    return true;
  case Opcode::PutStatic:
    Pop();
    return true;
  case Opcode::InstanceOf:
    Pop();
    Push({});
    return true;
  case Opcode::CheckCast: {
    AbstractRef V = Pop();
    // A successful cast guarantees the runtime class conforms to Sym, so
    // filtering incompatible sites is sound for the fallthrough path.
    if (!V.Top && Set.contains(I.Sym)) {
      std::set<uint32_t> Kept;
      for (uint32_t S : V.Sites) {
        const std::string &TN = Sites[S].TypeName;
        bool IsObj = !TN.empty() && TN[0] != '[';
        if (IsObj ? Set.isSubclassOf(TN, I.Sym) : false)
          Kept.insert(S);
      }
      V.Sites = std::move(Kept);
    }
    Push(V);
    return true;
  }
  case Opcode::InvokeVirtual:
  case Opcode::InvokeStatic:
  case Opcode::InvokeSpecial: {
    size_t Dot = I.Sym.find('.');
    if (Dot == std::string::npos)
      return false;
    std::string ClassName = I.Sym.substr(0, Dot);
    std::string MethodName = I.Sym.substr(Dot + 1);
    MethodSignature Sig = MethodSignature::parse(I.Sig);
    bool HasThis = I.Op != Opcode::InvokeStatic;
    size_t NumArgs = Sig.Params.size() + (HasThis ? 1 : 0);
    std::vector<AbstractRef> Args(NumArgs);
    for (size_t A = NumArgs; A-- > 0;)
      Args[A] = Pop();

    std::set<std::string> Targets;
    std::string Declaring;
    const MethodDef *Callee =
        Set.resolveMethod(ClassName, MethodName, I.Sig, &Declaring);
    if (Callee) {
      if (I.Op != Opcode::InvokeVirtual) {
        Targets.insert(MethodRef{Declaring, MethodName, I.Sig}.key());
      } else {
        std::set<std::string> Cha = chaTargets(ClassName, MethodName, I.Sig);
        ++RB.virtualSites();
        const AbstractRef &Recv = Args[0];
        if (Recv.Top) {
          Targets = Cha;
        } else {
          for (uint32_t S : Recv.Sites) {
            const std::string &TN = Sites[S].TypeName;
            if (TN.empty() || TN[0] == '[')
              continue;
            std::string D;
            if (Set.resolveMethod(TN, MethodName, I.Sig, &D))
              Targets.insert(MethodRef{D, MethodName, I.Sig}.key());
          }
          if (Targets.size() < Cha.size())
            ++RB.narrowed();
        }
        RB.receivers()[{Key, Pc}] = Recv;
      }
    }
    RB.callees()[{Key, Pc}] = Targets;
    for (const std::string &T : Targets)
      bindCall(T, Args);

    if (Sig.Return.descriptor() == "V")
      return true;
    if (!Sig.Return.isReferenceLike()) {
      Push({});
      return true;
    }
    AbstractRef Ret;
    for (const std::string &T : Targets)
      Ret.join(returnOf(T));
    if (Targets.empty())
      Ret = AbstractRef::top();
    Push(Ret);
    return true;
  }
  case Opcode::ALoad: {
    Pop(); // index
    AbstractRef Arr = Pop();
    AbstractRef V;
    if (Arr.Top) {
      V = AbstractRef::top();
    } else {
      V.join(TopElem);
      for (uint32_t S : Arr.Sites) {
        auto It = ElemMap.find(S);
        if (It != ElemMap.end())
          V.join(It->second);
      }
    }
    Push(V);
    return true;
  }
  case Opcode::AStore: {
    AbstractRef Val = Pop();
    Pop(); // index
    AbstractRef Arr = Pop();
    if (Val.bottom())
      return true;
    if (Arr.Top) {
      if (TopElem.join(Val))
        GlobalChanged = true;
      cap(TopElem);
      return true;
    }
    for (uint32_t S : Arr.Sites) {
      AbstractRef &E = ElemMap[S];
      if (E.join(Val))
        GlobalChanged = true;
      cap(E);
    }
    return true;
  }
  case Opcode::ArrayLength:
    Pop();
    Push({});
    return true;
  case Opcode::Return:
  case Opcode::IReturn:
    return true;
  case Opcode::AReturn: {
    AbstractRef V = Pop();
    if (MI.Ret.join(V)) {
      cap(MI.Ret);
      GlobalChanged = true;
    }
    return true;
  }
  case Opcode::Intrinsic: {
    size_t Pops;
    int Pushes;
    bool PushesRef;
    intrinsicEffect(static_cast<IntrinsicId>(I.IVal), Pops, Pushes,
                    PushesRef);
    for (size_t P = 0; P < Pops; ++P)
      Pop();
    if (Pushes)
      Push(PushesRef ? AbstractRef::top() : AbstractRef{});
    return true;
  }
  }
  return false;
}

bool Engine::analyzeMethod(const std::string &Key, DataflowResultBuilder &RB) {
  MethodInfo &MI = Methods[Key];
  if (!MI.Def || MI.Def->Code.empty())
    return true;
  const std::vector<Instr> &Code = MI.Def->Code;

  // Reuse the verifier's abstract interpretation as the admission gate:
  // only bodies with per-pc shapes are traced precisely. A non-verifying
  // body (possible only outside the installed-program contract) degrades
  // to CHA edges with unknown arguments, never to silence.
  if (!MI.ShapesComputed) {
    MI.Shapes = computeStackShapes(Set, *MI.Cls, *MI.Def);
    MI.ShapesComputed = true;
  }
  if (MI.Shapes.empty()) {
    for (size_t Pc = 0; Pc < Code.size(); ++Pc) {
      const Instr &I = Code[Pc];
      if (I.Op != Opcode::InvokeVirtual && I.Op != Opcode::InvokeStatic &&
          I.Op != Opcode::InvokeSpecial)
        continue;
      size_t Dot = I.Sym.find('.');
      if (Dot == std::string::npos)
        continue;
      std::set<std::string> Targets =
          chaTargets(I.Sym.substr(0, Dot), I.Sym.substr(Dot + 1), I.Sig);
      MethodSignature Sig = MethodSignature::parse(I.Sig);
      std::vector<AbstractRef> Args(
          Sig.Params.size() + (I.Op == Opcode::InvokeStatic ? 0 : 1),
          AbstractRef::top());
      RB.callees()[{Key, Pc}] = Targets;
      for (const std::string &T : Targets)
        bindCall(T, Args);
    }
    return true;
  }

  FlowState Entry;
  Entry.Locals.resize(std::max<size_t>(MI.Def->NumLocals,
                                       MI.Def->numParamSlots()));
  for (size_t P = 0; P < MI.ParamIn.size() && P < Entry.Locals.size(); ++P)
    Entry.Locals[P] = MI.ParamIn[P];

  std::vector<FlowState> In(Code.size());
  std::vector<bool> Seen(Code.size(), false);
  In[0] = Entry;
  Seen[0] = true;
  std::deque<size_t> Work{0};
  std::vector<size_t> Succs;
  // Bounded: each pc re-enters the worklist only when its in-state grew,
  // and the per-slot lattice is finite.
  while (!Work.empty()) {
    size_t Pc = Work.front();
    Work.pop_front();
    if (Pc >= Code.size())
      continue;
    FlowState St = In[Pc];
    if (!transfer(Key, Pc, Code[Pc], St, MI, RB))
      continue;
    successors(Code, Pc, Succs);
    for (size_t S : Succs) {
      if (S >= Code.size())
        continue;
      if (!Seen[S]) {
        Seen[S] = true;
        In[S] = St;
        Work.push_back(S);
      } else if (In[S].join(St)) {
        Work.push_back(S);
      }
    }
  }
  return true;
}

DataflowResult Engine::run() {
  DataflowResult Result;
  DataflowResultBuilder RB{Result};

  // Pass 1: nodes and allocation sites over the whole program.
  for (const auto &[ClassName, Cls] : Set.classes()) {
    for (const MethodDef &M : Cls->Methods) {
      std::string Key = MethodRef{ClassName, M.Name, M.Sig}.key();
      MethodInfo &MI = Methods[Key];
      MI.Cls = Cls.get();
      MI.Def = &M;
      for (size_t Pc = 0; Pc < M.Code.size(); ++Pc) {
        const Instr &I = M.Code[Pc];
        if (I.Op != Opcode::New && I.Op != Opcode::NewArray &&
            I.Op != Opcode::SConst)
          continue;
        AllocSite S;
        S.Method = Key;
        S.Pc = Pc;
        if (I.Op == Opcode::New) {
          S.TypeName = I.Sym;
        } else if (I.Op == Opcode::SConst) {
          S.TypeName = "String";
        } else {
          S.TypeName = "[" + I.Sig;
          // Peel array descriptors to the element class, the same way
          // Upt::referencedClasses does.
          if (Type::isValidDescriptor(I.Sig) && I.Sig != "V") {
            Type T = Type::parse(I.Sig);
            while (T.isArray())
              T = T.elementType();
            if (T.isRef())
              S.ElemClass = T.className();
          }
        }
        SiteIds[{Key, Pc}] = static_cast<uint32_t>(Sites.size());
        Sites.push_back(std::move(S));
      }
    }
  }

  // Seed: the given entries with unknown parameters, or — when no entry
  // points were supplied — every method (the synthesis-only mode).
  std::vector<std::string> Seeds;
  if (Opts.EntryPoints.empty()) {
    for (const auto &[Key, MI] : Methods)
      Seeds.push_back(Key);
  } else {
    for (const std::string &E : Opts.EntryPoints)
      if (Methods.count(E))
        Seeds.push_back(E);
  }
  for (const std::string &Key : Seeds) {
    MethodInfo &MI = Methods[Key];
    MI.Reached = true;
    if (MI.Def) {
      MI.ParamIn.assign(MI.Def->numParamSlots(), AbstractRef::top());
    }
  }

  // Global fixpoint: repeat full passes over the reached region until no
  // summary, field map, or reachability bit changes. Monotone and finite,
  // with a generous pass bound as a backstop.
  for (int Round = 0; Round < 64; ++Round) {
    GlobalChanged = false;
    RB.callees().clear();
    RB.receivers().clear();
    RB.narrowed() = 0;
    RB.virtualSites() = 0;
    for (auto &[Key, MI] : Methods) {
      if (!MI.Reached)
        continue;
      analyzeMethod(Key, RB);
    }
    if (!GlobalChanged)
      break;
  }

  RB.sites() = std::move(Sites);
  for (const auto &[Key, MI] : Methods)
    if (MI.Reached)
      RB.reachable().insert(Key);
  return Result;
}

} // namespace

DataflowAnalysis::DataflowAnalysis(const ClassSet &Set) : Set(Set) {}

DataflowResult DataflowAnalysis::run(const DataflowOptions &Opts) {
  return Engine(Set, Opts).run();
}

const std::set<std::string> *
DataflowResult::calleesAt(const std::string &MethodKey, size_t Pc) const & {
  auto It = Callees.find({MethodKey, Pc});
  return It == Callees.end() ? nullptr : &It->second;
}

std::set<std::string>
DataflowResult::receiverClasses(const std::string &MethodKey, size_t Pc,
                                bool &Unknown) const {
  std::set<std::string> Classes;
  Unknown = true;
  auto It = Receivers.find({MethodKey, Pc});
  if (It == Receivers.end())
    return Classes;
  Unknown = It->second.Top;
  for (uint32_t S : It->second.Sites)
    Classes.insert(Sites[S].TypeName);
  return Classes;
}

std::map<std::string, std::set<uint16_t>>
jvolve::paramFieldFlows(const ClassSet &, const ClassDef &,
                        const MethodDef &M) {
  std::map<std::string, std::set<uint16_t>> Flows;
  if (M.Code.empty())
    return Flows;
  uint16_t NumParams = M.numParamSlots();
  if (NumParams == 0 || NumParams > 32)
    return Flows;

  // A tiny origin analysis: each slot carries a bitmask of the parameter
  // slots whose value may have flowed into it unchanged. Bit 0 is `this`
  // for instance methods, so a PutField whose receiver mask includes bit 0
  // is an assignment through the method's own receiver.
  using Mask = uint32_t;
  struct State {
    std::vector<Mask> Locals, Stack;
    bool join(const State &O) {
      bool Changed = false;
      if (Locals.size() < O.Locals.size())
        Locals.resize(O.Locals.size());
      for (size_t I = 0; I < O.Locals.size(); ++I) {
        Mask Joined = Locals[I] | O.Locals[I];
        Changed |= Joined != Locals[I];
        Locals[I] = Joined;
      }
      if (Stack.size() != O.Stack.size())
        Stack.resize(std::max(Stack.size(), O.Stack.size()));
      for (size_t I = 0; I < std::min(Stack.size(), O.Stack.size()); ++I) {
        Mask Joined = Stack[I] | O.Stack[I];
        Changed |= Joined != Stack[I];
        Stack[I] = Joined;
      }
      return Changed;
    }
  };

  State Entry;
  Entry.Locals.resize(std::max<size_t>(M.NumLocals, NumParams), 0);
  for (uint16_t P = 0; P < NumParams; ++P)
    Entry.Locals[P] = Mask(1) << P;

  std::vector<State> In(M.Code.size());
  std::vector<bool> Seen(M.Code.size(), false);
  In[0] = Entry;
  Seen[0] = true;
  std::deque<size_t> Work{0};
  std::vector<size_t> Succs;
  while (!Work.empty()) {
    size_t Pc = Work.front();
    Work.pop_front();
    State St = In[Pc];
    const Instr &I = M.Code[Pc];
    auto Pop = [&]() -> Mask {
      if (St.Stack.empty())
        return 0;
      Mask V = St.Stack.back();
      St.Stack.pop_back();
      return V;
    };

    switch (I.Op) {
    case Opcode::Load: {
      size_t Slot = static_cast<size_t>(I.IVal);
      St.Stack.push_back(Slot < St.Locals.size() ? St.Locals[Slot] : 0);
      break;
    }
    case Opcode::Store: {
      size_t Slot = static_cast<size_t>(I.IVal);
      if (Slot >= St.Locals.size())
        St.Locals.resize(Slot + 1, 0);
      St.Locals[Slot] = Pop();
      break;
    }
    case Opcode::Dup: {
      Mask V = Pop();
      St.Stack.push_back(V);
      St.Stack.push_back(V);
      break;
    }
    case Opcode::PutField: {
      Mask Val = Pop();
      Mask Recv = Pop();
      if (!M.IsStatic && (Recv & 1) && Val) {
        size_t Dot = I.Sym.find('.');
        std::string FieldName =
            Dot == std::string::npos ? I.Sym : I.Sym.substr(Dot + 1);
        for (uint16_t P = 0; P < NumParams; ++P)
          if (Val & (Mask(1) << P))
            Flows[FieldName].insert(P);
      }
      break;
    }
    case Opcode::InvokeVirtual:
    case Opcode::InvokeStatic:
    case Opcode::InvokeSpecial: {
      MethodSignature Sig = MethodSignature::parse(I.Sig);
      size_t NumArgs =
          Sig.Params.size() + (I.Op == Opcode::InvokeStatic ? 0 : 1);
      for (size_t A = 0; A < NumArgs; ++A)
        Pop();
      if (Sig.Return.descriptor() != "V")
        St.Stack.push_back(0); // call results are not direct param copies
      break;
    }
    case Opcode::Intrinsic: {
      size_t Pops;
      int Pushes;
      bool PushesRef;
      intrinsicEffect(static_cast<IntrinsicId>(I.IVal), Pops, Pushes,
                      PushesRef);
      for (size_t P = 0; P < Pops; ++P)
        Pop();
      if (Pushes)
        St.Stack.push_back(0);
      break;
    }
    default: {
      // Everything else only shuffles non-origin values: pop its operands,
      // push zero masks for its results.
      static const struct { Opcode Op; int Pops, Pushes; } Effects[] = {
          {Opcode::IConst, 0, 1},     {Opcode::SConst, 0, 1},
          {Opcode::NullConst, 0, 1},  {Opcode::IAdd, 2, 1},
          {Opcode::ISub, 2, 1},       {Opcode::IMul, 2, 1},
          {Opcode::IDiv, 2, 1},       {Opcode::IRem, 2, 1},
          {Opcode::INeg, 1, 1},       {Opcode::Pop, 1, 0},
          {Opcode::IfEq, 1, 0},       {Opcode::IfNe, 1, 0},
          {Opcode::IfLt, 1, 0},       {Opcode::IfGe, 1, 0},
          {Opcode::IfGt, 1, 0},       {Opcode::IfLe, 1, 0},
          {Opcode::IfICmpEq, 2, 0},   {Opcode::IfICmpNe, 2, 0},
          {Opcode::IfICmpLt, 2, 0},   {Opcode::IfICmpGe, 2, 0},
          {Opcode::IfICmpGt, 2, 0},   {Opcode::IfICmpLe, 2, 0},
          {Opcode::IfNull, 1, 0},     {Opcode::IfNonNull, 1, 0},
          {Opcode::IfACmpEq, 2, 0},   {Opcode::IfACmpNe, 2, 0},
          {Opcode::New, 0, 1},        {Opcode::GetField, 1, 1},
          {Opcode::GetStatic, 0, 1},  {Opcode::PutStatic, 1, 0},
          {Opcode::InstanceOf, 1, 1}, {Opcode::NewArray, 1, 1},
          {Opcode::ALoad, 2, 1},      {Opcode::AStore, 3, 0},
          {Opcode::ArrayLength, 1, 1}};
      bool Handled = false;
      for (const auto &E : Effects) {
        if (E.Op != I.Op)
          continue;
        for (int P = 0; P < E.Pops; ++P)
          Pop();
        for (int P = 0; P < E.Pushes; ++P)
          St.Stack.push_back(0);
        Handled = true;
        break;
      }
      if (I.Op == Opcode::CheckCast) {
        Mask V = Pop();
        St.Stack.push_back(V); // a cast preserves the value
      } else if (!Handled) {
        // Nop, Goto, returns: no stack effect we track.
      }
      break;
    }
    }

    successors(M.Code, Pc, Succs);
    for (size_t S : Succs) {
      if (S >= M.Code.size())
        continue;
      if (!Seen[S]) {
        Seen[S] = true;
        In[S] = St;
        Work.push_back(S);
      } else if (In[S].join(St)) {
        Work.push_back(S);
      }
    }
  }
  return Flows;
}
