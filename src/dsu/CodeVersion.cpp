#include "dsu/CodeVersion.h"

#include "dsu/UpdateTrace.h"
#include "support/Error.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <set>

using namespace jvolve;

CodeVersionManager &CodeVersionManager::of(VM &TheVM) {
  if (!TheVM.codeVersions())
    TheVM.installCodeVersions(std::make_unique<CodeVersionManager>(TheVM));
  return *static_cast<CodeVersionManager *>(TheVM.codeVersions());
}

std::pair<MethodId, std::shared_ptr<const MethodDef>>
CodeVersionManager::resolve(const ClassRegistry &Reg,
                            const ClassSet &NewProgram, const MethodRef &R) {
  ClassId Cls = Reg.idOf(R.ClassName);
  if (Cls == InvalidClassId)
    throw UpdateError("install",
                      "body update on unknown class '" + R.ClassName + "'");
  MethodId Id = Reg.resolveMethod(Cls, R.Name, R.Sig);
  if (Id == InvalidMethodId)
    throw UpdateError("install", "body update on unknown method " + R.key());
  const ClassSet::DefPtr *NewCls = NewProgram.shared(R.ClassName);
  const MethodDef *NewBody =
      NewCls ? (*NewCls)->findMethod(R.Name, R.Sig) : nullptr;
  if (!NewBody)
    throw UpdateError("install", "spec references " + R.key() +
                                     ", which is missing from the new "
                                     "version");
  return {Id, std::shared_ptr<const MethodDef>(*NewCls, NewBody)};
}

bool CodeVersionManager::installBodySet(const std::vector<BodyUpdate> &Updates,
                                        const std::string &Tag,
                                        UpdateTrace *Trace,
                                        std::string *WhyNot) {
  ClassRegistry &Reg = TheVM.registry();
  uint64_t Now = TheVM.scheduler().ticks();

  // Everything one method's swap changed, for the mid-chain unwind: the
  // registry's prior (Def, Code, InvokeCount) triple plus how the chain
  // mutated. Unwinding in reverse order restores the exact pre-batch state,
  // so the prior active versions keep serving after an injected failure.
  struct AppliedOp {
    MethodId Method = InvalidMethodId;
    std::shared_ptr<const MethodDef> PrevDef;
    std::shared_ptr<CompiledMethod> PrevCode;
    uint64_t PrevInvokeCount = 0;
    bool CreatedChain = false;
    bool PushedNode = false;
    bool WasPop = false;
    CodeVersionNode PoppedNode;
  };
  std::vector<AppliedOp> AppliedOps;

  auto Unwind = [&] {
    for (auto It = AppliedOps.rbegin(); It != AppliedOps.rend(); ++It) {
      RtMethod &M = Reg.method(It->Method);
      Reg.setMethodState(It->Method, It->PrevDef, It->PrevCode,
                         It->PrevInvokeCount);
      if (M.Code)
        M.Code->Superseded = false;
      MethodVersionChain &VC = Chains[It->Method];
      if (It->PushedNode) {
        VC.Chain.pop_back();
        // The node is active again; its archive slots go back to unused.
        VC.Chain.back().Code = nullptr;
        VC.Chain.back().InvokeCount = 0;
      }
      if (It->WasPop)
        VC.Chain.push_back(It->PoppedNode);
      if (It->CreatedChain)
        Chains.erase(It->Method);
    }
  };

  size_t Pops = 0;
  for (const BodyUpdate &U : Updates) {
    assert(U.Method != InvalidMethodId && U.NewBody &&
           "body update must be resolved before install");

    // A mid-chain install failure: the already-swapped prefix unwinds and
    // the epoch never advances, so no thread can observe a partial switch.
    if (TheVM.faults().probe(FaultInjector::Site::CodeVersionInstall)) {
      Unwind();
      if (WhyNot)
        *WhyNot = "injected code-version install failure "
                  "(codeversion-install) at " +
                  U.Display + "; prior active versions still serving";
      return false;
    }

    AppliedOp Op;
    Op.Method = U.Method;
    RtMethod &M = Reg.method(U.Method);
    Op.PrevDef = M.Def;
    Op.PrevCode = M.Code;
    Op.PrevInvokeCount = M.InvokeCount;

    auto ChainIt = Chains.find(U.Method);
    if (ChainIt == Chains.end()) {
      // First touch: version 0 is the body the class loader installed.
      MethodVersionChain VC;
      VC.Method = U.Method;
      VC.Chain.push_back({0, "v0", M.Def, nullptr, 0, Now});
      ChainIt = Chains.emplace(U.Method, std::move(VC)).first;
      Op.CreatedChain = true;
    }
    MethodVersionChain &VC = ChainIt->second;

    if (VC.Chain.size() >= 2 &&
        U.NewBody->codeEquals(*VC.Chain[VC.Chain.size() - 2].Def)) {
      // Revert pop: the new body is the parent version's body, so retire
      // the current node and reactivate the parent — restoring its
      // archived compiled tier and invoke count instead of recompiling.
      Op.WasPop = true;
      Op.PoppedNode = VC.Chain.back();
      VC.Chain.pop_back();
      if (M.Code)
        M.Code->Superseded = true;
      CodeVersionNode &Parent = VC.Chain.back();
      Reg.setMethodState(U.Method, Parent.Def, Parent.Code,
                         Parent.InvokeCount);
      if (M.Code)
        M.Code->Superseded = false;
      Parent.Code = nullptr;
      Parent.InvokeCount = 0;
      ++Pops;
    } else {
      // Archive the active version (compiled tier + heat) in its node,
      // supersede its code, and install the new body as the next version.
      CodeVersionNode &Top = VC.Chain.back();
      Top.Code = M.Code;
      Top.InvokeCount = M.InvokeCount;
      if (M.Code)
        M.Code->Superseded = true;
      // A versioned install keeps the heat (setMethodBody would re-profile
      // from zero) so ensureCompiledForInvoke repromotes a hot method
      // straight at the opt tier on its next invocation.
      Reg.setMethodState(U.Method, U.NewBody, nullptr, Op.PrevInvokeCount);
      VC.Chain.push_back(
          {Top.VersionId + 1, Tag, M.Def, nullptr, 0, Now});
      Op.PushedNode = true;
    }
    AppliedOps.push_back(std::move(Op));
  }

  // Callers that inlined a swapped body embed the old bytecode: invalidate
  // them (they recompile against the active versions on next invoke) and
  // supersede their in-flight code so the stale-frame gauge tracks them.
  std::set<MethodId> Changed;
  for (const BodyUpdate &U : Updates)
    Changed.insert(U.Method);
  for (MethodId Id = 0; Id < Reg.numMethods(); ++Id) {
    RtMethod &M = Reg.method(Id);
    if (!M.Code || Changed.count(Id))
      continue;
    for (MethodId Inl : M.Code->Inlined)
      if (Changed.count(Inl)) {
        M.Code->Superseded = true;
        Reg.invalidateCode(Id);
        break;
      }
  }

  // Commit: one epoch bump for the whole batch — the atomic switch every
  // thread observes (all of it or none of it) at its next poll point.
  ++Epoch;
  Installs += Updates.size();
  RevertPops += Pops;
  uint64_t Stale = recountStaleFrames();
  publishGauges();

  if (Trace) {
    Trace->record(UpdateEventKind::CodeVersionInstalled, Now,
                  static_cast<int64_t>(Updates.size()),
                  Tag + ": " + std::to_string(Updates.size() - Pops) +
                      " body install(s), " + std::to_string(Pops) +
                      " revert pop(s), no safe point");
    if (Pops)
      Trace->record(UpdateEventKind::CodeVersionReverted, Now,
                    static_cast<int64_t>(Pops),
                    "chains popped to the prior active version");
    Trace->record(UpdateEventKind::CodeVersionSwitched, Now,
                  static_cast<int64_t>(Epoch),
                  std::to_string(Stale) +
                      " in-flight frame(s) finishing on old versions");
  }
  return true;
}

void CodeVersionManager::onThreadPoll(VMThread &T, uint64_t /*Now*/) {
  T.CodeEpoch = Epoch;
  ++PollObservations;
}

void CodeVersionManager::onStaleFrameReturn() {
  recountStaleFrames();
  publishGauges();
}

uint64_t CodeVersionManager::recountStaleFrames() {
  uint64_t Stale = 0;
  for (const auto &T : TheVM.scheduler().threads()) {
    if (T->stopped())
      continue;
    for (const Frame &F : T->Frames)
      Stale += F.Code && F.Code->Superseded;
  }
  LastStaleCount = Stale;
  return Stale;
}

void CodeVersionManager::publishGauges() {
  if (!Telemetry::isEnabled())
    return;
  Telemetry &Tel = Telemetry::global();
  Tel.gauge(metrics::DsuCodeVersionInstalls)
      .set(static_cast<int64_t>(Installs));
  Tel.gauge(metrics::DsuCodeVersionSwitches).set(static_cast<int64_t>(Epoch));
  Tel.gauge(metrics::DsuCodeVersionChains)
      .set(static_cast<int64_t>(chains()));
  Tel.gauge(metrics::DsuCodeVersionStaleFrames)
      .set(static_cast<int64_t>(LastStaleCount));
}

size_t CodeVersionManager::chains() const {
  size_t N = 0;
  for (const auto &[M, VC] : Chains)
    N += VC.Chain.size() >= 2;
  return N;
}

uint64_t CodeVersionManager::staleFrames() const {
  uint64_t Stale = 0;
  for (const auto &T : TheVM.scheduler().threads()) {
    if (T->stopped())
      continue;
    for (const Frame &F : T->Frames)
      Stale += F.Code && F.Code->Superseded;
  }
  return Stale;
}

const MethodVersionChain *
CodeVersionManager::chainFor(MethodId Method) const {
  auto It = Chains.find(Method);
  return It == Chains.end() ? nullptr : &It->second;
}

std::string CodeVersionManager::activeVersionTable() const {
  ClassRegistry &Reg = TheVM.registry();
  std::string Out = "code versions: " + std::to_string(Chains.size()) +
                    " method(s) versioned, epoch " + std::to_string(Epoch) +
                    ", " + std::to_string(staleFrames()) +
                    " stale frame(s)\n";
  if (Chains.empty())
    return Out;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "  %-44s %7s %6s  %s\n", "method", "active",
                "depth", "tag");
  Out += Buf;
  for (const auto &[Id, VC] : Chains) {
    const RtMethod &M = Reg.method(Id);
    std::string Name = Reg.cls(M.Owner).Name + "." + M.Name + M.Sig;
    const CodeVersionNode &Active = VC.Chain.back();
    std::snprintf(Buf, sizeof(Buf), "  %-44s %6sv%llu %6zu  %s\n",
                  Name.c_str(), "",
                  static_cast<unsigned long long>(Active.VersionId),
                  VC.Chain.size(), Active.Tag.c_str());
    Out += Buf;
  }
  return Out;
}
