#include "dsu/Analysis.h"

#include "bytecode/Verifier.h"
#include "dsu/Dataflow.h"
#include "dsu/UpdateBundle.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <deque>

using namespace jvolve;

const char *jvolve::applicabilityName(Applicability A) {
  switch (A) {
  case Applicability::Applicable: return "applicable";
  case Applicability::NeedsOsr: return "needs-osr";
  case Applicability::Impossible: return "impossible";
  }
  return "?";
}

namespace {

/// CFG successors of the instruction at \p Pc (branch targets clamped away
/// when out of bounds; the verifier reports those, not us).
void successors(const MethodDef &M, size_t Pc, std::vector<size_t> &Out) {
  Out.clear();
  const Instr &I = M.Code[Pc];
  bool FallsThrough = true;
  switch (I.Op) {
  case Opcode::Goto:
    FallsThrough = false;
    [[fallthrough]];
  case Opcode::IfEq: case Opcode::IfNe: case Opcode::IfLt:
  case Opcode::IfGe: case Opcode::IfGt: case Opcode::IfLe:
  case Opcode::IfICmpEq: case Opcode::IfICmpNe: case Opcode::IfICmpLt:
  case Opcode::IfICmpGe: case Opcode::IfICmpGt: case Opcode::IfICmpLe:
  case Opcode::IfNull: case Opcode::IfNonNull:
  case Opcode::IfACmpEq: case Opcode::IfACmpNe:
    if (I.IVal >= 0 && static_cast<size_t>(I.IVal) < M.Code.size())
      Out.push_back(static_cast<size_t>(I.IVal));
    break;
  case Opcode::Return: case Opcode::IReturn: case Opcode::AReturn:
    FallsThrough = false;
    break;
  default:
    break;
  }
  if (FallsThrough && Pc + 1 < M.Code.size())
    Out.push_back(Pc + 1);
}

/// Pcs reachable from entry (pc 0).
std::vector<bool> reachablePcs(const MethodDef &M) {
  std::vector<bool> Seen(M.Code.size(), false);
  if (M.Code.empty())
    return Seen;
  std::deque<size_t> Work{0};
  Seen[0] = true;
  std::vector<size_t> Succs;
  while (!Work.empty()) {
    size_t Pc = Work.front();
    Work.pop_front();
    successors(M, Pc, Succs);
    for (size_t S : Succs)
      if (!Seen[S]) {
        Seen[S] = true;
        Work.push_back(S);
      }
  }
  return Seen;
}

bool isBlockingIntrinsic(const Instr &I) {
  if (I.Op != Opcode::Intrinsic)
    return false;
  switch (static_cast<IntrinsicId>(I.IVal)) {
  case IntrinsicId::SleepTicks:
  case IntrinsicId::NetAccept:
  case IntrinsicId::NetRecv:
    return true;
  default:
    return false;
  }
}

/// True when the reachable pc \p Pc lies on a CFG cycle.
bool onCycle(const MethodDef &M, size_t Pc) {
  std::vector<bool> Seen(M.Code.size(), false);
  std::deque<size_t> Work;
  std::vector<size_t> Succs;
  successors(M, Pc, Succs);
  for (size_t S : Succs)
    if (!Seen[S]) {
      Seen[S] = true;
      Work.push_back(S);
    }
  while (!Work.empty()) {
    size_t Cur = Work.front();
    Work.pop_front();
    if (Cur == Pc)
      return true;
    successors(M, Cur, Succs);
    for (size_t S : Succs)
      if (!Seen[S]) {
        Seen[S] = true;
        Work.push_back(S);
      }
  }
  return false;
}

/// A changed method that can sit in a blocking intrinsic inside a loop may
/// hold its safe point off indefinitely under load (CrossFTP 1.08's
/// "applies on an idle server" shape).
bool blocksInLoop(const MethodDef &M) {
  std::vector<bool> Reach = reachablePcs(M);
  for (size_t Pc = 0; Pc < M.Code.size(); ++Pc)
    if (Reach[Pc] && isBlockingIntrinsic(M.Code[Pc]) && onCycle(M, Pc))
      return true;
  return false;
}

const MethodDef *findMethod(const ClassSet &Set, const MethodRef &R,
                            const ClassDef **ClsOut = nullptr) {
  const ClassDef *Cls = Set.find(R.ClassName);
  if (ClsOut)
    *ClsOut = Cls;
  if (!Cls)
    return nullptr;
  return Cls->findMethod(R.Name, R.Sig);
}

/// True when runtime values typed \p OldSlot can flow into a new-code slot
/// expecting \p NewSlot: identical shapes, or a provably-null old value
/// entering any reference-typed slot.
bool slotCompatible(const std::string &OldSlot, const std::string &NewSlot) {
  if (OldSlot == NewSlot)
    return true;
  return OldSlot == "null" && NewSlot != "int";
}

std::string joinLines(const std::vector<std::string> &V,
                      const std::string &Indent) {
  std::string Out;
  for (const std::string &S : V)
    Out += Indent + S + "\n";
  return Out;
}

} // namespace

bool UpdateAnalysis::neverReturns(const MethodDef &M) {
  if (M.Code.empty())
    return false;
  std::vector<bool> Reach = reachablePcs(M);
  for (size_t Pc = 0; Pc < M.Code.size(); ++Pc) {
    if (!Reach[Pc])
      continue;
    Opcode Op = M.Code[Pc].Op;
    if (Op == Opcode::Return || Op == Opcode::IReturn ||
        Op == Opcode::AReturn)
      return false;
  }
  return true;
}

/// Statically checks one ActiveMethodMapping: the old and new bodies must
/// exist, the pc map must cover every reachable old pc (the yield points),
/// every target must be in bounds, and the verifier-inferred operand stack
/// at each mapped old pc must be usable at its new pc. \returns true when
/// the mapping can lift a running frame; appends diagnostics otherwise.
static bool validateMapping(const ClassSet &Old, const ClassSet &New,
                            const ActiveMethodMapping &Map,
                            std::vector<std::string> &Issues) {
  const std::string Key = Map.Method.key();
  const ClassDef *OldCls = nullptr, *NewCls = nullptr;
  const MethodDef *OldM = findMethod(Old, Map.Method, &OldCls);
  const MethodDef *NewM = findMethod(New, Map.Method, &NewCls);
  if (!OldM) {
    Issues.push_back("mapping " + Key + ": method not in the old program");
    return false;
  }
  if (!NewM) {
    Issues.push_back("mapping " + Key + ": method not in the new program");
    return false;
  }

  auto OldShapes = computeStackShapes(Old, *OldCls, *OldM);
  auto NewShapes = computeStackShapes(New, *NewCls, *NewM);
  if (OldShapes.empty() || NewShapes.empty()) {
    Issues.push_back("mapping " + Key +
                     ": method body does not verify; no shape information");
    return false;
  }

  bool Ok = true;
  // Completeness: a frame can be paused at any reachable pc, so every one
  // needs a target. (Mapped pcs that are unreachable or out of range are
  // tolerated — identity maps generated from the new, longer body produce
  // them.)
  for (size_t Pc = 0; Pc < OldShapes.size(); ++Pc) {
    if (!OldShapes[Pc])
      continue;
    if (!Map.PcMap.count(static_cast<uint32_t>(Pc))) {
      Issues.push_back("mapping " + Key + ": old pc " + std::to_string(Pc) +
                       " is reachable but unmapped");
      Ok = false;
    }
  }

  for (const auto &[OldPc, NewPc] : Map.PcMap) {
    if (OldPc >= OldShapes.size() || !OldShapes[OldPc])
      continue; // never observed at a pause; harmless
    if (NewPc >= NewShapes.size()) {
      Issues.push_back("mapping " + Key + ": new pc " +
                       std::to_string(NewPc) + " out of bounds");
      Ok = false;
      continue;
    }
    if (!NewShapes[NewPc]) {
      Issues.push_back("mapping " + Key + ": new pc " +
                       std::to_string(NewPc) +
                       " is unreachable in the new body");
      Ok = false;
      continue;
    }
    const StackShape &OldS = *OldShapes[OldPc];
    const StackShape &NewS = *NewShapes[NewPc];
    if (OldS.size() != NewS.size()) {
      Issues.push_back(
          "mapping " + Key + ": stack height mismatch at old pc " +
          std::to_string(OldPc) + " -> new pc " + std::to_string(NewPc) +
          " (" + std::to_string(OldS.size()) + " vs " +
          std::to_string(NewS.size()) + " slots)");
      Ok = false;
      continue;
    }
    for (size_t S = 0; S < OldS.size(); ++S) {
      if (slotCompatible(OldS[S], NewS[S]))
        continue;
      Issues.push_back("mapping " + Key + ": stack slot " +
                       std::to_string(S) + " at old pc " +
                       std::to_string(OldPc) + " holds " + OldS[S] +
                       " but new pc " + std::to_string(NewPc) +
                       " expects " + NewS[S]);
      Ok = false;
    }
  }
  return Ok;
}

AnalysisReport UpdateAnalysis::analyze(
    const UpdateSpec &Spec,
    const std::map<std::string, ActiveMethodMapping> &Mappings,
    const AnalysisOptions &Opts) const {
  AnalysisReport R;
  auto Start = std::chrono::steady_clock::now();

  CallGraph CG(Old);
  R.NumMethods = CG.numMethods();
  R.NumEdges = CG.numEdges();

  // Category 1/3 seeds: updated, deleted, and user-blacklisted methods.
  std::set<std::string> Seeds;
  std::set<std::string> ChangedBodies;
  for (const MethodRef &Ref : Spec.MethodBodyUpdates) {
    Seeds.insert(Ref.key());
    ChangedBodies.insert(Ref.key());
  }
  for (const MethodRef &Ref : Spec.RemovedMethods)
    Seeds.insert(Ref.key());
  for (const MethodRef &Ref : Spec.Blacklist)
    Seeds.insert(Ref.key());

  R.ConservativeRestricted = CG.transitiveCallers(Seeds);
  R.PreciseRestricted = Seeds;
  for (const std::string &Key : CG.possibleInliners(Seeds))
    R.PreciseRestricted.insert(Key);
  R.PreciseRestrictedCha = R.PreciseRestricted;

  // Dataflow refinement: with entry points, the points-to fixpoint prunes
  // call edges whose receiver provably never holds a relevant class, so a
  // restricted method outside its reachable set can never be on a
  // post-boot stack — its safe point stays usable. Without entry points
  // every method may be live and the refinement must be a no-op.
  if (!Opts.EntryPoints.empty()) {
    DataflowOptions DfOpts;
    DfOpts.EntryPoints = Opts.EntryPoints;
    DataflowResult Df = DataflowAnalysis(Old).run(DfOpts);
    R.DataflowVirtualSites = Df.virtualSites();
    R.DataflowNarrowed = Df.sitesNarrowed();
    std::erase_if(R.PreciseRestricted, [&](const std::string &Key) {
      return !Df.reachableMethods().count(Key);
    });
  }

  // Entry reachability: with no declared entry points every method is
  // assumed live on some stack.
  std::set<std::string> EntryReachable;
  bool AllReachable = Opts.EntryPoints.empty();
  if (!AllReachable)
    EntryReachable = CG.reachableFrom(Opts.EntryPoints);
  auto IsEntryReachable = [&](const std::string &Key) {
    return AllReachable || EntryReachable.count(Key);
  };

  // Validate every provided mapping once; remember which ones lift.
  std::set<std::string> ValidMappings;
  for (const auto &[Key, Map] : Mappings)
    if (validateMapping(Old, New, Map, R.MappingIssues))
      ValidMappings.insert(Key);

  // Non-quiescence prediction over category-1/3 methods: a changed method
  // with no path to a return and a live thread inside it holds its
  // restricted safe point forever. (Tier promotion is invocation-count
  // based, so such a method is base-compiled; a complete, compatible pc
  // map lifts it via in-place replacement.)
  for (const std::string &Key : Seeds) {
    const CallGraphNode *N = CG.node(Key);
    if (!N || !N->Def)
      continue;
    if (!neverReturns(*N->Def) || !IsEntryReachable(Key))
      continue;
    if (ValidMappings.count(Key))
      continue;
    R.PinnedForever.push_back(Key);
  }

  // Category 2: unchanged bodies whose compiled form embeds stale
  // references to updated classes. Never-returning ones need OSR; they are
  // always OSR-eligible (base-compiled, no inlining — see header caveat).
  for (const MethodRef &Ref : Spec.IndirectMethods) {
    std::string Key = Ref.key();
    const CallGraphNode *N = CG.node(Key);
    if (!N || !N->Def)
      continue;
    if (neverReturns(*N->Def) && IsEntryReachable(Key) &&
        !ValidMappings.count(Key))
      R.OsrRequired.push_back(Key);
  }

  // Informational: changed methods that park in blocking intrinsics inside
  // a loop reach their safe point only when traffic pauses.
  for (const std::string &Key : ChangedBodies) {
    const CallGraphNode *N = CG.node(Key);
    if (!N || !N->Def || !IsEntryReachable(Key))
      continue;
    if (!neverReturns(*N->Def) && blocksInLoop(*N->Def))
      R.Warnings.push_back(Key +
                           " blocks on a network/sleep intrinsic inside a "
                           "loop; the update may only apply when idle");
  }

  std::sort(R.PinnedForever.begin(), R.PinnedForever.end());
  std::sort(R.OsrRequired.begin(), R.OsrRequired.end());

  if (!R.PinnedForever.empty()) {
    R.Verdict = Applicability::Impossible;
    R.Reason = R.PinnedForever.front() +
               " contains a non-returning loop, is reachable from a thread "
               "entry point, and has no usable active-method mapping";
  } else if (!R.OsrRequired.empty()) {
    R.Verdict = Applicability::NeedsOsr;
    R.Reason = R.OsrRequired.front() +
               " runs a non-returning loop that references updated classes; "
               "quiescence requires on-stack replacement";
  } else {
    R.Verdict = Applicability::Applicable;
    R.Reason = "no changed or indirect method can pin a thread stack";
  }
  R.RuntimeMs = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  return R;
}

AnalysisReport UpdateAnalysis::analyzeBundle(const UpdateBundle &B,
                                             const AnalysisOptions &Opts) const {
  AnalysisReport R = analyze(B.Spec, B.ActiveMappings, Opts);
  R.VersionTag = B.VersionTag;
  return R;
}

std::string AnalysisReport::table() const {
  std::string Out = "update-safety analysis";
  if (!VersionTag.empty())
    Out += " for " + VersionTag;
  Out += "\n";
  Out += "  call graph: " + std::to_string(NumMethods) + " methods, " +
         std::to_string(NumEdges) + " edges\n";
  Out += "  restricted safe points (conservative closure): " +
         std::to_string(ConservativeRestricted.size()) + "\n";
  Out += "  restricted safe points (precise, inline-aware): " +
         std::to_string(PreciseRestricted.size()) + "  (delta " +
         std::to_string(ConservativeRestricted.size() -
                        PreciseRestricted.size()) +
         " methods keep their safe points)\n";
  if (PreciseRestrictedCha.size() != PreciseRestricted.size())
    Out += "  dataflow refinement: CHA precise " +
           std::to_string(PreciseRestrictedCha.size()) + " -> " +
           std::to_string(PreciseRestricted.size()) + " (" +
           std::to_string(DataflowNarrowed) + "/" +
           std::to_string(DataflowVirtualSites) +
           " virtual sites narrowed)\n";
  Out += "  verdict: " + std::string(applicabilityName(Verdict)) + " — " +
         Reason + "\n";
  if (!PinnedForever.empty())
    Out += "  pinned forever:\n" + joinLines(PinnedForever, "    ");
  if (!OsrRequired.empty())
    Out += "  osr required:\n" + joinLines(OsrRequired, "    ");
  if (!MappingIssues.empty())
    Out += "  mapping issues:\n" + joinLines(MappingIssues, "    ");
  if (!Warnings.empty())
    Out += "  warnings:\n" + joinLines(Warnings, "    ");
  return Out;
}

std::string AnalysisReport::json() const {
  std::string Out = "{\"version\":";
  appendJsonString(Out, VersionTag);
  // Appends `"Key":[...],` with every element escaped.
  auto Array = [&Out](const char *Key, const auto &Items) {
    Out += std::string("\"") + Key + "\":[";
    const char *Sep = "";
    for (const std::string &Item : Items) {
      Out += Sep;
      appendJsonString(Out, Item);
      Sep = ",";
    }
    Out += "],";
  };
  Out += ",\"num_methods\":" + std::to_string(NumMethods) + ",";
  Out += "\"num_edges\":" + std::to_string(NumEdges) + ",";
  Array("restricted_conservative", ConservativeRestricted);
  Array("restricted_precise", PreciseRestricted);
  Array("restricted_cha", PreciseRestrictedCha);
  // The same gauge values --metrics-out publishes, under their metric
  // names, so the JSON and the metrics file share one schema.
  Out += "\"gauges\":{";
  Out += "\"dsu.analysis.restricted_conservative\":" +
         std::to_string(ConservativeRestricted.size()) + ",";
  Out += "\"dsu.analysis.restricted_precise\":" +
         std::to_string(PreciseRestricted.size()) + ",";
  Out += "\"dsu.analysis.restricted_delta\":" +
         std::to_string(ConservativeRestricted.size() -
                        PreciseRestricted.size()) +
         ",";
  Out += "\"dsu.analysis.restricted_cha\":" +
         std::to_string(PreciseRestrictedCha.size()) + ",";
  Out += "\"dsu.analysis.runtime_ms\":" +
         std::to_string(static_cast<int64_t>(RuntimeMs + 0.5)) + "},";
  Array("pinned_forever", PinnedForever);
  Array("osr_required", OsrRequired);
  Array("mapping_issues", MappingIssues);
  Array("warnings", Warnings);
  Out += "\"verdict\":\"" + std::string(applicabilityName(Verdict)) + "\",";
  Out += "\"reason\":";
  appendJsonString(Out, Reason);
  return Out + "}";
}

void jvolve::recordAnalysisMetrics(const AnalysisReport &R) {
  if (!Telemetry::isEnabled())
    return;
  Telemetry &Tel = Telemetry::global();
  Tel.counter(metrics::DsuAnalysisRuns).inc();
  if (R.Verdict == Applicability::Impossible)
    Tel.counter(metrics::DsuAnalysisRejected).inc();
  Tel.gauge(metrics::DsuAnalysisRestrictedConservative)
      .set(static_cast<int64_t>(R.ConservativeRestricted.size()));
  Tel.gauge(metrics::DsuAnalysisRestrictedPrecise)
      .set(static_cast<int64_t>(R.PreciseRestricted.size()));
  Tel.gauge(metrics::DsuAnalysisRestrictedDelta)
      .set(static_cast<int64_t>(R.ConservativeRestricted.size() -
                                R.PreciseRestricted.size()));
  Tel.gauge(metrics::DsuAnalysisRestrictedCha)
      .set(static_cast<int64_t>(R.PreciseRestrictedCha.size()));
  Tel.gauge(metrics::DsuAnalysisRuntimeMs)
      .set(static_cast<int64_t>(R.RuntimeMs + 0.5));
}
