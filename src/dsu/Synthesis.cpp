#include "dsu/Synthesis.h"

#include "dsu/Dataflow.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <sstream>

using namespace jvolve;

const char *jvolve::fieldActionName(FieldAction A) {
  switch (A) {
  case FieldAction::Copy: return "copy";
  case FieldAction::Rename: return "rename";
  case FieldAction::Keep: return "keep";
  case FieldAction::Flagged: return "flagged";
  }
  return "?";
}

size_t ClassPlan::count(FieldAction A, bool Static) const {
  size_t N = 0;
  for (const FieldMapping &M : Fields)
    N += M.Action == A && M.IsStatic == Static;
  return N;
}

bool ClassPlan::needsHumanRule() const {
  for (const FieldMapping &M : Fields)
    if (M.Action == FieldAction::Flagged)
      return true;
  return false;
}

const ClassPlan *SynthesisReport::plan(const std::string &Name) const {
  for (const ClassPlan &P : Classes)
    if (P.Name == Name)
      return &P;
  return nullptr;
}

std::vector<std::string> SynthesisReport::flaggedFields() const {
  std::vector<std::string> Out;
  for (const ClassPlan &P : Classes)
    for (const FieldMapping &M : P.Fields)
      if (M.Action == FieldAction::Flagged)
        Out.push_back(P.Name + "." + M.NewField);
  return Out;
}

namespace {

/// Peels array descriptors down to the element class name; "" for non-ref
/// element types (the same peel Upt::referencedClasses applies).
std::string peeledClass(const std::string &Desc) {
  Type T = Type::parse(Desc);
  while (T.isArray())
    T = T.elementType();
  return T.isRef() ? T.className() : "";
}

/// The flattened instance-field list of \p Name: inherited fields first
/// (root-most superclass down), declaration order within a class — the
/// order RtClass lays instances out in.
std::vector<const FieldDef *> flatInstanceFields(const ClassSet &Set,
                                                 const std::string &Name) {
  std::vector<const FieldDef *> Out;
  std::vector<std::string> Chain = Set.superChain(Name);
  for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
    const ClassDef *Cls = Set.find(*It);
    if (!Cls)
      continue;
    for (const FieldDef &F : Cls->Fields)
      if (!F.IsStatic)
        Out.push_back(&F);
  }
  return Out;
}

const FieldDef *findByName(const std::vector<const FieldDef *> &Fields,
                           const std::string &Name) {
  for (const FieldDef *F : Fields)
    if (F->Name == Name)
      return F;
  return nullptr;
}

/// Copy-chain evidence: for every field of \p Name, the set of
/// "slot:paramtype" keys of constructor parameters that may flow into it.
/// Keyed on position + declared type (not the whole signature) so the
/// evidence survives unrelated constructor-signature changes between
/// versions. Slot 0 (`this`) is never evidence.
std::map<std::string, std::set<std::string>>
ctorFlowEvidence(const ClassSet &Set, const ClassDef &Cls) {
  std::map<std::string, std::set<std::string>> Evidence;
  for (const MethodDef &M : Cls.Methods) {
    if (M.Name != "<init>" || M.IsStatic)
      continue;
    MethodSignature Sig = M.signature();
    auto Flows = paramFieldFlows(Set, Cls, M);
    for (const auto &[Field, Slots] : Flows)
      for (uint16_t Slot : Slots) {
        if (Slot == 0 || Slot > Sig.Params.size())
          continue;
        Evidence[Field].insert(std::to_string(Slot) + ":" +
                               Sig.Params[Slot - 1].descriptor());
      }
  }
  return Evidence;
}

bool sharesEvidence(const std::set<std::string> &A,
                    const std::set<std::string> &B) {
  for (const std::string &K : A)
    if (B.count(K))
      return true;
  return false;
}

/// Builds the mapping rows for one (old fields, new fields) pair. The
/// copy-chain evidence maps are empty for statics — statics only get
/// name/type matching.
void planFields(const std::vector<const FieldDef *> &OldFields,
                const std::vector<const FieldDef *> &NewFields, bool IsStatic,
                const std::map<std::string, std::set<std::string>> &OldEv,
                const std::map<std::string, std::set<std::string>> &NewEv,
                std::vector<FieldMapping> &Out) {
  // Old fields whose name vanished are the rename candidate pool.
  std::vector<const FieldDef *> Dropped;
  for (const FieldDef *F : OldFields)
    if (!findByName(NewFields, F->Name))
      Dropped.push_back(F);

  for (const FieldDef *NF : NewFields) {
    FieldMapping M;
    M.NewField = NF->Name;
    M.NewType = NF->TypeDesc;
    M.IsStatic = IsStatic;
    if (const FieldDef *OF = findByName(OldFields, NF->Name)) {
      M.OldField = OF->Name;
      M.OldType = OF->TypeDesc;
      if (OF->TypeDesc == NF->TypeDesc) {
        M.Action = FieldAction::Copy;
      } else {
        // Fig. 2's String[] -> EmailAddress[]: a value conversion only a
        // human rule can write. The synthesized transformer keeps the
        // default value, exactly like the UPT default.
        M.Action = FieldAction::Flagged;
        M.Note = "type changed " + OF->TypeDesc + " -> " + NF->TypeDesc +
                 "; needs a value-conversion rule";
      }
    } else {
      // Same-type dropped fields are rename candidates; copy-chain
      // evidence through the constructors decides.
      std::vector<const FieldDef *> Candidates;
      for (const FieldDef *DF : Dropped)
        if (DF->TypeDesc == NF->TypeDesc)
          Candidates.push_back(DF);
      std::vector<const FieldDef *> Evidenced;
      auto NewIt = NewEv.find(NF->Name);
      if (NewIt != NewEv.end())
        for (const FieldDef *DF : Candidates) {
          auto OldIt = OldEv.find(DF->Name);
          if (OldIt != OldEv.end() &&
              sharesEvidence(NewIt->second, OldIt->second))
            Evidenced.push_back(DF);
        }
      if (Evidenced.size() == 1) {
        M.OldField = Evidenced[0]->Name;
        M.OldType = Evidenced[0]->TypeDesc;
        M.Action = FieldAction::Rename;
        M.Note = "same constructor parameter flows into both fields";
      } else if (!Evidenced.empty()) {
        M.Action = FieldAction::Flagged;
        std::string Names;
        for (const FieldDef *DF : Evidenced)
          Names += (Names.empty() ? "" : ", ") + DF->Name;
        M.Note = "ambiguous rename; copy-chain evidence for: " + Names;
      } else if (!Candidates.empty()) {
        M.Action = FieldAction::Flagged;
        std::string Names;
        for (const FieldDef *DF : Candidates)
          Names += (Names.empty() ? "" : ", ") + DF->Name;
        M.Note = "possible rename of same-type dropped field(s) " + Names +
                 "; no copy-chain evidence";
      } else {
        M.Action = FieldAction::Keep;
      }
    }
    Out.push_back(std::move(M));
  }
}

} // namespace

SynthesisReport TransformerSynthesis::synthesize(const UpdateSpec &Spec,
                                                 FaultInjector *Faults) const {
  SynthesisReport R;
  for (const std::string &Name : Spec.ClassUpdates) {
    const ClassDef *OldCls = Old.find(Name);
    const ClassDef *NewCls = New.find(Name);
    if (!OldCls || !NewCls)
      continue;

    ClassPlan P;
    P.Name = Name;

    std::vector<const FieldDef *> OldInst = flatInstanceFields(Old, Name);
    std::vector<const FieldDef *> NewInst = flatInstanceFields(New, Name);

    P.LayoutUnchanged = OldInst.size() == NewInst.size();
    for (size_t I = 0; P.LayoutUnchanged && I < OldInst.size(); ++I)
      P.LayoutUnchanged = OldInst[I]->Name == NewInst[I]->Name &&
                          OldInst[I]->TypeDesc == NewInst[I]->TypeDesc;

    // Copy-chain evidence wants the *declaring* class of each constructor;
    // inherited fields assigned in a superclass constructor are evidenced
    // there, so merge the whole chain's constructors.
    std::map<std::string, std::set<std::string>> OldEv, NewEv;
    for (const std::string &C : Old.superChain(Name))
      if (const ClassDef *Cls = Old.find(C))
        for (auto &[Field, Keys] : ctorFlowEvidence(Old, *Cls))
          OldEv[Field].insert(Keys.begin(), Keys.end());
    for (const std::string &C : New.superChain(Name))
      if (const ClassDef *Cls = New.find(C))
        for (auto &[Field, Keys] : ctorFlowEvidence(New, *Cls))
          NewEv[Field].insert(Keys.begin(), Keys.end());

    planFields(OldInst, NewInst, /*IsStatic=*/false, OldEv, NewEv, P.Fields);

    // Statics: declared on the class itself, name/type matching only (the
    // default class transformer's domain).
    std::vector<const FieldDef *> OldStat, NewStat;
    for (const FieldDef &F : OldCls->Fields)
      if (F.IsStatic)
        OldStat.push_back(&F);
    for (const FieldDef &F : NewCls->Fields)
      if (F.IsStatic)
        NewStat.push_back(&F);
    planFields(OldStat, NewStat, /*IsStatic=*/true, {}, {}, P.Fields);

    // Chaos site: one probe per inferred instance-field mapping. A firing
    // probe corrupts the mapping's source field, so the emitted transformer
    // throws UpdateError("transform") the first time it runs.
    for (FieldMapping &M : P.Fields) {
      if (M.IsStatic ||
          (M.Action != FieldAction::Copy && M.Action != FieldAction::Rename))
        continue;
      if (Faults && Faults->probe(FaultInjector::Site::SynthTransformerField)) {
        M.OldField += "__fault";
        M.Note = "fault injected: source field corrupted";
        P.Faulted = true;
      }
    }

    for (const FieldMapping &M : P.Fields) {
      R.NumCopies += M.Action == FieldAction::Copy;
      R.NumRenames += M.Action == FieldAction::Rename;
      R.NumFlagged += M.Action == FieldAction::Flagged;
    }
    // A rename changes a field's name, so only a fault can keep a
    // layout-unchanged class from being a pure copy.
    if (P.LayoutUnchanged && !P.Faulted)
      R.UntouchedClasses.insert(Name);
    R.Classes.push_back(std::move(P));
  }
  R.ImpactClasses = impactClasses(New, Spec);
  return R;
}

void TransformerSynthesis::installTransformers(UpdateBundle &B,
                                               const SynthesisReport &R) {
  for (const ClassPlan &P : R.Classes) {
    if (B.ObjectTransformers.count(P.Name))
      continue; // handwritten transformers always win
    // Copies and keeps are the runner's default already; what it cannot
    // infer from the layouts is a source under another name — a rename,
    // or a corrupted mapping, whose plan then throws at run time.
    for (const FieldMapping &M : P.Fields)
      if (!M.IsStatic && M.OldField != M.NewField &&
          (M.Action == FieldAction::Copy || M.Action == FieldAction::Rename))
        B.Renames[P.Name][M.NewField] = M.OldField;
  }
}

std::set<std::string>
TransformerSynthesis::impactClasses(const ClassSet &New,
                                    const UpdateSpec &Spec) {
  // Seed: every class whose instances the DSU collection remaps, plus the
  // additions transformers may allocate (Fig. 3's EmailAddress).
  std::set<std::string> Impact;
  std::vector<std::string> Work;
  auto Add = [&](const std::string &Name) {
    if (!Name.empty() && New.contains(Name) && Impact.insert(Name).second)
      Work.push_back(Name);
  };
  for (const std::string &C : Spec.ClassUpdates)
    Add(C);
  for (const std::string &C : Spec.AddedClasses)
    Add(C);

  // Closure: anything reachable through reference fields (array element
  // classes peeled) can be read or written by a transformer, and a field
  // declared of type X may hold any subclass of X at run time.
  while (!Work.empty()) {
    std::string Name = Work.back();
    Work.pop_back();
    for (const std::string &C : New.superChain(Name)) {
      const ClassDef *Cls = New.find(C);
      if (!Cls)
        continue;
      for (const FieldDef &F : Cls->Fields)
        Add(peeledClass(F.TypeDesc));
    }
    for (const auto &[Sub, Def] : New.classes())
      if (Sub != Name && New.isSubclassOf(Sub, Name))
        Add(Sub);
  }
  return Impact;
}

std::string SynthesisReport::table() const {
  std::ostringstream OS;
  OS << "class                field                     action   source"
     << "               note\n";
  auto Pad = [](const std::string &S, size_t W) {
    return S.size() >= W ? S + " " : S + std::string(W - S.size(), ' ');
  };
  for (const ClassPlan &P : Classes)
    for (const FieldMapping &M : P.Fields) {
      std::string Field = (M.IsStatic ? "static " : "") + M.NewField;
      OS << Pad(P.Name, 21) << Pad(Field, 26) << Pad(fieldActionName(M.Action), 9)
         << Pad(M.OldField.empty() ? "-" : M.OldField, 21) << M.Note << "\n";
    }
  OS << "impact classes: " << ImpactClasses.size()
     << "  untouched: " << UntouchedClasses.size() << "  copies: " << NumCopies
     << "  renames: " << NumRenames << "  flagged: " << NumFlagged << "\n";
  return OS.str();
}

std::string SynthesisReport::json() const {
  std::ostringstream OS;
  OS << "{\n  \"classes\": [";
  bool FirstC = true;
  for (const ClassPlan &P : Classes) {
    OS << (FirstC ? "" : ",") << "\n    {\"name\": " << jsonString(P.Name)
       << ", \"layout_unchanged\": " << (P.LayoutUnchanged ? "true" : "false")
       << ", \"faulted\": " << (P.Faulted ? "true" : "false")
       << ", \"fields\": [";
    FirstC = false;
    bool FirstF = true;
    for (const FieldMapping &M : P.Fields) {
      OS << (FirstF ? "" : ", ") << "{\"field\": " << jsonString(M.NewField)
         << ", \"action\": \"" << fieldActionName(M.Action)
         << "\", \"static\": " << (M.IsStatic ? "true" : "false");
      if (!M.OldField.empty())
        OS << ", \"source\": " << jsonString(M.OldField);
      if (!M.Note.empty())
        OS << ", \"note\": " << jsonString(M.Note);
      OS << "}";
      FirstF = false;
    }
    OS << "]}";
  }
  OS << "\n  ],\n  \"impact_classes\": [";
  bool First = true;
  for (const std::string &C : ImpactClasses) {
    OS << (First ? "" : ", ") << jsonString(C);
    First = false;
  }
  OS << "],\n  \"untouched_classes\": [";
  First = true;
  for (const std::string &C : UntouchedClasses) {
    OS << (First ? "" : ", ") << jsonString(C);
    First = false;
  }
  OS << "],\n  \"copies\": " << NumCopies << ",\n  \"renames\": " << NumRenames
     << ",\n  \"flagged\": " << NumFlagged << "\n}\n";
  return OS.str();
}

void jvolve::recordSynthesisMetrics(const SynthesisReport &R) {
  if (!Telemetry::isEnabled())
    return;
  Telemetry &Tel = Telemetry::global();
  Tel.counter(metrics::DsuSynthRuns).inc();
  Tel.counter(metrics::DsuSynthRenames).add(static_cast<int64_t>(R.NumRenames));
  Tel.counter(metrics::DsuSynthFlagged).add(static_cast<int64_t>(R.NumFlagged));
  Tel.gauge(metrics::DsuImpactClasses)
      .set(static_cast<int64_t>(R.ImpactClasses.size()));
  Tel.gauge(metrics::DsuImpactUntouched)
      .set(static_cast<int64_t>(R.UntouchedClasses.size()));
}
