//===----------------------------------------------------------------------===//
///
/// \file
/// Transformer synthesis and update-impact bounding.
///
/// The paper's §3.4 object/class transformers are handwritten; the UPT
/// only installs a *default* (copy same-name same-type members). This
/// module writes the boring transformers itself from static evidence and
/// tells the operator exactly which fields still need a human rule:
///
///  * same-name same-type fields copy (the default, made explicit);
///  * a dropped old field and an added new field of the same type are
///    paired as a *rename* when the copy-chain analysis over the two
///    versions' `<init>` bodies (dsu/Dataflow.h paramFieldFlows) shows
///    the same constructor parameter position flowing into both — the
///    rename is recorded in the bundle, where the runner's default plan
///    copies it instead of zeroing the new field;
///  * a same-name field whose type changed (Fig. 2's String[] ->
///    EmailAddress[]) is *flagged*: a value conversion genuinely needs a
///    human rule, and the plan leaves the default value exactly like the
///    UPT default does;
///  * ambiguous rename candidates (several same-type pairs, no chain
///    evidence) are flagged rather than guessed.
///
/// The same pass bounds the update's *impact*: the set of classes whose
/// instances or statics the update (GC remap + transformers) can touch,
/// and the subset of updated classes whose instance layout is provably
/// unchanged, whose objects are pure bitwise copies. Both are reported
/// only (jvolve-analyze --synthesize, bench_synthesis): every update still
/// transforms and certifies every object.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_SYNTHESIS_H
#define JVOLVE_DSU_SYNTHESIS_H

#include "dsu/UpdateBundle.h"
#include "support/FaultInjector.h"

#include <set>
#include <string>
#include <vector>

namespace jvolve {

/// What the synthesized transformer does with one new-version field.
enum class FieldAction {
  Copy,    ///< same name, same type: copy old -> new
  Rename,  ///< copy-chain-proven rename: copy from the old name
  Keep,    ///< genuinely new field: keep the default value
  Flagged, ///< needs a human rule; the synthesized transformer keeps the
           ///< default value (matching the UPT default's behavior)
};

const char *fieldActionName(FieldAction A);

/// One synthesized field mapping (instance or static).
struct FieldMapping {
  std::string NewField;
  std::string OldField; ///< source field; empty for Keep
  std::string NewType;
  std::string OldType; ///< empty for Keep
  FieldAction Action = FieldAction::Copy;
  bool IsStatic = false;
  std::string Note; ///< rename evidence or the reason a field was flagged
};

/// The synthesized plan for one updated class.
struct ClassPlan {
  std::string Name;
  std::vector<FieldMapping> Fields;
  /// Instance layout (flattened inherited field list: names and types)
  /// identical between versions — the object transform is a pure copy.
  bool LayoutUnchanged = false;
  /// The synth-transformer-field fault corrupted one mapping.
  bool Faulted = false;

  size_t count(FieldAction A, bool Static) const;
  bool needsHumanRule() const;
};

/// Everything synthesis inferred for one update.
struct SynthesisReport {
  std::vector<ClassPlan> Classes;

  /// Classes the update can touch: updated classes, added classes, and
  /// every class reachable through the reference fields the synthesized
  /// transformers read or write (peeled array element classes included).
  std::set<std::string> ImpactClasses;
  /// Updated classes whose instance transform is provably a pure copy
  /// (LayoutUnchanged and no custom transformer can change that).
  std::set<std::string> UntouchedClasses;

  size_t NumCopies = 0;
  size_t NumRenames = 0;
  size_t NumFlagged = 0;

  const ClassPlan *plan(const std::string &Name) const;
  /// Field names (Class.field) that need a human rule.
  std::vector<std::string> flaggedFields() const;

  std::string table() const;
  std::string json() const;
};

/// Synthesizes transformers for one old -> new program pair.
class TransformerSynthesis {
public:
  /// Both sets must contain the built-ins and outlive the synthesis.
  TransformerSynthesis(const ClassSet &Old, const ClassSet &New)
      : Old(Old), New(New) {}

  /// Builds the per-class plans for every class in \p Spec.ClassUpdates.
  /// \p Faults, when given, is probed once per inferred instance-field
  /// mapping (the synth-transformer-field chaos site); a firing probe
  /// corrupts that mapping so the installed plan fails at run time.
  SynthesisReport synthesize(const UpdateSpec &Spec,
                             FaultInjector *Faults = nullptr) const;

  /// Records, in \p B.Renames, every instance field a plan fills from a
  /// differently named old field, for every planned class *without* a
  /// handwritten object transformer (handwritten transformers always win).
  /// The runner's default plan applies them; everything else a plan says
  /// is the default already, so no transformer is installed. Statics get
  /// name/type matching only, which is the default class transform.
  static void installTransformers(UpdateBundle &B, const SynthesisReport &R);

  /// SynthesisReport::ImpactClasses, computed from the new program and
  /// the spec alone.
  static std::set<std::string> impactClasses(const ClassSet &New,
                                             const UpdateSpec &Spec);

private:
  const ClassSet &Old;
  const ClassSet &New;
};

/// Records the report into the dsu.synth.* counters and dsu.impact.*
/// gauges (no-op when telemetry is disabled).
void recordSynthesisMetrics(const SynthesisReport &R);

} // namespace jvolve

#endif // JVOLVE_DSU_SYNTHESIS_H
