//===----------------------------------------------------------------------===//
///
/// \file
/// Static update-safety analysis.
///
/// The paper establishes update safety dynamically: restrict safe points
/// (§3.3), pause, and time out when restricted methods never leave the
/// stacks. This module predicts those outcomes ahead of time from the old
/// program, the new program, and the UPT's UpdateSpec:
///
///   1. a CHA call graph over the old version (CallGraph.h);
///   2. the restricted safe-point set, both the paper's conservative
///      transitive-caller closure and a precise variant that only restricts
///      methods whose compiled form can actually embed changed code via
///      inlining — the delta is surfaced as dsu.analysis.* metrics;
///   3. non-quiescence prediction: changed methods whose CFG can never
///      reach a return and that are reachable from a thread entry point
///      will pin the update forever, unless an ActiveMethodMapping lifts
///      them — mappings are statically checked for pc-map completeness and
///      per-pc operand-stack compatibility using the verifier's abstract
///      interpretation (computeStackShapes);
///   4. an applicability verdict: Applicable / NeedsOsr / Impossible, the
///      Tables 2–4 column, computed instead of measured.
///
/// Soundness caveat (documented in INTERNALS.md §12): never-returning
/// methods are predicted OSR-liftable when they are only indirectly
/// affected (category 2) because tier promotion is invocation-count based —
/// a method that never returns is invoked at most once per thread, so it
/// stays base-compiled with no inlined bodies. The prediction assumes fewer
/// threads enter such a method than the Opt promotion threshold.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_ANALYSIS_H
#define JVOLVE_DSU_ANALYSIS_H

#include "dsu/ActiveMethod.h"
#include "dsu/CallGraph.h"
#include "dsu/UpdateSpec.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace jvolve {

struct UpdateBundle;

/// The Tables 2–4 applicability column, predicted.
enum class Applicability {
  Applicable, ///< a restricted safe point suffices (possibly with barriers)
  NeedsOsr,   ///< quiescence requires on-stack replacement of cat-2 loops
  Impossible, ///< a changed non-returning loop pins the update forever
};

const char *applicabilityName(Applicability A);

/// Tuning knobs for one analysis run.
struct AnalysisOptions {
  /// Thread entry methods ("Class.NameSig"). A never-returning method only
  /// predicts non-quiescence when some thread can be executing it; with no
  /// entry points given, every method is conservatively entry-reachable.
  std::set<std::string> EntryPoints;
};

/// Everything one analysis run computed, renderable as a table or JSON.
struct AnalysisReport {
  std::string VersionTag;

  // Call graph summary.
  size_t NumMethods = 0;
  size_t NumEdges = 0;

  /// The paper's §3.3 closure: changed/deleted/blacklisted methods plus
  /// every transitive caller.
  std::set<std::string> ConservativeRestricted;
  /// Seeds plus possible inliners only — always a subset of the
  /// conservative set; unchanged non-inlining callers keep their safe
  /// points. When entry points are given, further refined by the
  /// flow-sensitive dataflow pass (dsu/Dataflow.h): methods the points-to
  /// fixpoint proves unreachable from the entry points can never be on a
  /// post-boot stack, so they keep their safe points too.
  std::set<std::string> PreciseRestricted;
  /// The precise set under CHA alone, before the dataflow refinement
  /// (equal to PreciseRestricted when no entry points were given).
  /// PreciseRestricted is always a subset of this.
  std::set<std::string> PreciseRestrictedCha;

  /// Dataflow refinement evidence: virtual call sites analyzed, and how
  /// many had their CHA fan-out strictly narrowed by receiver points-to.
  size_t DataflowVirtualSites = 0;
  size_t DataflowNarrowed = 0;

  /// Wall-clock milliseconds this analysis run took (CHA + dataflow).
  double RuntimeMs = 0;

  /// Changed (category 1/3) methods with no CFG path to a return,
  /// reachable from a thread entry point, and not lifted by a valid
  /// ActiveMethodMapping: these pin the update forever.
  std::vector<std::string> PinnedForever;
  /// Category-(2) methods with no CFG path to a return, reachable from a
  /// thread entry point: quiescence needs OSR for these.
  std::vector<std::string> OsrRequired;
  /// Diagnostics from statically checking provided ActiveMethodMappings
  /// (incomplete pc maps, out-of-range targets, stack-shape conflicts).
  std::vector<std::string> MappingIssues;
  /// Non-gating observations, e.g. a changed method that blocks on
  /// network/sleep intrinsics inside a loop ("may only apply when idle").
  std::vector<std::string> Warnings;

  Applicability Verdict = Applicability::Applicable;
  std::string Reason;

  /// Human-readable multi-line report.
  std::string table() const;
  /// One JSON object with every field above.
  std::string json() const;
};

/// Analyzes one update (old program -> new program + UpdateSpec). Both
/// ClassSets must outlive the analysis and contain the built-ins.
class UpdateAnalysis {
public:
  UpdateAnalysis(const ClassSet &OldProgram, const ClassSet &NewProgram)
      : Old(OldProgram), New(NewProgram) {}

  AnalysisReport
  analyze(const UpdateSpec &Spec,
          const std::map<std::string, ActiveMethodMapping> &Mappings,
          const AnalysisOptions &Opts = {}) const;

  /// Convenience: analyze a prepared bundle (its Spec + ActiveMappings).
  AnalysisReport analyzeBundle(const UpdateBundle &B,
                               const AnalysisOptions &Opts = {}) const;

  /// True when \p M has no CFG path from entry to any return instruction
  /// (the always-on-stack failure shape).
  static bool neverReturns(const MethodDef &M);

private:
  const ClassSet &Old;
  const ClassSet &New;
};

/// Records the report into the dsu.analysis.* metrics (no-op when
/// telemetry is disabled).
void recordAnalysisMetrics(const AnalysisReport &R);

} // namespace jvolve

#endif // JVOLVE_DSU_ANALYSIS_H
