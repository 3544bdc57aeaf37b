//===----------------------------------------------------------------------===//
///
/// \file
/// Exhaustive fault-space chaos campaigns with invariant oracles and
/// reproducer shrinking.
///
/// PRs 1-7 built the individual safety nets (transactional rollback,
/// quiescence escalation, lazy degradation, canary revert) but exercised
/// each with hand-armed single faults at fixed probe indices. This module
/// walks the whole first-order fault space mechanically: a clean
/// *recording pass* captures how many times every FaultInjector site is
/// probed by a scenario, the campaign then re-runs the scenario once per
/// `(site, fire-index)` pair so each individual probe point fails exactly
/// once, and a reusable *oracle suite* checks the invariants the formal
/// DSU-correctness literature frames (state equivalence after abort,
/// transformation soundness) after every faulted execution. A *second-order* mode arms one fault inside the recovery
/// path another fault triggered (fault-during-rollback, -revert, and
/// -lazy-drain), using FaultInjector::probesAtFirstFire() to aim at the
/// recovery window. Every violation ships with a ready-to-paste
/// reproducer and is shrunk (fewer workload ticks / requests) while it
/// still reproduces.
///
/// Determinism: scenarios run on fresh VMs under virtual time with fixed
/// seeds, so probe counts are bit-identical across passes — the property
/// the recording mode depends on (and FaultInjector::resetCounters()
/// preserves for Random-mode arming).
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_SUPPORT_CHAOSCAMPAIGN_H
#define JVOLVE_SUPPORT_CHAOSCAMPAIGN_H

#include "dsu/Updater.h"
#include "support/FaultInjector.h"

#include <memory>
#include <string>
#include <vector>

namespace jvolve {

class VM;
class ClassSet;

//===----------------------------------------------------------------------===//
// Scenarios
//===----------------------------------------------------------------------===//

/// One fault to arm before a scenario boots (counted mode).
struct ChaosFault : FaultInjector::Spec {
  /// The tools' "site:fire:skip" spec — pasteable into --inject.
  std::string spec() const;
};

/// One deterministic execution: boot an app stream on a fresh VM, put it
/// under load, apply the v0 -> v1 update in the given mode, keep serving,
/// settle everything (canary window, lazy drain), then judge.
struct ScenarioSpec {
  std::string Stream = "email"; ///< email | jetty | crossftp
  bool Lazy = false;            ///< commit through the lazy engine
  bool Canary = false;          ///< arm a post-commit canary window
  /// Commit through the per-method code-version manager
  /// (UpdateOptions::CodeVersioning). Only meaningful with a body-only
  /// target release; when Version is 0 the default switches to the
  /// stream's body-only release (email 1.2.2, jetty 5.1.1) so the fast
  /// path — and its codeversion-install fault site — actually runs.
  bool CodeVersion = false;
  /// Target version index: the scenario boots version(Version-1) and
  /// updates to version(Version). 0 picks the per-stream default — the
  /// release that exercises the most machinery (email 1.3.2: transformers
  /// + field changes; jetty 5.1.2: a class load; crossftp 1.06: both).
  size_t Version = 0;
  std::vector<ChaosFault> Faults;

  // Shrinkable workload knobs.
  uint64_t WarmTicks = 600;   ///< pre-update load interval
  uint64_t SettleTicks = 600; ///< post-update load + canary window bound
  int Requests = 2;           ///< requests per injected connection

  /// The faults as one comma-separated --inject argument.
  std::string injectArg() const;
  /// Human-readable one-liner ("email lazy inject=class-load:1:0 ...").
  std::string str() const;
};

/// What one scenario execution left behind, plus the oracle verdicts.
struct ScenarioResult {
  UpdateStatus Status = UpdateStatus::None; ///< forward update outcome
  std::string Message;
  /// The canary window's terminal state name ("" when no window armed).
  std::string CanaryState;

  FaultInjector::SiteCounts Probes{};
  FaultInjector::SiteCounts Fires{};
  FaultInjector::SiteCounts ProbesAtFirstFire{};
  bool AnyFired = false;

  /// One line per broken invariant, prefixed with the oracle's name.
  std::vector<std::string> Violations;

  bool ok() const { return Violations.empty(); }
};

//===----------------------------------------------------------------------===//
// Oracles
//===----------------------------------------------------------------------===//

/// Everything an oracle may inspect after a scenario settled: the VM (lazy
/// engine drained, canary window closed), the forward update's result and
/// the two program versions.
struct ScenarioContext {
  ScenarioContext(VM &TheVM, const ScenarioSpec &Spec,
                  const UpdateResult &Result)
      : TheVM(TheVM), Spec(Spec), Result(Result) {}

  VM &TheVM;
  const ScenarioSpec &Spec;
  const UpdateResult &Result;
  const ClassSet *OldProgram = nullptr;
  const ClassSet *NewProgram = nullptr;
  std::string CanaryState; ///< terminal canary state name ("" = no window)
  uint64_t CanaryResidual = 0;
  bool CanaryReverted = false;
  bool AnyFired = false; ///< any armed fault actually fired this run
  /// Registry fingerprints taken at the install transaction's edges
  /// (UpdateOptions::OnRegistryEdge): how many failed installs restored
  /// the registry, and every difference between a restored registry and
  /// the one its pause began with.
  int RegistryRestores = 0;
  std::vector<std::string> RegistryRestoreDiffs;
};

/// One invariant, checked after every faulted execution. Implementations
/// append one violation line per breach (empty = invariant holds).
class Oracle {
public:
  virtual ~Oracle() = default;
  virtual const char *name() const = 0;
  virtual void check(const ScenarioContext &Ctx,
                     std::vector<std::string> &Out) = 0;
};

/// The standard suite:
///   heap-certification  HeapVerifier + registry consistency, exactly the
///                       updater's post-install certification
///   program-state       aborted update => program identical to v0;
///                       applied (and canary-retired) => identical to v1;
///                       canary-reverted => identical to v0
///   terminal-status     the update resolved to a defined terminal status
///                       (never None/Pending), a fault-free run applied
///                       cleanly, and a closed canary window ended in a
///                       defined terminal state
///   phase-tiling        the per-phase wall-clock spans fit inside
///                       TotalPauseMs (small slack for timer granularity)
///   residual-pending    no lazy engine still holding pending shells; a
///                       reverted canary left zero residual new-version
///                       objects
///   undo-roots          a settled canary window holds no undo-log GC
///                       roots (the leak the window could otherwise pin)
///   registry-restored   a rolled-back or failed-transformer update left
///                       the registry's fingerprint (tables, names,
///                       obsolete bits, superclasses, statics, method
///                       bodies, code and invoke counts) as its pause
///                       found it
std::vector<std::unique_ptr<Oracle>> standardOracles();

/// Runs one scenario on a fresh VM and applies \p Oracles.
ScenarioResult
runScenario(const ScenarioSpec &Spec,
            const std::vector<std::unique_ptr<Oracle>> &Oracles);

/// Judges the always-valid state invariants on \p TheVM outside a scripted
/// scenario: heap certification (with the lazy engine's pending-shell
/// context when one is live), registry consistency, and no undo-log GC
/// roots pinned by a settled canary window. The reusable core the fuzz and
/// rollback tests share; scenario-lifecycle oracles (program-state,
/// terminal-status, ...) need a full ScenarioContext and are not run.
/// \returns one line per violation (empty = healthy).
std::vector<std::string> checkStateInvariants(VM &TheVM);

//===----------------------------------------------------------------------===//
// Campaign
//===----------------------------------------------------------------------===//

struct CampaignOptions {
  std::vector<std::string> Streams = {"email", "jetty"};
  /// Mode axes. The default first-order matrix is eager + canary-off; the
  /// flags widen it to {eager, lazy} x {canary on, off}.
  bool Eager = true;
  bool Lazy = false;
  bool CanaryOff = true;
  bool CanaryOn = false;
  /// Adds one eager, canary-off combo per stream that commits the stream's
  /// body-only release through the code-version manager, so the
  /// codeversion-install probe points get enumerated (crossftp has no
  /// body-only release and is skipped).
  bool CodeVersion = true;
  bool FirstOrder = true;
  bool SecondOrder = false;
  /// Target version index forwarded into every ScenarioSpec (0 = the
  /// per-stream default).
  size_t Version = 0;
  /// Max faulted executions (0 = unbounded). Enumeration order is
  /// deterministic, so a bounded run is a stable prefix of the full one.
  uint64_t Budget = 0;
  /// Workload knobs forwarded into every ScenarioSpec.
  uint64_t WarmTicks = 600;
  uint64_t SettleTicks = 600;
  int Requests = 2;
  /// Shrink each violation's workload while it still reproduces.
  bool Shrink = true;
};

struct CampaignViolation {
  ScenarioSpec Spec; ///< shrunk when shrinking succeeded
  std::string Mode;  ///< "email eager", "jetty lazy+canary", ...
  std::vector<std::string> Violations;
  UpdateStatus Status = UpdateStatus::None;
  /// Ready-to-paste reproducer (jvolve-chaos --repro invocation carrying
  /// the --inject site:fire:skip spec).
  std::string Reproducer;
};

struct CampaignReport {
  /// (site, fire-index) points attempted (executions that armed a fault).
  uint64_t ProbePoints = 0;
  /// Points whose armed fault verifiably fired in its execution.
  uint64_t Covered = 0;
  /// Total enumerable points discovered by the recording passes (>=
  /// ProbePoints when a budget truncated the run).
  uint64_t Enumerated = 0;
  uint64_t Executions = 0; ///< scenario runs, including recording passes
  uint64_t SkippedByBudget = 0;
  /// Second-order windows truncated to the per-pair cap (the enumeration
  /// bounds itself to the first probes after the trigger — the recovery
  /// path proper — rather than the whole post-fault tail).
  uint64_t SecondOrderCapped = 0;
  /// "mode: site" entries that recorded zero probes and did not fire even
  /// when armed synthetically — unreachable in that mode (expected for
  /// e.g. canary-health-breach with the window off).
  std::vector<std::string> UnreachableInMode;
  std::vector<CampaignViolation> Violations;

  double coverage() const {
    return ProbePoints ? double(Covered) / double(ProbePoints) : 1.0;
  }
  std::string json() const;
};

/// Runs the campaign: per mode combo, one recording pass, then first-order
/// enumeration of every (site, fire-index) pair and (optionally)
/// second-order nested-fault enumeration over the recovery windows of
/// rollback / revert / lazy-drain triggers.
CampaignReport
runCampaign(const CampaignOptions &Opts,
            const std::vector<std::unique_ptr<Oracle>> &Oracles);

/// Shrinks \p Spec's workload (halving tick intervals, dropping requests)
/// while the violation of \p OracleName still reproduces. \returns the
/// smallest failing spec found (== \p Spec when nothing shrinks).
ScenarioSpec shrinkScenario(const ScenarioSpec &Spec,
                            const std::string &OracleName,
                            const std::vector<std::unique_ptr<Oracle>> &Oracles,
                            uint64_t *ExtraExecutions = nullptr);

} // namespace jvolve

#endif // JVOLVE_SUPPORT_CHAOSCAMPAIGN_H
