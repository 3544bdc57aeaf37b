//===----------------------------------------------------------------------===//
///
/// \file
/// Per-method code versioning: pause-free body-only updates.
///
/// The five-step pipeline of paper §3 pays a VM-wide safe point plus a
/// whole-heap DSU collection for *every* update, even one that changes
/// nothing but method bodies. CoreCLR's CodeVersionManager shows the
/// alternative for that shape: keep an explicit version chain per method,
/// designate one *active* version, and switch actives atomically so each
/// thread picks the new body up at its next poll point while in-flight
/// activations finish on their old version (rejit generations).
///
/// MiniVM already has everything that model needs:
///
///  - The registry's (Def, Code) pair per method *is* the active version;
///    frames hold their own shared_ptr<CompiledMethod>, so superseded code
///    stays alive exactly as long as activations still run it.
///  - Threads resume only at yield points (call entry, returns, loop back
///    edges), so a per-thread epoch stamp compared in the scheduler before
///    each quantum observes a switch at precisely the paper's poll points —
///    no global handshake, no flag test in the interpreter's hot loop.
///  - ensureCompiledForInvoke() compiles a null-Code method on next invoke,
///    straight at the opt tier when its invoke count is already hot — the
///    manager preserves that count across an install, so a versioned method
///    *repromotes* instead of re-profiling from the baseline tier.
///
/// The manager archives each superseded version (bytecode, compiled tier,
/// invoke count) in a per-method chain keyed by (method, version-id).
/// Chains compose across stacked updates, and an install whose new body is
/// bit-identical to the parent version *pops* the chain instead of growing
/// it — restoring the archived compiled tier — which is how a canary
/// window reverts a body-only update without a reverse DSU collection.
///
/// A batch install is transactional: the `codeversion-install` fault site
/// is probed once per method, and a mid-chain failure unwinds the already-
/// swapped methods so the prior active versions keep serving; the epoch
/// only advances on commit, so no thread ever observes a partial switch.
///
/// Telemetry: `dsu.codeversion.{installs,switches,chains,stale_frames}`
/// gauges (deliberately not preregistered — their presence proves the
/// subsystem ran) plus `codeversion-installed` / `codeversion-switched` /
/// `codeversion-reverted` UpdateTrace events.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_CODEVERSION_H
#define JVOLVE_DSU_CODEVERSION_H

#include "bytecode/ClassDef.h"
#include "dsu/UpdateSpec.h"
#include "vm/VM.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace jvolve {

class UpdateTrace;

/// One archived (or active) body of one method. VersionId 0 is the body
/// the class loader installed; each versioned install appends the next id.
struct CodeVersionNode {
  uint64_t VersionId = 0;
  std::string Tag; ///< VersionTag of the installing update ("v0" for the seed)
  std::shared_ptr<const MethodDef> Def;
  /// Archived at supersede time so a revert pop restores the compiled tier
  /// without recompiling; unused (the registry holds the live pair) while
  /// this node is active.
  std::shared_ptr<CompiledMethod> Code;
  uint64_t InvokeCount = 0;
  uint64_t InstallTick = 0;
};

/// Per-method chain; back() mirrors the registry's active version.
struct MethodVersionChain {
  MethodId Method = InvalidMethodId;
  std::vector<CodeVersionNode> Chain;
};

/// The per-VM code-version manager. Install lazily via of(); chains then
/// persist for the VM's lifetime so stacked updates compose.
class CodeVersionManager : public VmCodeVersions {
public:
  explicit CodeVersionManager(VM &TheVM) : TheVM(TheVM) {}

  /// The manager living on \p TheVM, installing one on first use (the
  /// CanaryController retrieval idiom).
  static CodeVersionManager &of(VM &TheVM);

  /// One method's new body within a batch install.
  struct BodyUpdate {
    MethodId Method = InvalidMethodId;
    /// Shares the new program version's definition (an alias into its
    /// ClassDef), as the registry's method bodies do.
    std::shared_ptr<const MethodDef> NewBody;
    std::string Display; ///< "Class.name(sig)" for traces and diagnostics
  };

  /// Resolves the spec entry \p R against the running registry and the
  /// new program version: the method to swap and its new body. Throws
  /// UpdateError("install") naming an unknown class or method, or a body
  /// \p NewProgram lacks — the same outcome on the versioned and the
  /// safe-point install paths.
  static std::pair<MethodId, std::shared_ptr<const MethodDef>>
  resolve(const ClassRegistry &Reg, const ClassSet &NewProgram,
          const MethodRef &R);

  /// Atomically installs \p Updates as one active-version switch: every
  /// body is swapped (or, when a new body is bit-identical to the parent
  /// version's, its chain is *popped*), callers that inlined a swapped
  /// body are invalidated, and the epoch is bumped exactly once so threads
  /// observe all of it or none of it at their next poll. Probes the
  /// `codeversion-install` fault site per method; a mid-chain failure
  /// unwinds the already-swapped prefix — the prior active versions keep
  /// serving — and returns false with \p WhyNot. \p Trace (when non-null)
  /// receives the codeversion-* lifecycle events.
  bool installBodySet(const std::vector<BodyUpdate> &Updates,
                      const std::string &Tag, UpdateTrace *Trace,
                      std::string *WhyNot = nullptr);

  // VmCodeVersions (scheduler/interpreter integration).
  uint64_t epoch() const override { return Epoch; }
  void onThreadPoll(VMThread &T, uint64_t Now) override;
  void onStaleFrameReturn() override;

  //===--------------------------------------------------------------------===//
  // Introspection (tests, jvolve-serve --stats)
  //===--------------------------------------------------------------------===//

  /// Method bodies installed through versioned installs (cumulative,
  /// including revert pops).
  uint64_t installs() const { return Installs; }
  /// Committed active-version switches (== epoch()).
  uint64_t switches() const { return Epoch; }
  /// Revert pops taken (a new body matched the parent version).
  uint64_t revertPops() const { return RevertPops; }
  /// Threads that picked up a switch at a poll point so far.
  uint64_t pollObservations() const { return PollObservations; }
  /// Methods whose chain still holds an archived version (depth >= 2).
  size_t chains() const;
  /// Live frames still executing superseded code right now.
  uint64_t staleFrames() const;

  /// The chain of \p Method, or nullptr when it was never versioned.
  const MethodVersionChain *chainFor(MethodId Method) const;

  /// Renders the active-version table: one line per versioned method with
  /// its active version id, chain depth, and installing tag.
  std::string activeVersionTable() const;

private:
  /// Re-counts frames running superseded code and publishes the gauge.
  uint64_t recountStaleFrames();
  void publishGauges();

  VM &TheVM;
  std::map<MethodId, MethodVersionChain> Chains;
  uint64_t Epoch = 0;
  uint64_t Installs = 0;
  uint64_t RevertPops = 0;
  uint64_t PollObservations = 0;
  /// Stale count at the last recount, mirrored into the gauge.
  uint64_t LastStaleCount = 0;
};

} // namespace jvolve

#endif // JVOLVE_DSU_CODEVERSION_H
