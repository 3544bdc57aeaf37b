//===----------------------------------------------------------------------===//
///
/// \file
/// Live evaluation of an application's update stream: for each release,
/// boot a fresh VM on the previous version, put it under load, and apply
/// the dynamic update — reproducing the per-release experiments behind
/// Tables 2-4 and the paper's 20-of-22 flexibility headline.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_APPS_EVALUATION_H
#define JVOLVE_APPS_EVALUATION_H

#include "apps/AppModel.h"
#include "dsu/Synthesis.h"
#include "dsu/Updater.h"

#include <string>
#include <vector>

namespace jvolve {

/// Where the update's transformers come from.
enum class TransformerMode {
  Handwritten, ///< the app's registered transformers (paper §3.4)
  Synthesized, ///< dsu/Synthesis.h output only; handwritten rules skipped
};

/// Tuning knobs for one release evaluation.
struct EvalOptions {
  /// Bounds the safe-point search (kept small so the two impossible
  /// updates fail quickly).
  uint64_t TimeoutTicks = 120'000;
  /// Commit with untransformed shells and drain through the read barrier
  /// instead of transforming eagerly in the DSU collection.
  bool Lazy = false;
  TransformerMode Transformers = TransformerMode::Handwritten;
};

/// Result of applying one release's update to a live, loaded server.
struct ReleaseOutcome {
  std::string Version;
  UpdateSummary Summary;   ///< the UPT diff (one table row)
  UpdateResult Result;     ///< Jvolve outcome under load
  bool EcSupported = false; ///< the method-body-only baseline's verdict
  /// For updates that fail under load: did a retry on an idle server
  /// succeed (CrossFTP 1.07 -> 1.08, §4.4)?
  bool AppliedWhenIdle = false;
  /// Synthesized mode: what the synthesis pass inferred for this release.
  SynthesisReport Synth;
  /// Lazy mode: the applied update's VM served a fixed drain window, and
  /// then its whole heap certified with no lazy relaxation (every shell
  /// transformed, the old-copy block released). False when nothing
  /// applied, and in eager mode, whose updater certifies inside the pause.
  bool PostDrainCertified = false;

  bool supported() const {
    return Result.Status == UpdateStatus::Applied || AppliedWhenIdle;
  }
};

/// Applies the update to version \p V of \p App on a freshly booted VM
/// running version V-1 under load.
ReleaseOutcome evaluateRelease(const AppModel &App, size_t V,
                               const EvalOptions &Opts = {});

/// Evaluates every release of \p App.
std::vector<ReleaseOutcome> evaluateApp(const AppModel &App,
                                        const EvalOptions &Opts = {});

} // namespace jvolve

#endif // JVOLVE_APPS_EVALUATION_H
