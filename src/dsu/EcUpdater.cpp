#include "dsu/EcUpdater.h"

#include "dsu/CodeVersion.h"
#include "support/Error.h"

using namespace jvolve;

bool EcUpdater::installVerified(ClassSet Program, VerificationRecord Record,
                                const UpdateSpec &Spec, std::string *WhyNot,
                                UpdateTrace *Trace,
                                const std::string &VersionTag) {
  // Route every swap through the per-method version chains: the manager
  // archives the superseded bodies (so a later install of the parent body
  // pops the chain instead of growing it), invalidates callers that
  // inlined a swapped body, and commits the batch as one atomic
  // active-version switch — HotSwap semantics without losing the history.
  std::vector<CodeVersionManager::BodyUpdate> Updates;
  std::string Why;
  try {
    for (const MethodRef &R : Spec.MethodBodyUpdates) {
      auto [Id, NewBody] =
          CodeVersionManager::resolve(TheVM.registry(), Program, R);
      Updates.push_back({Id, NewBody, R.key()});
    }
  } catch (const UpdateError &E) {
    Why = E.str();
  }
  if (Why.empty() && CodeVersionManager::of(TheVM).installBodySet(
                         Updates, VersionTag, Trace, &Why)) {
    TheVM.setProgram(std::move(Program), std::move(Record));
    return true;
  }
  if (WhyNot)
    *WhyNot = Why;
  return false;
}
