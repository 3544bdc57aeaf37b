//===----------------------------------------------------------------------===//
///
/// \file
/// The edit-and-continue baseline (paper §5, "Edit and continue").
///
/// Systems like Sun's HotSwap and .NET E&C restrict updates to code changes
/// that leave every class signature intact: no field additions/deletions/
/// type changes and no method signature changes. This module reproduces
/// both halves of the paper's comparison: the support *decision* used for
/// the "method-body-only systems support 9 of the 22 updates" headline, and
/// the body-swapping commit the Updater's code-versioning path uses for
/// strictly body-only bundles.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_ECUPDATER_H
#define JVOLVE_DSU_ECUPDATER_H

#include "dsu/UpdateSpec.h"
#include "vm/VM.h"

#include <string>

namespace jvolve {

class UpdateTrace;

/// Method-body-only dynamic updating.
class EcUpdater {
public:
  explicit EcUpdater(VM &TheVM) : TheVM(TheVM) {}

  /// The paper's support criterion for method-body-only systems: an update
  /// is unsupported as soon as it "changes method signatures and/or adds or
  /// deletes fields" (§4.2).
  static bool supports(const UpdateSummary &Summary) {
    return Summary.FieldsAdded == 0 && Summary.FieldsDeleted == 0 &&
           Summary.MethodsSigChanged == 0;
  }

  /// Applies a strictly body-only update (no class-signature changes at
  /// all) through the CodeVersionManager (dsu/CodeVersion.h): each body
  /// lands in the method's version chain and one atomic active-version
  /// switch commits the batch — no safe point, no DSU collection. Active
  /// invocations keep running the old bodies (stale frames of the prior
  /// version). The caller already completed \p Program with the built-ins
  /// and verified it (the Updater's admission gate), producing \p Record:
  /// both move into the VM on success, neither copied nor verified again.
  /// \returns false (with \p WhyNot) when a spec entry does not resolve
  /// (the pipeline's install message) or the codeversion-install fault
  /// fired; the prior active versions keep serving. \p Trace, when
  /// non-null, receives the manager's codeversion-* events; \p VersionTag
  /// labels the installed chain nodes.
  bool installVerified(ClassSet Program, VerificationRecord Record,
                       const UpdateSpec &Spec, std::string *WhyNot,
                       UpdateTrace *Trace, const std::string &VersionTag);

private:
  VM &TheVM;
};

} // namespace jvolve

#endif // JVOLVE_DSU_ECUPDATER_H
