//===----------------------------------------------------------------------===//
///
/// \file
/// Update specifications: the output of the Update Preparation Tool.
///
/// The UPT groups changes into the three categories of paper §3.1:
/// *class updates* (signature changes: fields or method set or superclass),
/// *method body updates* (same signature, new bytecode), and *indirect
/// method updates* (bytecode unchanged but referencing updated classes, so
/// their compiled form embeds stale offsets). The spec also carries the
/// user blacklist (category (3) restricted methods, §3.2) and the summary
/// counters the paper tabulates in Tables 2-4.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_UPDATESPEC_H
#define JVOLVE_DSU_UPDATESPEC_H

#include <string>
#include <vector>

namespace jvolve {

/// Names one method.
struct MethodRef {
  std::string ClassName;
  std::string Name;
  std::string Sig;

  std::string key() const { return ClassName + "." + Name + Sig; }
  bool operator==(const MethodRef &O) const = default;
  bool operator<(const MethodRef &O) const { return key() < O.key(); }
};

/// Change counters in the shape of the paper's Tables 2-4. A field whose
/// type changed is counted as one deletion plus one addition (Fig. 2's
/// String[] -> EmailAddress[] change); modifier-only changes are counted in
/// FieldsModifierChanged and do not appear in the add/del columns.
struct UpdateSummary {
  int ClassesAdded = 0;
  int ClassesDeleted = 0;
  int ClassesChanged = 0; ///< any member change (signature or body)
  int MethodsAdded = 0;
  int MethodsDeleted = 0;
  int MethodsBodyChanged = 0; ///< the "x" of the paper's x/y notation
  int MethodsSigChanged = 0;  ///< the "y" of the paper's x/y notation
  int FieldsAdded = 0;
  int FieldsDeleted = 0;
  int FieldsModifierChanged = 0;

  /// Renders "x/y" for the changed-methods column.
  std::string methodsChangedCell() const {
    return std::to_string(MethodsBodyChanged) + "/" +
           std::to_string(MethodsSigChanged);
  }

  /// The paper's support criterion for method-body-only systems (§5,
  /// "Edit and continue": HotSwap, .NET E&C): an update is unsupported as
  /// soon as it "changes method signatures and/or adds or deletes fields"
  /// (§4.2). Counts the §5 "body-only systems support 9 of 22" baseline.
  bool editAndContinueSupported() const {
    return FieldsAdded == 0 && FieldsDeleted == 0 && MethodsSigChanged == 0;
  }
};

/// Everything the updater needs to know about one release-to-release diff.
struct UpdateSpec {
  std::vector<std::string> AddedClasses;
  std::vector<std::string> DeletedClasses;

  /// Classes whose own definition changed signature.
  std::vector<std::string> DirectClassUpdates;
  /// DirectClassUpdates plus every transitive subclass (an updated parent
  /// changes the layout of all descendants, paper §2.2).
  std::vector<std::string> ClassUpdates;

  /// Same signature, different bytecode (category (1) together with the
  /// changed/deleted methods of class updates).
  std::vector<MethodRef> MethodBodyUpdates;

  /// Methods of class-updated or deleted classes that no longer exist with
  /// the same signature in the new version (restricted; category (1)).
  std::vector<MethodRef> RemovedMethods;

  /// Category (2): bytecode unchanged but references an updated class.
  std::vector<MethodRef> IndirectMethods;

  /// Category (3): user-specified restricted methods.
  std::vector<MethodRef> Blacklist;

  UpdateSummary Summary;

  bool isClassUpdated(const std::string &Name) const {
    for (const std::string &C : ClassUpdates)
      if (C == Name)
        return true;
    return false;
  }

  /// True when nothing at all changed.
  bool empty() const {
    return AddedClasses.empty() && DeletedClasses.empty() &&
           ClassUpdates.empty() && MethodBodyUpdates.empty();
  }
};

} // namespace jvolve

#endif // JVOLVE_DSU_UPDATESPEC_H
