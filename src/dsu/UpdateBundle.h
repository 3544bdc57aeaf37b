//===----------------------------------------------------------------------===//
///
/// \file
/// An update bundle: what the developer hands to the running VM.
///
/// The C++ analogue of the paper's (new class files, update specification,
/// JvolveTransformers.class) triple. Object and class transformers are C++
/// callables operating through the privileged TransformCtx interface — the
/// equivalent of the JastAdd-compiled transformer methods that bypass
/// access modifiers (§2.3). The UPT installs default transformers; the
/// developer overrides entries as needed (Fig. 3).
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_UPDATEBUNDLE_H
#define JVOLVE_DSU_UPDATEBUNDLE_H

#include "bytecode/ClassDef.h"
#include "dsu/ActiveMethod.h"
#include "dsu/UpdateSpec.h"
#include "runtime/Slot.h"

#include <functional>
#include <map>
#include <string>

namespace jvolve {

class TransformCtx;

/// Initializes the new version \p To of an object from its old version
/// \p From (paper §2.3, jvolveObject).
using ObjectTransformer =
    std::function<void(TransformCtx &, Ref To, Ref From)>;

/// Initializes the static fields of an updated class (jvolveClass). The old
/// class's statics are reachable through the renamed old class name.
using ClassTransformer = std::function<void(TransformCtx &)>;

/// Everything needed to apply one dynamic update.
struct UpdateBundle {
  /// The complete new program version (not just changed classes).
  ClassSet NewProgram;

  UpdateSpec Spec;

  /// Prefix for renamed old classes, e.g. "v131".
  std::string VersionTag;

  /// Per-updated-class transformers, keyed by class name. Classes absent
  /// from these maps get the default transformer (copy same-name same-type
  /// members, default-initialize the rest).
  std::map<std::string, ObjectTransformer> ObjectTransformers;
  std::map<std::string, ClassTransformer> ClassTransformers;

  /// Per-updated-class renames (copy-chain-proven, dsu/Synthesis.h), keyed
  /// by class name and then by new field: the old field the default object
  /// transformer fills that new field from. A registered object
  /// transformer replaces them along with the rest of the default.
  std::map<std::string, std::map<std::string, std::string>> Renames;

  /// Optional inverse transformers, keyed by class name, used only when a
  /// canary window reverts this update: they initialize the *old* version
  /// \p To from the *new* version \p From. Classes absent from these maps
  /// fall back to the default copy, with Renames inverted, plus the
  /// canary's retained undo log (dropped fields restored from values
  /// extracted at commit).
  std::map<std::string, ObjectTransformer> InverseObjectTransformers;
  std::map<std::string, ClassTransformer> InverseClassTransformers;

  /// §3.5 extension: recipes for replacing *changed* methods while they
  /// run, keyed by MethodRef::key() of the old method. Without an entry,
  /// an on-stack changed method blocks the update behind a return barrier.
  std::map<std::string, ActiveMethodMapping> ActiveMappings;

  /// Registers \p M under its method key.
  void addActiveMapping(ActiveMethodMapping M) {
    std::string Key = M.Method.key();
    ActiveMappings[Key] = std::move(M);
  }

  /// Old-class name as it appears after renaming ("v131_User").
  std::string renamedOldClass(const std::string &Name) const {
    return VersionTag + "_" + Name;
  }
};

} // namespace jvolve

#endif // JVOLVE_DSU_UPDATEBUNDLE_H
