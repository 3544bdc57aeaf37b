//===----------------------------------------------------------------------===//
///
/// \file
/// The Update Preparation Tool (UPT, paper §3.1).
///
/// Given the old and new versions of a program (two ClassSets), the UPT
/// computes an UpdateSpec — added/deleted classes, class updates with the
/// transitive subclass closure, method-body updates, removed methods, and
/// indirect (category-(2)) methods — plus the Tables 2-4 summary counters,
/// and packages everything into an UpdateBundle pre-populated with default
/// class and object transformers that the developer may override.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_UPT_H
#define JVOLVE_DSU_UPT_H

#include "bytecode/ClassDef.h"
#include "dsu/UpdateBundle.h"
#include "dsu/UpdateSpec.h"

namespace jvolve {

/// Computes the diff between two program versions.
class Upt {
public:
  /// Diffs \p Old against \p New (with or without the built-ins, which
  /// never count as changes) and returns the spec. A class both versions
  /// share as one definition is unchanged without a comparison. \p Blacklist
  /// adds category-(3) restrictions.
  static UpdateSpec
  computeSpec(const ClassSet &Old, const ClassSet &New,
              const std::vector<MethodRef> &Blacklist = {});

  /// Full preparation: spec plus an UpdateBundle carrying the new program
  /// and the version tag used to rename old classes (e.g. "v131" turns
  /// "User" into "v131_User", Fig. 3).
  static UpdateBundle
  prepare(const ClassSet &Old, const ClassSet &New,
          const std::string &VersionTag,
          const std::vector<MethodRef> &Blacklist = {});

  /// \returns the class names referenced by \p M's bytecode (field owners,
  /// call receivers, New/InstanceOf/CheckCast operands, array element
  /// classes).
  static std::vector<std::string> referencedClasses(const MethodDef &M);

  /// \returns true when a class's *signature* changed between \p OldCls and
  /// \p NewCls: different superclass, any field added/deleted/retyped/
  /// re-flagged/reordered, or any method added/deleted/re-signed.
  static bool classSignatureChanged(const ClassDef &OldCls,
                                    const ClassDef &NewCls);
};

} // namespace jvolve

#endif // JVOLVE_DSU_UPT_H
