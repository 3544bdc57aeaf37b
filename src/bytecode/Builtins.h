//===----------------------------------------------------------------------===//
///
/// \file
/// Built-in classes every MiniVM program implicitly contains: the root
/// class "Object" and the immutable "String" class (whose payload lives in
/// the VM string table, referenced by a hidden int field).
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_BYTECODE_BUILTINS_H
#define JVOLVE_BYTECODE_BUILTINS_H

#include "bytecode/ClassDef.h"

namespace jvolve {

/// Name of the implicit root class.
inline const char *const ObjectClassName = "Object";

/// Name of the built-in string class.
inline const char *const StringClassName = "String";

/// Hidden field on String holding the VM string-table index.
inline const char *const StringIdField = "$id";

/// Adds Object and String to \p Set if absent, as one pair of definitions
/// shared by every set in the process. Idempotent; the VM calls this on
/// every program it loads, and the verifier assumes it ran.
void ensureBuiltins(ClassSet &Set);

/// \returns true if \p Name is one of the built-in class names.
bool isBuiltinClass(const std::string &Name);

/// Signature of intrinsic \p Id as a method descriptor (see IntrinsicId).
std::string intrinsicSignature(IntrinsicId Id);

} // namespace jvolve

#endif // JVOLVE_BYTECODE_BUILTINS_H
