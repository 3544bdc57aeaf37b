//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniVM bytecode verifier.
///
/// Jvolve "relies on bytecode verification to statically type-check updated
/// classes" (paper §1): an update is only type-safe because the *entire new
/// program version* verifies before it is installed. This verifier performs
/// abstract interpretation over a type lattice per method and whole-program
/// resolution checks (superclasses exist, no hierarchy cycles, every
/// symbolic field/method reference resolves with matching types and
/// accessibility).
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_BYTECODE_VERIFIER_H
#define JVOLVE_BYTECODE_VERIFIER_H

#include "bytecode/ClassDef.h"

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jvolve {

/// One verification diagnostic.
struct VerifyError {
  std::string ClassName;
  std::string MethodName; ///< empty for class-level errors
  int Pc = -1;            ///< bytecode index, -1 for non-code errors
  std::string Message;

  /// Renders "Class.method@pc: message".
  std::string str() const;
};

/// What a clean verification of a program looked up, class by class, so a
/// later verification can reuse it.
///
/// For every class it holds the identity (ClassSet::shared) of the class's
/// own definition and of every definition the class's checks looked up by
/// name: its superclass chain, each class a descriptor, `new`, cast or
/// member reference names, and every class an assignability or merge
/// check walked — names that were absent included, and lookups the
/// verifier answered from its member and superclass-chain caches (filled
/// while verifying an earlier class) counted as the class's own. A class
/// whose definition and recorded lookups all resolve to the same objects
/// in another program verifies there exactly as it did here: cleanly.
///
/// The record keeps every definition it names alive, so an identity can
/// never be reused by a different definition, and a copy-on-write
/// ClassSet never changes a recorded definition in place.
class VerificationRecord {
public:
  /// True when the record covers no class (nothing can be reused).
  bool empty() const { return Classes.empty(); }
  /// The number of classes the record covers.
  size_t size() const { return Classes.size(); }

  /// The definition of \p Class the record holds, or nullptr when it does
  /// not cover \p Class.
  const ClassDef *definition(std::string_view Class) const;

  /// The names \p Class's checks looked up, in the order first looked up,
  /// each with the definition it resolved to (nullptr: absent). Empty when
  /// the record does not cover \p Class.
  std::vector<std::pair<std::string, const ClassDef *>>
  lookups(std::string_view Class) const;

private:
  friend class Verifier;

  /// A name some class looked up, and what it resolved to (null: absent).
  struct Lookup {
    std::string Name;
    ClassSet::DefPtr Def;
  };
  /// One verified class: its definition and its lookups, the indices
  /// Uses[First, First + Count) into Names.
  struct Entry {
    std::string Name;
    ClassSet::DefPtr Def;
    uint32_t First = 0, Count = 0;
  };

  std::vector<Lookup> Names;
  std::vector<uint32_t> Uses;
  std::vector<Entry> Classes; ///< ordered by name
};

/// The outcome of Verifier::verify.
struct VerifyOutcome {
  /// Every diagnostic, in the order verifyAll reports them (empty means the
  /// program is type-correct and safe to load).
  std::vector<VerifyError> Errors;
  /// The program's own record: empty unless Errors is.
  VerificationRecord Record;
  /// The classes verified anew, in verification order (the definitions
  /// belong to the verified set), and the number whose prior record held.
  std::vector<const ClassDef *> Verified;
  size_t Reused = 0;
};

/// Verifies complete program versions (ClassSets).
class Verifier {
public:
  /// \p Set must already contain the built-in classes (ensureBuiltins).
  explicit Verifier(const ClassSet &Set) : Set(Set) {}

  /// Verifies every class; returns all diagnostics (empty means the program
  /// is type-correct and safe to load). The same as verify() against an
  /// empty record.
  std::vector<VerifyError> verifyAll() const;

  /// Verifies the program, reusing \p Prior: a class is verified again only
  /// when its own definition, or any lookup \p Prior recorded for it, now
  /// resolves to a different object. Classes are verified in verifyAll's
  /// order, and a reused class verified cleanly, so the diagnostics are
  /// exactly verifyAll's.
  VerifyOutcome verify(const VerificationRecord &Prior) const;

  /// Verifies a single class (hierarchy + every method body).
  void verifyClass(const ClassDef &Cls, std::vector<VerifyError> &Errs) const;

  /// Verifies a single method body in the context of its class.
  void verifyMethod(const ClassDef &Cls, const MethodDef &M,
                    std::vector<VerifyError> &Errs) const;

private:
  /// verify(), assembling Out.Record only when \p KeepRecord: verifyAll
  /// runs the same checks and discards it.
  void verify(const VerificationRecord &Prior, VerifyOutcome &Out,
              bool KeepRecord) const;

  const ClassSet &Set;
};

/// Convenience: true if \p Set verifies with no errors. \p Set must contain
/// the built-ins.
bool verifies(const ClassSet &Set);

/// The abstract operand-stack shape at one bytecode index: one rendered
/// lattice value per slot, bottom of stack first ("int", "null", a class
/// name, or "[<elem>" for arrays).
using StackShape = std::vector<std::string>;

/// Runs the verifier's abstract interpretation over \p M (in the context of
/// \p Cls and \p Set) and returns the inferred operand-stack shape at every
/// program counter: nullopt for unreachable pcs, a shape for reachable
/// ones. \returns an empty vector when the method does not verify — callers
/// (the static update-safety analyzer checking ActiveMethodMapping pc maps)
/// must treat that as "no shape information".
std::vector<std::optional<StackShape>>
computeStackShapes(const ClassSet &Set, const ClassDef &Cls,
                   const MethodDef &M);

} // namespace jvolve

#endif // JVOLVE_BYTECODE_VERIFIER_H
