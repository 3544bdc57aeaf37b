//===----------------------------------------------------------------------===//
///
/// \file
/// Class-file definitions: fields, methods, classes, and versioned class
/// sets. A ClassSet is a complete program version — the unit the Update
/// Preparation Tool diffs and the unit the VM loads.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_BYTECODE_CLASSDEF_H
#define JVOLVE_BYTECODE_CLASSDEF_H

#include "bytecode/Instruction.h"
#include "bytecode/Type.h"

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace jvolve {

/// Java-style access modifiers. The VM enforces these during verification;
/// transformer functions run in a privileged context that bypasses them
/// (paper §2.3: the JastAdd extension that ignores access modifiers).
enum class Access : uint8_t { Public, Protected, Private };

/// A field declaration.
struct FieldDef {
  std::string Name;
  std::string TypeDesc; ///< type descriptor, e.g. "I" or "[LEmailAddress;"
  bool IsStatic = false;
  bool IsFinal = false;
  Access Visibility = Access::Public;

  Type type() const { return Type::parse(TypeDesc); }

  bool operator==(const FieldDef &Other) const = default;
};

/// A method declaration with its bytecode body.
struct MethodDef {
  std::string Name;
  std::string Sig; ///< method descriptor, e.g. "(ILUser;)V"
  bool IsStatic = false;
  Access Visibility = Access::Public;
  uint16_t NumLocals = 0; ///< local slots, including parameters (and `this`)
  std::vector<Instr> Code;

  MethodSignature signature() const { return MethodSignature::parse(Sig); }

  /// Number of local slots occupied by parameters (including `this` for
  /// instance methods).
  uint16_t numParamSlots() const {
    return static_cast<uint16_t>(signature().Params.size() +
                                 (IsStatic ? 0 : 1));
  }

  /// \returns true if the bodies (bytecode) are identical. Used by the UPT
  /// to distinguish method-body updates from untouched methods.
  bool codeEquals(const MethodDef &Other) const { return Code == Other.Code; }

  bool operator==(const MethodDef &Other) const = default;
};

/// A class definition: name, superclass, fields, methods.
class ClassDef {
public:
  ClassDef() = default;
  ClassDef(std::string Name, std::string Super)
      : Name(std::move(Name)), Super(std::move(Super)) {}

  std::string Name;
  std::string Super; ///< empty for the implicit root class "Object"

  std::vector<FieldDef> Fields;
  std::vector<MethodDef> Methods;

  /// \returns the field named \p FieldName declared on this class (not
  /// superclasses), or nullptr.
  const FieldDef *findField(const std::string &FieldName) const;

  /// \returns the method \p MethodName with exact signature \p MethodSig
  /// declared on this class, or nullptr. Empty \p MethodSig matches any
  /// signature (first by declaration order).
  const MethodDef *findMethod(const std::string &MethodName,
                              const std::string &MethodSig = "") const;
  MethodDef *findMethod(const std::string &MethodName,
                        const std::string &MethodSig = "");

  bool operator==(const ClassDef &Other) const = default;
};

/// A complete program version: every class plus the designated entry points.
///
/// Each class is held as a shared, immutable definition, so copying a set
/// copies one pointer per class and every version built by copying shares
/// the classes it does not change. Mutation is copy-on-write: the non-const
/// find(), replace() and remove() never change a definition that another
/// set (or a verification record, bytecode/Verifier.h) still holds — find()
/// clones a shared definition first and keeps the clone; a definition this
/// set alone owns is changed in place.
class ClassSet {
public:
  using DefPtr = std::shared_ptr<const ClassDef>;
  using ClassMap = std::map<std::string, DefPtr, std::less<>>;

  /// Adds \p Def; aborts if a class of that name already exists.
  void add(ClassDef Def);
  /// Adds the shared definition \p Def; aborts as add(ClassDef) does.
  /// \p Def must have been created as a non-const ClassDef (another set's
  /// shared(), or std::make_shared<ClassDef>): a later find() may change it
  /// in place once this set is its only owner.
  void add(DefPtr Def);

  /// Replaces or adds \p Def.
  void replace(ClassDef Def);

  /// Removes the class named \p Name; aborts if absent.
  void remove(const std::string &Name);

  bool contains(std::string_view Name) const {
    return Classes.find(Name) != Classes.end();
  }

  const ClassDef *find(std::string_view Name) const;
  /// The definition of \p Name for changing, or nullptr. A definition
  /// shared with another owner is cloned first, so the pointer is this
  /// set's own until the set is copied; read through the const overload.
  ClassDef *find(std::string_view Name);

  /// The shared definition of \p Name, or nullptr: its identity is what
  /// verification records (bytecode/Verifier.h) compare.
  const DefPtr *shared(std::string_view Name) const {
    auto It = Classes.find(Name);
    return It == Classes.end() ? nullptr : &It->second;
  }

  /// All classes, ordered by name (deterministic iteration).
  const ClassMap &classes() const { return Classes; }

  size_t size() const { return Classes.size(); }

  /// Walks the superclass chain of \p Name (inclusive) and returns the first
  /// class declaring field \p FieldName, or nullptr. \p DeclaringClass
  /// receives the declaring class name when found.
  const FieldDef *resolveField(const std::string &Name,
                               const std::string &FieldName,
                               std::string *DeclaringClass = nullptr) const;

  /// Walks the superclass chain of \p Name (inclusive) and returns the first
  /// class declaring method \p MethodName with signature \p MethodSig.
  const MethodDef *resolveMethod(const std::string &Name,
                                 const std::string &MethodName,
                                 const std::string &MethodSig,
                                 std::string *DeclaringClass = nullptr) const;

  /// \returns true if \p Sub equals \p Super or transitively extends it.
  bool isSubclassOf(const std::string &Sub, const std::string &Super) const;

  /// \returns the superclass chain of \p Name from itself up to the root.
  std::vector<std::string> superChain(const std::string &Name) const;

private:
  ClassMap Classes;
};

} // namespace jvolve

#endif // JVOLVE_BYTECODE_CLASSDEF_H
