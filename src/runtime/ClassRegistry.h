//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime class model: loaded classes ("RVMClass" in Jikes RVM terms),
/// field layouts with hard-coded byte offsets, virtual-method tables (TIBs),
/// static storage, and method metadata.
///
/// The DSU layer manipulates this registry directly when installing an
/// update (paper §3.3): old classes are renamed with a version prefix and
/// marked obsolete, new metadata is installed under the original name, and
/// compiled code that embedded now-stale offsets is invalidated.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_RUNTIME_CLASSREGISTRY_H
#define JVOLVE_RUNTIME_CLASSREGISTRY_H

#include "bytecode/ClassDef.h"
#include "runtime/Ids.h"
#include "runtime/Slot.h"

#include <cassert>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace jvolve {

struct CompiledMethod; // exec/CompiledMethod.h

/// Runtime view of one field.
struct RtField {
  std::string Name;
  Type Ty;
  uint32_t Offset = 0; ///< byte offset (instance) or statics slot (static)
  bool IsRef = false;
  bool IsFinal = false;
  Access Visibility = Access::Public;
  std::string Declaring; ///< class that declared this field
};

/// Runtime metadata for one method ("MethodInfo").
struct RtMethod {
  MethodId Id = InvalidMethodId;
  ClassId Owner = InvalidClassId;
  std::string Name;
  std::string Sig;
  bool IsStatic = false;
  Access Visibility = Access::Public;
  std::shared_ptr<const MethodDef> Def; ///< bytecode (owned copy)
  /// Quickened code; null means "compile on next invoke" — the invalidation
  /// hook the DSU layer uses.
  std::shared_ptr<CompiledMethod> Code;
  uint64_t InvokeCount = 0;
  /// Set when the owning class was replaced by an update; obsolete methods
  /// are never recompiled.
  bool Obsolete = false;

  std::string qualifiedName() const { return Name + Sig; }
};

/// Runtime metadata for one class ("RVMClass").
struct RtClass {
  ClassId Id = InvalidClassId;
  std::string Name;
  ClassId Super = InvalidClassId;

  /// Instance fields including inherited ones, ascending by offset.
  std::vector<RtField> InstanceFields;
  /// Static fields declared on this class only.
  std::vector<RtField> StaticFields;
  /// Static storage (this class's slice of the "Java Table of Contents").
  std::vector<Slot> Statics;

  /// The TIB: virtual dispatch table, slot -> MethodId.
  std::vector<MethodId> VTable;
  /// "name+sig" -> TIB slot, including inherited entries.
  std::unordered_map<std::string, int> VTableIndex;
  /// Methods declared on this class (static and instance).
  std::vector<MethodId> Methods;

  uint32_t InstanceSize = 0; ///< bytes, including the object header

  bool IsArray = false;
  Type ElemTy;            ///< element type when IsArray
  bool ElemIsRef = false; ///< elements are traced when true

  /// True for renamed old versions after a dynamic update.
  bool Obsolete = false;

  /// Byte offsets of the reference-typed entries of InstanceFields, in the
  /// same order: what the collector and the heap verifier trace. Last, so
  /// the members the interpreter reads (Statics, VTable) keep their
  /// offsets.
  std::vector<uint32_t> RefOffsets;

  /// \returns the instance field named \p Name, or nullptr.
  const RtField *findInstanceField(std::string_view Name) const;
  /// \returns the static field named \p Name declared here, or nullptr.
  RtField *findStaticField(std::string_view Name);
  const RtField *findStaticField(std::string_view Name) const;
};

/// Owns every loaded class and method; maps names to current versions.
class ClassRegistry {
public:
  /// Loads \p Def (and, recursively, its superclass from \p Context if not
  /// yet loaded). \returns the new class id. Aborts if a class of the same
  /// name is already loaded.
  ClassId loadClass(const ClassDef &Def, const ClassSet &Context);

  /// Loads every class in \p Set (which must include the built-ins).
  void loadAll(const ClassSet &Set);

  /// \returns the id bound to \p Name, or InvalidClassId.
  ClassId idOf(const std::string &Name) const;

  // Inline: every DSU copy, certification step and transformed object
  // looks its class up here.
  RtClass &cls(ClassId Id) {
    assert(Id < Classes.size() && "invalid class id");
    return *Classes[Id];
  }
  const RtClass &cls(ClassId Id) const {
    assert(Id < Classes.size() && "invalid class id");
    return *Classes[Id];
  }
  RtMethod &method(MethodId Id);
  const RtMethod &method(MethodId Id) const;

  size_t numClasses() const { return Classes.size(); }
  size_t numMethods() const { return Methods.size(); }

  /// \returns the array class for elements of type \p Elem, creating it on
  /// demand (like array classes materializing at runtime).
  ClassId arrayClassOf(const Type &Elem);

  /// Resolves \p Name+\p Sig starting at \p Cls and walking superclasses.
  MethodId resolveMethod(ClassId Cls, const std::string &Name,
                         const std::string &Sig) const;

  /// Resolves an instance field by name along the superclass chain (the
  /// chain is baked into InstanceFields, so this is a direct lookup).
  const RtField *resolveInstanceField(ClassId Cls,
                                      const std::string &Name) const;

  /// Resolves a static field along the superclass chain. \p DeclaringOut
  /// receives the class that owns the storage.
  RtField *resolveStaticField(ClassId Cls, std::string_view Name,
                              ClassId *DeclaringOut);

  /// \returns true if \p Sub is \p Super or transitively extends it.
  bool isSubclassOf(ClassId Sub, ClassId Super) const;

  //===--------------------------------------------------------------------===//
  // DSU hooks (paper §3.3)
  //===--------------------------------------------------------------------===//

  /// Renames class \p Id to \p NewName and marks it (and its methods)
  /// obsolete. The original name becomes free for the replacement class.
  void renameClassForUpdate(ClassId Id, const std::string &NewName);

  /// Replaces the bytecode of \p Id with \p NewBody and invalidates its
  /// compiled code (method-body update).
  void setMethodBody(MethodId Id, const MethodDef &NewBody);

  /// Drops compiled code for \p Id so the JIT recompiles on next invoke.
  void invalidateCode(MethodId Id);

  /// Clears static storage of obsolete classes so dead program state does
  /// not keep objects alive after transformers ran.
  void dropObsoleteStatics();

  /// Enumerates every static reference slot of every non-obsolete-or-
  /// obsolete class as GC roots. \p Visit is called with each ref location.
  void visitStaticRoots(const std::function<void(Ref &)> &Visit);

  //===--------------------------------------------------------------------===//
  // Update transaction support. Installing an update appends classes and
  // methods, rebinds names, marks old versions obsolete, swaps method
  // bodies, and drops compiled code. A RegistrySnapshot taken before step
  // (4) captures everything install can touch; restore() truncates the
  // appended entries and puts every pre-existing class and method back,
  // so a failed update leaves the registry exactly as it was.
  //===--------------------------------------------------------------------===//

  struct RegistrySnapshot {
    size_t NumClasses = 0;
    size_t NumMethods = 0;
    std::unordered_map<std::string, ClassId> ByName;

    struct ClassState {
      std::string Name;
      bool Obsolete = false;
      std::vector<Slot> Statics;
    };
    std::vector<ClassState> ClassStates;

    struct MethodState {
      std::shared_ptr<const MethodDef> Def;
      std::shared_ptr<CompiledMethod> Code;
      bool Obsolete = false;
      uint64_t InvokeCount = 0;
    };
    std::vector<MethodState> MethodStates;
  };

  RegistrySnapshot snapshot() const;
  void restore(const RegistrySnapshot &S);

  /// Structural self-check used by post-update certification: name map and
  /// class/method tables agree, ids are in range, superclass chains are
  /// acyclic, TIBs point at real methods, statics match their field lists.
  /// \returns a human-readable description of every violation (empty when
  /// the registry is consistent).
  std::vector<std::string> checkConsistency() const;

private:
  ClassId loadClassImpl(const ClassDef &Def, const ClassSet &Context,
                        std::vector<std::string> &Loading);

  std::vector<std::unique_ptr<RtClass>> Classes;
  std::vector<std::unique_ptr<RtMethod>> Methods;
  std::unordered_map<std::string, ClassId> ByName;
};

} // namespace jvolve

#endif // JVOLVE_RUNTIME_CLASSREGISTRY_H
