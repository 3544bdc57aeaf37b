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
  /// Bytecode: an alias into the program version's shared ClassDef, so
  /// loading copies no instructions. The alias holds a reference to the
  /// definition, so a ClassSet editing it clones it first (copy-on-write)
  /// and the running method keeps its body.
  std::shared_ptr<const MethodDef> Def;
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
  /// name is already loaded. Methods share their bytecode with \p Def.
  ClassId loadClass(const ClassSet::DefPtr &Def, const ClassSet &Context);

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
  void setMethodBody(MethodId Id, std::shared_ptr<const MethodDef> NewBody);

  /// Installs \p Code as the compiled code of \p Id.
  void setCode(MethodId Id, std::shared_ptr<CompiledMethod> Code);

  /// Drops compiled code for \p Id so the JIT recompiles on next invoke.
  void invalidateCode(MethodId Id) { setCode(Id, nullptr); }

  /// Sets the bytecode, compiled code and invoke count of \p Id at once
  /// (the code-version manager's chain pops and unwinds).
  void setMethodState(MethodId Id, std::shared_ptr<const MethodDef> Def,
                      std::shared_ptr<CompiledMethod> Code,
                      uint64_t InvokeCount);

  /// Writes static slot \p Index of class \p Id (an open update log
  /// records the old value first). A reference written into a class that
  /// held none makes it a static root owner.
  void setStatic(ClassId Id, uint32_t Index, Slot Value);

  /// Clears the static reference storage of the obsolete class \p Id, so
  /// dead program state does not keep objects alive after transformers
  /// ran.
  void dropObsoleteStatics(ClassId Id);

  /// Enumerates every static reference slot as a GC root, walking only
  /// the classes that own one. \p Visit is called with each ref location;
  /// an open update log records the value first, since the DSU collection
  /// forwards it.
  void visitStaticRoots(const std::function<void(Ref &)> &Visit);

  //===--------------------------------------------------------------------===//
  // Update transaction support. Installing an update appends classes and
  // methods, rebinds names, marks old versions obsolete, swaps method
  // bodies and compiled code, and writes statics. Between beginUpdateLog()
  // and closeUpdateLog() or rollbackUpdateLog(), every such write records
  // what it overwrote, so undoing a failed install and certifying a
  // committed one cost what the update changed, not what the registry
  // holds.
  //===--------------------------------------------------------------------===//

  /// Starts recording into an emptied log.
  void beginUpdateLog();
  /// Stops recording; the entries stay for checkLoggedConsistency() until
  /// releaseUpdateLog().
  void closeUpdateLog();
  /// Drops the closed log's entries, and with them its references to the
  /// replaced bytecode and compiled code.
  void releaseUpdateLog() { Log.Entries.clear(); }
  /// Undoes every logged write, newest first, and empties the log: the
  /// registry is exactly as beginUpdateLog() found it.
  void rollbackUpdateLog();

  /// Structural self-check of the whole registry (rollback certification
  /// and the oracles): name map and class/method tables agree, ids are in
  /// range, superclass chains are acyclic, TIBs point at real methods,
  /// statics match their field lists. \returns a human-readable
  /// description of every violation (empty when the registry is
  /// consistent).
  std::vector<std::string> checkConsistency() const;

  /// checkConsistency's per-class, per-method and per-name checks over the
  /// classes, methods and names the update log touched, plus two global
  /// checks: every class bound to exactly one name (the name map is as
  /// large as the class table), and the tables grown by exactly the logged
  /// appends. A write the log never saw is outside its view.
  std::vector<std::string> checkLoggedConsistency() const;

  /// What a rolled-back update must leave as it found it: per class its
  /// name, obsolete bit, superclass and static values; per method its
  /// bytecode and compiled-code identity, obsolete bit and invoke count.
  struct Fingerprint {
    struct ClassPrint {
      std::string Name;
      bool Obsolete = false;
      ClassId Super = InvalidClassId;
      std::vector<Slot> Statics;
    };
    struct MethodPrint {
      std::shared_ptr<const MethodDef> Def;
      std::shared_ptr<CompiledMethod> Code;
      bool Obsolete = false;
      uint64_t InvokeCount = 0;
    };
    std::vector<ClassPrint> Classes;
    std::vector<MethodPrint> Methods;
  };
  Fingerprint fingerprint() const;
  /// \returns one line per difference between the registry now and
  /// \p Before (empty when they agree).
  std::vector<std::string> fingerprintDiff(const Fingerprint &Before) const;

private:
  /// Test seam: the registry parity corpus plants name-map corruptions.
  friend struct RegistryCorruption;

  ClassId loadClassImpl(const ClassSet::DefPtr &Def, const ClassSet &Context,
                        std::vector<std::string> &Loading);

  /// Appends to the log when it records.
  void logBinding(const std::string &Name);
  void logMethod(MethodId Id);
  void logStatic(ClassId Id, uint32_t Index);

  /// The per-name, per-class and per-method checks both consistency checks
  /// share.
  void checkName(const std::string &Name, ClassId Id,
                 std::vector<std::string> &Problems) const;
  void checkClass(size_t I, std::vector<std::string> &Problems) const;
  void checkMethod(size_t I, std::vector<std::string> &Problems) const;

  /// What install overwrote, in write order: appended class and method
  /// ids (one entry each, so a free list could hand a rolled-back id out
  /// again), name bindings, a class's name and obsolete bit before a
  /// rename, a method's bytecode, compiled code, invoke count and obsolete
  /// bit before each write, and static slot values (INTERNALS.md §9).
  struct UndoLog {
    enum class Kind : uint8_t {
      AppendClass,  ///< class Id was appended
      AppendMethod, ///< method Id was appended
      Binding,      ///< Name was bound to Id (Flag) or unbound
      Class,        ///< class Id had Name and obsolete bit Flag
      Method,       ///< method Id had Def, Code, Count, obsolete bit Flag
      Static,       ///< static slot Index of class Id held Value
    };
    struct Entry {
      Kind K = Kind::AppendClass;
      bool Flag = false;
      uint32_t Id = 0;
      uint32_t Index = 0;
      uint64_t Count = 0;
      Slot Value;
      std::string Name;
      std::shared_ptr<const MethodDef> Def;
      std::shared_ptr<CompiledMethod> Code;
    };
    Entry &add(Kind K, uint32_t Id) {
      Entry &E = Entries.emplace_back();
      E.K = K;
      E.Id = Id;
      return E;
    }
    std::vector<Entry> Entries;
    bool Recording = false;
    /// Table sizes when the log began.
    size_t ClassesBefore = 0;
    size_t MethodsBefore = 0;
  };
  UndoLog Log;

  std::vector<std::unique_ptr<RtClass>> Classes;
  std::vector<std::unique_ptr<RtMethod>> Methods;
  std::unordered_map<std::string, ClassId> ByName;
  /// Ascending ids of the classes with a reference static slot: the static
  /// root scan's walk, as long as the live classes with such slots, plus
  /// their obsolete versions (a transformer may still write one).
  std::vector<ClassId> StaticRootOwners;
};

} // namespace jvolve

#endif // JVOLVE_RUNTIME_CLASSREGISTRY_H
