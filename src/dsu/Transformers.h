//===----------------------------------------------------------------------===//
///
/// \file
/// The transformer runtime (paper §2.3, §3.4).
///
/// TransformCtx is the privileged interface transformer bodies run against:
/// it reads and writes object fields *by name*, bypassing access modifiers
/// and final-ness (the role of the paper's JastAdd compiler extension), can
/// allocate new objects/arrays/strings, and exposes the special VM function
/// that forces a referenced object to be transformed before its fields are
/// read (with cycle detection). A by-name access that names the field after
/// the last one accessed on a recently accessed class, as a field-by-field
/// copy does, is one inline name compare; any other access looks the name
/// up.
///
/// TransformerRunner executes, after a DSU collection, first every class
/// transformer and then every object transformer over the update log,
/// falling back to the UPT-generated default (copy members with matching
/// name and type plus the bundle's renames; default-initialize the rest).
/// It resolves each (new class, old class) pair once per update to a
/// TransformPlan, the only place old and new layouts are matched by name:
/// eager and lazy transforms, the impact-bounded bulk-settle, the canary
/// undo log and the reverse bundle all read it, and the per-object work
/// does no name lookups.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_TRANSFORMERS_H
#define JVOLVE_DSU_TRANSFORMERS_H

#include "dsu/UpdateBundle.h"
#include "heap/Collector.h"
#include "runtime/ObjectModel.h"
#include "vm/VM.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jvolve {

/// Privileged accessor passed to transformer bodies.
class TransformCtx {
public:
  TransformCtx(VM &TheVM, class TransformerRunner *Runner)
      : TheVM(TheVM), Runner(Runner) {}

  //===--- Instance fields (by name; access modifiers are bypassed) -------===//
  int64_t getInt(Ref Obj, std::string_view Field) const {
    return getIntAt(Obj, fieldOf(Obj, Field)->Offset);
  }
  Ref getRef(Ref Obj, std::string_view Field) const {
    return getRefAt(Obj, fieldOf(Obj, Field)->Offset);
  }
  void setInt(Ref Obj, std::string_view Field, int64_t Value) {
    setIntAt(Obj, fieldOf(Obj, Field)->Offset, Value);
  }
  void setRef(Ref Obj, std::string_view Field, Ref Value) {
    setRefAt(Obj, fieldOf(Obj, Field)->Offset, Value);
  }

  //===--- Statics (works on renamed obsolete classes too) ----------------===//
  int64_t getStaticInt(std::string_view Cls, std::string_view Field) const;
  Ref getStaticRef(std::string_view Cls, std::string_view Field) const;
  void setStaticInt(std::string_view Cls, std::string_view Field,
                    int64_t Value);
  void setStaticRef(std::string_view Cls, std::string_view Field, Ref Value);

  //===--- Allocation ------------------------------------------------------===//
  Ref allocate(const std::string &ClassName);
  Ref allocateArray(const std::string &ElemDesc, int64_t Length);
  Ref newString(const std::string &Payload);
  std::string stringValue(Ref Str) const;

  //===--- Arrays -----------------------------------------------------------===//
  int64_t arrayLength(Ref Arr) const;
  Ref getElemRef(Ref Arr, int64_t Index) const;
  int64_t getElemInt(Ref Arr, int64_t Index) const;
  void setElemRef(Ref Arr, int64_t Index, Ref Value);
  void setElemInt(Ref Arr, int64_t Index, int64_t Value);

  /// The paper's special VM function: if \p Obj is a new-version object
  /// whose transformer has not run yet, run it now. Throws
  /// UpdateError("transform") on a transformer cycle (an ill-defined
  /// transformer set); the updater rolls the update back.
  void ensureTransformed(Ref Obj);

  /// The runner's default object and class transforms, for transformers
  /// that extend the default instead of replacing it (the reverse bundle).
  void defaultTransform(Ref To, Ref From);
  void defaultClassTransform(const std::string &Cls);

private:
  /// The instance field \p Field of \p Obj's class. Inline when it is the
  /// field after the one accessed last on that class (wrapping around);
  /// otherwise lookupField.
  const RtField *fieldOf(Ref Obj, std::string_view Field) const;
  /// The by-name lookup behind a miss; throws UpdateError("transform") when
  /// the class has no such field, and points a cursor at the next field.
  const RtField *lookupField(Ref Obj, std::string_view Field) const;

  VM &TheVM;
  class TransformerRunner *Runner;

  /// A recently accessed class and the index in its InstanceFields of the
  /// field after the one accessed last. Fields points into the class's own
  /// table, which lives as long as the class: a rollback unloads only the
  /// classes its own update loaded, whose transformers ran against that
  /// update's runner-owned context.
  struct FieldCursor {
    ClassId Class = InvalidClassId;
    const RtField *Fields = nullptr;
    uint32_t Count = 0;
    uint32_t Next = 0;
  };
  /// Transformer bodies alternate between the old and the new object, so
  /// one cursor per side; a miss on a third class replaces them in turn.
  mutable FieldCursor Recent[2];
  mutable uint32_t NextVictim = 0;
};

inline const RtField *TransformCtx::fieldOf(Ref Obj,
                                            std::string_view Field) const {
  assert(Obj && "field access on null in transformer");
  ClassId Id = classOf(Obj);
  for (FieldCursor &C : Recent) {
    if (C.Class != Id)
      continue;
    // Field names are unique per class (the verifier rejects shadowing),
    // so an equal name is the field findInstanceField would return. A
    // byte loop: the names are a few characters long.
    const RtField &F = C.Fields[C.Next];
    if (F.Name.size() != Field.size())
      break;
    for (size_t I = 0; I < Field.size(); ++I)
      if (F.Name[I] != Field[I])
        return lookupField(Obj, Field);
    C.Next = C.Next + 1 == C.Count ? 0 : C.Next + 1;
    return &F;
  }
  return lookupField(Obj, Field);
}

/// How the instances of one new-version class are initialized from one
/// old-version class, built once per update by matching the two runtime
/// layouts by name.
struct TransformPlan {
  ClassId OldClass = InvalidClassId; ///< old class the plan was built for
  /// The registered object transformer; null selects the default copy.
  const ObjectTransformer *User = nullptr;
  /// The default transform: (new offset, old offset) of every field that
  /// keeps its name and type, or that the bundle renames.
  std::vector<std::pair<uint32_t, uint32_t>> Copies;
  /// Indices in the old class's InstanceFields of the fields no copy reads:
  /// the values the default transform drops.
  std::vector<uint32_t> Dropped;
  /// A rename naming a field the layouts lack: the default transform throws
  /// it as UpdateError("transform") instead of copying anything.
  std::string Error;
  /// The default transform copies every slot in place between identical
  /// layouts — the whole object, bit for bit.
  bool Identity = false;
};

/// Runs class and object transformers after a DSU collection.
class TransformerRunner {
public:
  TransformerRunner(VM &TheVM, const UpdateBundle &Bundle,
                    std::vector<UpdateLogEntry> &UpdateLog)
      : TheVM(TheVM), Bundle(Bundle), UpdateLog(UpdateLog), Ctx(TheVM, this) {}
  TransformerRunner(const TransformerRunner &) = delete;
  TransformerRunner &operator=(const TransformerRunner &) = delete;

  /// Executes all class transformers, then all object transformers.
  /// \returns wall-clock milliseconds spent.
  double runAll();

  /// Executes only the class transformers (statics). The lazy engine runs
  /// these eagerly at commit — statics have no read barrier — and defers
  /// the per-object work. \returns wall-clock milliseconds spent.
  double runClassTransformers();

  /// Transforms the log entry at \p Index (cycle-safe; no-op when already
  /// done or failed). The lazy engine's drain loop uses this.
  void transformAt(size_t Index) { transformEntry(Index); }

  /// Force-transforms the log entry for \p NewObj (no-op when \p NewObj is
  /// not a pending new-version object).
  void ensureTransformed(Ref NewObj);

  /// The log entry whose new object is \p Obj: the index the DSU collection
  /// stored in the object's header, checked against the log. \returns
  /// NoEntry for any object that is not one of the log's new objects.
  size_t entryOf(Ref Obj) const;
  static constexpr size_t NoEntry = SIZE_MAX;

  uint64_t objectsTransformed() const { return NumTransformed; }

  const std::vector<UpdateLogEntry> &log() const { return UpdateLog; }

  /// The plan for \p NewClass instances transformed from \p OldClass
  /// (built on first use, then reused for the rest of the update).
  const TransformPlan &planFor(ClassId NewClass, ClassId OldClass);

  /// Runs the default transform of \p To's plan: copies its slots from
  /// \p From, or throws the plan's Error.
  void applyDefault(Ref To, Ref From);

  /// Same-name same-type static copy from the renamed old class to the
  /// updated class \p Name. Missing classes (pure additions) are a no-op.
  void applyDefaultStatics(const std::string &Name);

private:
  void transformEntry(size_t Index);

  VM &TheVM;
  const UpdateBundle &Bundle;
  std::vector<UpdateLogEntry> &UpdateLog;
  std::vector<TransformPlan> Plans; ///< indexed by new class id
  uint64_t NumTransformed = 0;
  /// The context every transformer of this update runs against, so its
  /// field cursors carry from one object to the next.
  TransformCtx Ctx;
};

} // namespace jvolve

#endif // JVOLVE_DSU_TRANSFORMERS_H
