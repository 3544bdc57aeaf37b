//===----------------------------------------------------------------------===//
///
/// \file
/// Object layout in the MiniVM heap.
///
/// Every object starts with an ObjectHeader (class id, status flags, and a
/// word used as the forwarding pointer during copying collection). Scalar
/// instances are followed by 8-byte field slots at the offsets recorded in
/// RtClass::InstanceFields. Arrays are followed by a 64-bit length and then
/// 8-byte elements.
///
/// The header's Forward word means something only while FlagForwarded is
/// set. A DSU collection therefore stores each new-version shell's
/// update-log index there (setLogIndex); the shell is never forwarded
/// while it is uninitialized, and a regular collection that moves it
/// memcpys the word along, so the index follows the shell through every
/// move until its update ends. Readers must validate the index against the
/// log (TransformerRunner::entryOf): any other object's word holds zero, a
/// stale index from an earlier update, or a dead forwarding address.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_RUNTIME_OBJECTMODEL_H
#define JVOLVE_RUNTIME_OBJECTMODEL_H

#include "runtime/ClassRegistry.h"
#include "runtime/Ids.h"
#include "runtime/Slot.h"

#include <cassert>
#include <cstdint>
#include <cstring>

namespace jvolve {

/// Header prefix of every heap object.
struct ObjectHeader {
  ClassId Class;
  uint32_t Flags;
  /// Forwarding pointer when FlagForwarded is set; a DSU shell's
  /// update-log index otherwise (see setLogIndex).
  Ref Forward;
};

/// Object status flags.
enum : uint32_t {
  FlagForwarded = 1u << 0, ///< header holds a forwarding pointer
  FlagArray = 1u << 1,     ///< array layout (length + elements)
  /// DSU: freshly allocated new-version object whose transformer has not
  /// run yet; its fields are all zero/null (paper §3.4).
  FlagUninitialized = 1u << 2,
  FlagRefArray = 1u << 3, ///< array whose elements are references
  /// DSU lazy mode: the object is an untransformed shell registered with
  /// the LazyTransformEngine; a read barrier transforms it on first touch.
  /// Always set together with FlagUninitialized; both clear when the
  /// transformer runs (on demand or from the background drainer).
  FlagLazyPending = 1u << 4,
};

inline constexpr size_t ObjectHeaderBytes = sizeof(ObjectHeader);
inline constexpr size_t SlotBytes = 8;
/// Array layout: header, 64-bit length, then elements.
inline constexpr size_t ArrayLengthOffset = ObjectHeaderBytes;
inline constexpr size_t ArrayElemsOffset = ObjectHeaderBytes + 8;

inline ObjectHeader *header(Ref Obj) {
  assert(Obj && "null object");
  return reinterpret_cast<ObjectHeader *>(Obj);
}

inline ClassId classOf(Ref Obj) { return header(Obj)->Class; }

/// DSU: records \p Index, the update-log entry of new-version shell
/// \p Obj, in the header's otherwise unused Forward word.
inline void setLogIndex(Ref Obj, size_t Index) {
  header(Obj)->Forward = reinterpret_cast<Ref>(static_cast<uintptr_t>(Index));
}

/// DSU: the update-log index stored by setLogIndex. Unvalidated: on an
/// object that is not a shell of the current update it is meaningless.
inline size_t logIndex(Ref Obj) {
  return static_cast<size_t>(
      reinterpret_cast<uintptr_t>(header(Obj)->Forward));
}

inline int64_t getIntAt(Ref Obj, uint32_t Offset) {
  int64_t V;
  std::memcpy(&V, Obj + Offset, sizeof(V));
  return V;
}

inline void setIntAt(Ref Obj, uint32_t Offset, int64_t V) {
  std::memcpy(Obj + Offset, &V, sizeof(V));
}

inline Ref getRefAt(Ref Obj, uint32_t Offset) {
  Ref V;
  std::memcpy(&V, Obj + Offset, sizeof(V));
  return V;
}

inline void setRefAt(Ref Obj, uint32_t Offset, Ref V) {
  std::memcpy(Obj + Offset, &V, sizeof(V));
}

inline int64_t arrayLength(Ref Arr) {
  return getIntAt(Arr, ArrayLengthOffset);
}

inline uint32_t arrayElemOffset(int64_t Index) {
  return static_cast<uint32_t>(ArrayElemsOffset +
                               static_cast<uint64_t>(Index) * SlotBytes);
}

/// Total byte size of \p Obj given its class \p Cls.
inline size_t objectBytes(const RtClass &Cls, Ref Obj) {
  if (!Cls.IsArray)
    return Cls.InstanceSize;
  return ArrayElemsOffset +
         static_cast<size_t>(arrayLength(Obj)) * SlotBytes;
}

/// Byte size of an array of \p Length elements.
inline size_t arrayBytes(int64_t Length) {
  return ArrayElemsOffset + static_cast<size_t>(Length) * SlotBytes;
}

} // namespace jvolve

#endif // JVOLVE_RUNTIME_OBJECTMODEL_H
