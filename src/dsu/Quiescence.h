//===----------------------------------------------------------------------===//
///
/// \file
/// Quiescence watchdog: structured diagnosis of safe-point failures.
///
/// The paper's liveness story ends at "we installed a return barrier on
/// PoolThread.run(), but this barrier is never triggered" (§4.2) — prose an
/// operator had to reconstruct by hand. The watchdog turns that narrative
/// into data: when the updater's safe-point deadline expires, it walks the
/// scheduler's threads and produces a QuiescenceReport naming, per
/// offending thread, its state (running / sleeping / blocked in recv), the
/// restricted frame(s) pinning the update, and *why* each frame is
/// restricted — including the statically detectable "this method can never
/// return" case behind both of the updates Jvolve cannot apply.
///
/// The report feeds the updater's escalation ladder (Rescue -> Abort, see
/// Updater.h) and is returned in UpdateResult so tools and benches can
/// print why an update failed instead of just that it timed out. The
/// watchdog's frame classifier is the one the updater's safe-point
/// attempts and its Rescue rung use, so the report names exactly the
/// frames that kept the update from installing.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_QUIESCENCE_H
#define JVOLVE_DSU_QUIESCENCE_H

#include "dsu/UpdateBundle.h"
#include "threads/Thread.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace jvolve {

class VM;

/// Why a frame pins the update (cannot be released by barriers/OSR alone).
enum class QuiescenceBlockCause : uint8_t {
  InfiniteLoop,     ///< changed method whose body can never return
  ChangedMethod,    ///< category (1): changed method active on the stack
  RemovedMethod,    ///< category (1): deleted method active on the stack
  Blacklisted,      ///< category (3): user-restricted method
  InlinedRestricted, ///< caller inlined a restricted body
  OptimizedIndirect, ///< opt-compiled category (2): OSR cannot lift it
  OsrDisabled,       ///< base-compiled category (2) with OSR turned off
};

const char *quiescenceBlockCauseName(QuiescenceBlockCause C);

/// The updater's escalation ladder. Rungs are tried in order when the
/// safe-point deadline expires; UpdateResult records the highest rung the
/// update climbed to.
enum class QuiescenceRung : uint8_t {
  None,   ///< deadline never expired
  Rescue, ///< force-yields + synthesized identity remaps
  Abort,  ///< clean abort; report returned to the caller
};

const char *quiescenceRungName(QuiescenceRung R);

/// One restricted frame pinning a thread.
struct QuiescenceFrameInfo {
  size_t FrameIndex = 0; ///< position from the bottom of the stack
  MethodRef Method;
  std::string QualifiedName; ///< "Class.method(sig)" for display
  uint32_t Pc = 0;
  QuiescenceBlockCause Cause = QuiescenceBlockCause::ChangedMethod;
  bool BarrierArmed = false;
  /// True when the frame could be released by synthesizing an identity
  /// ActiveMethodMapping: the method's only restriction is a changed body
  /// of identical length, base-compiled with nothing inlined. The Rescue
  /// rung acts on exactly these frames.
  bool RescuableBodySwap = false;
};

/// One thread that failed to reach an unrestricted safe point.
struct QuiescenceThreadInfo {
  ThreadId Id = 0;
  std::string Name;
  ThreadState State = ThreadState::Runnable;
  uint64_t WakeTick = 0; ///< meaningful for Sleeping / BlockedRecv
  std::vector<QuiescenceFrameInfo> PinningFrames;
};

/// The watchdog's findings at one deadline expiry.
struct QuiescenceReport {
  bool Diagnosed = false; ///< false until the watchdog actually ran
  uint64_t ScheduleTick = 0;
  uint64_t DeadlineTick = 0;
  uint64_t ReportTick = 0;
  int Attempts = 0;  ///< safe-point attempts made before the expiry
  bool Forced = false; ///< expiry injected via quiescence-watchdog-expiry
  std::vector<QuiescenceThreadInfo> Threads;

  bool diagnosed() const { return Diagnosed; }

  /// Qualified names of every method diagnosed as never returning, without
  /// duplicates — the "why the two impossible updates fail" headline.
  std::vector<std::string> loopingMethods() const;

  /// Multi-line human-readable rendering.
  std::string str() const;
};

/// \returns true when \p Code contains no return instruction of any kind —
/// the method can never leave the stack by returning, so a return barrier
/// on it will never fire (the paper's two inapplicable updates).
bool methodNeverReturns(const CompiledMethod &Code);

/// How one frame stands against a pending update.
enum class FrameKind : uint8_t {
  Free,       ///< may keep running its current compiled code
  OsrNeeded,  ///< base-compiled category (2): replace on stack
  MappedOsr,  ///< changed method with an ActiveMethodMapping (§3.5)
  Restricted, ///< pins the update until it returns
};

/// Classifies frames against a pending update's restriction sets, and
/// walks the scheduler's threads to produce the report. Stateless beyond
/// the borrowed references, so the updater builds one wherever it needs
/// one.
class QuiescenceWatchdog {
public:
  QuiescenceWatchdog(VM &TheVM, const UpdateBundle &Bundle,
                     const std::set<MethodId> &RestrictedMethodIds,
                     const std::set<ClassId> &UpdatedOldClassIds,
                     bool OsrEnabled)
      : TheVM(TheVM), Bundle(Bundle), RestrictedMethodIds(RestrictedMethodIds),
        UpdatedOldClassIds(UpdatedOldClassIds), OsrEnabled(OsrEnabled) {}

  /// Decides whether \p F may keep running (Free), is lifted at install
  /// (OsrNeeded, MappedOsr), or pins the update (Restricted): categories
  /// (1) and (3), code that inlined a restricted body, and category (2)
  /// code OSR cannot replace.
  FrameKind classify(const Frame &F) const;

  /// \returns the operator mapping that replaces \p F in place: one for
  /// its method that covers the frame's pc, in base-compiled code with
  /// nothing inlined. nullptr otherwise.
  const ActiveMethodMapping *mappingFor(const Frame &F) const;

  /// Reports every frame classify() calls Restricted, with its cause.
  QuiescenceReport diagnose(uint64_t ScheduleTick, uint64_t DeadlineTick,
                            int Attempts, bool Forced) const;

  /// \returns true when \p F's only restriction is a changed body of
  /// identical length in base-compiled code — an identity pc map releases
  /// it. Shared between diagnosis and the updater's Rescue rung.
  bool rescuableBodySwap(const Frame &F) const;

private:
  /// Why a frame classify() calls Restricted pins the update.
  QuiescenceBlockCause causeOf(const Frame &F, const MethodRef &Method) const;

  VM &TheVM;
  const UpdateBundle &Bundle;
  const std::set<MethodId> &RestrictedMethodIds;
  const std::set<ClassId> &UpdatedOldClassIds;
  bool OsrEnabled;
};

} // namespace jvolve

#endif // JVOLVE_DSU_QUIESCENCE_H
