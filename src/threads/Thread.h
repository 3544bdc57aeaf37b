//===----------------------------------------------------------------------===//
///
/// \file
/// Green threads: activation stacks of frames, each a window into one slot
/// stack per thread, plus scheduling state.
///
/// MiniVM threads are cooperative: they run until their quantum expires or
/// until they block, and they stop at *yield points* (method calls, method
/// returns, and loop back edges) whenever the VM requests a yield — exactly
/// the safe-point mechanism Jikes RVM uses for GC and thread scheduling,
/// which Jvolve piggybacks on (paper §3.2).
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_THREADS_THREAD_H
#define JVOLVE_THREADS_THREAD_H

#include "exec/CompiledMethod.h"
#include "runtime/Ids.h"
#include "runtime/Slot.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace jvolve {

/// One activation record: a window into its thread's slot stack
/// (VMThread::Slots). Locals occupy [Base, StackBase) and the operand stack
/// [StackBase, Sp). A caller's Sp is its callee's Base: the arguments it
/// pushed became the callee's first locals in place.
struct Frame {
  std::shared_ptr<CompiledMethod> Code;
  MethodId Method = InvalidMethodId;
  uint32_t Pc = 0;
  uint32_t Base = 0;
  uint32_t StackBase = 0;
  uint32_t Sp = 0;
  /// Set by the DSU layer: when this frame returns, the bridge code fires
  /// and the update process restarts (paper §3.2, return barriers).
  bool ReturnBarrier = false;
};

/// Scheduling state. Every state other than Runnable implies the thread is
/// stopped at a VM safe point (blocked threads block only inside intrinsic
/// calls, which sit at yield points).
enum class ThreadState : uint8_t {
  Runnable,      ///< ready to execute (possibly mid-quantum)
  Parked,        ///< stopped at a yield point because a yield was requested
  Sleeping,      ///< waiting for the virtual clock to reach WakeTick
  BlockedAccept, ///< waiting for a connection on BlockedPort
  BlockedRecv,   ///< waiting for the next request on BlockedConn
  Finished,      ///< outermost frame returned
  Trapped,       ///< runtime error (null deref, cast failure, OOM, ...)
};

/// Stable state name for diagnostics (quiescence reports, traces).
inline const char *threadStateName(ThreadState S) {
  switch (S) {
  case ThreadState::Runnable: return "runnable";
  case ThreadState::Parked: return "parked";
  case ThreadState::Sleeping: return "sleeping";
  case ThreadState::BlockedAccept: return "blocked-accept";
  case ThreadState::BlockedRecv: return "blocked-recv";
  case ThreadState::Finished: return "finished";
  case ThreadState::Trapped: return "trapped";
  }
  return "unknown";
}

/// A green thread.
struct VMThread {
  ThreadId Id = 0;
  std::string Name;
  /// Daemon threads do not keep the VM alive (server accept loops).
  bool Daemon = false;

  ThreadState State = ThreadState::Runnable;
  std::vector<Frame> Frames;
  /// Every frame's locals and operand stack, bottom frame first. Slots at
  /// and above the top frame's Sp are dead: they are no GC roots and are
  /// written before they are read. Released when the last frame returns.
  std::vector<Slot> Slots;

  uint64_t WakeTick = 0;  ///< Sleeping / BlockedRecv wake-up time
  int BlockedPort = -1;   ///< BlockedAccept
  int BlockedConn = -1;   ///< BlockedRecv
  std::string TrapMessage;

  /// Last CodeVersionManager epoch this thread observed. Threads resume
  /// only at yield points (call entry / loop back edges / returns), so the
  /// scheduler comparing this against the manager's epoch before each
  /// quantum *is* the per-method active-version poll — no flag test inside
  /// the hot interpreter loop (see dsu/CodeVersion.h).
  uint64_t CodeEpoch = 0;

  /// Value returned by the outermost frame (tests and callStatic use this).
  Slot ExitValue;
  bool HasExitValue = false;

  /// VM-internal worker body (e.g. the lazy-transform drainer): instead of
  /// interpreting Frames, the scheduler calls this with a tick budget each
  /// quantum. The body must consume at least one tick per call while the
  /// thread stays Runnable and set State itself when done. NativeWork
  /// threads have no frames, so they never pin a dynamic update.
  std::function<uint64_t(VMThread &, uint64_t)> NativeWork;

  bool stopped() const {
    return State == ThreadState::Finished || State == ThreadState::Trapped;
  }

  /// Pushes an activation of \p Code. Its first \p NArgs locals are the top
  /// \p NArgs slots of the caller's operand stack, taken over in place (for
  /// the entry frame, Slots[0, NArgs)). The other locals are zeroed, since
  /// they are GC roots before the callee first stores to them.
  ///
  /// The window reserves NumLocals + Code.size() slots. Verified code has
  /// one stack height per pc and no instruction pushes more than one net
  /// slot, so the operand stack never outgrows it and pushes never check
  /// capacity. That holds for opt-tier code too: the verifier rejects a
  /// return that leaves operands below its value, so an inlined callee's
  /// returns all reach the code after the call at one height.
  void pushFrame(std::shared_ptr<CompiledMethod> Code, MethodId Method,
                 uint32_t NArgs) {
    uint32_t Base = 0;
    if (!Frames.empty()) {
      Frame &Caller = Frames.back();
      assert(Caller.Sp - Caller.StackBase >= NArgs && "argument underflow");
      Base = Caller.Sp - NArgs;
      Caller.Sp = Base;
    }
    assert(Code->NumLocals >= NArgs && "more arguments than locals");
    uint32_t StackBase = Base + Code->NumLocals;
    reserveSlots(StackBase + Code->Code.size());
    std::fill(Slots.begin() + Base + NArgs, Slots.begin() + StackBase,
              Slot());
    Frame F;
    F.Code = std::move(Code);
    F.Method = Method;
    F.Base = Base;
    F.StackBase = StackBase;
    F.Sp = StackBase;
    Frames.push_back(std::move(F));
  }

  /// Grows Slots to at least \p N entries (amortized doubling). Slots
  /// never shrinks while the thread has frames, so a rollback can restore
  /// an earlier layout in place.
  void reserveSlots(size_t N) {
    if (Slots.size() < N)
      Slots.resize(std::max(N, 2 * Slots.size()));
  }

  /// Replaces the locals of frame \p Index with \p NewLocals (an
  /// active-method remap, dsu/ActiveMethod.h). A changed local count shifts
  /// the frame's operand stack and every frame above it.
  void replaceLocals(size_t Index, const std::vector<Slot> &NewLocals) {
    Frame &F = Frames[Index];
    uint32_t Top = Frames.back().Sp;
    uint32_t NewStackBase = F.Base + static_cast<uint32_t>(NewLocals.size());
    int64_t Delta = int64_t(NewStackBase) - int64_t(F.StackBase);
    if (Delta > 0) {
      reserveSlots(Top + static_cast<size_t>(Delta));
      std::copy_backward(Slots.begin() + F.StackBase, Slots.begin() + Top,
                         Slots.begin() + Top + Delta);
    } else if (Delta < 0) {
      std::copy(Slots.begin() + F.StackBase, Slots.begin() + Top,
                Slots.begin() + NewStackBase);
    }
    auto Shift = [Delta](uint32_t &X) {
      X = static_cast<uint32_t>(int64_t(X) + Delta);
    };
    Shift(F.StackBase);
    Shift(F.Sp);
    for (size_t I = Index + 1; I < Frames.size(); ++I) {
      Shift(Frames[I].Base);
      Shift(Frames[I].StackBase);
      Shift(Frames[I].Sp);
    }
    std::copy(NewLocals.begin(), NewLocals.end(), Slots.begin() + F.Base);
    // Re-reserve every window: the remapped body may be longer than the
    // old one, and its operand stack is carried over as it is.
    size_t Need = 0;
    for (const Frame &G : Frames)
      Need = std::max<size_t>(Need, G.Sp + G.Code->Code.size());
    reserveSlots(Need);
  }

  /// True when the thread is at a VM safe point (not actively running).
  bool atSafePoint() const { return State != ThreadState::Runnable; }
};

} // namespace jvolve

#endif // JVOLVE_THREADS_THREAD_H
