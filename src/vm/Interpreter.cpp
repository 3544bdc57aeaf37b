#include "vm/Interpreter.h"

#include "bytecode/Builtins.h"
#include "runtime/ObjectModel.h"
#include "support/Error.h"
#include "vm/VM.h"

#include <cassert>

using namespace jvolve;

bool Interpreter::isYieldPoint(const RInstr &I, uint32_t Pc) {
  switch (I.Op) {
  case ROp::CallVirt:
  case ROp::CallStatic:
  case ROp::CallSpecial:
  case ROp::RetVoid:
  case ROp::RetI:
  case ROp::RetA:
  case ROp::Intr:
    return true;
  case ROp::Jump:
  case ROp::BrEqZ: case ROp::BrNeZ: case ROp::BrLtZ: case ROp::BrGeZ:
  case ROp::BrGtZ: case ROp::BrLeZ: case ROp::BrICmpEq: case ROp::BrICmpNe:
  case ROp::BrICmpLt: case ROp::BrICmpGe: case ROp::BrICmpGt:
  case ROp::BrICmpLe: case ROp::BrNull: case ROp::BrNonNull:
  case ROp::BrAEq: case ROp::BrANe:
    // Loop back edges.
    return I.A <= static_cast<int64_t>(Pc);
  default:
    return false;
  }
}

bool Interpreter::doReturn(VMThread &T, bool HasValue) {
  Frame &F = T.Frames.back();
  Slot Ret;
  if (HasValue) {
    assert(F.Sp > F.StackBase && "return with empty stack");
    Ret = T.Slots[F.Sp - 1];
  }
  bool Barrier = F.ReturnBarrier;
  bool Stale = F.Code && F.Code->Superseded;
  T.Frames.pop_back();
  if (Stale)
    // An in-flight activation of a versioned-out body just completed on
    // its old version; the CodeVersionManager drains its stale-frame gauge.
    TheVM.onStaleFrameReturned();

  if (T.Frames.empty()) {
    T.State = ThreadState::Finished;
    if (HasValue) {
      T.ExitValue = Ret;
      T.HasExitValue = true;
    }
    // A finished thread stays in the scheduler but never reads its slots
    // again: release the stack instead of keeping it at its peak size.
    std::vector<Slot>().swap(T.Slots);
  } else if (HasValue) {
    // The caller's Sp is the callee's Base: the value lands where the
    // arguments were.
    Frame &Caller = T.Frames.back();
    T.Slots[Caller.Sp++] = Ret;
  }

  if (Barrier) {
    // The bridge code: notify the DSU layer, then stop the thread at this
    // (return) yield point so the update attempt can proceed.
    TheVM.onReturnBarrierFired(T);
    if (T.State == ThreadState::Runnable)
      T.State = ThreadState::Parked;
    return false;
  }
  return T.State == ThreadState::Runnable;
}

uint64_t Interpreter::runThread(VMThread &T, uint64_t Budget) {
  uint64_t Executed = 0;
  uint64_t VirtCalls = 0, DirectCalls = 0;
  Scheduler &Sched = TheVM.scheduler();
  ClassRegistry &Reg = TheVM.registry();

  auto Trap = [&](const std::string &Msg) { TheVM.onTrap(T, Msg); };

  /// Simulated handle-space check for the indirection ablation: a real
  /// lazy-update VM (JDrums/DVM) tests on every access whether the object
  /// is up to date before following the handle.
  auto IndirectionCheck = [&](Ref Obj) -> Ref {
    // A lazy-update VM (JDrums/DVM) reaches every object through a handle
    // and tests on each access whether the object is up to date. Model the
    // cost faithfully: the access must *depend* on the check's result, so
    // the extra loads cannot be hidden behind the dispatch overhead.
    const RtClass &C = Reg.cls(classOf(Obj));
    ++TheVM.stats().IndirectionChecks;
    return C.Obsolete ? nullptr : Obj; // transform would happen on null
  };

  /// DSU lazy-transform read barrier (armed only while an update drains;
  /// F.Code->LazyBarriers gates every use). Fast path: one header-flag
  /// test. Slow path: run the object's transformer before the access
  /// proceeds. \returns false when the transformer failed post-commit —
  /// the thread was trapped with the structured diagnostic.
  auto LazyCheck = [&](Ref Obj) -> bool {
    if (!(header(Obj)->Flags & FlagLazyPending))
      return true;
    return TheVM.lazyBarrierSlowPath(T, Obj);
  };

  auto PushFrame = [&](MethodId Callee, int NArgs) {
    ++T.Frames.back().Pc; // return address
    T.pushFrame(TheVM.ensureCompiledForInvoke(Callee), Callee,
                static_cast<uint32_t>(NArgs));
  };

  while (Executed < Budget && T.State == ThreadState::Runnable) {
    assert(!T.Frames.empty() && "runnable thread without frames");
    Frame &F = T.Frames.back();
    assert(F.Pc < F.Code->Code.size() && "pc out of bounds");
    const RInstr &I = F.Code->Code[F.Pc];

    if (Sched.yieldRequested() && isYieldPoint(I, F.Pc)) {
      T.State = ThreadState::Parked;
      break;
    }
    ++Executed;

    // The frame's window into the slot stack. Sp stays in the frame, so a
    // collection triggered mid-instruction sees the live stack top.
    Slot *Slots = T.Slots.data();
    Slot *Locals = Slots + F.Base;
    uint32_t &Sp = F.Sp;
    auto Push = [&](Slot V) { Slots[Sp++] = V; };
    auto Pop = [&]() -> Slot { return Slots[--Sp]; };
    auto Top = [&]() -> Slot & { return Slots[Sp - 1]; };
    bool Advance = true;

    switch (I.Op) {
    case ROp::NopOp:
      break;
    case ROp::ConstI:
      Push(Slot::ofInt(I.A));
      break;
    case ROp::ConstStr: {
      Ref Obj = TheVM.allocateObject(TheVM.StringClsId);
      if (!Obj) {
        Trap("out of memory allocating String");
        Advance = false;
        break;
      }
      setIntAt(Obj, TheVM.StringIdOffset, I.A);
      Push(Slot::ofRef(Obj));
      break;
    }
    case ROp::ConstNull:
      Push(Slot::ofRef(nullptr));
      break;
    case ROp::LoadSlot:
      Push(Locals[I.A]);
      break;
    case ROp::StoreSlot:
      Locals[I.A] = Pop();
      break;
    case ROp::IAdd: case ROp::ISub: case ROp::IMul:
    case ROp::IDiv: case ROp::IRem: {
      int64_t B = Pop().IntVal;
      int64_t A = Pop().IntVal;
      int64_t R = 0;
      if (I.Op == ROp::IAdd)
        R = A + B;
      else if (I.Op == ROp::ISub)
        R = A - B;
      else if (I.Op == ROp::IMul)
        R = A * B;
      else {
        if (B == 0) {
          Trap("integer division by zero");
          Advance = false;
          break;
        }
        R = I.Op == ROp::IDiv ? A / B : A % B;
      }
      Push(Slot::ofInt(R));
      break;
    }
    case ROp::INeg:
      Top().IntVal = -Top().IntVal;
      break;
    case ROp::Dup:
      Push(Top());
      break;
    case ROp::Pop:
      --Sp;
      break;
    case ROp::Jump:
      F.Pc = static_cast<uint32_t>(I.A);
      Advance = false;
      break;
    case ROp::BrEqZ: case ROp::BrNeZ: case ROp::BrLtZ:
    case ROp::BrGeZ: case ROp::BrGtZ: case ROp::BrLeZ: {
      int64_t V = Pop().IntVal;
      bool Taken = false;
      switch (I.Op) {
      case ROp::BrEqZ: Taken = V == 0; break;
      case ROp::BrNeZ: Taken = V != 0; break;
      case ROp::BrLtZ: Taken = V < 0; break;
      case ROp::BrGeZ: Taken = V >= 0; break;
      case ROp::BrGtZ: Taken = V > 0; break;
      default: Taken = V <= 0; break;
      }
      if (Taken) {
        F.Pc = static_cast<uint32_t>(I.A);
        Advance = false;
      }
      break;
    }
    case ROp::BrICmpEq: case ROp::BrICmpNe: case ROp::BrICmpLt:
    case ROp::BrICmpGe: case ROp::BrICmpGt: case ROp::BrICmpLe: {
      int64_t B = Pop().IntVal;
      int64_t A = Pop().IntVal;
      bool Taken = false;
      switch (I.Op) {
      case ROp::BrICmpEq: Taken = A == B; break;
      case ROp::BrICmpNe: Taken = A != B; break;
      case ROp::BrICmpLt: Taken = A < B; break;
      case ROp::BrICmpGe: Taken = A >= B; break;
      case ROp::BrICmpGt: Taken = A > B; break;
      default: Taken = A <= B; break;
      }
      if (Taken) {
        F.Pc = static_cast<uint32_t>(I.A);
        Advance = false;
      }
      break;
    }
    case ROp::BrNull: case ROp::BrNonNull: {
      Ref V = Pop().RefVal;
      bool Taken = I.Op == ROp::BrNull ? V == nullptr : V != nullptr;
      if (Taken) {
        F.Pc = static_cast<uint32_t>(I.A);
        Advance = false;
      }
      break;
    }
    case ROp::BrAEq: case ROp::BrANe: {
      Ref B = Pop().RefVal;
      Ref A = Pop().RefVal;
      bool Taken = I.Op == ROp::BrAEq ? A == B : A != B;
      if (Taken) {
        F.Pc = static_cast<uint32_t>(I.A);
        Advance = false;
      }
      break;
    }
    case ROp::NewObj: {
      Ref Obj = TheVM.allocateObject(static_cast<ClassId>(I.A));
      if (!Obj) {
        Trap("out of memory");
        Advance = false;
        break;
      }
      Push(Slot::ofRef(Obj));
      break;
    }
    case ROp::GetFieldI: case ROp::GetFieldR: {
      Ref Obj = Pop().RefVal;
      if (!Obj) {
        Trap("null dereference in field read");
        Advance = false;
        break;
      }
      if (F.Code->LazyBarriers && !LazyCheck(Obj)) {
        Advance = false;
        break;
      }
      if (F.Code->IndirectionChecks)
        Obj = IndirectionCheck(Obj);
      uint32_t Off = static_cast<uint32_t>(I.A);
      if (I.Op == ROp::GetFieldI)
        Push(Slot::ofInt(getIntAt(Obj, Off)));
      else
        Push(Slot::ofRef(getRefAt(Obj, Off)));
      break;
    }
    case ROp::PutFieldI: case ROp::PutFieldR: {
      Slot V = Pop();
      Ref Obj = Pop().RefVal;
      if (!Obj) {
        Trap("null dereference in field write");
        Advance = false;
        break;
      }
      if (F.Code->LazyBarriers && !LazyCheck(Obj)) {
        Advance = false;
        break;
      }
      if (F.Code->IndirectionChecks)
        Obj = IndirectionCheck(Obj);
      uint32_t Off = static_cast<uint32_t>(I.A);
      if (I.Op == ROp::PutFieldI)
        setIntAt(Obj, Off, V.IntVal);
      else
        setRefAt(Obj, Off, V.RefVal);
      break;
    }
    case ROp::GetStaticI: case ROp::GetStaticR: {
      Slot &Static =
          Reg.cls(static_cast<ClassId>(I.A)).Statics[static_cast<size_t>(I.B)];
      Push(Static);
      break;
    }
    case ROp::PutStaticI: case ROp::PutStaticR: {
      Slot &Static =
          Reg.cls(static_cast<ClassId>(I.A)).Statics[static_cast<size_t>(I.B)];
      Static = Pop();
      break;
    }
    case ROp::InstanceOfOp: {
      Ref Obj = Pop().RefVal;
      bool Is = Obj && Reg.isSubclassOf(classOf(Obj),
                                        static_cast<ClassId>(I.A));
      Push(Slot::ofInt(Is ? 1 : 0));
      break;
    }
    case ROp::CheckCastOp: {
      Ref Obj = Top().RefVal;
      if (Obj &&
          !Reg.isSubclassOf(classOf(Obj), static_cast<ClassId>(I.A))) {
        Trap("class cast failure to " +
             Reg.cls(static_cast<ClassId>(I.A)).Name);
        Advance = false;
      }
      break;
    }
    case ROp::CallVirt: {
      int NArgs = I.B;
      Ref Receiver = Slots[Sp - static_cast<uint32_t>(NArgs)].RefVal;
      if (!Receiver) {
        Trap("null receiver in virtual call");
        Advance = false;
        break;
      }
      if (F.Code->LazyBarriers && !LazyCheck(Receiver)) {
        Advance = false;
        break;
      }
      const RtClass &C = Reg.cls(classOf(Receiver));
      assert(static_cast<size_t>(I.A) < C.VTable.size() &&
             "TIB slot out of range");
      PushFrame(C.VTable[static_cast<size_t>(I.A)], NArgs);
      ++VirtCalls;
      Advance = false;
      break;
    }
    case ROp::CallStatic: case ROp::CallSpecial: {
      if (I.Op == ROp::CallSpecial) {
        Ref Receiver = Slots[Sp - static_cast<uint32_t>(I.B)].RefVal;
        if (!Receiver) {
          Trap("null receiver in special call");
          Advance = false;
          break;
        }
        if (F.Code->LazyBarriers && !LazyCheck(Receiver)) {
          Advance = false;
          break;
        }
      }
      PushFrame(static_cast<MethodId>(I.A), I.B);
      ++DirectCalls;
      Advance = false;
      break;
    }
    case ROp::NewArr: {
      int64_t Len = Pop().IntVal;
      if (Len < 0) {
        Trap("negative array length");
        Advance = false;
        break;
      }
      Ref Arr = TheVM.allocateArray(static_cast<ClassId>(I.A), Len);
      if (!Arr) {
        Trap("out of memory allocating array");
        Advance = false;
        break;
      }
      Push(Slot::ofRef(Arr));
      break;
    }
    case ROp::ALoadElem: {
      int64_t Idx = Pop().IntVal;
      Ref Arr = Pop().RefVal;
      if (!Arr) {
        Trap("null array in element read");
        Advance = false;
        break;
      }
      if (F.Code->LazyBarriers && !LazyCheck(Arr)) {
        Advance = false;
        break;
      }
      if (Idx < 0 || Idx >= arrayLength(Arr)) {
        Trap("array index out of bounds");
        Advance = false;
        break;
      }
      uint32_t Off = arrayElemOffset(Idx);
      if (header(Arr)->Flags & FlagRefArray)
        Push(Slot::ofRef(getRefAt(Arr, Off)));
      else
        Push(Slot::ofInt(getIntAt(Arr, Off)));
      break;
    }
    case ROp::AStoreElem: {
      Slot V = Pop();
      int64_t Idx = Pop().IntVal;
      Ref Arr = Pop().RefVal;
      if (!Arr) {
        Trap("null array in element write");
        Advance = false;
        break;
      }
      if (F.Code->LazyBarriers && !LazyCheck(Arr)) {
        Advance = false;
        break;
      }
      if (Idx < 0 || Idx >= arrayLength(Arr)) {
        Trap("array index out of bounds");
        Advance = false;
        break;
      }
      uint32_t Off = arrayElemOffset(Idx);
      if (header(Arr)->Flags & FlagRefArray)
        setRefAt(Arr, Off, V.RefVal);
      else
        setIntAt(Arr, Off, V.IntVal);
      break;
    }
    case ROp::ArrLen: {
      Ref Arr = Pop().RefVal;
      if (!Arr) {
        Trap("null array in arraylength");
        Advance = false;
        break;
      }
      if (F.Code->LazyBarriers && !LazyCheck(Arr)) {
        Advance = false;
        break;
      }
      Push(Slot::ofInt(arrayLength(Arr)));
      break;
    }
    case ROp::RetVoid:
      doReturn(T, /*HasValue=*/false);
      Advance = false;
      break;
    case ROp::RetI: case ROp::RetA:
      doReturn(T, /*HasValue=*/true);
      Advance = false;
      break;
    case ROp::Intr: {
      switch (static_cast<IntrinsicId>(I.A)) {
      case IntrinsicId::PrintInt: {
        int64_t V = Pop().IntVal;
        TheVM.appendPrintLog(std::to_string(V));
        break;
      }
      case IntrinsicId::PrintStr: {
        Ref Str = Pop().RefVal;
        if (!Str) {
          Trap("null string in print");
          Advance = false;
          break;
        }
        TheVM.appendPrintLog(TheVM.stringValue(Str));
        break;
      }
      case IntrinsicId::CurrentTicks:
        Push(Slot::ofInt(static_cast<int64_t>(Sched.ticks())));
        break;
      case IntrinsicId::SleepTicks: {
        int64_t N = Pop().IntVal;
        ++F.Pc; // resume after the sleep
        T.WakeTick = Sched.ticks() + static_cast<uint64_t>(std::max<int64_t>(N, 0));
        T.State = ThreadState::Sleeping;
        Advance = false;
        break;
      }
      case IntrinsicId::NetAccept: {
        int Port = static_cast<int>(Top().IntVal);
        int Conn = TheVM.net().tryAccept(Port);
        if (Conn < 0) {
          // Block; re-execute this instruction when woken.
          T.State = ThreadState::BlockedAccept;
          T.BlockedPort = Port;
          Advance = false;
          break;
        }
        Top() = Slot::ofInt(Conn);
        break;
      }
      case IntrinsicId::NetTryAccept: {
        int Port = static_cast<int>(Top().IntVal);
        Top() = Slot::ofInt(TheVM.net().tryAccept(Port));
        break;
      }
      case IntrinsicId::NetRecv: {
        int Conn = static_cast<int>(Top().IntVal);
        int64_t Value = 0;
        uint64_t ReadyTick = 0;
        Network::RecvStatus St =
            TheVM.net().recv(Conn, Sched.ticks(), Value, ReadyTick);
        if (St == Network::RecvStatus::NotReady) {
          T.State = ThreadState::BlockedRecv;
          T.BlockedConn = Conn;
          T.WakeTick = ReadyTick;
          Advance = false;
          break;
        }
        Top() = Slot::ofInt(St == Network::RecvStatus::Eof ? -1 : Value);
        break;
      }
      case IntrinsicId::NetSend: {
        int64_t Value = Pop().IntVal;
        int Conn = static_cast<int>(Pop().IntVal);
        TheVM.net().send(Conn, Value, Sched.ticks());
        break;
      }
      case IntrinsicId::NetClose: {
        int Conn = static_cast<int>(Pop().IntVal);
        TheVM.net().close(Conn);
        break;
      }
      case IntrinsicId::StrEquals: {
        Ref B = Pop().RefVal;
        Ref A = Pop().RefVal;
        if (!A || !B) {
          Push(Slot::ofInt(A == B ? 1 : 0));
          break;
        }
        Push(Slot::ofInt(
            TheVM.stringValue(A) == TheVM.stringValue(B) ? 1 : 0));
        break;
      }
      case IntrinsicId::StrLength: {
        Ref A = Pop().RefVal;
        if (!A) {
          Trap("null string in length");
          Advance = false;
          break;
        }
        Push(
            Slot::ofInt(static_cast<int64_t>(TheVM.stringValue(A).size())));
        break;
      }
      case IntrinsicId::StrConcat: {
        Ref B = Pop().RefVal;
        Ref A = Pop().RefVal;
        std::string Joined = (A ? TheVM.stringValue(A) : "null") +
                             (B ? TheVM.stringValue(B) : "null");
        Ref Out = TheVM.newString(Joined);
        if (!Out) {
          Trap("out of memory in string concat");
          Advance = false;
          break;
        }
        Push(Slot::ofRef(Out));
        break;
      }
      case IntrinsicId::StrIndexOf: {
        int64_t Ch = Pop().IntVal;
        Ref A = Pop().RefVal;
        if (!A) {
          Trap("null string in indexOf");
          Advance = false;
          break;
        }
        size_t Pos = TheVM.stringValue(A).find(static_cast<char>(Ch));
        Push(Slot::ofInt(
            Pos == std::string::npos ? -1 : static_cast<int64_t>(Pos)));
        break;
      }
      case IntrinsicId::Rand: {
        int64_t Bound = Pop().IntVal;
        uint64_t V = TheVM.TheRng.nextBelow(
            Bound > 0 ? static_cast<uint64_t>(Bound) : 1);
        Push(Slot::ofInt(static_cast<int64_t>(V)));
        break;
      }
      }
      break;
    }
    }

    if (Advance) {
      assert(!T.Frames.empty() && "advancing pc on a dead thread");
      ++T.Frames.back().Pc;
    }
  }

  TheVM.stats().InstructionsExecuted += Executed;
  TelInstructions.add(Executed);
  TelCallsVirtual.add(VirtCalls);
  TelCallsDirect.add(DirectCalls);
  return Executed;
}
