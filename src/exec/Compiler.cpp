#include "exec/Compiler.h"

#include "bytecode/Builtins.h"
#include "support/Error.h"
#include "support/Telemetry.h"

#include <cassert>

using namespace jvolve;

bool Compiler::shouldInline(MethodId Callee, Tier T, unsigned Depth,
                            const std::vector<MethodId> &InlineStack) const {
  if (T != Tier::Opt || Depth >= MaxInlineDepth)
    return false;
  const RtMethod &M = Registry.method(Callee);
  if (M.Obsolete || !M.Def || M.Def->Code.size() > MaxInlineCodeLen)
    return false;
  for (MethodId Open : InlineStack)
    if (Open == Callee)
      return false; // direct or mutual recursion
  return true;
}

size_t Compiler::emitBody(const MethodDef &Def, uint16_t LocalBase, Tier T,
                          unsigned Depth, int32_t TopLevelBc,
                          std::vector<MethodId> &InlineStack,
                          EmitContext &Ctx) {
  std::vector<RInstr> &Out = Ctx.Out->Code;
  size_t Start = Out.size();

  std::vector<size_t> BcToOut(Def.Code.size(), 0);
  std::vector<std::pair<size_t, size_t>> Fixups; ///< (out index, bc target)
  std::vector<size_t> ReturnJumps; ///< out indices of inlined-return jumps

  auto ClassIdOf = [&](const std::string &Name) {
    ClassId Id = Registry.idOf(Name);
    if (Id == InvalidClassId)
      fatalError("compiler: unknown class '" + Name + "' (verifier bypassed?)");
    return Id;
  };
  auto SplitSym = [&](const std::string &Sym, std::string &ClassName,
                      std::string &Member) {
    size_t Dot = Sym.find('.');
    assert(Dot != std::string::npos && "verified code has well-formed syms");
    ClassName = Sym.substr(0, Dot);
    Member = Sym.substr(Dot + 1);
  };

  for (size_t Bc = 0; Bc < Def.Code.size(); ++Bc) {
    BcToOut[Bc] = Out.size();
    const Instr &I = Def.Code[Bc];
    int32_t RecBc =
        Depth == 0 ? static_cast<int32_t>(Bc) : TopLevelBc;
    auto Emit = [&](ROp Op, int64_t A = 0, int32_t B = 0) {
      Out.push_back({Op, A, B, RecBc});
    };

    switch (I.Op) {
    case Opcode::Nop:
      Emit(ROp::NopOp);
      break;
    case Opcode::IConst:
      Emit(ROp::ConstI, I.IVal);
      break;
    case Opcode::SConst:
      Emit(ROp::ConstStr, Strings.intern(I.Str));
      break;
    case Opcode::NullConst:
      Emit(ROp::ConstNull);
      break;
    case Opcode::Load:
      Emit(ROp::LoadSlot, LocalBase + I.IVal);
      break;
    case Opcode::Store:
      Emit(ROp::StoreSlot, LocalBase + I.IVal);
      break;
    case Opcode::IAdd: Emit(ROp::IAdd); break;
    case Opcode::ISub: Emit(ROp::ISub); break;
    case Opcode::IMul: Emit(ROp::IMul); break;
    case Opcode::IDiv: Emit(ROp::IDiv); break;
    case Opcode::IRem: Emit(ROp::IRem); break;
    case Opcode::INeg: Emit(ROp::INeg); break;
    case Opcode::Dup: Emit(ROp::Dup); break;
    case Opcode::Pop: Emit(ROp::Pop); break;
    case Opcode::Goto:
      Fixups.emplace_back(Out.size(), static_cast<size_t>(I.IVal));
      Emit(ROp::Jump, -1);
      break;
    case Opcode::IfEq: case Opcode::IfNe: case Opcode::IfLt:
    case Opcode::IfGe: case Opcode::IfGt: case Opcode::IfLe:
    case Opcode::IfICmpEq: case Opcode::IfICmpNe: case Opcode::IfICmpLt:
    case Opcode::IfICmpGe: case Opcode::IfICmpGt: case Opcode::IfICmpLe:
    case Opcode::IfNull: case Opcode::IfNonNull:
    case Opcode::IfACmpEq: case Opcode::IfACmpNe: {
      static_assert(static_cast<int>(ROp::BrANe) - static_cast<int>(ROp::BrEqZ) ==
                        static_cast<int>(Opcode::IfACmpNe) -
                            static_cast<int>(Opcode::IfEq),
                    "branch opcode blocks must stay parallel");
      ROp Op = static_cast<ROp>(static_cast<int>(ROp::BrEqZ) +
                                (static_cast<int>(I.Op) -
                                 static_cast<int>(Opcode::IfEq)));
      Fixups.emplace_back(Out.size(), static_cast<size_t>(I.IVal));
      Emit(Op, -1);
      break;
    }
    case Opcode::New: {
      ClassId Id = ClassIdOf(I.Sym);
      Ctx.RefClasses.insert(Id);
      Emit(ROp::NewObj, Id);
      break;
    }
    case Opcode::GetField: case Opcode::PutField: {
      std::string ClassName, FieldName;
      SplitSym(I.Sym, ClassName, FieldName);
      ClassId Id = ClassIdOf(ClassName);
      const RtField *F = Registry.resolveInstanceField(Id, FieldName);
      if (!F)
        fatalError("compiler: unknown field " + I.Sym);
      Ctx.RefClasses.insert(Id);
      bool IsGet = I.Op == Opcode::GetField;
      ROp Op = IsGet ? (F->IsRef ? ROp::GetFieldR : ROp::GetFieldI)
                     : (F->IsRef ? ROp::PutFieldR : ROp::PutFieldI);
      Emit(Op, F->Offset);
      break;
    }
    case Opcode::GetStatic: case Opcode::PutStatic: {
      std::string ClassName, FieldName;
      SplitSym(I.Sym, ClassName, FieldName);
      ClassId Named = ClassIdOf(ClassName);
      ClassId Declaring = InvalidClassId;
      RtField *F = Registry.resolveStaticField(Named, FieldName, &Declaring);
      if (!F)
        fatalError("compiler: unknown static field " + I.Sym);
      Ctx.RefClasses.insert(Named);
      Ctx.RefClasses.insert(Declaring);
      bool IsGet = I.Op == Opcode::GetStatic;
      ROp Op = IsGet ? (F->IsRef ? ROp::GetStaticR : ROp::GetStaticI)
                     : (F->IsRef ? ROp::PutStaticR : ROp::PutStaticI);
      Emit(Op, Declaring, static_cast<int32_t>(F->Offset));
      break;
    }
    case Opcode::InstanceOf: {
      ClassId Id = ClassIdOf(I.Sym);
      Ctx.RefClasses.insert(Id);
      Emit(ROp::InstanceOfOp, Id);
      break;
    }
    case Opcode::CheckCast: {
      ClassId Id = ClassIdOf(I.Sym);
      Ctx.RefClasses.insert(Id);
      Emit(ROp::CheckCastOp, Id);
      break;
    }
    case Opcode::InvokeVirtual: {
      std::string ClassName, MethodName;
      SplitSym(I.Sym, ClassName, MethodName);
      ClassId Id = ClassIdOf(ClassName);
      Ctx.RefClasses.insert(Id);
      const RtClass &C = Registry.cls(Id);
      auto It = C.VTableIndex.find(MethodName + I.Sig);
      if (It == C.VTableIndex.end())
        fatalError("compiler: no TIB slot for " + I.Sym + I.Sig);
      int NArgs = static_cast<int>(
                      MethodSignature::parse(I.Sig).Params.size()) + 1;
      Emit(ROp::CallVirt, It->second, NArgs);
      break;
    }
    case Opcode::InvokeStatic: case Opcode::InvokeSpecial: {
      std::string ClassName, MethodName;
      SplitSym(I.Sym, ClassName, MethodName);
      ClassId Id = ClassIdOf(ClassName);
      Ctx.RefClasses.insert(Id);
      MethodId Callee = Registry.resolveMethod(Id, MethodName, I.Sig);
      if (Callee == InvalidMethodId)
        fatalError("compiler: unknown method " + I.Sym + I.Sig);
      bool Instance = I.Op == Opcode::InvokeSpecial;
      int NArgs = static_cast<int>(
                      MethodSignature::parse(I.Sig).Params.size()) +
                  (Instance ? 1 : 0);

      if (shouldInline(Callee, T, Depth, InlineStack)) {
        const RtMethod &CalleeM = Registry.method(Callee);
        Ctx.InlinedMethods.insert(Callee);
        uint16_t NewBase = Ctx.NextLocal;
        Ctx.NextLocal =
            static_cast<uint16_t>(Ctx.NextLocal + CalleeM.Def->NumLocals);
        // Pop arguments into the callee's parameter slots. The last
        // argument is on top of the stack, so store highest slot first.
        for (int ArgSlot = NArgs - 1; ArgSlot >= 0; --ArgSlot)
          Emit(ROp::StoreSlot, NewBase + ArgSlot);
        InlineStack.push_back(Callee);
        emitBody(*CalleeM.Def, NewBase, T, Depth + 1, RecBc, InlineStack,
                 Ctx);
        InlineStack.pop_back();
        break;
      }
      Emit(Instance ? ROp::CallSpecial : ROp::CallStatic, Callee, NArgs);
      break;
    }
    case Opcode::NewArray: {
      Type Elem = Type::parse(I.Sig);
      // Record the base element class: code embedding an array allocation
      // depends on that class's identity just like New does (mirrors
      // Upt::referencedClasses).
      Type Base = Elem;
      while (Base.isArray())
        Base = Base.elementType();
      if (Base.isRef())
        Ctx.RefClasses.insert(ClassIdOf(Base.className()));
      ClassId ArrId = Registry.arrayClassOf(Elem);
      Emit(ROp::NewArr, ArrId);
      break;
    }
    case Opcode::ALoad: Emit(ROp::ALoadElem); break;
    case Opcode::AStore: Emit(ROp::AStoreElem); break;
    case Opcode::ArrayLength: Emit(ROp::ArrLen); break;
    case Opcode::Return: case Opcode::IReturn: case Opcode::AReturn:
      if (Depth == 0) {
        Emit(I.Op == Opcode::Return
                 ? ROp::RetVoid
                 : (I.Op == Opcode::IReturn ? ROp::RetI : ROp::RetA));
      } else {
        // An inlined return jumps past the inlined body; any return value
        // is already on the operand stack.
        ReturnJumps.push_back(Out.size());
        Emit(ROp::Jump, -1);
      }
      break;
    case Opcode::Intrinsic:
      Emit(ROp::Intr, I.IVal);
      break;
    }
  }

  // Resolve intra-body branches.
  for (const auto &[OutIdx, BcTarget] : Fixups) {
    assert(BcTarget < BcToOut.size() && "verified branch target");
    Out[OutIdx].A = static_cast<int64_t>(BcToOut[BcTarget]);
  }
  // Inlined returns land on the instruction following the inlined body.
  for (size_t OutIdx : ReturnJumps)
    Out[OutIdx].A = static_cast<int64_t>(Out.size());

  return Start;
}

std::shared_ptr<CompiledMethod> Compiler::compile(MethodId Method, Tier T) {
  const RtMethod &M = Registry.method(Method);
  if (!M.Def)
    fatalError("compiling method without bytecode: " + M.qualifiedName());

  auto CM = std::make_shared<CompiledMethod>();
  CM->Method = Method;
  CM->T = T;
  CM->IndirectionChecks = Opts.IndirectionChecks;
  CM->LazyBarriers = Opts.EmitLazyBarriers;

  EmitContext Ctx;
  Ctx.Out = CM.get();
  Ctx.NextLocal = M.Def->NumLocals;

  std::vector<MethodId> InlineStack = {Method};
  emitBody(*M.Def, /*LocalBase=*/0, T, /*Depth=*/0, /*TopLevelBc=*/0,
           InlineStack, Ctx);

  CM->NumLocals = Ctx.NextLocal;
  CM->ReferencedClasses.assign(Ctx.RefClasses.begin(), Ctx.RefClasses.end());
  CM->Inlined.assign(Ctx.InlinedMethods.begin(), Ctx.InlinedMethods.end());

  assert((T != Tier::Baseline || CM->Code.size() == M.Def->Code.size()) &&
         "baseline translation must be 1:1 for OSR");
  ++NumCompilations;
  if (Telemetry::isEnabled())
    Telemetry::global()
        .counter(T == Tier::Baseline ? metrics::JitCompilationsBaseline
                                     : metrics::JitCompilationsOpt)
        .inc();
  return CM;
}
