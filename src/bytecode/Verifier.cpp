#include "bytecode/Verifier.h"

#include "bytecode/Builtins.h"
#include "support/Error.h"

#include <cassert>
#include <deque>
#include <optional>
#include <set>

using namespace jvolve;

std::string VerifyError::str() const {
  std::string Out = ClassName;
  if (!MethodName.empty())
    Out += "." + MethodName;
  if (Pc >= 0)
    Out += "@" + std::to_string(Pc);
  Out += ": " + Message;
  return Out;
}

namespace {

/// Abstract value in the verifier's type lattice.
struct VType {
  enum class Kind { Top, Int, Null, Ref, Arr };
  Kind K = Kind::Top;
  std::string Desc; ///< class name (Ref) or element descriptor (Arr)

  static VType top() { return {Kind::Top, ""}; }
  static VType intV() { return {Kind::Int, ""}; }
  static VType nullV() { return {Kind::Null, ""}; }
  static VType ref(std::string ClassName) {
    return {Kind::Ref, std::move(ClassName)};
  }
  static VType arr(std::string ElemDesc) {
    return {Kind::Arr, std::move(ElemDesc)};
  }

  bool isRefLike() const {
    return K == Kind::Null || K == Kind::Ref || K == Kind::Arr;
  }

  bool operator==(const VType &O) const = default;

  std::string str() const {
    switch (K) {
    case Kind::Top: return "top";
    case Kind::Int: return "int";
    case Kind::Null: return "null";
    case Kind::Ref: return Desc;
    case Kind::Arr: return "[" + Desc;
    }
    unreachable("bad VType kind");
  }
};

/// Abstract machine state at one bytecode index.
struct AbsState {
  std::vector<VType> Locals;
  std::vector<VType> Stack;
};

/// Renders an operand stack as "[a, b, c]", bottom first.
std::string stackStr(const std::vector<VType> &Stack) {
  std::string Out = "[";
  for (size_t I = 0; I < Stack.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Stack[I].str();
  }
  return Out + "]";
}

/// Per-method abstract interpreter.
class MethodVerifier {
public:
  MethodVerifier(const ClassSet &Set, const ClassDef &Cls, const MethodDef &M,
                 std::vector<VerifyError> &Errs)
      : Set(Set), Cls(Cls), M(M), Errs(Errs) {}

  void run();

  /// The per-pc in-states after run(): nullopt for unreachable pcs.
  const std::vector<std::optional<AbsState>> &inStates() const {
    return InStates;
  }

private:
  void error(int Pc, const std::string &Msg) {
    Errs.push_back({Cls.Name, M.Name + M.Sig, Pc, Msg});
  }

  VType fromType(const Type &T) {
    switch (T.kind()) {
    case Type::Kind::Int:
      return VType::intV();
    case Type::Kind::Ref:
      return VType::ref(T.className());
    case Type::Kind::Array:
      return VType::arr(T.elementType().descriptor());
    case Type::Kind::Void:
      break;
    }
    unreachable("void has no abstract value");
  }

  /// Least common superclass of \p A and \p B, defaulting to Object.
  std::string commonSuper(const std::string &A, const std::string &B) {
    for (const std::string &C : Set.superChain(A))
      if (Set.isSubclassOf(B, C))
        return C;
    return ObjectClassName;
  }

  bool isAssignable(const VType &Src, const Type &Dst) {
    switch (Dst.kind()) {
    case Type::Kind::Int:
      return Src.K == VType::Kind::Int;
    case Type::Kind::Ref: {
      if (Src.K == VType::Kind::Null)
        return true;
      if (Src.K == VType::Kind::Ref)
        return Set.isSubclassOf(Src.Desc, Dst.className());
      if (Src.K == VType::Kind::Arr)
        return Dst.className() == ObjectClassName;
      return false;
    }
    case Type::Kind::Array: {
      if (Src.K == VType::Kind::Null)
        return true;
      if (Src.K != VType::Kind::Arr)
        return false;
      Type DstElem = Dst.elementType();
      if (Src.Desc == DstElem.descriptor())
        return true;
      // Covariant reference arrays, as in Java.
      Type SrcElem = Type::parse(Src.Desc);
      return SrcElem.isRef() && DstElem.isRef() &&
             Set.isSubclassOf(SrcElem.className(), DstElem.className());
    }
    case Type::Kind::Void:
      return false;
    }
    unreachable("bad destination type kind");
  }

  /// Merge of two abstract values. \returns nullopt on conflict.
  std::optional<VType> mergeValue(const VType &A, const VType &B) {
    if (A == B)
      return A;
    if (A.K == VType::Kind::Null && B.isRefLike())
      return B;
    if (B.K == VType::Kind::Null && A.isRefLike())
      return A;
    if (A.K == VType::Kind::Ref && B.K == VType::Kind::Ref)
      return VType::ref(commonSuper(A.Desc, B.Desc));
    if (A.K == VType::Kind::Arr && B.K == VType::Kind::Arr)
      return VType::ref(ObjectClassName); // differing element types
    if ((A.K == VType::Kind::Arr && B.K == VType::Kind::Ref &&
         B.Desc == ObjectClassName) ||
        (B.K == VType::Kind::Arr && A.K == VType::Kind::Ref &&
         A.Desc == ObjectClassName))
      return VType::ref(ObjectClassName);
    return std::nullopt;
  }

  /// Merges \p From into the recorded in-state of \p TargetPc. \returns true
  /// if the target state changed (so it must be revisited).
  bool mergeInto(size_t TargetPc, const AbsState &From, int SourcePc);

  /// Interprets the instruction at \p Pc over \p S. \returns false if a type
  /// error stops interpretation of this path.
  bool step(size_t Pc, AbsState &S, std::vector<size_t> &Successors);

  bool popValue(int Pc, AbsState &S, VType &Out) {
    if (S.Stack.empty()) {
      error(Pc, "operand stack underflow: " + std::string(opcodeName(
                    M.Code[static_cast<size_t>(Pc)].Op)) +
                    " needs a value but the stack is empty");
      return false;
    }
    Out = S.Stack.back();
    S.Stack.pop_back();
    return true;
  }

  bool popInt(int Pc, AbsState &S) {
    std::string Pre = stackStr(S.Stack);
    VType V;
    if (!popValue(Pc, S, V))
      return false;
    if (V.K != VType::Kind::Int) {
      error(Pc, "expected int on stack, found " + V.str() +
                    " (stack was " + Pre + ")");
      return false;
    }
    return true;
  }

  bool popRefLike(int Pc, AbsState &S, VType &Out) {
    std::string Pre = stackStr(S.Stack);
    if (!popValue(Pc, S, Out))
      return false;
    if (!Out.isRefLike()) {
      error(Pc, "expected reference on stack, found " + Out.str() +
                    " (stack was " + Pre + ")");
      return false;
    }
    return true;
  }

  bool popAssignable(int Pc, AbsState &S, const Type &Dst,
                     const char *What) {
    std::string Pre = stackStr(S.Stack);
    VType V;
    if (!popValue(Pc, S, V))
      return false;
    if (!isAssignable(V, Dst)) {
      error(Pc, std::string(What) + ": expected " + Dst.descriptor() +
                    ", found " + V.str() + " (stack was " + Pre + ")");
      return false;
    }
    return true;
  }

  bool checkAccess(int Pc, const std::string &Declaring, Access Vis,
                   const std::string &What) {
    switch (Vis) {
    case Access::Public:
      return true;
    case Access::Protected:
      if (Set.isSubclassOf(Cls.Name, Declaring))
        return true;
      break;
    case Access::Private:
      if (Cls.Name == Declaring)
        return true;
      break;
    }
    error(Pc, What + " is not accessible from " + Cls.Name);
    return false;
  }

  const ClassSet &Set;
  const ClassDef &Cls;
  const MethodDef &M;
  std::vector<VerifyError> &Errs;

  std::vector<std::optional<AbsState>> InStates;
  std::deque<size_t> Worklist;
};

bool MethodVerifier::mergeInto(size_t TargetPc, const AbsState &From,
                               int SourcePc) {
  if (TargetPc >= M.Code.size()) {
    error(SourcePc, "branch target " + std::to_string(TargetPc) +
                        " out of bounds");
    return false;
  }
  std::optional<AbsState> &In = InStates[TargetPc];
  if (!In) {
    In = From;
    return true;
  }
  if (In->Stack.size() != From.Stack.size()) {
    error(SourcePc, "stack height mismatch at join point " +
                        std::to_string(TargetPc) + ": expected " +
                        stackStr(In->Stack) + ", found " +
                        stackStr(From.Stack));
    return false;
  }
  bool Changed = false;
  for (size_t I = 0; I < In->Stack.size(); ++I) {
    std::optional<VType> Merged = mergeValue(In->Stack[I], From.Stack[I]);
    if (!Merged) {
      error(SourcePc, "incompatible stack types at join point " +
                          std::to_string(TargetPc) + ": " +
                          In->Stack[I].str() + " vs " + From.Stack[I].str() +
                          " (expected " + stackStr(In->Stack) + ", found " +
                          stackStr(From.Stack) + ")");
      return false;
    }
    if (!(*Merged == In->Stack[I])) {
      In->Stack[I] = *Merged;
      Changed = true;
    }
  }
  for (size_t I = 0; I < In->Locals.size(); ++I) {
    // Conflicting locals become unusable rather than erroneous.
    VType Merged =
        mergeValue(In->Locals[I], From.Locals[I]).value_or(VType::top());
    if (!(Merged == In->Locals[I])) {
      In->Locals[I] = Merged;
      Changed = true;
    }
  }
  return Changed;
}

bool MethodVerifier::step(size_t Pc, AbsState &S,
                          std::vector<size_t> &Successors) {
  const Instr &I = M.Code[Pc];
  int P = static_cast<int>(Pc);
  bool FallsThrough = true;

  auto ResolveClass = [&](const std::string &Name) -> const ClassDef * {
    const ClassDef *D = Set.find(Name);
    if (!D)
      error(P, "unknown class '" + Name + "'");
    return D;
  };
  auto SplitMember = [&](const std::string &Sym, std::string &ClassName,
                         std::string &Member) -> bool {
    size_t Dot = Sym.find('.');
    if (Dot == std::string::npos) {
      error(P, "malformed member reference '" + Sym + "'");
      return false;
    }
    ClassName = Sym.substr(0, Dot);
    Member = Sym.substr(Dot + 1);
    return true;
  };

  switch (I.Op) {
  case Opcode::Nop:
    break;
  case Opcode::IConst:
    S.Stack.push_back(VType::intV());
    break;
  case Opcode::SConst:
    S.Stack.push_back(VType::ref(StringClassName));
    break;
  case Opcode::NullConst:
    S.Stack.push_back(VType::nullV());
    break;
  case Opcode::Load: {
    if (I.IVal < 0 || I.IVal >= M.NumLocals) {
      error(P, "local slot " + std::to_string(I.IVal) + " out of range");
      return false;
    }
    const VType &L = S.Locals[static_cast<size_t>(I.IVal)];
    if (L.K == VType::Kind::Top) {
      error(P, "load of uninitialized local " + std::to_string(I.IVal));
      return false;
    }
    S.Stack.push_back(L);
    break;
  }
  case Opcode::Store: {
    if (I.IVal < 0 || I.IVal >= M.NumLocals) {
      error(P, "local slot " + std::to_string(I.IVal) + " out of range");
      return false;
    }
    VType V;
    if (!popValue(P, S, V))
      return false;
    S.Locals[static_cast<size_t>(I.IVal)] = V;
    break;
  }
  case Opcode::IAdd: case Opcode::ISub: case Opcode::IMul:
  case Opcode::IDiv: case Opcode::IRem:
    if (!popInt(P, S) || !popInt(P, S))
      return false;
    S.Stack.push_back(VType::intV());
    break;
  case Opcode::INeg:
    if (!popInt(P, S))
      return false;
    S.Stack.push_back(VType::intV());
    break;
  case Opcode::Dup: {
    if (S.Stack.empty()) {
      error(P, "dup on empty stack");
      return false;
    }
    S.Stack.push_back(S.Stack.back());
    break;
  }
  case Opcode::Pop: {
    VType V;
    if (!popValue(P, S, V))
      return false;
    break;
  }
  case Opcode::Goto:
    Successors.push_back(static_cast<size_t>(I.IVal));
    FallsThrough = false;
    break;
  case Opcode::IfEq: case Opcode::IfNe: case Opcode::IfLt:
  case Opcode::IfGe: case Opcode::IfGt: case Opcode::IfLe:
    if (!popInt(P, S))
      return false;
    Successors.push_back(static_cast<size_t>(I.IVal));
    break;
  case Opcode::IfICmpEq: case Opcode::IfICmpNe: case Opcode::IfICmpLt:
  case Opcode::IfICmpGe: case Opcode::IfICmpGt: case Opcode::IfICmpLe:
    if (!popInt(P, S) || !popInt(P, S))
      return false;
    Successors.push_back(static_cast<size_t>(I.IVal));
    break;
  case Opcode::IfNull: case Opcode::IfNonNull: {
    VType V;
    if (!popRefLike(P, S, V))
      return false;
    Successors.push_back(static_cast<size_t>(I.IVal));
    break;
  }
  case Opcode::IfACmpEq: case Opcode::IfACmpNe: {
    VType A, B;
    if (!popRefLike(P, S, A) || !popRefLike(P, S, B))
      return false;
    Successors.push_back(static_cast<size_t>(I.IVal));
    break;
  }
  case Opcode::New: {
    if (!ResolveClass(I.Sym))
      return false;
    S.Stack.push_back(VType::ref(I.Sym));
    break;
  }
  case Opcode::GetField: case Opcode::PutField:
  case Opcode::GetStatic: case Opcode::PutStatic: {
    std::string ClassName, FieldName;
    if (!SplitMember(I.Sym, ClassName, FieldName))
      return false;
    if (!ResolveClass(ClassName))
      return false;
    std::string Declaring;
    const FieldDef *F = Set.resolveField(ClassName, FieldName, &Declaring);
    if (!F) {
      error(P, "unknown field " + I.Sym);
      return false;
    }
    if (F->TypeDesc != I.Sig) {
      error(P, "field " + I.Sym + " has type " + F->TypeDesc +
                   ", instruction expects " + I.Sig);
      return false;
    }
    bool WantStatic =
        I.Op == Opcode::GetStatic || I.Op == Opcode::PutStatic;
    if (F->IsStatic != WantStatic) {
      error(P, "field " + I.Sym +
                   (WantStatic ? " is not static" : " is static"));
      return false;
    }
    if (!checkAccess(P, Declaring, F->Visibility, "field " + I.Sym))
      return false;
    bool IsWrite = I.Op == Opcode::PutField || I.Op == Opcode::PutStatic;
    if (IsWrite && F->IsFinal && Cls.Name != Declaring) {
      error(P, "write to final field " + I.Sym +
                   " outside its declaring class");
      return false;
    }
    Type FieldTy = F->type();
    if (IsWrite && !popAssignable(P, S, FieldTy, "field store"))
      return false;
    if (I.Op == Opcode::GetField || I.Op == Opcode::PutField) {
      if (!popAssignable(P, S, Type::refTy(ClassName), "field receiver"))
        return false;
    }
    if (!IsWrite)
      S.Stack.push_back(fromType(FieldTy));
    break;
  }
  case Opcode::InstanceOf: {
    if (!ResolveClass(I.Sym))
      return false;
    VType V;
    if (!popRefLike(P, S, V))
      return false;
    S.Stack.push_back(VType::intV());
    break;
  }
  case Opcode::CheckCast: {
    if (!ResolveClass(I.Sym))
      return false;
    VType V;
    if (!popRefLike(P, S, V))
      return false;
    S.Stack.push_back(VType::ref(I.Sym));
    break;
  }
  case Opcode::InvokeVirtual: case Opcode::InvokeStatic:
  case Opcode::InvokeSpecial: {
    std::string ClassName, MethodName;
    if (!SplitMember(I.Sym, ClassName, MethodName))
      return false;
    if (!ResolveClass(ClassName))
      return false;
    if (!MethodSignature::isValidSignature(I.Sig)) {
      error(P, "malformed call signature '" + I.Sig + "'");
      return false;
    }
    std::string Declaring;
    const MethodDef *Callee =
        Set.resolveMethod(ClassName, MethodName, I.Sig, &Declaring);
    if (!Callee) {
      error(P, "unknown method " + I.Sym + I.Sig);
      return false;
    }
    bool WantStatic = I.Op == Opcode::InvokeStatic;
    if (Callee->IsStatic != WantStatic) {
      error(P, "method " + I.Sym +
                   (WantStatic ? " is not static" : " is static"));
      return false;
    }
    if (!checkAccess(P, Declaring, Callee->Visibility, "method " + I.Sym))
      return false;
    MethodSignature Sig = MethodSignature::parse(I.Sig);
    for (size_t A = Sig.Params.size(); A > 0; --A)
      if (!popAssignable(P, S, Sig.Params[A - 1], "call argument"))
        return false;
    if (!WantStatic &&
        !popAssignable(P, S, Type::refTy(ClassName), "call receiver"))
      return false;
    if (!Sig.Return.isVoid())
      S.Stack.push_back(fromType(Sig.Return));
    break;
  }
  case Opcode::NewArray: {
    if (!Type::isValidDescriptor(I.Sig) || I.Sig == "V") {
      error(P, "invalid array element type '" + I.Sig + "'");
      return false;
    }
    if (!popInt(P, S))
      return false;
    S.Stack.push_back(VType::arr(I.Sig));
    break;
  }
  case Opcode::ALoad: {
    if (!popInt(P, S))
      return false;
    VType Arr;
    if (!popRefLike(P, S, Arr))
      return false;
    if (Arr.K == VType::Kind::Null) {
      // Provably-null array load: any element type works; pick int.
      S.Stack.push_back(VType::intV());
      break;
    }
    if (Arr.K != VType::Kind::Arr) {
      error(P, "aload on non-array " + Arr.str());
      return false;
    }
    S.Stack.push_back(fromType(Type::parse(Arr.Desc)));
    break;
  }
  case Opcode::AStore: {
    VType Value;
    if (!popValue(P, S, Value))
      return false;
    if (!popInt(P, S))
      return false;
    VType Arr;
    if (!popRefLike(P, S, Arr))
      return false;
    if (Arr.K == VType::Kind::Null)
      break; // will raise at runtime; statically fine
    if (Arr.K != VType::Kind::Arr) {
      error(P, "astore on non-array " + Arr.str());
      return false;
    }
    if (!isAssignable(Value, Type::parse(Arr.Desc))) {
      error(P, "astore: " + Value.str() + " not assignable to element type " +
                   Arr.Desc);
      return false;
    }
    break;
  }
  case Opcode::ArrayLength: {
    VType Arr;
    if (!popRefLike(P, S, Arr))
      return false;
    if (Arr.K == VType::Kind::Ref) {
      error(P, "arraylength on non-array " + Arr.str());
      return false;
    }
    S.Stack.push_back(VType::intV());
    break;
  }
  case Opcode::Return: case Opcode::IReturn: case Opcode::AReturn: {
    Type Ret = M.signature().Return;
    if (I.Op == Opcode::Return) {
      if (!Ret.isVoid()) {
        error(P, "void return from non-void method");
        return false;
      }
    } else if (I.Op == Opcode::IReturn) {
      if (!Ret.isInt()) {
        error(P, "ireturn from method returning " + Ret.descriptor());
        return false;
      }
      if (!popInt(P, S))
        return false;
    } else {
      if (!Ret.isReferenceLike()) {
        error(P, "areturn from method returning " + Ret.descriptor());
        return false;
      }
      if (!popAssignable(P, S, Ret, "return value"))
        return false;
    }
    // The opt tier turns an inlined callee's returns into jumps, so
    // operands left below the return value would stay in the caller's
    // frame and pile up once per iteration of a loop around the call.
    if (!S.Stack.empty()) {
      error(P, "return leaves " + std::to_string(S.Stack.size()) +
                   " operand(s) on the stack");
      return false;
    }
    FallsThrough = false;
    break;
  }
  case Opcode::Intrinsic: {
    if (I.IVal < static_cast<int64_t>(IntrinsicId::PrintInt) ||
        I.IVal > static_cast<int64_t>(IntrinsicId::Rand)) {
      error(P, "unknown intrinsic id " + std::to_string(I.IVal));
      return false;
    }
    MethodSignature Sig = MethodSignature::parse(
        intrinsicSignature(static_cast<IntrinsicId>(I.IVal)));
    for (size_t A = Sig.Params.size(); A > 0; --A)
      if (!popAssignable(P, S, Sig.Params[A - 1], "intrinsic argument"))
        return false;
    if (!Sig.Return.isVoid())
      S.Stack.push_back(fromType(Sig.Return));
    break;
  }
  }

  if (FallsThrough) {
    if (Pc + 1 >= M.Code.size()) {
      error(P, "control falls off the end of the method");
      return false;
    }
    Successors.push_back(Pc + 1);
  }
  return true;
}

void MethodVerifier::run() {
  if (M.Code.empty()) {
    error(-1, "method has no body");
    return;
  }
  MethodSignature Sig = MethodSignature::parse(M.Sig);
  uint16_t ParamSlots = M.numParamSlots();
  if (M.NumLocals < ParamSlots) {
    error(-1, "NumLocals smaller than parameter slot count");
    return;
  }

  AbsState Entry;
  Entry.Locals.assign(M.NumLocals, VType::top());
  size_t Slot = 0;
  if (!M.IsStatic)
    Entry.Locals[Slot++] = VType::ref(Cls.Name);
  for (const Type &ParamTy : Sig.Params)
    Entry.Locals[Slot++] = fromType(ParamTy);

  InStates.assign(M.Code.size(), std::nullopt);
  InStates[0] = Entry;
  Worklist.push_back(0);

  // Bound the fixpoint to guard against lattice bugs; the ref lattice has
  // finite height so this should never trip in practice.
  size_t Budget = M.Code.size() * 64 + 1024;
  while (!Worklist.empty()) {
    if (Budget-- == 0) {
      error(-1, "verifier fixpoint did not converge");
      return;
    }
    size_t Pc = Worklist.front();
    Worklist.pop_front();
    assert(InStates[Pc] && "worklist entry without in-state");
    AbsState S = *InStates[Pc];
    std::vector<size_t> Successors;
    size_t ErrsBefore = Errs.size();
    if (!step(Pc, S, Successors))
      continue; // diagnostics recorded; stop exploring this path
    assert(Errs.size() == ErrsBefore && "step succeeded but raised errors");
    (void)ErrsBefore;
    for (size_t Succ : Successors)
      if (mergeInto(Succ, S, static_cast<int>(Pc)))
        Worklist.push_back(Succ);
  }
}

} // namespace

/// Checks every class name mentioned in \p Desc resolves in \p Set.
static void checkDescriptorClasses(const ClassSet &Set,
                                   const std::string &Owner,
                                   const std::string &Desc,
                                   std::vector<VerifyError> &Errs) {
  Type T = Type::parse(Desc);
  while (T.isArray())
    T = T.elementType();
  if (T.isRef() && !Set.find(T.className()))
    Errs.push_back({Owner, "", -1,
                    "descriptor '" + Desc + "' references unknown class '" +
                        T.className() + "'"});
}

void Verifier::verifyClass(const ClassDef &Cls,
                           std::vector<VerifyError> &Errs) const {
  auto ClassError = [&](const std::string &Msg) {
    Errs.push_back({Cls.Name, "", -1, Msg});
  };

  // Superclass chain must exist and terminate at Object without cycles.
  if (Cls.Name != ObjectClassName) {
    std::set<std::string> Seen;
    std::string Cur = Cls.Name;
    while (true) {
      if (!Seen.insert(Cur).second) {
        ClassError("superclass cycle involving '" + Cur + "'");
        break;
      }
      const ClassDef *D = Set.find(Cur);
      if (!D) {
        ClassError("unknown superclass '" + Cur + "'");
        break;
      }
      if (D->Super.empty()) {
        if (D->Name != ObjectClassName)
          ClassError("hierarchy of " + Cls.Name + " does not reach Object");
        break;
      }
      Cur = D->Super;
    }
  } else if (!Cls.Super.empty()) {
    ClassError("Object must not have a superclass");
  }

  // Field checks: valid descriptors, no duplicates, no shadowing.
  std::set<std::string> FieldNames;
  for (const FieldDef &F : Cls.Fields) {
    if (!Type::isValidDescriptor(F.TypeDesc) || F.TypeDesc == "V") {
      ClassError("field " + F.Name + " has invalid type '" + F.TypeDesc +
                 "'");
      continue;
    }
    checkDescriptorClasses(Set, Cls.Name, F.TypeDesc, Errs);
    if (!FieldNames.insert(F.Name).second)
      ClassError("duplicate field '" + F.Name + "'");
    if (!Cls.Super.empty() && Set.resolveField(Cls.Super, F.Name))
      ClassError("field '" + F.Name + "' shadows a superclass field");
  }

  // Method checks: signatures valid, no duplicate name+sig, overrides agree
  // on static-ness.
  std::set<std::string> MethodKeys;
  for (const MethodDef &M : Cls.Methods) {
    if (!MethodSignature::isValidSignature(M.Sig)) {
      ClassError("method " + M.Name + " has invalid signature '" + M.Sig +
                 "'");
      continue;
    }
    MethodSignature Sig = MethodSignature::parse(M.Sig);
    for (const Type &ParamTy : Sig.Params)
      checkDescriptorClasses(Set, Cls.Name, ParamTy.descriptor(), Errs);
    if (!Sig.Return.isVoid())
      checkDescriptorClasses(Set, Cls.Name, Sig.Return.descriptor(), Errs);
    if (!MethodKeys.insert(M.Name + M.Sig).second)
      ClassError("duplicate method " + M.Name + M.Sig);
    if (!Cls.Super.empty()) {
      if (const MethodDef *Super = Set.resolveMethod(Cls.Super, M.Name, M.Sig))
        if (Super->IsStatic != M.IsStatic)
          ClassError("method " + M.Name + M.Sig +
                     " changes static-ness of inherited method");
    }
    verifyMethod(Cls, M, Errs);
  }
}

void Verifier::verifyMethod(const ClassDef &Cls, const MethodDef &M,
                            std::vector<VerifyError> &Errs) const {
  MethodVerifier MV(Set, Cls, M, Errs);
  MV.run();
}

std::vector<VerifyError> Verifier::verifyAll() const {
  std::vector<VerifyError> Errs;
  for (const auto &[Name, Cls] : Set.classes())
    verifyClass(Cls, Errs);
  return Errs;
}

bool jvolve::verifies(const ClassSet &Set) {
  return Verifier(Set).verifyAll().empty();
}

std::vector<std::optional<StackShape>>
jvolve::computeStackShapes(const ClassSet &Set, const ClassDef &Cls,
                           const MethodDef &M) {
  std::vector<VerifyError> Errs;
  MethodVerifier MV(Set, Cls, M, Errs);
  MV.run();
  if (!Errs.empty())
    return {};
  std::vector<std::optional<StackShape>> Out(M.Code.size());
  const std::vector<std::optional<AbsState>> &In = MV.inStates();
  for (size_t Pc = 0; Pc < In.size(); ++Pc) {
    if (!In[Pc])
      continue;
    StackShape Shape;
    Shape.reserve(In[Pc]->Stack.size());
    for (const VType &V : In[Pc]->Stack)
      Shape.push_back(V.str());
    Out[Pc] = std::move(Shape);
  }
  return Out;
}
