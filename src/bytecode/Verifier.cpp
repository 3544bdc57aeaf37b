#include "bytecode/Verifier.h"

#include "bytecode/Builtins.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <string_view>

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

constexpr uint32_t NoId = std::numeric_limits<uint32_t>::max();

/// FNV-1a over \p S, continuing from \p H.
uint64_t fnv1a(std::string_view S, uint64_t H = 0xcbf29ce484222325ull) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Text in up to two pieces that hashes and compares as their
/// concatenation, so a method's name + signature key is never built.
struct TextKey {
  std::string_view A, B;
  uint64_t Hash;

  explicit TextKey(std::string_view A, std::string_view B = {})
      : A(A), B(B), Hash(fnv1a(B, fnv1a(A))) {}

  bool operator==(const TextKey &O) const {
    if (A.size() + B.size() != O.A.size() + O.B.size())
      return false;
    const TextKey &S = A.size() <= O.A.size() ? *this : O;
    const TextKey &L = A.size() <= O.A.size() ? O : *this;
    size_t K = L.A.size() - S.A.size();
    return L.A.substr(0, S.A.size()) == S.A &&
           L.A.substr(S.A.size()) == S.B.substr(0, K) &&
           S.B.substr(K) == L.B;
  }
};

/// A symbolic member reference: an instruction's interned Sym and Sig, and
/// whether it names a method or a field.
struct MemberKey {
  uint32_t Sym, Sig;
  bool IsMethod;
  uint64_t Hash;

  MemberKey(uint32_t Sym, uint32_t Sig, bool IsMethod)
      : Sym(Sym), Sig(Sig), IsMethod(IsMethod) {
    uint64_t X = ((uint64_t(Sym) << 32 | Sig) + IsMethod) *
                 0x9e3779b97f4a7c15ull;
    Hash = X ^ (X >> 32);
  }

  bool operator==(const MemberKey &O) const {
    return Sym == O.Sym && Sig == O.Sig && IsMethod == O.IsMethod;
  }
};

/// Dense ids 0, 1, 2, ... for keys in first-use order, found through an
/// open-addressing table.
template <typename Key> class DenseIds {
public:
  uint32_t intern(const Key &K) {
    if (2 * (Keys.size() + 1) > Slots.size())
      grow();
    size_t Mask = Slots.size() - 1;
    for (size_t I = K.Hash & Mask;; I = (I + 1) & Mask) {
      uint32_t Id = Slots[I];
      if (Id == NoId) {
        Slots[I] = static_cast<uint32_t>(Keys.size());
        Keys.push_back(K);
        return Slots[I];
      }
      if (Keys[Id].Hash == K.Hash && Keys[Id] == K)
        return Id;
    }
  }

  const Key &operator[](uint32_t Id) const { return Keys[Id]; }

private:
  void grow() {
    Slots.assign(std::max<size_t>(64, Slots.size() * 2), NoId);
    size_t Mask = Slots.size() - 1;
    for (uint32_t Id = 0; Id < Keys.size(); ++Id) {
      size_t I = Keys[Id].Hash & Mask;
      while (Slots[I] != NoId)
        I = (I + 1) & Mask;
      Slots[I] = Id;
    }
  }

  std::vector<Key> Keys;
  std::vector<uint32_t> Slots;
};

/// Abstract value in the verifier's type lattice. Id is the interned class
/// name of a Ref and the interned element descriptor of an Arr; it is 0 for
/// the other kinds, so equal values are equal structs.
struct VType {
  enum class Kind : uint8_t { Top, Int, Null, Ref, Arr };
  Kind K = Kind::Top;
  uint32_t Id = 0;

  static VType top() { return {Kind::Top, 0}; }
  static VType intV() { return {Kind::Int, 0}; }
  static VType nullV() { return {Kind::Null, 0}; }
  static VType ref(uint32_t ClassName) { return {Kind::Ref, ClassName}; }
  static VType arr(uint32_t ElemDesc) { return {Kind::Arr, ElemDesc}; }

  bool isRefLike() const {
    return K == Kind::Null || K == Kind::Ref || K == Kind::Arr;
  }

  bool operator==(const VType &O) const = default;
};

/// What a popped value must be assignable to: an interned descriptor, or,
/// for a receiver, the class named by the member reference (the type
/// Type::refTy would build from it).
struct Target {
  uint32_t DescId = NoId;
  uint32_t ClassId = NoId;

  static Target desc(uint32_t Desc) { return {Desc, NoId}; }
  static Target receiver(uint32_t Class) { return {NoId, Class}; }
};

/// A field or method reference, resolved once per verification.
struct Member {
  enum class Status : uint8_t {
    Malformed,    ///< no '.' in Sym
    UnknownClass, ///< the class before the '.' does not exist
    BadSignature, ///< a call whose Sig is not a method signature
    Unknown,      ///< no such member along the superclass chain
    Resolved,
  };
  Status St = Status::Malformed;
  uint32_t NoteStamp = 0;    ///< the last class its lookups were noted for
  uint32_t Class = NoId;     ///< the class named before the '.'
  uint32_t Declaring = NoId; ///< the class resolution found the member in
  const FieldDef *Field = nullptr;
  const MethodDef *Method = nullptr;
  uint32_t FieldType = NoId; ///< Field's descriptor
};

/// A parsed type descriptor: Sub is the class name of a Ref and the element
/// descriptor of an Array.
struct ParsedDesc {
  Type::Kind Kind = Type::Kind::Void;
  uint32_t Sub = NoId;
};

/// A parsed method signature: its parameter descriptors are
/// ParamPool[ParamOff, ParamOff + NumParams).
struct ParsedSig {
  uint32_t ParamOff = 0, NumParams = 0;
  uint32_t Ret = NoId;
};

/// The signature intrinsicSignature() renders, kept for the life of the
/// process so interned views of it stay valid.
std::string_view intrinsicSig(IntrinsicId Id) {
  static const std::vector<std::string> Sigs = [] {
    std::vector<std::string> Out;
    for (int64_t I = 0; I <= static_cast<int64_t>(IntrinsicId::Rand); ++I)
      Out.push_back(intrinsicSignature(static_cast<IntrinsicId>(I)));
    return Out;
  }();
  return Sigs[static_cast<size_t>(Id)];
}

/// One verification: a lazily filled view of the program plus the per-method
/// abstract interpreter, whose buffers every method verified here reuses.
///
/// Names (class names, descriptors, signatures, member references) are
/// interned on first use as views into the ClassSet and the ClassDefs being
/// verified, which outlive the verification. Everything derived from a name
/// (its class, superclass chain, parsed descriptor or signature) is
/// computed once, when first asked for. Nothing is indexed up front:
/// computeStackShapes builds one Verification per method.
///
/// While verifyClass runs, every class name whose definition a check
/// consults is noted once for that class — directly, through a cached
/// superclass chain, or through a cached member resolution — so deps()
/// lists what each class's verdict depends on (VerificationRecord).
class Verification {
public:
  Verification(const ClassSet &Set, std::vector<VerifyError> &Errs)
      : Set(Set), Errs(Errs) {}

  void verifyClass(const ClassDef &C);
  void verifyMethod(const ClassDef &C, const MethodDef &Method);

  /// The operand-stack shape at every pc of the last method verified.
  std::vector<std::optional<StackShape>> stackShapes() const;

  /// The names each verified class looked up, class after class: a
  /// verifyClass call appends its own.
  const std::vector<uint32_t> &deps() const { return Deps; }
  size_t numNames() const { return Info.size(); }
  std::string_view text(uint32_t Id) const { return Names[Id].A; }
  /// What looked-up name \p Id resolved to (null: absent).
  ClassSet::DefPtr def(uint32_t Id) const {
    return Info[Id].Def ? *Info[Id].Def : nullptr;
  }

private:
  // ---- The program view --------------------------------------------------

  /// What is known about one interned name, per role it has played.
  struct NameInfo {
    enum class Parse : uint8_t { Pending, Valid, Invalid };
    // As a class name: its definition (nullptr when missing) and its
    // superclass chain, ChainPool[ChainOff, ChainOff + ChainLen), with the
    // serial of the last class the name itself and the names of its chain
    // were noted for.
    bool DefLooked = false, ChainDone = false;
    const ClassSet::DefPtr *Def = nullptr;
    uint32_t ChainOff = 0, ChainLen = 0;
    uint32_t NoteStamp = 0, ChainNoteStamp = 0;
    // As a type descriptor.
    Parse DescParse = Parse::Pending;
    ParsedDesc D;
    // As a method signature.
    Parse SigParse = Parse::Pending;
    ParsedSig S;
    // The serial of the last class that declared a field of this name and
    // the last one whose superclass walk passed this name.
    uint32_t FieldStamp = 0, WalkStamp = 0;
  };

  uint32_t name(std::string_view S) {
    uint32_t Id = Names.intern(TextKey(S));
    if (Id == Info.size())
      Info.emplace_back();
    return Id;
  }
  uint32_t objectId() { return name(ObjectClassName); }
  std::string str(uint32_t Id) const { return std::string(text(Id)); }

  /// Notes name \p Id as looked up by the class being verified.
  void note(uint32_t Id) {
    if (Info[Id].NoteStamp != ClassSerial) {
      Info[Id].NoteStamp = ClassSerial;
      Deps.push_back(Id);
    }
  }

  const ClassDef *classDef(uint32_t Id) {
    NameInfo &N = Info[Id];
    if (!N.DefLooked) {
      N.Def = Set.shared(text(Id));
      N.DefLooked = true;
    }
    note(Id);
    return N.Def ? N.Def->get() : nullptr;
  }

  /// The chain ClassSet::superChain returns for class \p Id, as the offset
  /// and length of its ids in ChainPool.
  std::pair<uint32_t, uint32_t> chain(uint32_t Id);
  bool isSubclassOf(uint32_t Sub, uint32_t Super);
  uint32_t commonSuper(uint32_t A, uint32_t B);

  const FieldDef *resolveField(uint32_t Class, std::string_view FieldName,
                               uint32_t &Declaring);
  const MethodDef *resolveMethod(uint32_t Class, std::string_view MethodName,
                                 std::string_view MethodSig,
                                 uint32_t &Declaring);

  bool descValid(uint32_t Id);
  /// The parse of descriptor \p Id; aborts as Type::parse does when it is
  /// malformed.
  ParsedDesc desc(uint32_t Id);
  bool sigValid(uint32_t Id);
  /// The parse of signature \p Id; aborts as MethodSignature::parse does
  /// when it is malformed.
  ParsedSig sig(uint32_t Id);

  /// The member instruction \p I references. The reference stays valid
  /// until the next memberRef call.
  const Member &memberRef(const Instr &I, bool IsMethod);

  void checkDescriptorClasses(const ClassDef &C, uint32_t DescId);

  // ---- The abstract interpreter ------------------------------------------

  std::string render(VType V) const;
  std::string stackStr(const VType *Slots, size_t Height) const;
  std::string curStackStr() const {
    return stackStr(Cur.data() + M->NumLocals, height());
  }
  std::string targetStr(Target T) const;

  void error(int Pc, std::string Msg) {
    Errs.push_back({Cls->Name, M->Name + M->Sig, Pc, std::move(Msg)});
  }

  VType fromType(uint32_t DescId);
  bool isAssignable(VType Src, Target Dst);
  std::optional<VType> mergeValue(VType A, VType B);
  bool mergeInto(size_t TargetPc, int SourcePc);
  bool step(size_t Pc);

  size_t height() const { return Cur.size() - M->NumLocals; }
  void push(VType V) { Cur.push_back(V); }
  bool popValue(int Pc, VType &Out);
  bool popInt(int Pc);
  bool popRefLike(int Pc, VType &Out);
  bool popAssignable(int Pc, Target Dst, const char *What);
  bool checkAccess(int Pc, uint32_t Declaring, Access Vis, const char *What,
                   const std::string &Sym);
  bool resolved(int Pc, const Member &R, const Instr &I, bool IsMethod);

  const ClassSet &Set;
  std::vector<VerifyError> &Errs;
  std::vector<uint32_t> Deps;

  DenseIds<TextKey> Names;
  std::vector<NameInfo> Info;
  std::vector<uint32_t> ChainPool, ParamPool;
  DenseIds<MemberKey> MemberIds;
  std::vector<Member> Members;

  /// Duplicate-method detection: name + signature keys, stamped with the
  /// serial of the class that declared them.
  DenseIds<TextKey> MethodDecls;
  std::vector<uint32_t> MethodDeclStamp;
  uint32_t ClassSerial = 0;

  // The method being verified.
  const ClassDef *Cls = nullptr;
  const MethodDef *M = nullptr;
  uint32_t Self = NoId; ///< Cls's name
  uint32_t Ret = NoId;  ///< M's return descriptor

  /// Per-pc in-states: the locals, then the operand stack, at Off in Arena.
  /// A pc's stack height is fixed when it is first reached (any other
  /// height at that join is an error), so each state is placed once.
  struct PcState {
    size_t Off = 0;
    int64_t Height = -1; ///< -1 until the pc is reached
  };
  std::vector<PcState> States;
  std::vector<VType> Arena;
  size_t ArenaTop = 0;
  std::vector<VType> Cur; ///< the state being stepped: locals, then stack
  std::vector<uint32_t> Work;
  size_t WorkHead = 0;
  size_t Succ[2] = {0, 0};
  unsigned NumSucc = 0;
};

std::pair<uint32_t, uint32_t> Verification::chain(uint32_t Id) {
  if (!Info[Id].ChainDone) {
    uint32_t Off = static_cast<uint32_t>(ChainPool.size());
    uint32_t C = Id;
    while (!text(C).empty()) {
      // A repeat ends the walk; the class checks report the cycle.
      if (std::find(ChainPool.begin() + Off, ChainPool.end(), C) !=
          ChainPool.end())
        break;
      ChainPool.push_back(C);
      const ClassDef *D = classDef(C);
      if (!D)
        break;
      C = name(D->Super);
    }
    Info[Id].ChainOff = Off;
    Info[Id].ChainLen = static_cast<uint32_t>(ChainPool.size()) - Off;
    Info[Id].ChainDone = true;
    Info[Id].ChainNoteStamp = ClassSerial; // the walk noted every link
  } else if (Info[Id].ChainNoteStamp != ClassSerial) {
    // A chain another class walked: its links are this class's lookups too.
    Info[Id].ChainNoteStamp = ClassSerial;
    for (uint32_t I = 0; I < Info[Id].ChainLen; ++I)
      note(ChainPool[Info[Id].ChainOff + I]);
  }
  return {Info[Id].ChainOff, Info[Id].ChainLen};
}

bool Verification::isSubclassOf(uint32_t Sub, uint32_t Super) {
  auto [Off, Len] = chain(Sub);
  for (uint32_t I = Off; I < Off + Len; ++I)
    if (ChainPool[I] == Super)
      return true;
  return false;
}

/// Least common superclass of \p A and \p B, defaulting to Object.
uint32_t Verification::commonSuper(uint32_t A, uint32_t B) {
  auto [Off, Len] = chain(A);
  for (uint32_t I = Off; I < Off + Len; ++I)
    if (isSubclassOf(B, ChainPool[I]))
      return ChainPool[I];
  return objectId();
}

const FieldDef *Verification::resolveField(uint32_t Class,
                                           std::string_view FieldName,
                                           uint32_t &Declaring) {
  auto [Off, Len] = chain(Class);
  for (uint32_t I = Off; I < Off + Len; ++I) {
    const ClassDef *D = classDef(ChainPool[I]);
    if (!D)
      break;
    for (const FieldDef &F : D->Fields)
      if (F.Name == FieldName) {
        Declaring = ChainPool[I];
        return &F;
      }
  }
  return nullptr;
}

const MethodDef *Verification::resolveMethod(uint32_t Class,
                                             std::string_view MethodName,
                                             std::string_view MethodSig,
                                             uint32_t &Declaring) {
  auto [Off, Len] = chain(Class);
  for (uint32_t I = Off; I < Off + Len; ++I) {
    const ClassDef *D = classDef(ChainPool[I]);
    if (!D)
      break;
    for (const MethodDef &Def : D->Methods)
      if (Def.Name == MethodName && Def.Sig == MethodSig) {
        Declaring = ChainPool[I];
        return &Def;
      }
  }
  return nullptr;
}

bool Verification::descValid(uint32_t Id) {
  if (Info[Id].DescParse == NameInfo::Parse::Pending) {
    std::string_view S = text(Id);
    ParsedDesc D;
    bool Valid = Type::isValidDescriptor(std::string(S));
    if (Valid) {
      switch (S[0]) {
      case 'I':
        D.Kind = Type::Kind::Int;
        break;
      case 'L':
        D.Kind = Type::Kind::Ref;
        D.Sub = name(S.substr(1, S.size() - 2));
        break;
      case '[':
        D.Kind = Type::Kind::Array;
        D.Sub = name(S.substr(1));
        break;
      default:
        break; // 'V'
      }
    }
    Info[Id].D = D;
    Info[Id].DescParse =
        Valid ? NameInfo::Parse::Valid : NameInfo::Parse::Invalid;
  }
  return Info[Id].DescParse == NameInfo::Parse::Valid;
}

ParsedDesc Verification::desc(uint32_t Id) {
  if (!descValid(Id))
    Type::parse(str(Id)); // aborts with the malformed-descriptor message
  return Info[Id].D;
}

bool Verification::sigValid(uint32_t Id) {
  if (Info[Id].SigParse == NameInfo::Parse::Pending) {
    std::string_view S = text(Id);
    ParsedSig Out;
    bool Valid = MethodSignature::isValidSignature(std::string(S));
    if (Valid) {
      // Split a well-formed "(<params>)<ret>" into its descriptors.
      Out.ParamOff = static_cast<uint32_t>(ParamPool.size());
      size_t Pos = 1;
      while (S[Pos] != ')') {
        size_t Start = Pos;
        while (S[Pos] == '[')
          ++Pos;
        Pos = S[Pos] == 'L' ? S.find(';', Pos) + 1 : Pos + 1;
        ParamPool.push_back(name(S.substr(Start, Pos - Start)));
      }
      Out.NumParams = static_cast<uint32_t>(ParamPool.size()) - Out.ParamOff;
      Out.Ret = name(S.substr(Pos + 1));
    }
    Info[Id].S = Out;
    Info[Id].SigParse =
        Valid ? NameInfo::Parse::Valid : NameInfo::Parse::Invalid;
  }
  return Info[Id].SigParse == NameInfo::Parse::Valid;
}

ParsedSig Verification::sig(uint32_t Id) {
  if (!sigValid(Id))
    MethodSignature::parse(str(Id)); // aborts with the malformed message
  return Info[Id].S;
}

const Member &Verification::memberRef(const Instr &I, bool IsMethod) {
  uint32_t SigId = name(I.Sig);
  uint32_t Idx = MemberIds.intern(MemberKey(name(I.Sym), SigId, IsMethod));
  if (Idx < Members.size()) {
    // Resolved for an earlier class: repeat the lookups resolving made, so
    // they count for this class too.
    Member &R = Members[Idx];
    if (R.NoteStamp != ClassSerial) {
      R.NoteStamp = ClassSerial;
      if (R.Class != NoId && classDef(R.Class) &&
          R.St != Member::Status::BadSignature)
        chain(R.Class);
    }
    return R;
  }
  // Resolve in the order the checks report: the reference's form, its
  // class, a call's signature, then the member itself.
  Member R;
  R.NoteStamp = ClassSerial;
  std::string_view Sym = I.Sym;
  size_t Dot = Sym.find('.');
  if (Dot != std::string_view::npos) {
    R.Class = name(Sym.substr(0, Dot));
    R.St = Member::Status::UnknownClass;
    std::string_view MemberName = Sym.substr(Dot + 1);
    if (classDef(R.Class) && !IsMethod) {
      R.Field = resolveField(R.Class, MemberName, R.Declaring);
      R.St = R.Field ? Member::Status::Resolved : Member::Status::Unknown;
      if (R.Field)
        R.FieldType = name(R.Field->TypeDesc);
    } else if (classDef(R.Class) && !sigValid(SigId)) {
      R.St = Member::Status::BadSignature;
    } else if (classDef(R.Class)) {
      R.Method = resolveMethod(R.Class, MemberName, I.Sig, R.Declaring);
      R.St = R.Method ? Member::Status::Resolved : Member::Status::Unknown;
    }
  }
  Members.push_back(R);
  return Members.back();
}

/// Checks every class name mentioned in descriptor \p DescId resolves.
void Verification::checkDescriptorClasses(const ClassDef &C, uint32_t DescId) {
  ParsedDesc D = desc(DescId);
  while (D.Kind == Type::Kind::Array)
    D = desc(D.Sub);
  if (D.Kind == Type::Kind::Ref && !classDef(D.Sub))
    Errs.push_back({C.Name, "", -1,
                    "descriptor '" + str(DescId) +
                        "' references unknown class '" + str(D.Sub) + "'"});
}

void Verification::verifyClass(const ClassDef &C) {
  uint32_t Serial = ++ClassSerial;
  auto ClassError = [&](const std::string &Msg) {
    Errs.push_back({C.Name, "", -1, Msg});
  };

  // Superclass chain must exist and terminate at Object without cycles.
  if (C.Name != ObjectClassName) {
    uint32_t At = name(C.Name);
    while (true) {
      if (Info[At].WalkStamp == Serial) {
        ClassError("superclass cycle involving '" + str(At) + "'");
        break;
      }
      Info[At].WalkStamp = Serial;
      const ClassDef *D = classDef(At);
      if (!D) {
        ClassError("unknown superclass '" + str(At) + "'");
        break;
      }
      if (D->Super.empty()) {
        if (D->Name != ObjectClassName)
          ClassError("hierarchy of " + C.Name + " does not reach Object");
        break;
      }
      At = name(D->Super);
    }
  } else if (!C.Super.empty()) {
    ClassError("Object must not have a superclass");
  }
  uint32_t Super = C.Super.empty() ? NoId : name(C.Super);

  // Field checks: valid descriptors, no duplicates, no shadowing.
  for (const FieldDef &F : C.Fields) {
    uint32_t Ty = name(F.TypeDesc);
    if (!descValid(Ty) || F.TypeDesc == "V") {
      ClassError("field " + F.Name + " has invalid type '" + F.TypeDesc +
                 "'");
      continue;
    }
    checkDescriptorClasses(C, Ty);
    uint32_t FieldName = name(F.Name);
    if (Info[FieldName].FieldStamp == Serial)
      ClassError("duplicate field '" + F.Name + "'");
    Info[FieldName].FieldStamp = Serial;
    uint32_t Declaring = NoId;
    if (Super != NoId && resolveField(Super, F.Name, Declaring))
      ClassError("field '" + F.Name + "' shadows a superclass field");
  }

  // Method checks: signatures valid, no duplicate name+sig, overrides agree
  // on static-ness.
  for (const MethodDef &Method : C.Methods) {
    uint32_t SigId = name(Method.Sig);
    if (!sigValid(SigId)) {
      ClassError("method " + Method.Name + " has invalid signature '" +
                 Method.Sig + "'");
      continue;
    }
    ParsedSig S = sig(SigId);
    for (uint32_t P = 0; P < S.NumParams; ++P)
      checkDescriptorClasses(C, ParamPool[S.ParamOff + P]);
    if (desc(S.Ret).Kind != Type::Kind::Void)
      checkDescriptorClasses(C, S.Ret);
    uint32_t Key = MethodDecls.intern(TextKey(Method.Name, Method.Sig));
    if (Key == MethodDeclStamp.size())
      MethodDeclStamp.push_back(0);
    if (MethodDeclStamp[Key] == Serial)
      ClassError("duplicate method " + Method.Name + Method.Sig);
    MethodDeclStamp[Key] = Serial;
    uint32_t Declaring = NoId;
    if (Super != NoId)
      if (const MethodDef *Inherited =
              resolveMethod(Super, Method.Name, Method.Sig, Declaring))
        if (Inherited->IsStatic != Method.IsStatic)
          ClassError("method " + Method.Name + Method.Sig +
                     " changes static-ness of inherited method");
    verifyMethod(C, Method);
  }
}

std::string Verification::render(VType V) const {
  switch (V.K) {
  case VType::Kind::Top: return "top";
  case VType::Kind::Int: return "int";
  case VType::Kind::Null: return "null";
  case VType::Kind::Ref: return str(V.Id);
  case VType::Kind::Arr: return "[" + str(V.Id);
  }
  unreachable("bad VType kind");
}

/// Renders \p Height stack slots from \p Slots as "[a, b, c]", bottom
/// first.
std::string Verification::stackStr(const VType *Slots, size_t Height) const {
  std::string Out = "[";
  for (size_t I = 0; I < Height; ++I) {
    if (I)
      Out += ", ";
    Out += render(Slots[I]);
  }
  return Out + "]";
}

std::string Verification::targetStr(Target T) const {
  return T.DescId != NoId ? str(T.DescId) : "L" + str(T.ClassId) + ";";
}

VType Verification::fromType(uint32_t DescId) {
  ParsedDesc D = desc(DescId);
  switch (D.Kind) {
  case Type::Kind::Int:
    return VType::intV();
  case Type::Kind::Ref:
    return VType::ref(D.Sub);
  case Type::Kind::Array:
    return VType::arr(D.Sub);
  case Type::Kind::Void:
    break;
  }
  unreachable("void has no abstract value");
}

bool Verification::isAssignable(VType Src, Target Dst) {
  ParsedDesc D = Dst.DescId != NoId
                     ? desc(Dst.DescId)
                     : ParsedDesc{Type::Kind::Ref, Dst.ClassId};
  switch (D.Kind) {
  case Type::Kind::Int:
    return Src.K == VType::Kind::Int;
  case Type::Kind::Ref:
    if (Src.K == VType::Kind::Null)
      return true;
    if (Src.K == VType::Kind::Ref)
      return isSubclassOf(Src.Id, D.Sub);
    if (Src.K == VType::Kind::Arr)
      return D.Sub == objectId();
    return false;
  case Type::Kind::Array: {
    if (Src.K == VType::Kind::Null)
      return true;
    if (Src.K != VType::Kind::Arr)
      return false;
    if (Src.Id == D.Sub)
      return true;
    // Covariant reference arrays, as in Java.
    ParsedDesc SrcElem = desc(Src.Id), DstElem = desc(D.Sub);
    return SrcElem.Kind == Type::Kind::Ref &&
           DstElem.Kind == Type::Kind::Ref &&
           isSubclassOf(SrcElem.Sub, DstElem.Sub);
  }
  case Type::Kind::Void:
    return false;
  }
  unreachable("bad destination type kind");
}

/// Merge of two abstract values. \returns nullopt on conflict.
std::optional<VType> Verification::mergeValue(VType A, VType B) {
  if (A == B)
    return A;
  if (A.K == VType::Kind::Null && B.isRefLike())
    return B;
  if (B.K == VType::Kind::Null && A.isRefLike())
    return A;
  if (A.K == VType::Kind::Ref && B.K == VType::Kind::Ref)
    return VType::ref(commonSuper(A.Id, B.Id));
  if (A.K == VType::Kind::Arr && B.K == VType::Kind::Arr)
    return VType::ref(objectId()); // differing element types
  if ((A.K == VType::Kind::Arr && B.K == VType::Kind::Ref &&
       B.Id == objectId()) ||
      (B.K == VType::Kind::Arr && A.K == VType::Kind::Ref &&
       A.Id == objectId()))
    return VType::ref(objectId());
  return std::nullopt;
}

/// Merges the current state into the recorded in-state of \p TargetPc.
/// \returns true if the target state changed (so it must be revisited).
bool Verification::mergeInto(size_t TargetPc, int SourcePc) {
  if (TargetPc >= M->Code.size()) {
    error(SourcePc,
          "branch target " + std::to_string(TargetPc) + " out of bounds");
    return false;
  }
  PcState &In = States[TargetPc];
  size_t Locals = M->NumLocals;
  if (In.Height < 0) {
    In.Off = ArenaTop;
    In.Height = static_cast<int64_t>(height());
    ArenaTop += Cur.size();
    if (Arena.size() < ArenaTop)
      Arena.resize(ArenaTop);
    std::copy(Cur.begin(), Cur.end(), Arena.begin() + In.Off);
    return true;
  }
  size_t Height = static_cast<size_t>(In.Height);
  if (Height != height()) {
    error(SourcePc, "stack height mismatch at join point " +
                        std::to_string(TargetPc) + ": expected " +
                        stackStr(Arena.data() + In.Off + Locals, Height) +
                        ", found " + curStackStr());
    return false;
  }
  bool Changed = false;
  for (size_t I = 0; I < Height; ++I) {
    VType &Slot = Arena[In.Off + Locals + I];
    std::optional<VType> Merged = mergeValue(Slot, Cur[Locals + I]);
    if (!Merged) {
      error(SourcePc, "incompatible stack types at join point " +
                          std::to_string(TargetPc) + ": " + render(Slot) +
                          " vs " + render(Cur[Locals + I]) + " (expected " +
                          stackStr(Arena.data() + In.Off + Locals, Height) +
                          ", found " + curStackStr() + ")");
      return false;
    }
    if (!(*Merged == Slot)) {
      Slot = *Merged;
      Changed = true;
    }
  }
  for (size_t I = 0; I < Locals; ++I) {
    // Conflicting locals become unusable rather than erroneous.
    VType &Slot = Arena[In.Off + I];
    VType Merged = mergeValue(Slot, Cur[I]).value_or(VType::top());
    if (!(Merged == Slot)) {
      Slot = Merged;
      Changed = true;
    }
  }
  return Changed;
}

bool Verification::popValue(int Pc, VType &Out) {
  if (height() == 0) {
    error(Pc, "operand stack underflow: " +
                  std::string(opcodeName(
                      M->Code[static_cast<size_t>(Pc)].Op)) +
                  " needs a value but the stack is empty");
    return false;
  }
  Out = Cur.back();
  Cur.pop_back();
  return true;
}

// The pop checks inspect the top before popping it, so a diagnostic can
// render the whole stack it was found on.

bool Verification::popInt(int Pc) {
  if (height() > 0 && Cur.back().K != VType::Kind::Int) {
    error(Pc, "expected int on stack, found " + render(Cur.back()) +
                  " (stack was " + curStackStr() + ")");
    return false;
  }
  VType V;
  return popValue(Pc, V);
}

bool Verification::popRefLike(int Pc, VType &Out) {
  if (height() > 0 && !Cur.back().isRefLike()) {
    error(Pc, "expected reference on stack, found " + render(Cur.back()) +
                  " (stack was " + curStackStr() + ")");
    return false;
  }
  return popValue(Pc, Out);
}

bool Verification::popAssignable(int Pc, Target Dst, const char *What) {
  if (height() > 0 && !isAssignable(Cur.back(), Dst)) {
    error(Pc, std::string(What) + ": expected " + targetStr(Dst) +
                  ", found " + render(Cur.back()) + " (stack was " +
                  curStackStr() + ")");
    return false;
  }
  VType V;
  return popValue(Pc, V);
}

bool Verification::checkAccess(int Pc, uint32_t Declaring, Access Vis,
                               const char *What, const std::string &Sym) {
  switch (Vis) {
  case Access::Public:
    return true;
  case Access::Protected:
    if (isSubclassOf(Self, Declaring))
      return true;
    break;
  case Access::Private:
    if (Self == Declaring)
      return true;
    break;
  }
  error(Pc, What + Sym + " is not accessible from " + Cls->Name);
  return false;
}

/// Reports why \p R did not resolve. \returns true if it did.
bool Verification::resolved(int Pc, const Member &R, const Instr &I,
                            bool IsMethod) {
  switch (R.St) {
  case Member::Status::Malformed:
    error(Pc, "malformed member reference '" + I.Sym + "'");
    return false;
  case Member::Status::UnknownClass:
    error(Pc, "unknown class '" + str(R.Class) + "'");
    return false;
  case Member::Status::BadSignature:
    error(Pc, "malformed call signature '" + I.Sig + "'");
    return false;
  case Member::Status::Unknown:
    error(Pc, IsMethod ? "unknown method " + I.Sym + I.Sig
                       : "unknown field " + I.Sym);
    return false;
  case Member::Status::Resolved:
    return true;
  }
  unreachable("bad member status");
}

/// Interprets the instruction at \p Pc over Cur and records its successors.
/// \returns false if a type error stops interpretation of this path.
bool Verification::step(size_t Pc) {
  const Instr &I = M->Code[Pc];
  int P = static_cast<int>(Pc);
  bool FallsThrough = true;
  NumSucc = 0;

  auto ResolveClass = [&](const std::string &Name) -> bool {
    if (classDef(name(Name)))
      return true;
    error(P, "unknown class '" + Name + "'");
    return false;
  };
  auto Branch = [&] { Succ[NumSucc++] = static_cast<size_t>(I.IVal); };

  switch (I.Op) {
  case Opcode::Nop:
    break;
  case Opcode::IConst:
    push(VType::intV());
    break;
  case Opcode::SConst:
    push(VType::ref(name(StringClassName)));
    break;
  case Opcode::NullConst:
    push(VType::nullV());
    break;
  case Opcode::Load: {
    if (I.IVal < 0 || I.IVal >= M->NumLocals) {
      error(P, "local slot " + std::to_string(I.IVal) + " out of range");
      return false;
    }
    VType L = Cur[static_cast<size_t>(I.IVal)];
    if (L.K == VType::Kind::Top) {
      error(P, "load of uninitialized local " + std::to_string(I.IVal));
      return false;
    }
    push(L);
    break;
  }
  case Opcode::Store: {
    if (I.IVal < 0 || I.IVal >= M->NumLocals) {
      error(P, "local slot " + std::to_string(I.IVal) + " out of range");
      return false;
    }
    VType V;
    if (!popValue(P, V))
      return false;
    Cur[static_cast<size_t>(I.IVal)] = V;
    break;
  }
  case Opcode::IAdd: case Opcode::ISub: case Opcode::IMul:
  case Opcode::IDiv: case Opcode::IRem:
    if (!popInt(P) || !popInt(P))
      return false;
    push(VType::intV());
    break;
  case Opcode::INeg:
    if (!popInt(P))
      return false;
    push(VType::intV());
    break;
  case Opcode::Dup:
    if (height() == 0) {
      error(P, "dup on empty stack");
      return false;
    }
    push(Cur.back());
    break;
  case Opcode::Pop: {
    VType V;
    if (!popValue(P, V))
      return false;
    break;
  }
  case Opcode::Goto:
    Branch();
    FallsThrough = false;
    break;
  case Opcode::IfEq: case Opcode::IfNe: case Opcode::IfLt:
  case Opcode::IfGe: case Opcode::IfGt: case Opcode::IfLe:
    if (!popInt(P))
      return false;
    Branch();
    break;
  case Opcode::IfICmpEq: case Opcode::IfICmpNe: case Opcode::IfICmpLt:
  case Opcode::IfICmpGe: case Opcode::IfICmpGt: case Opcode::IfICmpLe:
    if (!popInt(P) || !popInt(P))
      return false;
    Branch();
    break;
  case Opcode::IfNull: case Opcode::IfNonNull: {
    VType V;
    if (!popRefLike(P, V))
      return false;
    Branch();
    break;
  }
  case Opcode::IfACmpEq: case Opcode::IfACmpNe: {
    VType A, B;
    if (!popRefLike(P, A) || !popRefLike(P, B))
      return false;
    Branch();
    break;
  }
  case Opcode::New:
    if (!ResolveClass(I.Sym))
      return false;
    push(VType::ref(name(I.Sym)));
    break;
  case Opcode::GetField: case Opcode::PutField:
  case Opcode::GetStatic: case Opcode::PutStatic: {
    const Member &R = memberRef(I, /*IsMethod=*/false);
    if (!resolved(P, R, I, /*IsMethod=*/false))
      return false;
    const FieldDef *F = R.Field;
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
    if (!checkAccess(P, R.Declaring, F->Visibility, "field ", I.Sym))
      return false;
    bool IsWrite = I.Op == Opcode::PutField || I.Op == Opcode::PutStatic;
    if (IsWrite && F->IsFinal && Self != R.Declaring) {
      error(P, "write to final field " + I.Sym +
                   " outside its declaring class");
      return false;
    }
    desc(R.FieldType); // a malformed field type aborts, as F->type() does
    if (IsWrite &&
        !popAssignable(P, Target::desc(R.FieldType), "field store"))
      return false;
    if (I.Op == Opcode::GetField || I.Op == Opcode::PutField) {
      if (!popAssignable(P, Target::receiver(R.Class), "field receiver"))
        return false;
    }
    if (!IsWrite)
      push(fromType(R.FieldType));
    break;
  }
  case Opcode::InstanceOf: {
    if (!ResolveClass(I.Sym))
      return false;
    VType V;
    if (!popRefLike(P, V))
      return false;
    push(VType::intV());
    break;
  }
  case Opcode::CheckCast: {
    if (!ResolveClass(I.Sym))
      return false;
    VType V;
    if (!popRefLike(P, V))
      return false;
    push(VType::ref(name(I.Sym)));
    break;
  }
  case Opcode::InvokeVirtual: case Opcode::InvokeStatic:
  case Opcode::InvokeSpecial: {
    const Member &R = memberRef(I, /*IsMethod=*/true);
    if (!resolved(P, R, I, /*IsMethod=*/true))
      return false;
    bool WantStatic = I.Op == Opcode::InvokeStatic;
    if (R.Method->IsStatic != WantStatic) {
      error(P, "method " + I.Sym +
                   (WantStatic ? " is not static" : " is static"));
      return false;
    }
    if (!checkAccess(P, R.Declaring, R.Method->Visibility, "method ", I.Sym))
      return false;
    ParsedSig S = sig(name(I.Sig));
    for (uint32_t A = S.NumParams; A > 0; --A)
      if (!popAssignable(P, Target::desc(ParamPool[S.ParamOff + A - 1]),
                         "call argument"))
        return false;
    if (!WantStatic &&
        !popAssignable(P, Target::receiver(R.Class), "call receiver"))
      return false;
    if (desc(S.Ret).Kind != Type::Kind::Void)
      push(fromType(S.Ret));
    break;
  }
  case Opcode::NewArray: {
    uint32_t Elem = name(I.Sig);
    if (!descValid(Elem) || I.Sig == "V") {
      error(P, "invalid array element type '" + I.Sig + "'");
      return false;
    }
    if (!popInt(P))
      return false;
    push(VType::arr(Elem));
    break;
  }
  case Opcode::ALoad: {
    if (!popInt(P))
      return false;
    VType Arr;
    if (!popRefLike(P, Arr))
      return false;
    if (Arr.K == VType::Kind::Null) {
      // Provably-null array load: any element type works; pick int.
      push(VType::intV());
      break;
    }
    if (Arr.K != VType::Kind::Arr) {
      error(P, "aload on non-array " + render(Arr));
      return false;
    }
    push(fromType(Arr.Id));
    break;
  }
  case Opcode::AStore: {
    VType Value;
    if (!popValue(P, Value))
      return false;
    if (!popInt(P))
      return false;
    VType Arr;
    if (!popRefLike(P, Arr))
      return false;
    if (Arr.K == VType::Kind::Null)
      break; // will raise at runtime; statically fine
    if (Arr.K != VType::Kind::Arr) {
      error(P, "astore on non-array " + render(Arr));
      return false;
    }
    if (!isAssignable(Value, Target::desc(Arr.Id))) {
      error(P, "astore: " + render(Value) +
                   " not assignable to element type " + str(Arr.Id));
      return false;
    }
    break;
  }
  case Opcode::ArrayLength: {
    VType Arr;
    if (!popRefLike(P, Arr))
      return false;
    if (Arr.K == VType::Kind::Ref) {
      error(P, "arraylength on non-array " + render(Arr));
      return false;
    }
    push(VType::intV());
    break;
  }
  case Opcode::Return: case Opcode::IReturn: case Opcode::AReturn: {
    Type::Kind RetKind = desc(Ret).Kind;
    if (I.Op == Opcode::Return) {
      if (RetKind != Type::Kind::Void) {
        error(P, "void return from non-void method");
        return false;
      }
    } else if (I.Op == Opcode::IReturn) {
      if (RetKind != Type::Kind::Int) {
        error(P, "ireturn from method returning " + str(Ret));
        return false;
      }
      if (!popInt(P))
        return false;
    } else {
      if (RetKind != Type::Kind::Ref && RetKind != Type::Kind::Array) {
        error(P, "areturn from method returning " + str(Ret));
        return false;
      }
      if (!popAssignable(P, Target::desc(Ret), "return value"))
        return false;
    }
    // The opt tier turns an inlined callee's returns into jumps, so
    // operands left below the return value would stay in the caller's
    // frame and pile up once per iteration of a loop around the call.
    if (height() != 0) {
      error(P, "return leaves " + std::to_string(height()) +
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
    ParsedSig S = sig(name(intrinsicSig(static_cast<IntrinsicId>(I.IVal))));
    for (uint32_t A = S.NumParams; A > 0; --A)
      if (!popAssignable(P, Target::desc(ParamPool[S.ParamOff + A - 1]),
                         "intrinsic argument"))
        return false;
    if (desc(S.Ret).Kind != Type::Kind::Void)
      push(fromType(S.Ret));
    break;
  }
  }

  if (FallsThrough) {
    if (Pc + 1 >= M->Code.size()) {
      error(P, "control falls off the end of the method");
      return false;
    }
    Succ[NumSucc++] = Pc + 1;
  }
  return true;
}

void Verification::verifyMethod(const ClassDef &C, const MethodDef &Method) {
  Cls = &C;
  M = &Method;
  if (M->Code.empty()) {
    error(-1, "method has no body");
    return;
  }
  ParsedSig S = sig(name(M->Sig));
  uint16_t ParamSlots =
      static_cast<uint16_t>(S.NumParams + (M->IsStatic ? 0 : 1));
  if (M->NumLocals < ParamSlots) {
    error(-1, "NumLocals smaller than parameter slot count");
    return;
  }
  Self = name(C.Name);
  Ret = S.Ret;

  // The entry state: `this` and the parameters, the other locals unset.
  Cur.assign(M->NumLocals, VType::top());
  size_t Slot = 0;
  if (!M->IsStatic)
    Cur[Slot++] = VType::ref(Self);
  for (uint32_t P = 0; P < S.NumParams; ++P)
    Cur[Slot++] = fromType(ParamPool[S.ParamOff + P]);

  States.assign(M->Code.size(), PcState());
  ArenaTop = 0;
  Work.clear();
  WorkHead = 0;
  mergeInto(0, -1);
  Work.push_back(0);

  // Bound the fixpoint to guard against lattice bugs; the ref lattice has
  // finite height so this should never trip in practice.
  size_t Budget = M->Code.size() * 64 + 1024;
  while (WorkHead < Work.size()) {
    if (Budget-- == 0) {
      error(-1, "verifier fixpoint did not converge");
      return;
    }
    uint32_t Pc = Work[WorkHead++];
    if (WorkHead == Work.size()) {
      Work.clear();
      WorkHead = 0;
    }
    const PcState &In = States[Pc];
    assert(In.Height >= 0 && "worklist entry without in-state");
    Cur.assign(Arena.begin() + In.Off,
               Arena.begin() + In.Off + M->NumLocals + In.Height);
    size_t ErrsBefore = Errs.size();
    if (!step(Pc))
      continue; // diagnostics recorded; stop exploring this path
    assert(Errs.size() == ErrsBefore && "step succeeded but raised errors");
    (void)ErrsBefore;
    for (unsigned I = 0; I < NumSucc; ++I)
      if (mergeInto(Succ[I], static_cast<int>(Pc)))
        Work.push_back(static_cast<uint32_t>(Succ[I]));
  }
}

std::vector<std::optional<StackShape>> Verification::stackShapes() const {
  std::vector<std::optional<StackShape>> Out(M->Code.size());
  for (size_t Pc = 0; Pc < States.size(); ++Pc) {
    const PcState &In = States[Pc];
    if (In.Height < 0)
      continue;
    StackShape Shape;
    Shape.reserve(static_cast<size_t>(In.Height));
    for (int64_t I = 0; I < In.Height; ++I)
      Shape.push_back(render(Arena[In.Off + M->NumLocals + I]));
    Out[Pc] = std::move(Shape);
  }
  return Out;
}

} // namespace

void Verifier::verifyClass(const ClassDef &Cls,
                           std::vector<VerifyError> &Errs) const {
  Verification(Set, Errs).verifyClass(Cls);
}

void Verifier::verifyMethod(const ClassDef &Cls, const MethodDef &M,
                            std::vector<VerifyError> &Errs) const {
  Verification(Set, Errs).verifyMethod(Cls, M);
}

/// The entry for \p Class in \p Classes (ordered by name), or nullptr.
template <typename Entry>
static const Entry *findEntry(const std::vector<Entry> &Classes,
                              std::string_view Class) {
  auto It = std::lower_bound(
      Classes.begin(), Classes.end(), Class,
      [](const Entry &E, std::string_view N) { return E.Name < N; });
  return It != Classes.end() && It->Name == Class ? &*It : nullptr;
}

const ClassDef *VerificationRecord::definition(std::string_view Class) const {
  const Entry *E = findEntry(Classes, Class);
  return E ? E->Def.get() : nullptr;
}

std::vector<std::pair<std::string, const ClassDef *>>
VerificationRecord::lookups(std::string_view Class) const {
  std::vector<std::pair<std::string, const ClassDef *>> Out;
  if (const Entry *E = findEntry(Classes, Class))
    for (uint32_t U = 0; U < E->Count; ++U) {
      const Lookup &L = Names[Uses[E->First + U]];
      Out.emplace_back(L.Name, L.Def.get());
    }
  return Out;
}

std::vector<VerifyError> Verifier::verifyAll() const {
  VerifyOutcome Out;
  verify(VerificationRecord(), Out, /*KeepRecord=*/false);
  return std::move(Out.Errors);
}

VerifyOutcome Verifier::verify(const VerificationRecord &Prior) const {
  VerifyOutcome Out;
  verify(Prior, Out, /*KeepRecord=*/true);
  return Out;
}

void Verifier::verify(const VerificationRecord &Prior, VerifyOutcome &Out,
                      bool KeepRecord) const {
  using Record = VerificationRecord;

  // The prior lookups that now resolve to a different object.
  std::vector<uint8_t> Moved(Prior.Names.size());
  for (size_t I = 0; I < Prior.Names.size(); ++I) {
    const ClassSet::DefPtr *Now = Set.shared(Prior.Names[I].Name);
    Moved[I] = (Now ? Now->get() : nullptr) != Prior.Names[I].Def.get();
  }

  // One step per class in verifyAll's order: the prior entry it reuses, or
  // the range of Verification::deps() it noted when verified anew.
  struct Step {
    const std::string *Name;
    const ClassSet::DefPtr *Def;
    const Record::Entry *Reused;
    size_t DepsOff, DepsEnd;
  };
  std::vector<Step> Steps;
  Steps.reserve(Set.size());
  Verification V(Set, Out.Errors);
  auto PriorIt = Prior.Classes.begin();
  for (const auto &[Name, Def] : Set.classes()) {
    while (PriorIt != Prior.Classes.end() && PriorIt->Name < Name)
      ++PriorIt;
    const Record::Entry *E =
        PriorIt != Prior.Classes.end() && PriorIt->Name == Name ? &*PriorIt
                                                                 : nullptr;
    bool Reuse = E && E->Def == Def;
    for (uint32_t U = 0; Reuse && U < E->Count; ++U)
      Reuse = !Moved[Prior.Uses[E->First + U]];
    if (Reuse) {
      ++Out.Reused;
      Steps.push_back({&Name, &Def, E, 0, 0});
      continue;
    }
    size_t Off = V.deps().size();
    V.verifyClass(*Def);
    Out.Verified.push_back(Def.get());
    Steps.push_back({&Name, &Def, nullptr, Off, V.deps().size()});
  }
  if (!KeepRecord || !Out.Errors.empty())
    return;

  // The new record: each class's lookups, renumbered into one table of the
  // names its entries use.
  Record &R = Out.Record;
  R.Classes.reserve(Steps.size());
  R.Names.reserve(Steps.size());
  R.Uses.reserve(Prior.Uses.size() + V.deps().size());
  std::vector<uint32_t> FromPrior(Prior.Names.size(), NoId);
  std::vector<uint32_t> FromView(V.numNames(), NoId);
  auto Use = [&R](uint32_t &Slot, auto MakeLookup) {
    if (Slot == NoId) {
      Slot = static_cast<uint32_t>(R.Names.size());
      R.Names.push_back(MakeLookup());
    }
    R.Uses.push_back(Slot);
  };
  for (const Step &S : Steps) {
    Record::Entry E{*S.Name, *S.Def, static_cast<uint32_t>(R.Uses.size()),
                    0};
    if (S.Reused) {
      for (uint32_t U = 0; U < S.Reused->Count; ++U) {
        uint32_t Old = Prior.Uses[S.Reused->First + U];
        Use(FromPrior[Old], [&] { return Prior.Names[Old]; });
      }
    } else {
      for (size_t D = S.DepsOff; D < S.DepsEnd; ++D) {
        uint32_t Id = V.deps()[D];
        Use(FromView[Id], [&] {
          return Record::Lookup{std::string(V.text(Id)), V.def(Id)};
        });
      }
    }
    E.Count = static_cast<uint32_t>(R.Uses.size()) - E.First;
    R.Classes.push_back(std::move(E));
  }
}

bool jvolve::verifies(const ClassSet &Set) {
  return Verifier(Set).verifyAll().empty();
}

std::vector<std::optional<StackShape>>
jvolve::computeStackShapes(const ClassSet &Set, const ClassDef &Cls,
                           const MethodDef &M) {
  std::vector<VerifyError> Errs;
  Verification V(Set, Errs);
  V.verifyMethod(Cls, M);
  if (!Errs.empty())
    return {};
  return V.stackShapes();
}
