#include "bytecode/Builtins.h"

#include "support/Error.h"

using namespace jvolve;

void jvolve::ensureBuiltins(ClassSet &Set) {
  // One definition of each for the whole process: every program version
  // shares them, so a verification record's lookups of Object and String
  // match across versions.
  static const ClassSet::DefPtr Object =
      std::make_shared<ClassDef>(ObjectClassName, "");
  static const ClassSet::DefPtr Str = [] {
    auto Def = std::make_shared<ClassDef>(StringClassName, ObjectClassName);
    Def->Fields.push_back({StringIdField, "I", /*IsStatic=*/false,
                           /*IsFinal=*/true, Access::Private});
    return Def;
  }();
  if (!Set.contains(ObjectClassName))
    Set.add(Object);
  if (!Set.contains(StringClassName))
    Set.add(Str);
}

bool jvolve::isBuiltinClass(const std::string &Name) {
  return Name == ObjectClassName || Name == StringClassName;
}

std::string jvolve::intrinsicSignature(IntrinsicId Id) {
  switch (Id) {
  case IntrinsicId::PrintInt: return "(I)V";
  case IntrinsicId::PrintStr: return "(LString;)V";
  case IntrinsicId::CurrentTicks: return "()I";
  case IntrinsicId::SleepTicks: return "(I)V";
  case IntrinsicId::NetAccept: return "(I)I";
  case IntrinsicId::NetTryAccept: return "(I)I";
  case IntrinsicId::NetRecv: return "(I)I";
  case IntrinsicId::NetSend: return "(II)V";
  case IntrinsicId::NetClose: return "(I)V";
  case IntrinsicId::StrEquals: return "(LString;LString;)I";
  case IntrinsicId::StrLength: return "(LString;)I";
  case IntrinsicId::StrConcat: return "(LString;LString;)LString;";
  case IntrinsicId::StrIndexOf: return "(LString;I)I";
  case IntrinsicId::Rand: return "(I)I";
  }
  unreachable("unknown intrinsic");
}
