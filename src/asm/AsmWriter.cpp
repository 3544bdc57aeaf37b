#include "asm/AsmWriter.h"

#include "bytecode/Builtins.h"
#include "support/Error.h"

#include <map>
#include <set>

using namespace jvolve;

namespace {

const char *accessWord(Access A) {
  switch (A) {
  case Access::Public: return "";
  case Access::Private: return "private ";
  case Access::Protected: return "protected ";
  }
  unreachable("bad access");
}

std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
  return Out;
}

const char *branchWord(Opcode Op) {
  switch (Op) {
  case Opcode::IfEq: return "ifeq";
  case Opcode::IfNe: return "ifne";
  case Opcode::IfLt: return "iflt";
  case Opcode::IfGe: return "ifge";
  case Opcode::IfGt: return "ifgt";
  case Opcode::IfLe: return "ifle";
  case Opcode::IfICmpEq: return "if_icmpeq";
  case Opcode::IfICmpNe: return "if_icmpne";
  case Opcode::IfICmpLt: return "if_icmplt";
  case Opcode::IfICmpGe: return "if_icmpge";
  case Opcode::IfICmpGt: return "if_icmpgt";
  case Opcode::IfICmpLe: return "if_icmple";
  case Opcode::IfNull: return "ifnull";
  case Opcode::IfNonNull: return "ifnonnull";
  case Opcode::IfACmpEq: return "if_acmpeq";
  case Opcode::IfACmpNe: return "if_acmpne";
  default: return nullptr;
  }
}

void writeMethod(const MethodDef &M, std::string &Out) {
  Out += "  ";
  Out += accessWord(M.Visibility);
  if (M.IsStatic)
    Out += "static ";
  Out += "method " + M.Name + M.Sig + " locals " +
         std::to_string(M.NumLocals) + " {\n";

  // Collect branch targets so they become labels.
  std::map<size_t, std::string> Labels;
  for (const Instr &I : M.Code) {
    if (branchWord(I.Op) || I.Op == Opcode::Goto) {
      size_t Target = static_cast<size_t>(I.IVal);
      if (!Labels.count(Target))
        Labels[Target] = "L" + std::to_string(Labels.size());
    }
  }

  for (size_t Pc = 0; Pc < M.Code.size(); ++Pc) {
    if (auto It = Labels.find(Pc); It != Labels.end())
      Out += "  " + It->second + ":\n";
    const Instr &I = M.Code[Pc];
    Out += "    ";
    if (const char *BW = branchWord(I.Op)) {
      Out += std::string(BW) + " " + Labels.at(static_cast<size_t>(I.IVal));
    } else {
      switch (I.Op) {
      case Opcode::Nop: Out += "nop"; break;
      case Opcode::IConst: Out += "iconst " + std::to_string(I.IVal); break;
      case Opcode::SConst: Out += "sconst \"" + escape(I.Str) + "\""; break;
      case Opcode::NullConst: Out += "nullconst"; break;
      case Opcode::Load: Out += "load " + std::to_string(I.IVal); break;
      case Opcode::Store: Out += "store " + std::to_string(I.IVal); break;
      case Opcode::IAdd: Out += "iadd"; break;
      case Opcode::ISub: Out += "isub"; break;
      case Opcode::IMul: Out += "imul"; break;
      case Opcode::IDiv: Out += "idiv"; break;
      case Opcode::IRem: Out += "irem"; break;
      case Opcode::INeg: Out += "ineg"; break;
      case Opcode::Dup: Out += "dup"; break;
      case Opcode::Pop: Out += "pop"; break;
      case Opcode::Goto:
        Out += "goto " + Labels.at(static_cast<size_t>(I.IVal));
        break;
      case Opcode::New: Out += "new " + I.Sym; break;
      case Opcode::GetField: Out += "getfield " + I.Sym + " " + I.Sig; break;
      case Opcode::PutField: Out += "putfield " + I.Sym + " " + I.Sig; break;
      case Opcode::GetStatic:
        Out += "getstatic " + I.Sym + " " + I.Sig;
        break;
      case Opcode::PutStatic:
        Out += "putstatic " + I.Sym + " " + I.Sig;
        break;
      case Opcode::InstanceOf: Out += "instanceof " + I.Sym; break;
      case Opcode::CheckCast: Out += "checkcast " + I.Sym; break;
      case Opcode::InvokeVirtual:
        Out += "invokevirtual " + I.Sym + I.Sig;
        break;
      case Opcode::InvokeStatic:
        Out += "invokestatic " + I.Sym + I.Sig;
        break;
      case Opcode::InvokeSpecial:
        Out += "invokespecial " + I.Sym + I.Sig;
        break;
      case Opcode::NewArray: Out += "newarray " + I.Sig; break;
      case Opcode::ALoad: Out += "aload"; break;
      case Opcode::AStore: Out += "astore"; break;
      case Opcode::ArrayLength: Out += "arraylength"; break;
      case Opcode::Return: Out += "ret"; break;
      case Opcode::IReturn: Out += "iret"; break;
      case Opcode::AReturn: Out += "aret"; break;
      case Opcode::Intrinsic:
        Out += std::string("intrinsic ") +
               intrinsicName(static_cast<IntrinsicId>(I.IVal));
        break;
      default:
        unreachable("unhandled opcode in asm writer");
      }
    }
    Out += '\n';
  }
  // A trailing label (branch to one-past-the-end never verifies, but a
  // label exactly at Code.size() cannot occur since targets are bounded).
  Out += "  }\n";
}

} // namespace

std::string jvolve::writeClassAsm(const ClassDef &Cls) {
  std::string Out = "class " + Cls.Name;
  if (!Cls.Super.empty() && Cls.Super != "Object")
    Out += " extends " + Cls.Super;
  Out += " {\n";
  for (const FieldDef &F : Cls.Fields) {
    Out += "  ";
    Out += accessWord(F.Visibility);
    if (F.IsStatic)
      Out += "static ";
    if (F.IsFinal)
      Out += "final ";
    Out += "field " + F.Name + " " + F.TypeDesc + "\n";
  }
  for (const MethodDef &M : Cls.Methods)
    writeMethod(M, Out);
  Out += "}\n";
  return Out;
}

std::string jvolve::writeProgramAsm(const ClassSet &Set) {
  std::string Out;
  for (const auto &[Name, Cls] : Set.classes()) {
    if (isBuiltinClass(Name))
      continue;
    Out += writeClassAsm(*Cls);
    Out += '\n';
  }
  return Out;
}
