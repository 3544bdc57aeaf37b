//===----------------------------------------------------------------------===//
///
/// \file
/// jvolve-upt: the Update Preparation Tool as a command-line program
/// (paper §3.1). Diffs two program versions and prints the update
/// specification: class updates (with the subclass closure), method-body
/// updates, removed methods, indirect (category-(2)) methods, and the
/// Tables 2-4-style change summary.
///
///   jvolve-upt old.mvm new.mvm
///
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "bytecode/Builtins.h"
#include "bytecode/Verifier.h"
#include "dsu/Upt.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace jvolve;

static ClassSet loadProgramFile(const char *Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "jvolve-upt: cannot open '%s'\n", Path);
    std::exit(2);
  }
  std::ostringstream Text;
  Text << In.rdbuf();
  std::vector<AsmError> Errors;
  std::optional<ClassSet> Program = parseProgram(Text.str(), Errors);
  if (!Program) {
    for (const AsmError &E : Errors)
      std::fprintf(stderr, "%s: %s\n", Path, E.str().c_str());
    std::exit(1);
  }
  return *Program;
}

static void printList(const char *Title,
                      const std::vector<std::string> &Names) {
  if (Names.empty())
    return;
  std::printf("%s:\n", Title);
  for (const std::string &N : Names)
    std::printf("  %s\n", N.c_str());
}

static void printRefs(const char *Title, const std::vector<MethodRef> &Refs) {
  if (Refs.empty())
    return;
  std::printf("%s:\n", Title);
  for (const MethodRef &R : Refs)
    std::printf("  %s\n", R.key().c_str());
}

int main(int argc, char **argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: jvolve-upt <old.mvm> <new.mvm>\n");
    return 2;
  }
  ClassSet Old = loadProgramFile(argv[1]);
  ClassSet New = loadProgramFile(argv[2]);

  // The new version must verify or no update can ever be built from it.
  ClassSet Verified = New;
  ensureBuiltins(Verified);
  std::vector<VerifyError> VErrs = Verifier(Verified).verifyAll();
  if (!VErrs.empty()) {
    std::fprintf(stderr, "new version fails verification:\n");
    for (const VerifyError &E : VErrs)
      std::fprintf(stderr, "  %s\n", E.str().c_str());
    return 1;
  }

  UpdateSpec Spec = Upt::computeSpec(Old, New);
  if (Spec.empty()) {
    std::printf("versions are identical; nothing to update\n");
    return 0;
  }

  printList("added classes", Spec.AddedClasses);
  printList("deleted classes", Spec.DeletedClasses);
  printList("class updates (direct)", Spec.DirectClassUpdates);
  printList("class updates (with subclass closure)", Spec.ClassUpdates);
  printRefs("method body updates", Spec.MethodBodyUpdates);
  printRefs("removed methods (restricted)", Spec.RemovedMethods);
  printRefs("indirect methods (category 2, recompiled)",
            Spec.IndirectMethods);

  const UpdateSummary &S = Spec.Summary;
  std::printf("\nsummary: classes +%d -%d ~%d | methods +%d -%d chg %s | "
              "fields +%d -%d\n",
              S.ClassesAdded, S.ClassesDeleted, S.ClassesChanged,
              S.MethodsAdded, S.MethodsDeleted,
              S.methodsChangedCell().c_str(), S.FieldsAdded,
              S.FieldsDeleted);
  std::printf("method-body-only systems (HotSwap/E&C) %s this update\n",
              S.editAndContinueSupported() ? "support" : "do NOT support");
  std::printf("default transformers: %zu object transformer(s), "
              "%zu class transformer(s) generated\n",
              Spec.ClassUpdates.size(), Spec.ClassUpdates.size());
  return 0;
}
