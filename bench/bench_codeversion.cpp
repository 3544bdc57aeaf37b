//===----------------------------------------------------------------------===//
///
/// \file
/// Body-only commit pause: per-method code versioning vs the full
/// safe-point pipeline (ISSUE 10, CoreCLR-rejit framing vs paper §3).
///
/// The paper's pipeline pays a VM-wide safe point plus a whole-heap DSU
/// collection for *every* update — so even a change that touches nothing
/// but method bodies has a pause that scales with live heap (Table 1's
/// GC column). The CodeVersionManager commits the same change as one
/// atomic active-version switch: no safe point, no collection, nothing
/// that looks at the heap at all.
///
/// Workload: the pointer-chasing Cell ring (as in bench_lazy_pause),
/// updated by changing the body of Ring.spin — a strictly body-only
/// bundle. Both commit paths apply the *same* bundle on fresh VMs at
/// three heap sizes with the live ring scaled to the heap, so the
/// safe-point pause grows with the heap while the versioned pause
/// must not.
///
/// Both paths certify, as every update does. That is where the
/// asymmetry lives: the pipeline certifies with a
/// full heap walk (its collection and transformers could have corrupted
/// any object, so the walk scales with the live ring), while the
/// versioned commit certifies only the registry it mutated — it never
/// touched the heap, so there is nothing heap-sized to validate.
///
/// `--check` writes BENCH_codeversion.json and exits 1 unless:
///   1. the versioned pause is below the safe-point pause at every size;
///   2. the versioned pause is ~zero (<= 2 ms median) at every size;
///   3. the versioned pause is heap-size-independent: its spread across
///      the 3 sizes stays within 1 ms while the safe-point pause grows.
///
/// Environment knobs: JVOLVE_CODEVERSION_TRIALS (default 3),
/// JVOLVE_CODEVERSION_CELLS_PER_MB (default 1000).
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "bytecode/Builder.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "support/Stats.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace jvolve;

namespace {

int envInt(const char *Name, int Default) {
  const char *V = std::getenv(Name);
  return V ? std::atoi(V) : Default;
}

/// Cell ring: build(n) links a circular ring so every cell stays live
/// through the update (the safe-point path's DSU collection must copy all
/// of it); spin(n) chases it. \p Updated changes *only* the body of spin
/// (it sums v twice per cell), so the update diff is strictly body-only.
ClassSet ringProgram(bool Updated) {
  ClassSet Set;
  {
    ClassBuilder CB("Cell");
    CB.field("v", "I");
    CB.field("next", "LCell;");
    Set.add(CB.build());
  }
  {
    ClassBuilder CB("Ring");
    CB.staticField("head", "LCell;");
    CB.staticMethod("build", "(I)V")
        .locals(5)
        .newobj("Cell")
        .store(1)
        .load(1)
        .store(4) // first
        .load(1)
        .store(2) // cur = first
        .iconst(1)
        .store(3)
        .label("loop")
        .load(3)
        .load(0)
        .branch(Opcode::IfICmpGe, "done")
        .newobj("Cell")
        .store(1)
        .load(1)
        .load(3)
        .putfield("Cell", "v", "I")
        .load(2)
        .load(1)
        .putfield("Cell", "next", "LCell;")
        .load(1)
        .store(2)
        .load(3)
        .iconst(1)
        .iadd()
        .store(3)
        .jump("loop")
        .label("done")
        .load(2)
        .load(4)
        .putfield("Cell", "next", "LCell;") // close the ring
        .load(2)
        .putstatic("Ring", "head", "LCell;")
        .ret();
    MethodBuilder &Spin = CB.staticMethod("spin", "(I)I")
                              .locals(4)
                              .iconst(0)
                              .store(1)
                              .getstatic("Ring", "head", "LCell;")
                              .store(2)
                              .iconst(0)
                              .store(3)
                              .label("loop")
                              .load(3)
                              .load(0)
                              .branch(Opcode::IfICmpGe, "done")
                              .load(1)
                              .load(2)
                              .getfield("Cell", "v", "I")
                              .iadd()
                              .store(1);
    if (Updated) // the v2 body counts each cell twice
      Spin.load(1)
          .load(2)
          .getfield("Cell", "v", "I")
          .iadd()
          .store(1);
    Spin.load(2)
        .getfield("Cell", "next", "LCell;")
        .store(2)
        .load(3)
        .iconst(1)
        .iadd()
        .store(3)
        .jump("loop")
        .label("done")
        .load(1)
        .iret();
    Set.add(CB.build());
  }
  return Set;
}

std::unique_ptr<VM> makeVm(size_t HeapMb, int NumCells) {
  VM::Config C;
  C.HeapSpaceBytes = HeapMb << 20;
  auto TheVM = std::make_unique<VM>(C);
  TheVM->loadProgram(ringProgram(false));
  TheVM->callStatic("Ring", "build", "(I)V", {Slot::ofInt(NumCells)});
  return TheVM;
}

/// One commit on a fresh VM, at the shipped default posture (post-update
/// certification on): the pipeline's pause includes its mandatory
/// full-heap certification walk, the versioned pause its registry-only
/// check. That is the pause an operator actually observes per update.
double measurePause(size_t HeapMb, int NumCells, bool Versioned) {
  std::unique_ptr<VM> TheVM = makeVm(HeapMb, NumCells);
  int64_t Before =
      TheVM->callStatic("Ring", "spin", "(I)I", {Slot::ofInt(8)}).IntVal;
  UpdateBundle B =
      Upt::prepare(ringProgram(false), ringProgram(true), "spin-v2");
  UpdateOptions Opts;
  Opts.CodeVersioning = Versioned;
  Updater U(*TheVM);
  UpdateResult R = U.applyNow(std::move(B), Opts);
  if (R.Status != UpdateStatus::Applied) {
    std::fprintf(stderr, "codeversion: %s update failed: %s\n",
                 Versioned ? "versioned" : "safe-point", R.Message.c_str());
    std::exit(1);
  }
  if (R.CodeVersioned != Versioned) {
    std::fprintf(stderr,
                 "codeversion: update took the wrong commit path "
                 "(CodeVersioned=%d, expected %d)\n",
                 R.CodeVersioned, Versioned);
    std::exit(1);
  }
  // The versioned commit runs the new spin body on the next invocation —
  // spot-check the switch actually landed (the v2 body sums each cell
  // twice, so the same lap returns exactly double).
  if (Versioned) {
    int64_t After =
        TheVM->callStatic("Ring", "spin", "(I)I", {Slot::ofInt(8)}).IntVal;
    if (After != 2 * Before) {
      std::fprintf(stderr, "codeversion: switched body not observed\n");
      std::exit(1);
    }
  }
  return R.TotalPauseMs;
}

} // namespace

int main(int argc, char **argv) {
  bool Check = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--check") == 0) {
      Check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--check]\n"
                   "  --check  exit 1 unless the versioned commit pause is "
                   "~zero and heap-size-independent\n",
                   argv[0]);
      return 2;
    }
  }

  const int Trials = envInt("JVOLVE_CODEVERSION_TRIALS", 3);
  const int CellsPerMb = envInt("JVOLVE_CODEVERSION_CELLS_PER_MB", 1000);
  const size_t HeapsMb[] = {32, 64, 128};

  std::printf("=== bench_codeversion: body-only commit pause, versioned "
              "vs safe-point ===\n");
  std::printf("(Cell ring scaled to the heap, body-only spin update, "
              "%d trial(s) per point)\n\n",
              Trials);

  std::vector<double> SafeMed, VersMed;
  std::vector<std::vector<double>> SafeRaw, VersRaw;
  for (size_t HeapMb : HeapsMb) {
    int NumCells = static_cast<int>(HeapMb) * CellsPerMb;
    std::vector<double> Safe, Vers;
    for (int T = 0; T < Trials; ++T) {
      Safe.push_back(measurePause(HeapMb, NumCells, /*Versioned=*/false));
      Vers.push_back(measurePause(HeapMb, NumCells, /*Versioned=*/true));
    }
    SafeRaw.push_back(Safe);
    VersRaw.push_back(Vers);
    SafeMed.push_back(percentile(Safe, 50));
    VersMed.push_back(percentile(Vers, 50));
    std::printf("heap %3zu MB (%7d cells): safe-point %8.2f ms, "
                "versioned %6.3f ms\n",
                HeapMb, NumCells, SafeMed.back(), VersMed.back());
  }

  double VersMin = *std::min_element(VersMed.begin(), VersMed.end());
  double VersMax = *std::max_element(VersMed.begin(), VersMed.end());
  double SafeMin = *std::min_element(SafeMed.begin(), SafeMed.end());
  double SafeMax = *std::max_element(SafeMed.begin(), SafeMed.end());
  std::printf("\nsafe-point pause spread across heaps: %8.2f ms\n",
              SafeMax - SafeMin);
  std::printf("versioned  pause spread across heaps: %8.3f ms\n\n",
              VersMax - VersMin);

  bool BelowOk = true;
  for (size_t I = 0; I < VersMed.size(); ++I)
    BelowOk = BelowOk && VersMed[I] < SafeMed[I];
  bool ZeroOk = VersMax <= 2.0;
  // Heap-size independence: the versioned spread is bounded by a constant
  // while the safe-point pause visibly grew over the same sweep.
  bool FlatOk = (VersMax - VersMin) <= 1.0 && SafeMax > SafeMin;

  std::printf("relation 1 (versioned < safe-point at every size):  %s\n",
              BelowOk ? "holds" : "VIOLATED");
  std::printf("relation 2 (versioned pause ~zero, <= 2 ms):        %s\n",
              ZeroOk ? "holds" : "VIOLATED");
  std::printf("relation 3 (versioned flat while safe-point grows): %s\n",
              FlatOk ? "holds" : "VIOLATED");

  if (Check) {
    BenchJson J;
    for (size_t I = 0; I < VersRaw.size(); ++I) {
      std::string Suffix = std::to_string(HeapsMb[I]) + "mb";
      J.histogram("bench.codeversion.pause_safepoint_ms_" + Suffix,
                  SafeRaw[I]);
      J.histogram("bench.codeversion.pause_versioned_ms_" + Suffix,
                  VersRaw[I]);
    }
    J.value("bench.codeversion.versioned_spread_ms", VersMax - VersMin);
    J.value("bench.codeversion.safepoint_spread_ms", SafeMax - SafeMin);
    J.write("BENCH_codeversion.json");
  }
  if (Check && !(BelowOk && ZeroOk && FlatOk)) {
    std::fprintf(stderr, "codeversion: pause relations violated\n");
    return 1;
  }
  return 0;
}
