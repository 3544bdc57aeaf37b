//===----------------------------------------------------------------------===//
///
/// \file
/// Canary revert-path pause (ISSUE 6): how much does taking an update
/// *back* cost, compared to putting it in?
///
/// A revert is a forward update run in reverse — same safe-point hunt,
/// same DSU collection, same transformer walk over the same live heap —
/// so its pause should be the same order as the forward eager pause, plus
/// the undo-log restores. This bench pins that relation: the Table-1
/// shaped ring update (add a field to Cell, copying transformer) is
/// applied with a canary window armed, then reverted through
/// Updater::revert, on a fresh VM per trial.
///
/// Emits three BENCH_*.json files in the metrics snapshot format that
/// scripts/metrics-diff.py consumes:
///   BENCH_canary_forward.json — bench.canary.pause_ms over forward trials
///   BENCH_canary_revert.json  — bench.canary.pause_ms over revert trials
///   BENCH_canary.json         — both histograms under distinct names,
///                               plus reverts-completed / residual counts
/// so tier1 can gate `bench.canary.pause_ms` between the forward and
/// revert dumps with a --max-delta budget.
///
/// `--check` exits 1 unless every trial reverts to convergence: status
/// Reverted, zero residual new-version objects, and a median revert pause
/// within 3x the median forward pause.
///
/// Environment knobs: JVOLVE_CANARYBENCH_TRIALS (default 5),
/// JVOLVE_CANARYBENCH_CELLS (default 60000).
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "bytecode/Builder.h"
#include "dsu/Canary.h"
#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "support/Stats.h"
#include "vm/VM.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

using namespace jvolve;

namespace {

int envInt(const char *Name, int Default) {
  const char *V = std::getenv(Name);
  return V ? std::atoi(V) : Default;
}

/// The Cell ring of bench_lazy_pause, minus the idler: the canary's own
/// watchdog keeps virtual time moving, and both the forward and reverse
/// updates here are eager.
ClassSet ringProgram(bool Updated) {
  ClassSet Set;
  {
    ClassBuilder CB("Cell");
    CB.field("v", "I");
    CB.field("next", "LCell;");
    if (Updated)
      CB.field("added", "I");
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
    Set.add(CB.build());
  }
  return Set;
}

std::unique_ptr<VM> makeVm(int NumCells) {
  VM::Config C;
  // Room for the ring plus two DSU collections' worth of duplicates.
  C.HeapSpaceBytes = 96u << 20;
  auto TheVM = std::make_unique<VM>(C);
  TheVM->loadProgram(ringProgram(false));
  TheVM->callStatic("Ring", "build", "(I)V", {Slot::ofInt(NumCells)});
  return TheVM;
}

UpdateBundle ringUpdate(const char *Name) {
  UpdateBundle B = Upt::prepare(ringProgram(false), ringProgram(true), Name);
  B.ObjectTransformers["Cell"] = [](TransformCtx &Ctx, Ref To, Ref From) {
    Ctx.setInt(To, "v", Ctx.getInt(From, "v"));
    Ctx.setRef(To, "next", Ctx.getRef(From, "next"));
    Ctx.setInt(To, "added", 0);
  };
  return B;
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
                   "  --check  exit 1 unless every trial reverts to "
                   "convergence within the pause budget\n",
                   argv[0]);
      return 2;
    }
  }

  const int Trials = envInt("JVOLVE_CANARYBENCH_TRIALS", 5);
  const int NumCells = envInt("JVOLVE_CANARYBENCH_CELLS", 60'000);

  std::printf("=== bench_canary: forward vs revert pause ===\n");
  std::printf("(ring of %d Cells, +1 field update with copying transformer, "
              "canary window + explicit revert, %d trial(s))\n\n",
              NumCells, Trials);

  std::vector<double> Fwd, Rev;
  int Reverted = 0;
  unsigned long long ResidualTotal = 0;
  for (int T = 0; T < Trials; ++T) {
    std::unique_ptr<VM> TheVM = makeVm(NumCells);
    Updater U(*TheVM);
    UpdateOptions Opts;
    // A window long enough to still be open when the revert is requested,
    // checked rarely (nothing here traps; the trigger is explicit).
    Opts.CanaryWindow.WindowTicks = 100'000'000;
    Opts.CanaryWindow.CheckIntervalTicks = 1'000'000;
    UpdateResult R = U.applyNow(ringUpdate("cb"), Opts);
    if (R.Status != UpdateStatus::Applied || !R.CanaryArmed) {
      std::fprintf(stderr, "canary: forward update failed: %s\n",
                   R.Message.c_str());
      return 1;
    }
    // As in bench_lazy_pause: certification's full heap walk would drown
    // the phases under comparison, on both directions equally, so both
    // pauses are compared without its share.
    Fwd.push_back(R.TotalPauseMs - R.CertifyMs);

    UpdateResult RR = U.revert("bench revert");
    Rev.push_back(RR.TotalPauseMs - RR.CertifyMs);
    auto *Ctl = static_cast<CanaryController *>(TheVM->canary());
    if (RR.Status == UpdateStatus::Reverted) {
      ++Reverted;
      ResidualTotal += Ctl->report().ResidualNewObjects;
    } else {
      std::fprintf(stderr, "canary: trial %d did not revert: %s\n", T,
                   RR.Message.c_str());
    }
  }

  double FwdMs = percentile(Fwd, 50);
  double RevMs = percentile(Rev, 50);
  std::printf("forward pause (GC + %d transformers):   %8.2f ms\n", NumCells,
              FwdMs);
  std::printf("revert pause  (GC + reverse + restore): %8.2f ms  (%.2fx)\n",
              RevMs, RevMs / std::max(FwdMs, 1e-9));
  std::printf("reverts completed: %d/%d, residual new-version objects: "
              "%llu\n\n",
              Reverted, Trials, ResidualTotal);

  BenchJson Forward, Revert, Combined;
  Forward.histogram("bench.canary.pause_ms", Fwd);
  Revert.histogram("bench.canary.pause_ms", Rev);
  Combined.histogram("bench.canary.forward_pause_ms", Fwd);
  Combined.histogram("bench.canary.revert_pause_ms", Rev);
  Combined.value("bench.canary.reverts_completed", Reverted);
  Combined.value("bench.canary.residual_new_objects",
                 static_cast<long long>(ResidualTotal));
  if (!Forward.write("BENCH_canary_forward.json") ||
      !Revert.write("BENCH_canary_revert.json") ||
      !Combined.write("BENCH_canary.json"))
    return 2;

  bool ConvergeOk = Reverted == Trials && ResidualTotal == 0;
  bool PauseOk = RevMs > 0 && RevMs <= 3.0 * FwdMs;
  std::printf("relation 1 (every trial reverts, zero residual): %s\n",
              ConvergeOk ? "holds" : "VIOLATED");
  std::printf("relation 2 (revert pause within 3x forward):     %s\n",
              PauseOk ? "holds" : "VIOLATED");
  if (Check && !(ConvergeOk && PauseOk)) {
    std::fprintf(stderr, "canary: revert-path relations violated\n");
    return 1;
  }
  return 0;
}
