//===----------------------------------------------------------------------===//
///
/// \file
/// The lazy-update trade-off triangle (ISSUE 5, paper §1/§3.4/§5 framing):
///
///   eager       — big update pause (GC + all transformers), zero
///                 steady-state overhead;
///   lazy        — small commit pause (transformers deferred behind the
///                 read barrier), a *transient* per-access overhead that
///                 decays to exactly zero once the drainer retires the
///                 barrier;
///   indirection — small pause too, but a *permanent* per-access overhead
///                 (JDrums/DVM-style, cf. bench_ablation_indirection).
///
/// Workload: the pointer-chasing Cell ring of the indirection ablation,
/// updated by adding a field to Cell with a copying transformer (the
/// Table-1 shape). The bench measures the eager vs. lazy pause on the
/// same heap, then tracks spin-window times on the lazy VM from the
/// commit through barrier retirement against a no-update baseline and an
/// indirection-mode VM.
///
/// `--check` exits 1 unless all three relations hold:
///   1. lazy commit pause strictly below the eager pause;
///   2. lazy post-retirement windows back to no-update parity;
///   3. indirection overhead flat (no decay) across the same horizon: the
///      median extra time per window in the later half of 60 interleaved
///      (baseline, indirection) pairs keeps at least half of the earlier
///      half's.
///
/// Environment knobs: JVOLVE_LAZYBENCH_TRIALS (default 5),
/// JVOLVE_LAZYBENCH_CELLS (default 120000).
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "bytecode/Builder.h"
#include "dsu/LazyTransform.h"
#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "support/Stats.h"
#include "support/Stopwatch.h"
#include "vm/VM.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

using namespace jvolve;

namespace {

int envInt(const char *Name, int Default) {
  const char *V = std::getenv(Name);
  return V ? std::atoi(V) : Default;
}

/// Cell ring (as in bench_ablation_indirection): spin() chases `next`
/// and sums `v` — two field reads per iteration, the pattern both the
/// read barrier and indirection checks tax the most. \p Updated adds the
/// field the update introduces. An Idler daemon keeps the scheduler busy
/// so the background drainer gets real quanta.
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
    // build(n): a genuinely circular n-cell ring (last.next = first), so
    // every cell stays live through the update and gets a transformer run.
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
    CB.staticMethod("spin", "(I)I")
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
        .load(2)
        .branch(Opcode::IfNonNull, "have")
        .getstatic("Ring", "head", "LCell;")
        .store(2)
        .label("have")
        .load(1)
        .load(2)
        .getfield("Cell", "v", "I")
        .iadd()
        .store(1)
        .load(2)
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
  {
    ClassBuilder I("Idler");
    I.staticMethod("loop", "()V")
        .label("top")
        .iconst(20)
        .intrinsic(IntrinsicId::SleepTicks)
        .jump("top");
    Set.add(I.build());
  }
  return Set;
}

/// \p V2 loads the post-update program directly: reference VMs that never
/// update must still run cells of the post-update size, or layout — not
/// barrier cost — would dominate any comparison.
std::unique_ptr<VM> makeVm(int NumCells, bool Indirection, bool V2 = false) {
  VM::Config C;
  // Every spin window runs baseline-tier code: the indirection pair's
  // ~120 windows would otherwise cross the opt tier's promotion partway
  // through, and the windows on either side of it are not comparable.
  C.OptThreshold = std::numeric_limits<uint64_t>::max();
  // Room for the live ring plus the DSU collection's duplicates and
  // new-version shells.
  C.HeapSpaceBytes = 96u << 20;
  C.IndirectionMode = Indirection;
  auto TheVM = std::make_unique<VM>(C);
  TheVM->loadProgram(ringProgram(V2));
  TheVM->callStatic("Ring", "build", "(I)V", {Slot::ofInt(NumCells)});
  return TheVM;
}

/// The Table-1-shaped update: add a field to Cell, copying transformer.
UpdateBundle ringUpdate(const char *Name) {
  UpdateBundle B = Upt::prepare(ringProgram(false), ringProgram(true), Name);
  B.ObjectTransformers["Cell"] = [](TransformCtx &Ctx, Ref To, Ref From) {
    Ctx.setInt(To, "v", Ctx.getInt(From, "v"));
    Ctx.setRef(To, "next", Ctx.getRef(From, "next"));
    Ctx.setInt(To, "added", 0);
  };
  return B;
}

/// One timed spin window: two full laps of the ring.
double spinWindowMs(VM &TheVM, int NumCells) {
  Stopwatch Timer;
  TheVM.callStatic("Ring", "spin", "(I)I", {Slot::ofInt(2 * NumCells)});
  return Timer.elapsedMs();
}

struct PausePair {
  double EagerMs = 0;
  double LazyMs = 0;
};

/// Fresh VM per trial; the eager pause includes every object transformer,
/// the lazy pause only the DSU collection plus commit bookkeeping.
PausePair measurePauses(int NumCells) {
  // Both pauses are compared without certification's share (a full
  // post-update heap walk, our own verification add-on): Table 1 measures
  // the GC and transformer phases, and certification's cost would drown
  // the difference in both modes.
  PausePair P;
  {
    std::unique_ptr<VM> TheVM = makeVm(NumCells, false);
    Updater U(*TheVM);
    UpdateResult R = U.applyNow(ringUpdate("eager"));
    if (R.Status != UpdateStatus::Applied) {
      std::fprintf(stderr, "lazy_pause: eager update failed: %s\n",
                   R.Message.c_str());
      std::exit(1);
    }
    P.EagerMs = R.TotalPauseMs - R.CertifyMs;
  }
  {
    std::unique_ptr<VM> TheVM = makeVm(NumCells, false);
    TheVM->spawnThread("Idler", "loop", "()V", {}, "idler", /*Daemon=*/true);
    TheVM->run(100);
    Updater U(*TheVM);
    UpdateOptions Opts;
    Opts.LazyTransform = true;
    U.schedule(ringUpdate("lazy"), Opts);
    for (int I = 0; I < 100'000 && U.pending(); ++I)
      TheVM->run(25);
    UpdateResult R = U.result();
    if (R.Status != UpdateStatus::Applied || !R.LazyInstalled) {
      std::fprintf(stderr, "lazy_pause: lazy update failed: %s\n",
                   R.Message.c_str());
      std::exit(1);
    }
    P.LazyMs = R.TotalPauseMs - R.CertifyMs;
  }
  return P;
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
                   "  --check  exit 1 unless the eager/lazy/indirection "
                   "trade-off relations hold\n",
                   argv[0]);
      return 2;
    }
  }

  const int Trials = envInt("JVOLVE_LAZYBENCH_TRIALS", 5);
  const int NumCells = envInt("JVOLVE_LAZYBENCH_CELLS", 120'000);
  const int Windows = 5;
  // Interleaved (baseline, indirection) window pairs per half of the
  // indirection horizon. The overhead they measure is a few percent of a
  // window, so a median over 5 pairs moved by more than the relation's 0.5
  // factor on a shared host (early +14.1% against late +0.8% on an
  // unchanged tree); 25 pairs still failed 1 run in 6.
  const int IndPairs = 60;

  std::printf("=== bench_lazy_pause: eager vs lazy vs indirection ===\n");
  std::printf("(ring of %d Cells, +1 field update with copying "
              "transformer, %d trial(s))\n\n",
              NumCells, Trials);

  // --- Pause comparison (medians over fresh-VM trials). -------------------
  std::vector<double> Eager, Lazy;
  for (int T = 0; T < Trials; ++T) {
    PausePair P = measurePauses(NumCells);
    Eager.push_back(P.EagerMs);
    Lazy.push_back(P.LazyMs);
  }
  double EagerMs = percentile(Eager, 50);
  double LazyMs = percentile(Lazy, 50);
  std::printf("update pause, eager (GC + %d transformers): %8.2f ms\n",
              NumCells, EagerMs);
  std::printf("update pause, lazy  (GC + commit only):     %8.2f ms\n",
              LazyMs);
  std::printf("pause reduction: %.1f%%\n\n",
              100.0 * (EagerMs - LazyMs) / std::max(EagerMs, 1e-9));

  // --- Steady-state windows. Baseline, lazy, and indirection VMs are
  // timed in interleaved rounds so frequency scaling and cache drift hit
  // all three equally. The baseline and indirection VMs run the v2
  // program natively: after its update the lazy VM's cells carry the
  // added field too, so any gate compares equal object layouts.
  // Lazy-vs-baseline pair: both carry the idler daemon — the lazy VM needs
  // it so the drainer is scheduled, the baseline so both pay the same
  // scheduler overhead inside timed windows.
  std::unique_ptr<VM> Base = makeVm(NumCells, false, /*V2=*/true);
  std::unique_ptr<VM> LazyVm = makeVm(NumCells, false);
  for (VM *TheVM : {Base.get(), LazyVm.get()}) {
    TheVM->spawnThread("Idler", "loop", "()V", {}, "idler", /*Daemon=*/true);
    TheVM->run(100);
  }
  for (int I = 0; I < 2; ++I) { // warm-up
    spinWindowMs(*Base, NumCells);
    spinWindowMs(*LazyVm, NumCells);
  }
  std::vector<double> BaseEarly;
  for (int I = 0; I < Windows; ++I)
    BaseEarly.push_back(spinWindowMs(*Base, NumCells));

  // Lazy update commits; window 0 pays the transient cost (on-demand
  // transforms plus barrier checks on every access).
  Updater U(*LazyVm);
  UpdateOptions Opts;
  Opts.LazyTransform = true;
  U.schedule(ringUpdate("decay"), Opts);
  for (int I = 0; I < 100'000 && U.pending(); ++I)
    LazyVm->run(25);
  double TransientMs = spinWindowMs(*LazyVm, NumCells);
  auto *Engine = static_cast<LazyTransformEngine *>(LazyVm->lazyEngine());
  for (int I = 0; Engine && I < 10'000 && !Engine->retired(); ++I)
    LazyVm->run(200);
  bool Retired = Engine && Engine->retired();
  // Steady state includes the next regular collection: it reclaims the
  // update's old-version duplicates, restoring the compact ring layout
  // the no-update baseline enjoys.
  LazyVm->collectGarbage();

  // Post-retirement: baseline and lazy interleaved.
  std::vector<double> BaseLate, LazyPost;
  for (int I = 0; I < Windows; ++I) {
    BaseLate.push_back(spinWindowMs(*Base, NumCells));
    LazyPost.push_back(spinWindowMs(*LazyVm, NumCells));
  }

  // Indirection-vs-baseline pair: no update and no drainer, so no idler —
  // its scheduler overhead would drown the per-access check this pair
  // exists to isolate (cf. bench_ablation_indirection). Early/late rounds
  // span at least the horizon the lazy barrier needed to vanish.
  std::unique_ptr<VM> BaseNi = makeVm(NumCells, false, /*V2=*/true);
  std::unique_ptr<VM> Ind = makeVm(NumCells, true, /*V2=*/true);
  for (int I = 0; I < 2; ++I) { // warm-up
    spinWindowMs(*BaseNi, NumCells);
    spinWindowMs(*Ind, NumCells);
  }
  // Each pair alternates which VM runs first, so neither always runs on
  // caches the other just warmed.
  std::vector<double> IndDeltaMs, IndBaseMs;
  for (int I = 0; I < 2 * IndPairs; ++I) {
    double B, N;
    if (I % 2) {
      N = spinWindowMs(*Ind, NumCells);
      B = spinWindowMs(*BaseNi, NumCells);
    } else {
      B = spinWindowMs(*BaseNi, NumCells);
      N = spinWindowMs(*Ind, NumCells);
    }
    IndDeltaMs.push_back(N - B);
    IndBaseMs.push_back(B);
  }
  std::vector<double> IndFirst(IndDeltaMs.begin(),
                               IndDeltaMs.begin() + IndPairs);
  std::vector<double> IndSecond(IndDeltaMs.begin() + IndPairs,
                                IndDeltaMs.end());
  // Each half's overhead is its median extra time per window over the
  // median baseline window of the whole horizon. A host that gets busier
  // partway through stretches both windows of a pair alike, which shrinks a
  // per-pair ratio (a decay the indirection itself never had) but not the
  // extra time the checks cost.
  double IndBase = percentile(IndBaseMs, 50);

  double BaseEarlyMs = percentile(BaseEarly, 50);
  double BaseLateMs = percentile(BaseLate, 50);
  double IndEarlyPct = 100.0 * percentile(IndFirst, 50) / IndBase;
  double IndLatePct = 100.0 * percentile(IndSecond, 50) / IndBase;
  double LazyPostMs = percentile(LazyPost, 50);

  std::printf("spin window (2 laps), no update:        %8.2f ms\n",
              BaseLateMs);
  std::printf("spin window, lazy, first after commit:  %8.2f ms  "
              "(%+.1f%% transient)\n",
              TransientMs,
              100.0 * (TransientMs - BaseEarlyMs) / BaseEarlyMs);
  std::printf("spin window, lazy, barrier retired:     %8.2f ms  "
              "(%+.1f%% residual)\n",
              LazyPostMs, 100.0 * (LazyPostMs - BaseLateMs) / BaseLateMs);
  std::printf("spin window, indirection, early:        %+8.1f%% over "
              "baseline\n",
              IndEarlyPct);
  std::printf("spin window, indirection, late:         %+8.1f%% over "
              "baseline\n\n",
              IndLatePct);

  // --- The three relations of the triangle. -------------------------------
  bool PauseOk = LazyMs < EagerMs;
  // Parity within noise once the barrier is gone: retirement re-quickens
  // every method, so the residual is measurement jitter, not a tax.
  bool DecayOk = Retired && LazyPostMs <= BaseLateMs * 1.25;
  // Indirection must not decay: it pays an overhead early and keeps paying
  // at least half of it over the horizon the lazy barrier needed to vanish.
  bool FlatOk = IndEarlyPct > 0 && IndLatePct >= 0.5 * IndEarlyPct;

  std::printf("relation 1 (lazy pause < eager pause):            %s\n",
              PauseOk ? "holds" : "VIOLATED");
  std::printf("relation 2 (lazy overhead decays to parity):      %s\n",
              DecayOk ? "holds" : "VIOLATED");
  std::printf("relation 3 (indirection overhead stays flat):     %s\n",
              FlatOk ? "holds" : "VIOLATED");

  if (Check) {
    // Gated runs leave their numbers behind in the metrics-snapshot
    // format, so scripts can diff two tier1 runs (or archive the trend)
    // with metrics-diff.py like any pair of VM dumps.
    BenchJson J;
    J.histogram("bench.lazy.pause_eager_ms", Eager);
    J.histogram("bench.lazy.pause_lazy_ms", Lazy);
    J.histogram("bench.lazy.spin_base_ms", BaseLate);
    J.histogram("bench.lazy.spin_post_retire_ms", LazyPost);
    J.value("bench.lazy.barrier_retired", Retired ? 1 : 0);
    J.write("BENCH_lazy_pause.json");
  }
  if (Check && !(PauseOk && DecayOk && FlatOk)) {
    std::fprintf(stderr, "lazy_pause: trade-off triangle violated\n");
    return 1;
  }
  return 0;
}
