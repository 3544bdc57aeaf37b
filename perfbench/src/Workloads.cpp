//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's three workloads. Each times calls into the library's
/// public interface from outside, checks the program's outputs, and, in a
/// traced run, records a span around every call plus a few extra direct
/// layer calls made outside the timed intervals.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/CrossFtpApp.h"
#include "apps/EmailApp.h"
#include "apps/JettyApp.h"
#include "apps/Workload.h"
#include "bytecode/Builder.h"
#include "bytecode/Builtins.h"
#include "bytecode/Verifier.h"
#include "dsu/Transformers.h"
#include "dsu/Upt.h"
#include "heap/HeapVerifier.h"
#include "runtime/ObjectModel.h"
#include "support/Rng.h"
#include "vm/VM.h"

#include <algorithm>
#include <cmath>
#include <memory>

using namespace perfbench;
using namespace jvolve;

namespace {

/// Full set-ups per run; setup_s reports their median. Each set-up runs on
/// the next core.
constexpr int SetupRepeats = 25;

/// How long a serving run stays on one core before it moves to the next:
/// long enough that the few updates after a move, which find the caches
/// cold, stay out of the tail.
constexpr double CorePeriodS = 1.0;

Clock::time_point deadlineAfter(double Seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(Seconds));
}

/// Objects in the current semi-space (live ones and not-yet-reclaimed old
/// copies alike): what certification walks.
uint64_t heapObjects(VM &V) {
  Heap &H = V.heap();
  ClassRegistry &Reg = V.registry();
  uint64_t N = 0;
  for (size_t Scan = 0; Scan < H.bytesAllocated(); ++N) {
    Ref Obj = H.currentSpaceStart() + Scan;
    Scan += (objectBytes(Reg.cls(classOf(Obj)), Obj) + 7) & ~size_t(7);
  }
  return N;
}

/// Updater::applyNow under a stopwatch (and a span in traced runs).
TimedUpdate applyTimed(Tracer &T, VM &V, UpdateBundle B,
                       const UpdateOptions &Opts, uint64_t MaxDriveTicks,
                       int64_t UpdateId) {
  TimedUpdate TU;
  Updater U(V);
  uint64_t Tick0 = V.scheduler().ticks();
  int Id = T.begin("dsu.apply", UpdateId);
  Clock::time_point T0 = Clock::now();
  TU.Result = U.applyNow(std::move(B), Opts, MaxDriveTicks);
  TU.ApplyMs = msSince(T0);
  T.end(Id);
  TU.Ticks = V.scheduler().ticks() - Tick0;
  attachUpdate(T, Id, TU);
  if (T.enabled())
    T.attr(Id, "heap_objects", static_cast<double>(heapObjects(V)));
  return TU;
}

/// An update the workload expects to apply: records it, and fails the run
/// when it did not. \returns true when it applied.
bool recordExpectApplied(Results &R, const std::string &Label,
                         const TimedUpdate &U) {
  ++R.Attempted;
  ++R.UpdatesAttempted;
  if (R.record(Label, U)) {
    ++R.UpdatesApplied;
    return true;
  }
  R.fail(Label + ": " + updateStatusName(U.Result.Status) + ": " +
         U.Result.Message);
  return false;
}

UpdateBundle prepareTimed(Tracer &T, const ClassSet &Old, const ClassSet &New,
                          const std::string &Tag, int64_t UpdateId) {
  Scoped S(T, "dsu.upt_prepare", UpdateId);
  return Upt::prepare(Old, New, Tag);
}

void loadTimed(Tracer &T, VM &V, const ClassSet &Program) {
  Scoped S(T, "vm.load_program");
  V.loadProgram(Program);
}

/// Traced runs only: direct calls into the layers an update's pause
/// bundles together, made outside every timed interval — the verifier
/// over the new version, the heap verifier, and (when \p Collect) one
/// ordinary collection. Only a heap whose garbage no later timed call
/// walks may be collected here, or tracing would change what it measures.
void probeLayers(Tracer &T, Results &R, VM &V, const ClassSet &Target,
                 int64_t UpdateId, bool Collect) {
  if (!T.enabled())
    return;
  ClassSet Program = Target;
  ensureBuiltins(Program);
  {
    Scoped S(T, "bytecode.verify", UpdateId);
    if (!Verifier(Program).verifyAll().empty())
      R.fail("target version fails verification");
  }
  {
    uint64_t Objects = heapObjects(V);
    Scoped S(T, "heap.verify", UpdateId);
    S.attr("objects", static_cast<double>(Objects));
    std::vector<std::string> Problems =
        HeapVerifier(V.heap(), V.registry())
            .verify([&V](const std::function<void(Ref &)> &Visit) {
              V.visitRoots(Visit);
            });
    if (!Problems.empty())
      R.fail("heap verifier: " + Problems.front());
  }
  if (Collect) {
    Scoped S(T, "heap.collect", UpdateId);
    CollectionStats C = V.collectGarbage();
    S.attr("objects", static_cast<double>(C.ObjectsCopied));
  }
}

//===----------------------------------------------------------------------===//
// table1_heap: the paper's §4.1 microbenchmark
//===----------------------------------------------------------------------===//

/// The smallest Table 1 row.
constexpr size_t Table1Objects = 280'000;

/// Change and NoChange with 3 int + 3 ref fields; \p Updated adds the int
/// field `added` to Change.
ClassSet microProgram(bool Updated) {
  ClassSet Set;
  for (const char *Name : {"Change", "NoChange"}) {
    ClassBuilder CB(Name);
    CB.field("i0", "I").field("i1", "I").field("i2", "I");
    CB.field("r0", "LObject;").field("r1", "LObject;").field("r2",
                                                             "LObject;");
    if (Updated && std::string(Name) == "Change")
      CB.field("added", "I");
    Set.add(CB.build());
  }
  ClassBuilder H("Holder");
  H.staticField("arr", "[LObject;");
  Set.add(H.build());
  return Set;
}

/// The paper's handwritten transformer shape (Table 1): copy every old
/// field by name and, going to v2, zero the added one.
void copyMicroFields(TransformCtx &Ctx, Ref To, Ref From) {
  for (const char *F : {"i0", "i1", "i2"})
    Ctx.setInt(To, F, Ctx.getInt(From, F));
  for (const char *F : {"r0", "r1", "r2"})
    Ctx.setRef(To, F, Ctx.getRef(From, F));
}

/// A populated table1 heap and the values every object must keep.
struct Table1Heap {
  std::unique_ptr<VM> V;
  std::vector<uint8_t> IsChange; ///< per array index
  std::vector<int64_t> I1;       ///< expected i1 (i0 is the index)
  std::vector<uint32_t> Target;  ///< r0 points at the object at this index
};

/// Offsets of the fields the population and the oracle touch, resolved
/// once per class (0 when the class lacks the field).
struct MicroOffsets {
  uint32_t I0, I1, R0, Added;
  explicit MicroOffsets(const RtClass &C)
      : I0(offsetOf(C, "i0")), I1(offsetOf(C, "i1")), R0(offsetOf(C, "r0")),
        Added(offsetOf(C, "added")) {}

  static uint32_t offsetOf(const RtClass &C, const char *Name) {
    const RtField *F = C.findInstanceField(Name);
    return F ? F->Offset : 0;
  }
};

Table1Heap buildTable1(uint64_t Seed, Tracer &T) {
  const size_t N = Table1Objects;
  Table1Heap H;
  Rng Rand(Seed * 0x9E3779B97F4A7C15ULL + 11);
  // Exactly half the objects are Change instances, in shuffled order.
  H.IsChange.assign(N, 0);
  std::fill(H.IsChange.begin(), H.IsChange.begin() + N / 2, 1);
  for (size_t I = N - 1; I > 0; --I)
    std::swap(H.IsChange[I], H.IsChange[Rand.nextBelow(I + 1)]);
  H.I1.resize(N);
  H.Target.resize(N);
  for (size_t I = 0; I < N; ++I) {
    H.I1[I] = static_cast<int64_t>(Rand.nextBelow(1'000'000'007));
    H.Target[I] = static_cast<uint32_t>(Rand.nextBelow(N));
  }

  // Semi-spaces sized like bench_table1_pause: room for the live heap
  // plus an old duplicate and a new version of every Change object.
  VM::Config Cfg;
  Cfg.HeapSpaceBytes = (N * 88 + (1u << 20)) * 5 / 2;
  H.V = std::make_unique<VM>(Cfg);
  VM &V = *H.V;
  loadTimed(T, V, microProgram(false));

  Scoped S(T, "heap.populate");
  S.attr("objects", static_cast<double>(N));
  ClassRegistry &Reg = V.registry();
  ClassId Ids[2] = {Reg.idOf("NoChange"), Reg.idOf("Change")};
  const MicroOffsets Offsets[2] = {MicroOffsets(Reg.cls(Ids[0])),
                                   MicroOffsets(Reg.cls(Ids[1]))};
  RtClass &Holder = Reg.cls(Reg.idOf("Holder"));
  Holder.Statics[0] = Slot::ofRef(V.allocateArray(
      Reg.arrayClassOf(Type::refTy("Object")), static_cast<int64_t>(N)));
  for (size_t I = 0; I < N; ++I) {
    Ref Obj = V.allocateObject(Ids[H.IsChange[I]]);
    setIntAt(Obj, Offsets[H.IsChange[I]].I0, static_cast<int64_t>(I));
    setIntAt(Obj, Offsets[H.IsChange[I]].I1, H.I1[I]);
    // Re-read the root: allocation may have collected.
    setRefAt(Holder.Statics[0].RefVal,
             arrayElemOffset(static_cast<int64_t>(I)), Obj);
  }
  Ref Arr = Holder.Statics[0].RefVal;
  for (size_t I = 0; I < N; ++I)
    setRefAt(getRefAt(Arr, arrayElemOffset(static_cast<int64_t>(I))),
             Offsets[H.IsChange[I]].R0,
             getRefAt(Arr, arrayElemOffset(H.Target[I])));
  return H;
}

/// Oracle: every object keeps its class, i0, i1 and r0 (and a v2 Change
/// carries added == 0).
void checkTable1(Table1Heap &H, bool V2, const std::string &Label,
                 Results &R) {
  ClassRegistry &Reg = H.V->registry();
  Ref Arr = Reg.cls(Reg.idOf("Holder")).Statics[0].RefVal;
  ClassId Ids[2] = {Reg.idOf("NoChange"), Reg.idOf("Change")};
  const MicroOffsets Offsets[2] = {MicroOffsets(Reg.cls(Ids[0])),
                                   MicroOffsets(Reg.cls(Ids[1]))};
  if ((Offsets[1].Added != 0) != V2) {
    R.fail(Label + ": Change has the wrong shape");
    return;
  }
  size_t Bad = 0;
  for (size_t I = 0; I < H.IsChange.size(); ++I) {
    Ref Obj = getRefAt(Arr, arrayElemOffset(static_cast<int64_t>(I)));
    const MicroOffsets &F = Offsets[H.IsChange[I]];
    if (!Obj || classOf(Obj) != Ids[H.IsChange[I]]) {
      ++Bad;
      continue;
    }
    if (getIntAt(Obj, F.I0) != static_cast<int64_t>(I) ||
        getIntAt(Obj, F.I1) != H.I1[I] ||
        getRefAt(Obj, F.R0) != getRefAt(Arr, arrayElemOffset(H.Target[I])) ||
        (F.Added && getIntAt(Obj, F.Added) != 0))
      ++Bad;
  }
  if (Bad)
    R.fail(Label + ": " + std::to_string(Bad) +
           " object(s) lost their field values");
}

//===----------------------------------------------------------------------===//
// jetty_serve: the Fig. 5 twin in wall-clock time
//===----------------------------------------------------------------------===//

constexpr size_t V515 = 5; // makeJettyApp: version 5 is 5.1.5
constexpr size_t V516 = 6;

/// Open-loop arrivals: one connection of RequestsPerConnection requests
/// every ConnectionGap ticks plus 0..GapJitter ticks, in virtual time —
/// about 25 requests per 1000 ticks, below the model's capacity of ~28.
constexpr uint64_t ConnectionGap = 200;
constexpr uint64_t GapJitter = 10;
constexpr int RequestsPerConnection = 5;
constexpr uint64_t RequestInterArrival = 30; // LoadDriver's default

/// Serving is timed in windows; an update follows every WindowsPerUpdate
/// windows, and the first window after it is the post-update window.
constexpr uint64_t WindowTicks = 100'000;
constexpr int WindowsPerUpdate = 4;
/// Discarded warm-up of every freshly booted server.
constexpr uint64_t WarmupTicks = 500'000;
/// A server is replaced by a freshly booted one after this many updates.
/// The network keeps every closed connection and the registry every
/// obsolete class version, so one server serving a whole run would grow by
/// megabytes per update and slow down as it grows; bounded server
/// lifetimes keep every update and window measuring the same system.
constexpr int UpdatesPerServer = 10;

/// The open-loop generator. LoadDriver keeps only latency quartiles and
/// cannot report arrivals it skipped, so the benchmark drives the same
/// loop itself: inject what is due, run the VM to the next arrival,
/// collect every latency.
class OpenLoop {
public:
  OpenLoop(VM &V, uint64_t Seed)
      : V(V), Jitter(Seed * 0xD1B54A32D192ED03ULL + 7),
        NextArrival(V.scheduler().ticks()) {}

  /// Serves for \p Ticks virtual ticks. \returns responses sent.
  uint64_t serve(uint64_t Ticks, std::map<int64_t, uint64_t> *Latency) {
    uint64_t Before = V.net().totalResponses();
    uint64_t End = V.scheduler().ticks() + Ticks;
    while (V.scheduler().ticks() < End) {
      while (NextArrival <= V.scheduler().ticks()) {
        std::vector<int64_t> Values(RequestsPerConnection);
        for (int64_t &Val : Values)
          Val = NextValue++;
        V.injectConnection(JettyPort, Values, RequestInterArrival);
        Requests += RequestsPerConnection;
        NextArrival += gap();
      }
      uint64_t Until = std::min(NextArrival, End);
      V.run(Until - V.scheduler().ticks());
      V.fastForwardTo(Until);
      for (double L : V.net().drainLatencies())
        if (Latency)
          ++(*Latency)[std::llround(L)];
      V.net().drainResponses();
    }
    return V.net().totalResponses() - Before;
  }

  /// The schedule was suspended while something else drove the VM (an
  /// update): drop the arrivals that fell due meanwhile.
  void resume() {
    while (NextArrival < V.scheduler().ticks())
      NextArrival += gap();
  }

  uint64_t requests() const { return Requests; }

private:
  uint64_t gap() { return ConnectionGap + Jitter.nextBelow(GapJitter + 1); }

  VM &V;
  Rng Jitter;
  uint64_t NextArrival;
  int64_t NextValue = 1;
  uint64_t Requests = 0;
};

struct JettyServer {
  std::unique_ptr<VM> V;
  std::unique_ptr<OpenLoop> Loop;
};

/// Boots Jetty 5.1.5 and serves the discarded warm-up.
JettyServer bootJetty(const AppModel &App, uint64_t Seed, Tracer &T) {
  Scoped Boot(T, "vm.boot");
  JettyServer S;
  VM::Config Cfg;
  // Small enough that ordinary collections of the per-request garbage run
  // while serving: every update's DSU collection empties the heap, and an
  // update interval allocates under 1 MB.
  Cfg.HeapSpaceBytes = 512u << 10;
  S.V = std::make_unique<VM>(Cfg);
  loadTimed(T, *S.V, App.version(V515));
  startJettyThreads(*S.V);
  S.Loop = std::make_unique<OpenLoop>(*S.V, Seed);
  Scoped W(T, "vm.warmup");
  S.Loop->serve(WarmupTicks, nullptr);
  return S;
}

/// Oracle at the end of a server's life: after an idle drain, every
/// request injected has been answered.
void retireJetty(JettyServer &S, Results &R, Tracer &T) {
  Scoped Retire(T, "bench.retire");
  VM &V = *S.V;
  for (int I = 0; I < 1000 && V.net().totalResponses() < S.Loop->requests();
       ++I) {
    VM::RunResult RR = V.run(100'000);
    V.net().drainLatencies();
    V.net().drainResponses();
    if (RR.Idle)
      break;
  }
  R.Attempted += S.Loop->requests();
  if (V.net().totalResponses() != S.Loop->requests())
    R.fail(std::to_string(S.Loop->requests()) + " requests but " +
           std::to_string(V.net().totalResponses()) + " responses");
  S = JettyServer();
}

//===----------------------------------------------------------------------===//
// release_stream: Tables 2-4
//===----------------------------------------------------------------------===//

/// Evaluation defaults (apps/Evaluation.cpp): a bounded safe-point search
/// so the two impossible updates fail quickly.
constexpr uint64_t ReleaseTimeoutTicks = 120'000;

/// Boots \p App's version \p V under its app's load (or idle). Mirrors
/// evaluateRelease's boot, which the benchmark cannot call directly
/// because it hides the load, prepare and applyNow calls it must time.
std::unique_ptr<VM> bootRelease(const AppModel &App, size_t V, bool Idle,
                                Tracer &T) {
  Scoped Boot(T, "vm.boot");
  VM::Config Cfg;
  Cfg.HeapSpaceBytes = 16u << 20;
  auto TheVM = std::make_unique<VM>(Cfg);
  loadTimed(T, *TheVM, App.version(V));

  uint64_t Instr0 = TheVM->stats().InstructionsExecuted;
  uint64_t Resp0 = TheVM->net().totalResponses();
  double Gc0 = TheVM->stats().TotalGcMs;
  int Serve = T.begin("vm.serve");
  if (App.name() == "jetty") {
    startJettyThreads(*TheVM);
    if (!Idle) {
      LoadDriver::Options LO;
      LO.Port = JettyPort;
      LoadDriver(*TheVM, LO).runWithLoad(5'000);
    }
  } else if (App.name() == "javaemailserver") {
    startEmailThreads(*TheVM);
    if (!Idle) {
      TheVM->injectConnection(Pop3Port, {1, 2, 3, 4, 5},
                              /*InterArrival=*/200);
      TheVM->run(2'000);
    }
  } else {
    startCrossFtpThreads(*TheVM);
    if (!Idle) {
      // Long FTP sessions with think time keep handle() on stack.
      std::vector<int64_t> Session(500, 1);
      TheVM->injectConnection(FtpPort, Session, /*InterArrival=*/250);
      TheVM->injectConnection(FtpPort, Session, /*InterArrival=*/250);
      TheVM->run(2'000);
    }
  }
  if (Idle)
    TheVM->run(2'000);
  T.end(Serve);
  T.attr(Serve, "instructions",
         static_cast<double>(TheVM->stats().InstructionsExecuted - Instr0));
  T.attr(Serve, "responses",
         static_cast<double>(TheVM->net().totalResponses() - Resp0));
  T.attr(Serve, "gc_ms", TheVM->stats().TotalGcMs - Gc0);
  return TheVM;
}

TimedUpdate applyRelease(Tracer &T, VM &V, const AppModel &App, size_t Ver,
                         int64_t UpdateId) {
  UpdateBundle B = prepareTimed(T, App.version(Ver - 1), App.version(Ver),
                                "v" + std::to_string(Ver - 1), UpdateId);
  if (App.name() == "javaemailserver")
    registerEmailTransformers(B, App, Ver);
  UpdateOptions Opts;
  Opts.TimeoutTicks = ReleaseTimeoutTicks;
  return applyTimed(T, V, std::move(B), Opts, ReleaseTimeoutTicks * 4,
                    UpdateId);
}

} // namespace

//===----------------------------------------------------------------------===//
// Workload entry points
//===----------------------------------------------------------------------===//

void perfbench::runTable1Heap(const Options &O, Tracer &T, Results &R) {
  Table1Heap H;
  CoreRotation SetupCores(0);
  for (int I = 0; I < SetupRepeats; ++I) {
    SetupCores.tick();
    H = Table1Heap(); // free the previous heap before building the next
    Clock::time_point T0 = Clock::now();
    Scoped S(T, "setup");
    H = buildTable1(O.Seed, T);
    R.SetupS.push_back(msSince(T0) / 1000);
  }
  ++R.Attempted;
  checkTable1(H, /*V2=*/false, "initial heap", R);

  Scoped Measure(T, "measure");
  // Every update on the next core: each pause walks a heap far larger than
  // any cache, so a move costs it nothing, and the cores share the pauses
  // evenly.
  CoreRotation Cores(0);
  Clock::time_point Deadline = deadlineAfter(O.Seconds);
  bool V2 = false;
  for (int64_t N = 0; Clock::now() < Deadline; ++N) {
    Cores.tick();
    bool ToV2 = !V2;
    ClassSet Target = microProgram(ToV2);
    UpdateBundle B =
        prepareTimed(T, H.V->program(), Target, "u" + std::to_string(N), N);
    B.ObjectTransformers["Change"] = [ToV2](TransformCtx &Ctx, Ref To,
                                            Ref From) {
      copyMicroFields(Ctx, To, From);
      if (ToV2)
        Ctx.setInt(To, "added", 0);
    };
    std::string Label = std::string(ToV2 ? "v1->v2" : "v2->v1") + " #" +
                        std::to_string(N);
    TimedUpdate U =
        applyTimed(T, *H.V, std::move(B), UpdateOptions(), 50'000'000, N);
    if (recordExpectApplied(R, Label, U)) {
      R.Work.emplace_back(static_cast<double>(Table1Objects),
                          U.ApplyMs / 1000);
      V2 = ToV2;
    }
    {
      Scoped C(T, "bench.check", N);
      checkTable1(H, V2, Label, R);
    }
    probeLayers(T, R, *H.V, Target, N, /*Collect=*/true);
  }
}

void perfbench::runJettyServe(const Options &O, Tracer &T, Results &R) {
  std::unique_ptr<AppModel> App;
  JettyServer S;
  CoreRotation SetupCores(0);
  for (int I = 0; I < SetupRepeats; ++I) {
    SetupCores.tick();
    S = JettyServer();
    App.reset();
    Clock::time_point T0 = Clock::now();
    Scoped Setup(T, "setup");
    {
      Scoped G(T, "app.generate");
      App = std::make_unique<AppModel>(makeJettyApp());
    }
    S = bootJetty(*App, O.Seed, T);
    R.SetupS.push_back(msSince(T0) / 1000);
  }

  int Measure = T.begin("measure");
  CoreRotation Cores(CorePeriodS);
  Clock::time_point Deadline = deadlineAfter(O.Seconds);
  size_t Current = V515;
  int64_t LastUpdate = -1;
  int Served = 0; // updates on the current server
  for (int64_t N = 0; Clock::now() < Deadline; ++N) {
    Cores.tick();
    if (Served == UpdatesPerServer) {
      retireJetty(S, R, T);
      S = bootJetty(*App, O.Seed + static_cast<uint64_t>(N), T);
      Current = V515;
      LastUpdate = -1;
      Served = 0;
    }
    VM &V = *S.V;
    for (int W = 0; W < WindowsPerUpdate; ++W) {
      uint64_t Instr0 = V.stats().InstructionsExecuted;
      double Gc0 = V.stats().TotalGcMs;
      int Id = T.begin("vm.serve", LastUpdate);
      Clock::time_point T0 = Clock::now();
      uint64_t Responses = S.Loop->serve(WindowTicks, &R.LatencyTicks);
      double Ms = msSince(T0);
      T.end(Id);
      T.attr(Id, "responses", static_cast<double>(Responses));
      T.attr(Id, "instructions",
             static_cast<double>(V.stats().InstructionsExecuted - Instr0));
      T.attr(Id, "gc_ms", V.stats().TotalGcMs - Gc0);
      T.attr(Id, "post_update", W == 0 && LastUpdate >= 0 ? 1 : 0);
      R.Work.emplace_back(static_cast<double>(Responses), Ms / 1000);
    }

    size_t Target = Current == V515 ? V516 : V515;
    std::string Label = App->versionName(Current) + "->" +
                        App->versionName(Target) + " #" + std::to_string(N);
    UpdateBundle B = prepareTimed(T, V.program(), App->version(Target),
                                  "u" + std::to_string(N), N);
    TimedUpdate U =
        applyTimed(T, V, std::move(B), UpdateOptions(), 50'000'000, N);
    S.Loop->resume();
    LastUpdate = N;
    ++Served;
    if (recordExpectApplied(R, Label, U))
      Current = Target;
    {
      Scoped C(T, "bench.check", N);
      if (!Upt::computeSpec(V.program(), App->version(Current)).empty())
        R.fail(Label + ": running program differs from " +
               App->versionName(Current));
    }
    probeLayers(T, R, V, App->version(Current), N, /*Collect=*/false);
  }
  retireJetty(S, R, T);
  T.end(Measure);
}

void perfbench::runReleaseStream(const Options &O, Tracer &T, Results &R) {
  std::vector<AppModel> Apps;
  CoreRotation SetupCores(0);
  for (int I = 0; I < SetupRepeats; ++I) {
    SetupCores.tick();
    Apps.clear();
    Clock::time_point T0 = Clock::now();
    Scoped Setup(T, "setup");
    Scoped G(T, "app.generate");
    Apps.push_back(makeJettyApp());
    Apps.push_back(makeEmailApp());
    Apps.push_back(makeCrossFtpApp());
    R.SetupS.push_back(msSince(T0) / 1000);
  }
  // The seed varies the order in which the apps' streams are evaluated.
  Rng Order(O.Seed * 0xA24BAED4963EE407ULL + 3);
  std::vector<size_t> AppOrder = {0, 1, 2};

  Scoped Measure(T, "measure");
  CoreRotation Cores(CorePeriodS);
  Clock::time_point Deadline = deadlineAfter(O.Seconds);
  int64_t UpdateId = 0;
  // Whole passes only, so every pass offers all 22 releases.
  while (Clock::now() < Deadline) {
    for (size_t I = AppOrder.size() - 1; I > 0; --I)
      std::swap(AppOrder[I], AppOrder[Order.nextBelow(I + 1)]);
    double PassMs = 0, PassReleases = 0;
    for (size_t A : AppOrder) {
      const AppModel &App = Apps[A];
      for (size_t Ver = 1; Ver < App.numVersions(); ++Ver, ++UpdateId) {
        const Release &Rel = App.release(Ver);
        std::string Label = App.name() + " " + Rel.Name;
        Cores.tick();
        int Eval = T.begin("release.evaluate", UpdateId);
        double EvalMs = 0; // boot + apply, without the traced-only probes
        TimedUpdate Load;
        {
          Clock::time_point T0 = Clock::now();
          std::unique_ptr<VM> V = bootRelease(App, Ver - 1, false, T);
          Load = applyRelease(T, *V, App, Ver, UpdateId);
          EvalMs += msSince(T0);
          probeLayers(T, R, *V, App.version(Ver), UpdateId,
                      /*Collect=*/false);
        }
        // The paper applied CrossFTP 1.07 -> 1.08 "when the server was
        // relatively idle": retry any busy-failure on an idle server.
        bool IdleApplied = false;
        if (Load.Result.Status == UpdateStatus::TimedOut) {
          Clock::time_point T0 = Clock::now();
          std::unique_ptr<VM> V = bootRelease(App, Ver - 1, true, T);
          TimedUpdate Idle = applyRelease(T, *V, App, Ver, UpdateId);
          EvalMs += msSince(T0);
          IdleApplied = R.record(Label + " (idle)", Idle);
        }
        PassMs += EvalMs;
        T.end(Eval);

        bool LoadApplied = R.record(Label, Load);
        const char *Expected = !Rel.ExpectSupported ? "timed out"
                               : Rel.OnlyWhenIdle   ? "applied when idle"
                                                    : "applied";
        const char *Observed =
            LoadApplied ? "applied"
            : Load.Result.Status != UpdateStatus::TimedOut
                ? updateStatusName(Load.Result.Status)
            : IdleApplied ? "applied when idle"
                          : "timed out";
        if (std::string(Expected) != Observed)
          R.fail(Label + ": expected " + Expected + ", observed " + Observed);
        ++R.Attempted;
        ++R.UpdatesAttempted;
        R.UpdatesApplied += LoadApplied || IdleApplied;
        ++PassReleases;
      }
    }
    R.Work.emplace_back(PassReleases, PassMs / 1000);
  }
}
