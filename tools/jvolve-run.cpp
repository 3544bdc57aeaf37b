//===----------------------------------------------------------------------===//
///
/// \file
/// jvolve-run: load a MiniVM assembly program and execute it.
///
///   jvolve-run [--verify-heap] [--metrics[=json|table]] [--codeversion]
///              [--trace-out <file>] [--stats-window[=TICKS]]
///              [--inject <site>[:fire[:skip]][,<spec>...]]
///              program.mvm [Class.method] [ints...]
///
/// The entry point defaults to Main.main()V; an explicit entry point may
/// take int parameters supplied on the command line. Prints the program's
/// output (print_int / print_str intrinsics) and the entry method's return
/// value, then exits non-zero if any thread trapped. --verify-heap runs
/// the heap verifier and registry-consistency check after execution and
/// fails the run on any violation. --metrics enables telemetry and dumps
/// the registry snapshot at exit (table by default, JSON with =json);
/// --trace-out enables telemetry and streams JSONL trace events to <file>
/// (exit 2 when the file cannot be created or did not get every event);
/// --stats-window enables windowed event-counter aggregation (default
/// 5000-tick windows) and dumps the per-window rate/percentile table at
/// exit — the offline twin of `jvolve-serve --stats`. --inject arms one
/// or more FaultInjector sites (comma-separated site[:fire[:skip]] specs,
/// the syntax of FaultInjector::armFromSpecList); every malformed entry in
/// the list is reported before the tool exits. --codeversion installs the
/// per-method CodeVersionManager (dsu/CodeVersion.h) on the VM and prints
/// its active-version table at exit — the tool never applies updates, so
/// the table shows the v0 baseline unless the program's own machinery
/// installs versions.
///
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "bytecode/Verifier.h"
#include "dsu/CodeVersion.h"
#include "heap/HeapVerifier.h"
#include "ToolFlags.h"
#include "support/Telemetry.h"
#include "support/TelemetryStream.h"
#include "vm/VM.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace jvolve;

static std::string readFile(const char *Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "jvolve-run: cannot open '%s'\n", Path);
    std::exit(2);
  }
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

int main(int argc, char **argv) {
  bool VerifyHeap = false;
  bool CodeVersion = false;
  enum class MetricsMode { Off, Table, Json } Metrics = MetricsMode::Off;
  uint64_t StatsWindowTicks = 0;
  std::string InjectSpecs;
  const char *TraceOut = nullptr;

  while (argc >= 2 && std::strncmp(argv[1], "--", 2) == 0) {
    std::string Flag = argv[1];
    if (Flag == "--verify-heap") {
      VerifyHeap = true;
    } else if (Flag == "--codeversion") {
      CodeVersion = true;
    } else if (Flag == "--metrics" || Flag == "--metrics=table") {
      Metrics = MetricsMode::Table;
    } else if (Flag == "--metrics=json") {
      Metrics = MetricsMode::Json;
    } else if (Flag == "--stats-window" ||
               Flag.rfind("--stats-window=", 0) == 0) {
      StatsWindowTicks =
          Flag == "--stats-window"
              ? 5000
              : intArg("jvolve-run", "--stats-window=",
                       Flag.c_str() + std::strlen("--stats-window="), 1);
    } else if (Flag == "--inject") {
      if (argc < 3) {
        std::fprintf(stderr, "jvolve-run: --inject requires a spec list\n");
        return 2;
      }
      InjectSpecs = argv[2];
      if (!validateInjectSpecs("jvolve-run", InjectSpecs))
        return 2;
      --argc;
      ++argv;
    } else if (Flag == "--trace-out") {
      if (argc < 3) {
        std::fprintf(stderr, "jvolve-run: --trace-out requires a file\n");
        return 2;
      }
      TraceOut = argv[2];
      if (!Telemetry::global().openTrace(TraceOut)) {
        std::fprintf(stderr, "jvolve-run: cannot create trace file '%s'\n",
                     TraceOut);
        return 2;
      }
      --argc;
      ++argv;
    } else {
      std::fprintf(stderr, "jvolve-run: unknown flag '%s'\n", Flag.c_str());
      return 2;
    }
    --argc;
    ++argv;
  }
  if (Metrics != MetricsMode::Off)
    Telemetry::global().setEnabled(true);
  if (StatsWindowTicks > 0) {
    Telemetry::global().setEnabled(true);
    Telemetry::global().windows().configure(StatsWindowTicks);
  }

  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: jvolve-run [--verify-heap] [--metrics[=json|table]] "
                 "[--codeversion] "
                 "[--trace-out <file>] [--stats-window[=TICKS]] "
                 "[--inject <site>[:fire[:skip]][,<spec>...]] "
                 "<program.mvm> [Class.method] [ints]\n");
    return 2;
  }

  std::vector<AsmError> Errors;
  std::optional<ClassSet> Program = parseProgram(readFile(argv[1]), Errors);
  if (!Program) {
    for (const AsmError &E : Errors)
      std::fprintf(stderr, "%s: %s\n", argv[1], E.str().c_str());
    return 1;
  }

  std::string Cls = "Main", Method = "main";
  if (argc >= 3) {
    std::string Entry = argv[2];
    size_t Dot = Entry.find('.');
    if (Dot == std::string::npos) {
      std::fprintf(stderr, "jvolve-run: entry must be Class.method\n");
      return 2;
    }
    Cls = Entry.substr(0, Dot);
    Method = Entry.substr(Dot + 1);
  }
  std::vector<Slot> Args;
  for (int I = 3; I < argc; ++I)
    Args.push_back(
        Slot::ofInt(intArg("jvolve-run", "an entry argument", argv[I],
                           LLONG_MIN)));

  VM TheVM((VM::Config()));
  if (!InjectSpecs.empty())
    TheVM.faults().armFromSpecList(InjectSpecs);
  TheVM.loadProgram(*Program); // verifies; aborts with diagnostics on error

  // Find the entry signature: (I...)V or (I...)I with argc-3 parameters.
  std::string Params(Args.size(), 'I');
  ClassId Id = TheVM.registry().idOf(Cls);
  if (Id == InvalidClassId) {
    std::fprintf(stderr, "jvolve-run: no class '%s'\n", Cls.c_str());
    return 1;
  }
  std::string Sig;
  for (const char *Ret : {"V", "I"}) {
    std::string Candidate = "(" + Params + ")" + Ret;
    if (TheVM.registry().resolveMethod(Id, Method, Candidate) !=
        InvalidMethodId) {
      Sig = Candidate;
      break;
    }
  }
  if (Sig.empty()) {
    std::fprintf(stderr, "jvolve-run: no method %s.%s taking %zu int(s)\n",
                 Cls.c_str(), Method.c_str(), Args.size());
    return 1;
  }

  if (CodeVersion)
    CodeVersionManager::of(TheVM); // installs the manager on the VM

  ThreadId Main = TheVM.spawnThread(Cls, Method, Sig, Args, "main");
  TheVM.runToCompletion();

  for (const std::string &Line : TheVM.printLog())
    std::printf("%s\n", Line.c_str());

  if (VerifyHeap) {
    HeapVerifier HV(TheVM.heap(), TheVM.registry());
    std::vector<std::string> Problems = HV.verify(
        [&TheVM](const std::function<void(Ref &)> &Visit) {
          TheVM.visitRoots(Visit);
        });
    for (const std::string &P : TheVM.registry().checkConsistency())
      Problems.push_back("registry: " + P);
    if (!Problems.empty()) {
      for (const std::string &P : Problems)
        std::fprintf(stderr, "heap-verify: %s\n", P.c_str());
      return 1;
    }
    std::printf("heap-verify: ok\n");
  }

  if (Metrics == MetricsMode::Json)
    std::printf("%s\n", Telemetry::global().snapshot().json().c_str());
  else if (Metrics == MetricsMode::Table)
    std::printf("%s", Telemetry::global().snapshot().table().c_str());
  if (StatsWindowTicks > 0) {
    // Close the final (possibly partial) window so short programs still
    // show their activity, then print the per-window view.
    WindowAggregator &W = Telemetry::global().windows();
    W.roll(TheVM.scheduler().ticks());
    std::printf("stats-window: %llu-tick windows, %llu rolled\n",
                static_cast<unsigned long long>(W.windowTicks()),
                static_cast<unsigned long long>(W.windowsRolled()));
    std::printf("%s", W.table().c_str());
  }
  if (CodeVersion)
    std::printf("%s", CodeVersionManager::of(TheVM)
                          .activeVersionTable()
                          .c_str());
  if (!Telemetry::global().closeTrace()) {
    std::fprintf(stderr, "jvolve-run: cannot write trace file '%s'\n",
                 TraceOut);
    return 2;
  }

  VMThread *T = TheVM.scheduler().findThread(Main);
  if (T->State == ThreadState::Trapped) {
    std::fprintf(stderr, "trap: %s\n", T->TrapMessage.c_str());
    return 1;
  }
  if (T->HasExitValue)
    std::printf("=> %lld\n", static_cast<long long>(T->ExitValue.IntVal));
  return 0;
}
