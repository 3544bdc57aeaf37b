//===----------------------------------------------------------------------===//
///
/// \file
/// Static update-safety analyzer tests: CHA call-graph construction, the
/// transitive-caller closure vs the precise inline-aware restriction
/// (subset proven on every modeled release stream), never-returns
/// detection, ActiveMethodMapping static checking, the applicability
/// verdict against all 22 Tables 2-4 rows, and the Updater's AnalyzeFirst
/// pre-update gate.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "apps/CrossFtpApp.h"
#include "apps/EmailApp.h"
#include "apps/JettyApp.h"
#include "bytecode/Builder.h"
#include "bytecode/Builtins.h"
#include "dsu/Analysis.h"
#include "dsu/CallGraph.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

/// A server with a tiny inlinable helper, a too-big helper, a direct-call
/// chain, and an infinite dispatch loop — the shapes the analyses classify.
ClassSet loopBase() {
  ClassSet Set;
  ClassBuilder Conf("Conf");
  Conf.staticField("x", "I");
  Conf.staticMethod("get", "()I").getstatic("Conf", "x", "I").iret();
  Set.add(Conf.build());

  ClassBuilder S("Server");
  S.staticMethod("tiny", "()I").iconst(1).iret();
  S.staticMethod("mid", "()I").invokestatic("Server", "tiny", "()I").iret();
  MethodBuilder &Big = S.staticMethod("big", "()I");
  for (int I = 0; I < 9; ++I)
    Big.iconst(I).pop();
  Big.iconst(0).iret(); // 20 instructions: over MaxInlineCodeLen
  S.staticMethod("d1", "()I").invokestatic("Server", "d2", "()I").iret();
  S.staticMethod("d2", "()I").invokestatic("Server", "d3", "()I").iret();
  S.staticMethod("d3", "()I").invokestatic("Server", "d4", "()I").iret();
  S.staticMethod("d4", "()I").invokestatic("Server", "tiny", "()I").iret();
  S.staticMethod("loop", "()V")
      .label("top")
      .invokestatic("Server", "tiny", "()I")
      .pop()
      .jump("top");
  S.staticMethod("confLoop", "()V")
      .label("top")
      .invokestatic("Conf", "get", "()I")
      .pop()
      .jump("top");
  Set.add(S.build());
  ensureBuiltins(Set);
  return Set;
}

ClassSet chaSet() {
  ClassSet Set;
  ClassBuilder B("Base");
  B.method("m", "()V").ret();
  Set.add(B.build());
  ClassBuilder D("Derived", "Base");
  D.method("m", "()V").ret();
  Set.add(D.build());
  ClassBuilder C("Caller");
  C.staticMethod("call", "(LBase;)V")
      .load(0)
      .invokevirtual("Base", "m", "()V")
      .ret();
  Set.add(C.build());
  ensureBuiltins(Set);
  return Set;
}

void appendNop(ClassSet &Set, const char *Cls, const char *Method) {
  Set.find(Cls)->findMethod(Method)->Code.push_back(
      {Opcode::Nop, 0, "", "", ""});
}

std::set<std::string> entryPointsFor(const AppModel &App) {
  if (App.name() == "jetty")
    return {"PoolThread.run(I)V"};
  if (App.name() == "javaemailserver")
    return {"Pop3Processor.run(I)V", "SMTPSender.run()V"};
  return {"FtpServer.run(I)V"};
}

Applicability expectedVerdict(const Release &R) {
  if (!R.ExpectSupported)
    return Applicability::Impossible;
  if (R.NeedsOsr)
    return Applicability::NeedsOsr;
  return Applicability::Applicable;
}

/// Runs the analyzer over the update to version \p V of \p App, exactly as
/// jvolve-analyze --app does.
AnalysisReport analyzeRelease(const AppModel &App, size_t V) {
  ClassSet Old = App.version(V - 1);
  ClassSet New = App.version(V);
  ensureBuiltins(Old);
  ensureBuiltins(New);
  UpdateSpec Spec = Upt::computeSpec(Old, New);
  AnalysisOptions Opts;
  Opts.EntryPoints = entryPointsFor(App);
  return UpdateAnalysis(Old, New).analyze(Spec, {}, Opts);
}

bool containsStr(const std::vector<std::string> &V, const std::string &S) {
  for (const std::string &X : V)
    if (X == S)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Call graph
//===----------------------------------------------------------------------===//

TEST(CallGraph, DirectCallsResolveToDeclaringClass) {
  ClassSet Set = loopBase();
  CallGraph CG(Set);
  const CallGraphNode *Mid = CG.node("Server.mid()I");
  ASSERT_NE(Mid, nullptr);
  ASSERT_EQ(Mid->Callees.size(), 1u);
  EXPECT_EQ(Mid->Callees[0], "Server.tiny()I");
  EXPECT_EQ(Mid->DirectCallees, Mid->Callees);
  EXPECT_GT(CG.numMethods(), 0u);
  EXPECT_GT(CG.numEdges(), 0u);
}

TEST(CallGraph, VirtualDispatchFansOutOverSubclassOverrides) {
  ClassSet Set = chaSet();
  CallGraph CG(Set);
  const CallGraphNode *Call = CG.node("Caller.call(LBase;)V");
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(Call->Callees.size(), 2u); // Base.m and Derived.m
  EXPECT_TRUE(containsStr(Call->Callees, "Base.m()V"));
  EXPECT_TRUE(containsStr(Call->Callees, "Derived.m()V"));
  // Virtual calls never inline: no direct edges.
  EXPECT_TRUE(Call->DirectCallees.empty());
}

TEST(CallGraph, TransitiveCallersIsTheConservativeClosure) {
  ClassSet Set = loopBase();
  CallGraph CG(Set);
  std::set<std::string> Closed = CG.transitiveCallers({"Server.tiny()I"});
  // Seeds themselves, direct callers, and the whole d-chain.
  for (const char *K : {"Server.tiny()I", "Server.mid()I", "Server.loop()V",
                        "Server.d1()I", "Server.d2()I", "Server.d3()I",
                        "Server.d4()I"})
    EXPECT_TRUE(Closed.count(K)) << K;
  EXPECT_FALSE(Closed.count("Server.big()I"));
  EXPECT_FALSE(Closed.count("Server.confLoop()V"));
}

TEST(CallGraph, PossibleInlinersHonorSizeLimit) {
  ClassSet Set = loopBase();
  CallGraph CG(Set);
  // tiny (2 instructions) can be inlined by its direct callers...
  std::set<std::string> In = CG.possibleInliners({"Server.tiny()I"});
  EXPECT_TRUE(In.count("Server.mid()I"));
  EXPECT_TRUE(In.count("Server.loop()V"));
  // ...but big (20 instructions) can never be inlined at all.
  EXPECT_TRUE(CG.possibleInliners({"Server.big()I"}).empty());
}

TEST(CallGraph, PossibleInlinersHonorDepthLimit) {
  ClassSet Set = loopBase();
  CallGraph CG(Set);
  // d1 -> d2 -> d3 -> d4 -> tiny: with MaxDepth 3 the chain stops at d2
  // (tiny into d4, d4 into d3, d3 into d2).
  std::set<std::string> In = CG.possibleInliners({"Server.tiny()I"});
  EXPECT_TRUE(In.count("Server.d4()I"));
  EXPECT_TRUE(In.count("Server.d3()I"));
  EXPECT_TRUE(In.count("Server.d2()I"));
  EXPECT_FALSE(In.count("Server.d1()I"));
}

TEST(CallGraph, VirtualCalleesAreNotInlinable) {
  ClassSet Set = chaSet();
  CallGraph CG(Set);
  EXPECT_TRUE(CG.possibleInliners({"Base.m()V"}).empty());
  // The closure still restricts the virtual caller.
  EXPECT_TRUE(CG.transitiveCallers({"Base.m()V"})
                  .count("Caller.call(LBase;)V"));
}

//===----------------------------------------------------------------------===//
// Never-returns + verdicts on toy programs
//===----------------------------------------------------------------------===//

TEST(Analysis, NeverReturnsDetection) {
  ClassSet Set = loopBase();
  EXPECT_TRUE(UpdateAnalysis::neverReturns(
      *Set.find("Server")->findMethod("loop")));
  EXPECT_TRUE(UpdateAnalysis::neverReturns(
      *Set.find("Server")->findMethod("confLoop")));
  EXPECT_FALSE(UpdateAnalysis::neverReturns(
      *Set.find("Server")->findMethod("tiny")));
  EXPECT_FALSE(UpdateAnalysis::neverReturns(
      *Set.find("Server")->findMethod("mid")));
}

TEST(Analysis, ChangedNonReturningLoopPredictsImpossible) {
  ClassSet Old = loopBase(), New = loopBase();
  appendNop(New, "Server", "loop");
  UpdateSpec Spec = Upt::computeSpec(Old, New);
  AnalysisOptions Opts;
  Opts.EntryPoints = {"Server.loop()V"};
  AnalysisReport R = UpdateAnalysis(Old, New).analyze(Spec, {}, Opts);
  EXPECT_EQ(R.Verdict, Applicability::Impossible);
  EXPECT_TRUE(containsStr(R.PinnedForever, "Server.loop()V"));
  EXPECT_NE(R.Reason.find("Server.loop()V"), std::string::npos);
}

TEST(Analysis, EntryUnreachableLoopDoesNotGate) {
  ClassSet Old = loopBase(), New = loopBase();
  appendNop(New, "Server", "loop");
  UpdateSpec Spec = Upt::computeSpec(Old, New);
  AnalysisOptions Opts;
  Opts.EntryPoints = {"Server.mid()I"}; // mid never reaches loop
  AnalysisReport R = UpdateAnalysis(Old, New).analyze(Spec, {}, Opts);
  EXPECT_EQ(R.Verdict, Applicability::Applicable);
  EXPECT_TRUE(R.PinnedForever.empty());
}

TEST(Analysis, IndirectNonReturningLoopPredictsNeedsOsr) {
  ClassSet Old = loopBase(), New = loopBase();
  // Class update to Conf: confLoop is unchanged but category (2).
  New.find("Conf")->Fields.push_back(
      {"y", "I", true, false, Access::Public});
  UpdateSpec Spec = Upt::computeSpec(Old, New);
  AnalysisOptions Opts;
  Opts.EntryPoints = {"Server.confLoop()V"};
  AnalysisReport R = UpdateAnalysis(Old, New).analyze(Spec, {}, Opts);
  EXPECT_EQ(R.Verdict, Applicability::NeedsOsr);
  EXPECT_TRUE(containsStr(R.OsrRequired, "Server.confLoop()V"));
}

TEST(Analysis, ChangedReturningMethodIsApplicable) {
  ClassSet Old = loopBase(), New = loopBase();
  appendNop(New, "Server", "tiny");
  UpdateSpec Spec = Upt::computeSpec(Old, New);
  AnalysisOptions Opts;
  Opts.EntryPoints = {"Server.loop()V"}; // loop calls tiny forever
  AnalysisReport R = UpdateAnalysis(Old, New).analyze(Spec, {}, Opts);
  // tiny returns, so a return barrier reaches the safe point eventually.
  EXPECT_EQ(R.Verdict, Applicability::Applicable);
}

TEST(Analysis, JsonEscapesEveryString) {
  ClassSet Old = loopBase(), New = loopBase();
  appendNop(New, "Server", "loop");
  UpdateSpec Spec = Upt::computeSpec(Old, New);
  AnalysisOptions Opts;
  Opts.EntryPoints = {"Server.loop()V"};
  AnalysisReport R = UpdateAnalysis(Old, New).analyze(Spec, {}, Opts);
  // jvolve-analyze tags a file-mode report with both input paths.
  R.VersionTag = R"(p\q/"v1".mvm -> p\q/"v2".mvm)";
  R.Reason += " \"quoted\"";
  R.Warnings.push_back("C:\\tmp\tindented");

  std::string Json = R.json();
  EXPECT_NE(Json.find(R"("version":"p\\q/\"v1\".mvm -> p\\q/\"v2\".mvm",)"),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find(R"( \"quoted\""})"), std::string::npos) << Json;
  EXPECT_NE(Json.find(R"("C:\\tmp\tindented")"), std::string::npos) << Json;
  EXPECT_NE(Json.find(R"("pinned_forever":["Server.loop()V"])"),
            std::string::npos)
      << Json;
}

//===----------------------------------------------------------------------===//
// Restricted safe-point sets
//===----------------------------------------------------------------------===//

TEST(Analysis, PreciseRestrictionDropsNonInliningCallers) {
  ClassSet Old = loopBase(), New = loopBase();
  appendNop(New, "Server", "big");
  UpdateSpec Spec = Upt::computeSpec(Old, New);
  AnalysisReport R = UpdateAnalysis(Old, New).analyze(Spec, {}, {});
  // big is too large to inline anywhere: only big itself is restricted
  // precisely, while the conservative closure would also restrict its
  // callers (it has none here, so sizes match), and the seed stays.
  EXPECT_TRUE(R.PreciseRestricted.count("Server.big()I"));
  for (const std::string &K : R.PreciseRestricted)
    EXPECT_TRUE(R.ConservativeRestricted.count(K)) << K;
}

TEST(Analysis, PreciseSubsetOfConservativeOnEveryStream) {
  const AppModel Apps[] = {makeJettyApp(), makeEmailApp(),
                           makeCrossFtpApp()};
  size_t Streams = 0;
  for (const AppModel &App : Apps) {
    for (size_t V = 1; V < App.numVersions(); ++V) {
      AnalysisReport R = analyzeRelease(App, V);
      std::string Tag = App.name() + " " + App.versionName(V);
      EXPECT_LE(R.PreciseRestricted.size(), R.ConservativeRestricted.size())
          << Tag;
      for (const std::string &K : R.PreciseRestricted)
        EXPECT_TRUE(R.ConservativeRestricted.count(K))
            << Tag << ": " << K << " is precisely restricted but not in "
            << "the conservative blacklist";
      ++Streams;
    }
  }
  EXPECT_EQ(Streams, 22u);
}

//===----------------------------------------------------------------------===//
// The Tables 2-4 applicability column, predicted
//===----------------------------------------------------------------------===//

TEST(Analysis, AllTwentyTwoStreamsMatchTables) {
  const AppModel Apps[] = {makeJettyApp(), makeEmailApp(),
                           makeCrossFtpApp()};
  size_t Streams = 0;
  int Impossible = 0;
  for (const AppModel &App : Apps) {
    for (size_t V = 1; V < App.numVersions(); ++V) {
      AnalysisReport R = analyzeRelease(App, V);
      const Release &Rel = App.release(V);
      std::string Tag = App.name() + " " + App.versionName(V);
      EXPECT_EQ(R.Verdict, expectedVerdict(Rel))
          << Tag << ": predicted " << applicabilityName(R.Verdict)
          << "\n" << R.table();
      if (R.Verdict == Applicability::Impossible)
        ++Impossible;
      ++Streams;
    }
  }
  EXPECT_EQ(Streams, 22u);
  EXPECT_EQ(Impossible, 2); // exactly Jetty 5.1.3 and JES 1.3
}

TEST(Analysis, ImpossibleUpdatesNameTheLoopingMethod) {
  AppModel Jetty = makeJettyApp();
  AnalysisReport R513 = analyzeRelease(Jetty, 3); // 5.1.2 -> 5.1.3
  EXPECT_EQ(R513.Verdict, Applicability::Impossible);
  EXPECT_TRUE(containsStr(R513.PinnedForever, "PoolThread.run(I)V"))
      << R513.table();
  EXPECT_NE(R513.Reason.find("PoolThread.run(I)V"), std::string::npos);

  AppModel Jes = makeEmailApp();
  AnalysisReport R13 = analyzeRelease(Jes, 4); // 1.2.4 -> 1.3
  EXPECT_EQ(R13.Verdict, Applicability::Impossible);
  EXPECT_TRUE(containsStr(R13.PinnedForever, "Pop3Processor.run(I)V"))
      << R13.table();
  EXPECT_TRUE(containsStr(R13.PinnedForever, "SMTPSender.run()V"));
}

TEST(Analysis, CrossFtpSessionHandlerWarnsOnlyWhenIdle) {
  AppModel Ftp = makeCrossFtpApp();
  AnalysisReport R = analyzeRelease(Ftp, 3); // 1.07 -> 1.08
  EXPECT_EQ(R.Verdict, Applicability::Applicable);
  bool Warned = false;
  for (const std::string &W : R.Warnings)
    Warned |= W.find("RequestHandler.handle(I)V") != std::string::npos;
  EXPECT_TRUE(Warned) << R.table();
}

//===----------------------------------------------------------------------===//
// ActiveMethodMapping static checking
//===----------------------------------------------------------------------===//

TEST(Analysis, CompleteCompatibleMappingLiftsPinnedMethod) {
  ClassSet Old = loopBase(), New = loopBase();
  appendNop(New, "Server", "loop");
  UpdateSpec Spec = Upt::computeSpec(Old, New);
  std::map<std::string, ActiveMethodMapping> Maps;
  ActiveMethodMapping M = ActiveMethodMapping::identity(
      {"Server", "loop", "()V"},
      New.find("Server")->findMethod("loop")->Code.size());
  Maps[M.Method.key()] = M;
  AnalysisOptions Opts;
  Opts.EntryPoints = {"Server.loop()V"};
  AnalysisReport R = UpdateAnalysis(Old, New).analyze(Spec, Maps, Opts);
  EXPECT_EQ(R.Verdict, Applicability::Applicable) << R.table();
  EXPECT_TRUE(R.MappingIssues.empty()) << R.table();
}

TEST(Analysis, IncompleteMappingDoesNotLift) {
  ClassSet Old = loopBase(), New = loopBase();
  appendNop(New, "Server", "loop");
  UpdateSpec Spec = Upt::computeSpec(Old, New);
  std::map<std::string, ActiveMethodMapping> Maps;
  ActiveMethodMapping M;
  M.Method = {"Server", "loop", "()V"};
  M.PcMap = {{0, 0}}; // reachable pcs 1.. are unmapped
  Maps[M.Method.key()] = M;
  AnalysisOptions Opts;
  Opts.EntryPoints = {"Server.loop()V"};
  AnalysisReport R = UpdateAnalysis(Old, New).analyze(Spec, Maps, Opts);
  EXPECT_EQ(R.Verdict, Applicability::Impossible);
  ASSERT_FALSE(R.MappingIssues.empty());
  EXPECT_NE(R.MappingIssues[0].find("unmapped"), std::string::npos);
}

TEST(Analysis, MappingStackHeightMismatchIsReported) {
  ClassSet Old, New;
  ClassBuilder O("T");
  O.staticMethod("m", "()V").iconst(1).pop().ret();
  Old.add(O.build());
  ClassBuilder N("T");
  N.staticMethod("m", "()V").ret();
  New.add(N.build());
  ensureBuiltins(Old);
  ensureBuiltins(New);
  UpdateSpec Spec = Upt::computeSpec(Old, New);
  std::map<std::string, ActiveMethodMapping> Maps;
  ActiveMethodMapping M;
  M.Method = {"T", "m", "()V"};
  M.PcMap = {{0, 0}, {1, 0}, {2, 0}}; // old pc 1 has [int]; new pc 0 has []
  Maps[M.Method.key()] = M;
  AnalysisReport R = UpdateAnalysis(Old, New).analyze(Spec, Maps, {});
  bool Found = false;
  for (const std::string &I : R.MappingIssues)
    Found |= I.find("stack height mismatch") != std::string::npos;
  EXPECT_TRUE(Found) << R.table();
}

TEST(Analysis, MappingSlotTypeMismatchIsReported) {
  ClassSet Old, New;
  ClassBuilder O("T");
  O.staticMethod("m", "()V").iconst(1).pop().ret();
  Old.add(O.build());
  ClassBuilder N("T");
  N.staticMethod("m", "()V").nullconst().pop().ret();
  New.add(N.build());
  ensureBuiltins(Old);
  ensureBuiltins(New);
  UpdateSpec Spec = Upt::computeSpec(Old, New);
  std::map<std::string, ActiveMethodMapping> Maps;
  ActiveMethodMapping M;
  M.Method = {"T", "m", "()V"};
  M.PcMap = {{0, 0}, {1, 1}, {2, 2}}; // old pc 1 holds int, new expects null
  Maps[M.Method.key()] = M;
  AnalysisReport R = UpdateAnalysis(Old, New).analyze(Spec, Maps, {});
  bool Found = false;
  for (const std::string &I : R.MappingIssues)
    Found |= I.find("stack slot") != std::string::npos;
  EXPECT_TRUE(Found) << R.table();
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(Analysis, RecordsRestrictionDeltaMetrics) {
  Telemetry &Tel = Telemetry::global();
  bool Was = Telemetry::isEnabled();
  Tel.setEnabled(true);
  AnalysisReport R;
  R.ConservativeRestricted = {"A.a()V", "B.b()V", "C.c()V"};
  R.PreciseRestricted = {"A.a()V"};
  R.Verdict = Applicability::Impossible;
  recordAnalysisMetrics(R);
  EXPECT_GE(Tel.counter(metrics::DsuAnalysisRuns).value(), 1u);
  EXPECT_GE(Tel.counter(metrics::DsuAnalysisRejected).value(), 1u);
  EXPECT_EQ(Tel.gauge(metrics::DsuAnalysisRestrictedConservative).value(), 3);
  EXPECT_EQ(Tel.gauge(metrics::DsuAnalysisRestrictedPrecise).value(), 1);
  EXPECT_EQ(Tel.gauge(metrics::DsuAnalysisRestrictedDelta).value(), 2);
  Tel.setEnabled(Was);
}

//===----------------------------------------------------------------------===//
// The Updater's AnalyzeFirst gate
//===----------------------------------------------------------------------===//

TEST(AnalysisGate, RefusesPredictedImpossibleBeforeAnyPauseAttempt) {
  AppModel App = makeJettyApp();
  VM::Config Cfg;
  Cfg.HeapSpaceBytes = 16u << 20;
  VM TheVM(Cfg);
  TheVM.loadProgram(App.version(2)); // 5.1.2
  startJettyThreads(TheVM);
  TheVM.run(5'000); // pool threads enter their accept loops

  UpdateBundle B = Upt::prepare(App.version(2), App.version(3), "g513");
  UpdateOptions Opts;
  Opts.AnalyzeFirst = true;
  Opts.TimeoutTicks = 50'000;
  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), Opts);

  EXPECT_EQ(R.Status, UpdateStatus::RejectedByAnalysis);
  EXPECT_TRUE(R.AnalysisRan);
  EXPECT_EQ(R.Analysis.Verdict, Applicability::Impossible);
  // Refused before any pause was attempted: no burned safe-point attempt.
  EXPECT_EQ(R.SafePointAttempts, 0);
  EXPECT_NE(R.Message.find("PoolThread.run(I)V"), std::string::npos)
      << R.Message;
}

TEST_EAGER_AND_LAZY(AnalysisGate, AllowsPredictedApplicableUpdateThrough) {
  AppModel App = makeJettyApp();
  VM::Config Cfg;
  Cfg.HeapSpaceBytes = 16u << 20;
  VM TheVM(Cfg);
  TheVM.loadProgram(App.version(0));
  startJettyThreads(TheVM);
  TheVM.run(5'000);

  UpdateBundle B = Upt::prepare(App.version(0), App.version(1), "g511");
  UpdateOptions Opts = modeOptions(Lazy);
  Opts.AnalyzeFirst = true;
  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), Opts);

  EXPECT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_TRUE(R.AnalysisRan);
  EXPECT_EQ(R.Analysis.Verdict, Applicability::Applicable);
}

TEST_EAGER_AND_LAZY(AnalysisGate,
                    MappingsFlipThePredictionAndTheUpdateApplies) {
  // The jvolve-serve retry path, in miniature: the 5.1.3 update is refused
  // by analysis, then re-prepared with the operator's pc maps — the
  // analyzer statically accepts them and the update goes through live.
  AppModel App = makeJettyApp();
  VM::Config Cfg;
  Cfg.HeapSpaceBytes = 16u << 20;
  VM TheVM(Cfg);
  TheVM.loadProgram(App.version(2));
  startJettyThreads(TheVM);
  TheVM.run(5'000);

  UpdateBundle B = Upt::prepare(App.version(2), App.version(3), "m513");
  ActiveMethodMapping Accept;
  Accept.Method = {"ThreadedServer", "acceptSocket", "(I)I"};
  Accept.PcMap = {{0, 0}, {1, 1}, {2, 4}};
  B.addActiveMapping(std::move(Accept));
  ActiveMethodMapping Run;
  Run.Method = {"PoolThread", "run", "(I)V"};
  Run.PcMap = {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 7}, {5, 8}};
  B.addActiveMapping(std::move(Run));

  UpdateOptions Opts = modeOptions(Lazy);
  Opts.AnalyzeFirst = true;
  Updater U(TheVM);
  UpdateResult R = U.applyNow(std::move(B), Opts);

  EXPECT_TRUE(R.AnalysisRan);
  EXPECT_EQ(R.Analysis.Verdict, Applicability::Applicable)
      << R.Analysis.table();
  EXPECT_TRUE(R.Analysis.MappingIssues.empty()) << R.Analysis.table();
  EXPECT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_GT(R.ActiveFramesRemapped, 0);
}

//===----------------------------------------------------------------------===//
// Dataflow refinement of the precise restricted set
//===----------------------------------------------------------------------===//

TEST(Analysis, RefinedSetNestsInsideChaSetOnEveryStream) {
  // The acceptance bar for the dataflow refinement: on every stream the
  // refined precise set is a subset of the CHA-precise set (which in turn
  // nests inside the conservative closure), and on several streams the
  // receiver-points-to pruning makes it strictly smaller.
  const AppModel Apps[] = {makeJettyApp(), makeEmailApp(),
                           makeCrossFtpApp()};
  size_t Streams = 0, StrictlySmaller = 0;
  for (const AppModel &App : Apps) {
    for (size_t V = 1; V < App.numVersions(); ++V) {
      AnalysisReport R = analyzeRelease(App, V);
      std::string Tag = App.name() + " " + App.versionName(V);
      for (const std::string &K : R.PreciseRestricted)
        EXPECT_TRUE(R.PreciseRestrictedCha.count(K))
            << Tag << ": refined member " << K << " not in the CHA set";
      for (const std::string &K : R.PreciseRestrictedCha)
        EXPECT_TRUE(R.ConservativeRestricted.count(K))
            << Tag << ": CHA-precise member " << K
            << " not in the conservative closure";
      if (R.PreciseRestricted.size() < R.PreciseRestrictedCha.size())
        ++StrictlySmaller;
      ++Streams;
    }
  }
  EXPECT_EQ(Streams, 22u);
  EXPECT_GE(StrictlySmaller, 3u)
      << "the refinement should bite on at least three streams";
}

TEST(Analysis, NoEntryPointsMeansNoRefinement) {
  // Without entry points there is nothing sound to seed the dataflow
  // from, so the refined set must equal the CHA set exactly — never
  // smaller, which would be an unsound guess.
  const AppModel App = makeJettyApp();
  ClassSet Old = App.version(0);
  ClassSet New = App.version(1);
  ensureBuiltins(Old);
  ensureBuiltins(New);
  UpdateSpec Spec = Upt::computeSpec(Old, New);
  AnalysisReport R = UpdateAnalysis(Old, New).analyze(Spec, {}, {});
  EXPECT_EQ(R.PreciseRestricted, R.PreciseRestrictedCha);
  EXPECT_EQ(R.DataflowNarrowed, 0u);
}
