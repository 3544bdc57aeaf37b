//===----------------------------------------------------------------------===//
///
/// \file
/// Update-trace tests: the event log narrates each protocol path the way
/// §4.2 narrates it in prose — immediate safe points, barrier arm/fire
/// cycles, OSR, rejections, and timeouts.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "support/Telemetry.h"

#include <fstream>
#include <gtest/gtest.h>
#include <map>

using namespace jvolve;
using namespace jvolve::test;

namespace {

ClassSet traceVersion(int64_t HandleValue, bool ExtraField) {
  ClassSet Set;
  ClassBuilder S("Svc");
  S.staticField("total", "I");
  if (ExtraField)
    S.field("pad", "I");
  else
    S.field("padOld", "I");
  S.staticMethod("handle", "()V")
      .iconst(40)
      .intrinsic(IntrinsicId::SleepTicks)
      .getstatic("Svc", "total", "I")
      .iconst(HandleValue)
      .iadd()
      .putstatic("Svc", "total", "I")
      .ret();
  S.staticMethod("loop", "()V")
      .label("top")
      .invokestatic("Svc", "handle", "()V")
      .iconst(10)
      .intrinsic(IntrinsicId::SleepTicks)
      .jump("top");
  Set.add(S.build());
  return Set;
}

} // namespace

TEST(UpdateTrace, ImmediateApplicationNarrative) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(traceVersion(1, false));
  Updater U(TheVM);
  UpdateResult R =
      U.applyNow(Upt::prepare(traceVersion(1, false), traceVersion(2, false),
                              "v1"));
  ASSERT_EQ(R.Status, UpdateStatus::Applied);
  const UpdateTrace &T = R.Trace;
  EXPECT_EQ(T.count(UpdateEventKind::Scheduled), 1);
  EXPECT_EQ(T.count(UpdateEventKind::SafePointAttempt), 1);
  EXPECT_EQ(T.count(UpdateEventKind::BarrierArmed), 0);
  EXPECT_EQ(T.count(UpdateEventKind::ClassesInstalled), 1);
  EXPECT_EQ(T.count(UpdateEventKind::Applied), 1);
  // Events arrive in protocol order.
  ASSERT_GE(T.events().size(), 3u);
  EXPECT_EQ(T.events().front().Kind, UpdateEventKind::Scheduled);
  EXPECT_EQ(T.events().back().Kind, UpdateEventKind::Applied);
}

TEST(UpdateTrace, BarrierCycleRecorded) {
  VM TheVM(smallConfig());
  ClassSet V1 = traceVersion(1, false);
  ClassSet V2 = traceVersion(1000, false);
  TheVM.loadProgram(V1);
  TheVM.spawnThread("Svc", "loop", "()V", {}, "svc", true);
  TheVM.run(30); // park inside handle()

  Updater U(TheVM);
  UpdateResult R = U.applyNow(Upt::prepare(V1, V2, "v1"));
  ASSERT_EQ(R.Status, UpdateStatus::Applied);
  const UpdateTrace &T = R.Trace;
  EXPECT_GE(T.count(UpdateEventKind::BarrierArmed), 1);
  EXPECT_GE(T.count(UpdateEventKind::BarrierFired), 1);
  EXPECT_GE(T.count(UpdateEventKind::SafePointAttempt), 2);
  // The armed barrier names the restricted method and the thread.
  bool Named = false;
  for (const UpdateEvent &E : T.events())
    if (E.Kind == UpdateEventKind::BarrierArmed)
      Named = E.Detail.find("handle()V") != std::string::npos &&
              E.Detail.find("svc") != std::string::npos;
  EXPECT_TRUE(Named);
}

TEST_EAGER_AND_LAZY(UpdateTrace, GcAndTransformPhasesRecorded) {
  VM TheVM(smallConfig());
  ClassSet V1 = traceVersion(1, false);
  ClassSet V2 = traceVersion(1, true); // class update (field change)
  TheVM.loadProgram(V1);
  // One live instance so the transformer phase has work.
  TheVM.pinnedRoots().push_back(
      TheVM.allocateObject(TheVM.registry().idOf("Svc")));

  Updater U(TheVM);
  UpdateResult R = U.applyNow(Upt::prepare(V1, V2, "v1"), modeOptions(Lazy));
  ASSERT_EQ(R.Status, UpdateStatus::Applied);
  EXPECT_EQ(R.Trace.count(UpdateEventKind::GcCompleted), 1);
  EXPECT_EQ(R.Trace.count(UpdateEventKind::Transformed), 1);
  ASSERT_EQ(R.LazyInstalled, Lazy);
  if (Lazy) {
    // The transform phase records only the deferral; the shell count
    // rides on the LazyCommitted event.
    EXPECT_EQ(R.Trace.count(UpdateEventKind::LazyCommitted), 1);
    for (const UpdateEvent &E : R.Trace.events()) {
      if (E.Kind == UpdateEventKind::LazyCommitted) {
        EXPECT_EQ(E.Value, 1);
      }
    }
  } else {
    for (const UpdateEvent &E : R.Trace.events()) {
      if (E.Kind == UpdateEventKind::Transformed) {
        EXPECT_EQ(E.Value, 1);
      }
    }
  }
  TheVM.pinnedRoots().clear();
}

TEST(UpdateTrace, TimeoutNarrative) {
  VM TheVM(smallConfig());
  ClassSet V1 = traceVersion(1, false);
  ClassSet V2 = traceVersion(1, false);
  // Change the infinite loop itself.
  V2.find("Svc")->findMethod("loop", "()V")->Code.push_back(
      {Opcode::Nop, 0, "", "", ""});
  TheVM.loadProgram(V1);
  TheVM.spawnThread("Svc", "loop", "()V", {}, "svc", true);
  TheVM.run(50);

  Updater U(TheVM);
  UpdateOptions Opts;
  Opts.TimeoutTicks = 20'000;
  UpdateResult R = U.applyNow(Upt::prepare(V1, V2, "v1"), Opts);
  ASSERT_EQ(R.Status, UpdateStatus::TimedOut);
  EXPECT_EQ(R.Trace.count(UpdateEventKind::TimedOut), 1);
  EXPECT_EQ(R.Trace.count(UpdateEventKind::Applied), 0);
  EXPECT_GE(R.Trace.count(UpdateEventKind::BarrierArmed), 1);
}

TEST(UpdateTrace, RejectionRecorded) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(traceVersion(1, false));
  ClassSet Broken;
  ClassBuilder CB("Svc");
  CB.staticMethod("handle", "()V").iconst(1).iret(); // int from void
  Broken.add(CB.build());
  Updater U(TheVM);
  UpdateResult R =
      U.applyNow(Upt::prepare(traceVersion(1, false), Broken, "v1"));
  EXPECT_EQ(R.Status, UpdateStatus::RejectedNotVerifiable);
  EXPECT_EQ(R.Trace.count(UpdateEventKind::Rejected), 1);
}

TEST(UpdateTrace, EveryEventKindNamedAndRoundTripsThroughSink) {
  // Every kind must render a non-empty name, and a trace containing one
  // event of each kind must survive the JSONL sink byte-for-byte.
  constexpr int NumKinds = static_cast<int>(NumUpdateEventKinds);
  std::string Path =
      ::testing::TempDir() + "update_trace_roundtrip_test.jsonl";
  Telemetry &Tel = Telemetry::global();
  ASSERT_TRUE(Tel.openTrace(Path));

  UpdateTrace T;
  for (int K = 0; K < NumKinds; ++K) {
    UpdateEventKind Kind = static_cast<UpdateEventKind>(K);
    EXPECT_STRNE(updateEventKindName(Kind), "") << "kind " << K;
    T.record(Kind, /*Tick=*/100 + K, /*Value=*/K, "detail-" + std::to_string(K));
  }
  Tel.closeTrace();
  Tel.setEnabled(false);

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Line;
  int K = 0;
  while (std::getline(In, Line)) {
    TraceEvent E;
    ASSERT_TRUE(TraceEvent::parseLine(Line, E)) << Line;
    EXPECT_EQ(E.Name, "dsu.update.event");
    EXPECT_EQ(E.Phase,
              updateEventKindName(static_cast<UpdateEventKind>(K)));
    EXPECT_EQ(E.StartTick, static_cast<uint64_t>(100 + K));
    EXPECT_EQ(E.Value, K);
    EXPECT_EQ(E.Detail, "detail-" + std::to_string(K));
    ++K;
  }
  EXPECT_EQ(K, NumKinds);
  std::remove(Path.c_str());
}

TEST(UpdateTrace, StreamStampsEmittingThreadAndStreamSeq) {
  // Two green threads park inside handle(); the update arms barriers that
  // fire inside their quanta, then applies at a safe point, and tearing
  // the VM down ends both threads. Every line carries the id of the
  // thread that emitted it (0 for the updater, which runs between
  // quanta), and seq numbers the whole stream in file order.
  std::string Path = ::testing::TempDir() + "update_trace_tid_seq_test.jsonl";
  Telemetry &Tel = Telemetry::global();
  ASSERT_TRUE(Tel.openTrace(Path));
  std::map<std::string, uint64_t> IdOf;
  {
    VM TheVM(smallConfig());
    ClassSet V1 = traceVersion(1, false);
    ClassSet V2 = traceVersion(1000, false);
    TheVM.loadProgram(V1);
    for (const char *Name : {"svc-a", "svc-b"})
      IdOf[Name] = TheVM.spawnThread("Svc", "loop", "()V", {}, Name, true);
    TheVM.run(30);
    UpdateResult R = Updater(TheVM).applyNow(Upt::prepare(V1, V2, "v1"));
    ASSERT_EQ(R.Status, UpdateStatus::Applied);
  }
  ASSERT_TRUE(Tel.closeTrace());
  Tel.setEnabled(false);

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Line;
  uint64_t Seq = 0;
  std::map<std::string, int> Seen;
  while (std::getline(In, Line)) {
    TraceEvent E;
    ASSERT_TRUE(TraceEvent::parseLine(Line, E)) << Line;
    EXPECT_EQ(E.Seq, ++Seq) << Line;
    ++Seen[E.Name + "/" + E.Phase];
    if (E.Name == "vm.thread")
      EXPECT_EQ(E.Tid, static_cast<uint64_t>(E.Value)) << Line;
    else if (E.Phase == "barrier-fired")
      EXPECT_EQ(E.Tid, IdOf.at(E.Detail.substr(E.Detail.find(' ') + 1)))
          << Line;
    else
      EXPECT_EQ(E.Tid, 0u) << Line;
  }
  EXPECT_EQ(Seen["vm.thread/spawn"], 2);
  EXPECT_EQ(Seen["vm.thread/exit"], 2);
  EXPECT_GE(Seen["dsu.update.event/barrier-fired"], 1);
  EXPECT_GE(Seen["dsu.update.phase/total"], 1);
  std::remove(Path.c_str());
}

TEST(UpdateTrace, RendersReadableLog) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(traceVersion(1, false));
  Updater U(TheVM);
  UpdateResult R =
      U.applyNow(Upt::prepare(traceVersion(1, false), traceVersion(3, false),
                              "v1"));
  ASSERT_EQ(R.Status, UpdateStatus::Applied);
  std::string Log = R.Trace.str();
  EXPECT_NE(Log.find("scheduled"), std::string::npos);
  EXPECT_NE(Log.find("safe-point-attempt"), std::string::npos);
  EXPECT_NE(Log.find("applied"), std::string::npos);
}
