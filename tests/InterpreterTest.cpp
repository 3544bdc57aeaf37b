//===----------------------------------------------------------------------===//
///
/// \file
/// Execution-engine tests: arithmetic, control flow, objects, arrays,
/// strings, dispatch, recursion, runtime traps, entry-argument checks, and
/// the per-thread slot stack's frame windows and GC roots.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "bytecode/Builder.h"
#include "heap/HeapVerifier.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>

using namespace jvolve;
using namespace jvolve::test;

TEST(Interpreter, ConstantAndReturn) {
  EXPECT_EQ(runIntMain(intProgram([](MethodBuilder &M) {
              M.iconst(42).iret();
            })),
            42);
}

TEST(Interpreter, Arithmetic) {
  // (7 + 3) * 4 - 5 = 35, then 35 % 8 = 3, then -3
  EXPECT_EQ(runIntMain(intProgram([](MethodBuilder &M) {
              M.iconst(7).iconst(3).iadd().iconst(4).imul().iconst(5).isub();
              M.iconst(8).irem().ineg().iret();
            })),
            -3);
}

TEST(Interpreter, Division) {
  EXPECT_EQ(runIntMain(intProgram([](MethodBuilder &M) {
              M.iconst(17).iconst(5).idiv().iret();
            })),
            3);
}

TEST(Interpreter, LocalsAndLoop) {
  // sum = 0; for (i = 0; i < 10; i++) sum += i;  => 45
  EXPECT_EQ(runIntMain(intProgram([](MethodBuilder &M) {
              M.locals(2);
              M.iconst(0).store(0); // sum
              M.iconst(0).store(1); // i
              M.label("loop");
              M.load(1).iconst(10).branch(Opcode::IfICmpGe, "done");
              M.load(0).load(1).iadd().store(0);
              M.load(1).iconst(1).iadd().store(1);
              M.jump("loop");
              M.label("done");
              M.load(0).iret();
            })),
            45);
}

TEST(Interpreter, ConditionalBranches) {
  // if (5 > 3) return 1 else return 0
  EXPECT_EQ(runIntMain(intProgram([](MethodBuilder &M) {
              M.iconst(5).iconst(3).branch(Opcode::IfICmpGt, "yes");
              M.iconst(0).iret();
              M.label("yes");
              M.iconst(1).iret();
            })),
            1);
}

TEST(Interpreter, DupAndPop) {
  EXPECT_EQ(runIntMain(intProgram([](MethodBuilder &M) {
              M.iconst(6).dup().iadd().iconst(99).pop().iret();
            })),
            12);
}

/// A program with a Counter class: field, constructor-style init, methods.
static ClassSet counterProgram() {
  ClassSet Set;
  {
    ClassBuilder CB("Counter");
    CB.field("count", "I");
    CB.method("increment", "()V")
        .load(0)
        .load(0)
        .getfield("Counter", "count", "I")
        .iconst(1)
        .iadd()
        .putfield("Counter", "count", "I")
        .ret();
    CB.method("get", "()I")
        .load(0)
        .getfield("Counter", "count", "I")
        .iret();
    Set.add(CB.build());
  }
  {
    ClassBuilder CB("Main");
    MethodBuilder &M = CB.staticMethod("run", "()I");
    M.locals(2);
    M.newobj("Counter").store(0);
    M.iconst(0).store(1);
    M.label("loop");
    M.load(1).iconst(5).branch(Opcode::IfICmpGe, "done");
    M.load(0).invokevirtual("Counter", "increment", "()V");
    M.load(1).iconst(1).iadd().store(1);
    M.jump("loop");
    M.label("done");
    M.load(0).invokevirtual("Counter", "get", "()I").iret();
    Set.add(CB.build());
  }
  return Set;
}

TEST(Interpreter, ObjectFieldsAndVirtualCalls) {
  EXPECT_EQ(runIntMain(counterProgram()), 5);
}

TEST(Interpreter, StaticFieldsAndCalls) {
  ClassSet Set;
  {
    ClassBuilder CB("Config");
    CB.staticField("level", "I");
    CB.staticMethod("bump", "(I)I")
        .getstatic("Config", "level", "I")
        .load(0)
        .iadd()
        .dup()
        .putstatic("Config", "level", "I")
        .iret();
    Set.add(CB.build());
  }
  {
    ClassBuilder CB("Main");
    MethodBuilder &M = CB.staticMethod("run", "()I");
    M.iconst(10).invokestatic("Config", "bump", "(I)I").pop();
    M.iconst(7).invokestatic("Config", "bump", "(I)I").iret();
    Set.add(CB.build());
  }
  EXPECT_EQ(runIntMain(Set), 17);
}

TEST(Interpreter, Inheritance) {
  ClassSet Set;
  {
    ClassBuilder CB("Animal");
    CB.method("legs", "()I").iconst(4).iret();
    CB.method("doubleLegs", "()I")
        .load(0)
        .invokevirtual("Animal", "legs", "()I")
        .iconst(2)
        .imul()
        .iret();
    Set.add(CB.build());
  }
  {
    ClassBuilder CB("Bird", "Animal");
    CB.method("legs", "()I").iconst(2).iret(); // override
    Set.add(CB.build());
  }
  {
    ClassBuilder CB("Main");
    MethodBuilder &M = CB.staticMethod("run", "()I");
    // new Bird().doubleLegs() dispatches legs() to the override: 4.
    M.newobj("Bird").invokevirtual("Animal", "doubleLegs", "()I").iret();
    Set.add(CB.build());
  }
  EXPECT_EQ(runIntMain(Set), 4);
}

TEST(Interpreter, Recursion) {
  ClassSet Set;
  {
    ClassBuilder CB("Main");
    CB.staticMethod("fib", "(I)I")
        .load(0)
        .iconst(2)
        .branch(Opcode::IfICmpGe, "rec")
        .load(0)
        .iret()
        .label("rec")
        .load(0)
        .iconst(1)
        .isub()
        .invokestatic("Main", "fib", "(I)I")
        .load(0)
        .iconst(2)
        .isub()
        .invokestatic("Main", "fib", "(I)I")
        .iadd()
        .iret();
    CB.staticMethod("run", "()I")
        .iconst(15)
        .invokestatic("Main", "fib", "(I)I")
        .iret();
    Set.add(CB.build());
  }
  EXPECT_EQ(runIntMain(Set), 610);
}

TEST(Interpreter, Arrays) {
  // a = new int[8]; a[i] = i*i; return a[5] + a.length
  EXPECT_EQ(runIntMain(intProgram([](MethodBuilder &M) {
              M.locals(2);
              M.iconst(8).newarray("I").store(0);
              M.iconst(0).store(1);
              M.label("loop");
              M.load(1).iconst(8).branch(Opcode::IfICmpGe, "done");
              M.load(0).load(1).load(1).load(1).imul().astore();
              M.load(1).iconst(1).iadd().store(1);
              M.jump("loop");
              M.label("done");
              M.load(0).iconst(5).aload();
              M.load(0).arraylength().iadd().iret();
            })),
            33);
}

TEST(Interpreter, RefArraysAndNullChecks) {
  ClassSet Set;
  {
    ClassBuilder CB("Box");
    CB.field("v", "I");
    Set.add(CB.build());
  }
  {
    ClassBuilder CB("Main");
    MethodBuilder &M = CB.staticMethod("run", "()I");
    M.locals(2);
    M.iconst(3).newarray("LBox;").store(0);
    M.newobj("Box").store(1);
    M.load(1).iconst(77).putfield("Box", "v", "I");
    M.load(0).iconst(1).load(1).astore();
    // Unset element is null.
    M.load(0).iconst(0).aload().branch(Opcode::IfNull, "ok");
    M.iconst(-1).iret();
    M.label("ok");
    M.load(0).iconst(1).aload().getfield("Box", "v", "I").iret();
    Set.add(CB.build());
  }
  EXPECT_EQ(runIntMain(Set), 77);
}

TEST(Interpreter, Strings) {
  ClassSet Set;
  {
    ClassBuilder CB("Main");
    MethodBuilder &M = CB.staticMethod("run", "()I");
    M.sconst("hello").sconst(" world");
    M.intrinsic(IntrinsicId::StrConcat);
    M.intrinsic(IntrinsicId::StrLength);
    M.iret();
    Set.add(CB.build());
  }
  EXPECT_EQ(runIntMain(Set), 11);
}

TEST(Interpreter, StringEquality) {
  ClassSet Set;
  {
    ClassBuilder CB("Main");
    MethodBuilder &M = CB.staticMethod("run", "()I");
    M.sconst("abc").sconst("abc").intrinsic(IntrinsicId::StrEquals);
    M.sconst("abc").sconst("xyz").intrinsic(IntrinsicId::StrEquals);
    M.iconst(10).imul().iadd().iret();
    Set.add(CB.build());
  }
  EXPECT_EQ(runIntMain(Set), 1);
}

TEST(Interpreter, InstanceOfAndCheckCast) {
  ClassSet Set;
  {
    ClassBuilder A("Animal");
    Set.add(A.build());
    ClassBuilder B("Bird", "Animal");
    Set.add(B.build());
  }
  {
    ClassBuilder CB("Main");
    MethodBuilder &M = CB.staticMethod("run", "()I");
    M.locals(1);
    M.newobj("Bird").store(0);
    M.load(0).instanceofOp("Animal"); // 1
    M.load(0).instanceofOp("Bird");   // 1
    M.iadd();
    M.load(0).checkcast("Animal").pop();
    M.iret();
    Set.add(CB.build());
  }
  EXPECT_EQ(runIntMain(Set), 2);
}

TEST(Interpreter, DivisionByZeroTraps) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(intProgram([](MethodBuilder &M) {
    M.iconst(1).iconst(0).idiv().iret();
  }));
  ThreadId Id = TheVM.spawnThread("Main", "run", "()I");
  TheVM.runToCompletion();
  VMThread *T = TheVM.scheduler().findThread(Id);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->State, ThreadState::Trapped);
  EXPECT_NE(T->TrapMessage.find("division by zero"), std::string::npos);
}

TEST(Interpreter, NullFieldAccessTraps) {
  ClassSet Set;
  {
    ClassBuilder CB("Box");
    CB.field("v", "I");
    Set.add(CB.build());
  }
  {
    ClassBuilder CB("Main");
    MethodBuilder &M = CB.staticMethod("run", "()I");
    M.nullconst().checkcast("Box").getfield("Box", "v", "I").iret();
    Set.add(CB.build());
  }
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  ThreadId Id = TheVM.spawnThread("Main", "run", "()I");
  TheVM.runToCompletion();
  EXPECT_EQ(TheVM.scheduler().findThread(Id)->State, ThreadState::Trapped);
}

TEST(Interpreter, ArrayBoundsTraps) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(intProgram([](MethodBuilder &M) {
    M.iconst(2).newarray("I").iconst(5).aload().iret();
  }));
  ThreadId Id = TheVM.spawnThread("Main", "run", "()I");
  TheVM.runToCompletion();
  VMThread *T = TheVM.scheduler().findThread(Id);
  EXPECT_EQ(T->State, ThreadState::Trapped);
  EXPECT_NE(T->TrapMessage.find("bounds"), std::string::npos);
}

TEST(Interpreter, BadCastTraps) {
  ClassSet Set;
  {
    ClassBuilder A("Animal");
    Set.add(A.build());
    ClassBuilder B("Bird", "Animal");
    Set.add(B.build());
  }
  {
    ClassBuilder CB("Main");
    MethodBuilder &M = CB.staticMethod("run", "()I");
    M.newobj("Animal").checkcast("Bird").pop().iconst(0).iret();
    Set.add(CB.build());
  }
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  ThreadId Id = TheVM.spawnThread("Main", "run", "()I");
  TheVM.runToCompletion();
  EXPECT_EQ(TheVM.scheduler().findThread(Id)->State, ThreadState::Trapped);
}

TEST(Interpreter, PrintIntrinsics) {
  ClassSet Set;
  {
    ClassBuilder CB("Main");
    MethodBuilder &M = CB.staticMethod("run", "()V");
    M.iconst(7).intrinsic(IntrinsicId::PrintInt);
    M.sconst("jvolve").intrinsic(IntrinsicId::PrintStr);
    M.ret();
    Set.add(CB.build());
  }
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  TheVM.callStatic("Main", "run", "()V");
  ASSERT_EQ(TheVM.printLog().size(), 2u);
  EXPECT_EQ(TheVM.printLog()[0], "7");
  EXPECT_EQ(TheVM.printLog()[1], "jvolve");
}

TEST(Interpreter, EntryWithTooManyArgumentsDies) {
  ClassSet Set;
  ClassBuilder CB("M");
  CB.staticMethod("f", "()I").iconst(7).iret();
  Set.add(CB.build());
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  // The extra arguments would land past the entry frame's window.
  EXPECT_DEATH(TheVM.callStatic("M", "f", "()I",
                                {Slot::ofInt(1), Slot::ofInt(2),
                                 Slot::ofInt(3)}),
               "M.f.*takes 0 argument.*got 3");
}

TEST(Interpreter, EntryWithTooFewArgumentsDies) {
  ClassSet Set;
  ClassBuilder CB("M");
  CB.staticMethod("add", "(II)I").load(0).load(1).iadd().iret();
  Set.add(CB.build());
  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  EXPECT_DEATH(TheVM.spawnThread("M", "add", "(II)I", {Slot::ofInt(1)}),
               "M.add.*takes 2 argument.*got 1");
}

//===--- The per-thread slot stack ----------------------------------------===//

namespace {

/// Main.depth(n) allocates a Node per level, keeps it in a local across
/// the recursive call, drops a garbage array, and returns the sum of the
/// nodes' values: n + (n - 1) + ... + 1.
ClassSet deepRecursionProgram() {
  ClassSet Set;
  ClassBuilder N("Node");
  N.field("v", "I");
  Set.add(N.build());
  ClassBuilder CB("Main");
  CB.staticMethod("depth", "(I)I")
      .locals(2)
      .load(0)
      .branch(Opcode::IfNe, "rec")
      .iconst(0)
      .iret()
      .label("rec")
      .newobj("Node")
      .store(1)
      .load(1)
      .load(0)
      .putfield("Node", "v", "I")
      .iconst(64)
      .newarray("I")
      .pop()
      .load(0)
      .iconst(1)
      .isub()
      .invokestatic("Main", "depth", "(I)I")
      .load(1)
      .getfield("Node", "v", "I")
      .iadd()
      .iret();
  Set.add(CB.build());
  return Set;
}

} // namespace

TEST(Interpreter, DeepRecursionSurvivesCollections) {
  constexpr int64_t Depth = 2'500;
  VM::Config Cfg = smallConfig();
  Cfg.HeapSpaceBytes = 256u << 10; // the garbage arrays fill it many times
  VM TheVM(Cfg);
  TheVM.loadProgram(deepRecursionProgram());
  ThreadId Id =
      TheVM.spawnThread("Main", "depth", "(I)I", {Slot::ofInt(Depth)});
  VMThread *T = TheVM.scheduler().findThread(Id);

  // Verify the heap against the frames' roots between quanta, while the
  // recursion is deep and collections have moved every Node.
  size_t MaxFrames = 0;
  while (!T->stopped()) {
    TheVM.run(5'000);
    MaxFrames = std::max(MaxFrames, T->Frames.size());
    HeapVerifier HV(TheVM.heap(), TheVM.registry());
    std::vector<std::string> Problems = HV.verify(
        [&](const std::function<void(Ref &)> &Visit) {
          TheVM.visitRoots(Visit);
        });
    ASSERT_TRUE(Problems.empty()) << Problems.front();
  }
  ASSERT_EQ(T->State, ThreadState::Finished) << T->TrapMessage;
  EXPECT_EQ(MaxFrames, static_cast<size_t>(Depth) + 1);
  EXPECT_GE(TheVM.stats().Collections, 3u);
  ASSERT_TRUE(T->HasExitValue);
  EXPECT_EQ(T->ExitValue.IntVal, Depth * (Depth + 1) / 2);
  // The finished thread stays in the scheduler without its slot stack.
  EXPECT_EQ(T->Slots.capacity(), 0u);
}

TEST(Interpreter, RootsAreExactlyTheLiveFramesSlots) {
  // run() keeps a Box in local 0 and another on its operand stack, calls
  // mid(), which allocates into its own locals and stack and calls
  // leaf(), which allocates too. After both return, run() parks in a
  // sleep: the callees' slots above its window still hold refs, but only
  // run()'s own slots are roots.
  ClassSet Set;
  ClassBuilder Box("Box");
  Set.add(Box.build());
  ClassBuilder CB("Main");
  CB.staticMethod("leaf", "()LBox;").locals(1).newobj("Box").store(0)
      .newobj("Box").aret();
  CB.staticMethod("mid", "(LBox;)LBox;")
      .locals(2)
      .newobj("Box")
      .store(1)
      .newobj("Box")
      .invokestatic("Main", "leaf", "()LBox;")
      .pop()
      .pop()
      .load(0)
      .aret();
  CB.staticMethod("run", "()V")
      .locals(2)
      .newobj("Box")
      .store(0)
      .newobj("Box")
      .load(0)
      .invokestatic("Main", "mid", "(LBox;)LBox;")
      .store(1)
      .iconst(1'000'000)
      .intrinsic(IntrinsicId::SleepTicks)
      .pop()
      .ret();
  Set.add(CB.build());

  VM TheVM(smallConfig());
  TheVM.loadProgram(Set);
  ThreadId Id = TheVM.spawnThread("Main", "run", "()V", {}, "run", true);
  TheVM.run(1'000);
  VMThread *T = TheVM.scheduler().findThread(Id);
  ASSERT_EQ(T->State, ThreadState::Sleeping);
  ASSERT_EQ(T->Frames.size(), 1u);
  const Frame &F = T->Frames[0];
  ASSERT_EQ(F.Sp - F.Base, 3u); // locals a, a; operand stack [Box]

  // The dead slots above the window still hold the callees' refs.
  size_t DeadRefs = 0;
  for (size_t I = F.Sp; I < T->Slots.size(); ++I)
    DeadRefs += T->Slots[I].IsRef && T->Slots[I].RefVal;
  EXPECT_GE(DeadRefs, 3u);

  std::vector<Ref *> Expected;
  for (uint32_t I = F.Base; I < F.Sp; ++I)
    if (T->Slots[I].IsRef && T->Slots[I].RefVal)
      Expected.push_back(&T->Slots[I].RefVal);
  ASSERT_EQ(Expected.size(), 3u);

  // Roots outside the slot stack (statics) are not this test's subject.
  auto Lo = reinterpret_cast<uintptr_t>(T->Slots.data());
  auto Hi = reinterpret_cast<uintptr_t>(T->Slots.data() + T->Slots.size());
  std::vector<Ref *> Visited;
  TheVM.visitRoots([&](Ref &R) {
    auto At = reinterpret_cast<uintptr_t>(&R);
    if (At >= Lo && At < Hi)
      Visited.push_back(&R);
  });
  EXPECT_EQ(Visited, Expected);
}

namespace {

/// Main.loop(n) returns the sum of pick(i) for i in [0, n). \p Pick fills
/// the body of Main.pick(I)I, which is short enough to be inlined.
ClassSet pickLoopProgram(const std::function<void(MethodBuilder &)> &Pick) {
  ClassSet Set;
  ClassBuilder CB("Main");
  Pick(CB.staticMethod("pick", "(I)I"));
  CB.staticMethod("loop", "(I)I")
      .locals(3)
      .iconst(0)
      .store(1) // i
      .iconst(0)
      .store(2) // sum
      .label("loop")
      .load(1)
      .load(0)
      .branch(Opcode::IfICmpGe, "done")
      .load(2)
      .load(1)
      .invokestatic("Main", "pick", "(I)I")
      .iadd()
      .store(2)
      .load(1)
      .iconst(1)
      .iadd()
      .store(1)
      .jump("loop")
      .label("done")
      .load(2)
      .iret();
  Set.add(CB.build());
  return Set;
}

} // namespace

TEST(Interpreter, InlinedReturnsRejoinTheCallerLoopAtOneHeight) {
  // pick returns from two branches; inlined, both returns become jumps to
  // the iadd after the call. Each must arrive with just its value on top
  // of loop's operands, or the loop's stack would grow per iteration.
  constexpr int64_t N = 10'000;
  VM::Config Cfg = smallConfig();
  Cfg.OptThreshold = 1; // compile loop at the opt tier on its first call
  VM TheVM(Cfg);
  TheVM.loadProgram(pickLoopProgram([](MethodBuilder &M) {
    M.load(0).iconst(2).irem().branch(Opcode::IfEq, "even");
    M.iconst(9).iret();
    M.label("even").load(0).iret();
  }));
  ThreadId Id = TheVM.spawnThread("Main", "loop", "(I)I", {Slot::ofInt(N)});
  VMThread *T = TheVM.scheduler().findThread(Id);
  std::shared_ptr<CompiledMethod> Code = T->Frames[0].Code;
  ASSERT_EQ(Code->T, Tier::Opt);
  MethodId Pick = TheVM.registry().resolveMethod(
      TheVM.registry().idOf("Main"), "pick", "(I)I");
  ASSERT_EQ(Code->Inlined, std::vector<MethodId>{Pick});

  uint32_t MaxHeight = 0;
  while (!T->stopped()) {
    TheVM.run(997); // stops the thread at many different pcs
    if (!T->Frames.empty()) {
      const Frame &F = T->Frames[0];
      MaxHeight = std::max(MaxHeight, F.Sp - F.StackBase);
    }
  }
  ASSERT_EQ(T->State, ThreadState::Finished) << T->TrapMessage;
  EXPECT_LE(MaxHeight, 3u); // sum plus irem's two operands at most
  // Even i contribute i, odd i contribute 9.
  EXPECT_EQ(T->ExitValue.IntVal, (N / 2) * (N / 2 - 1) + 9 * (N / 2));
}

TEST(Interpreter, LeftoverReturningCalleeNeverReachesTheOptTier) {
  // This pick leaves a 9 below its return value. Inlined into the loop,
  // each iteration would leave one more slot in loop's frame, far past
  // the window pushFrame reserves; the verifier refuses the program.
  VM::Config Cfg = smallConfig();
  Cfg.OptThreshold = 1;
  EXPECT_DEATH(
      {
        VM TheVM(Cfg);
        TheVM.loadProgram(pickLoopProgram([](MethodBuilder &M) {
          M.iconst(9).load(0).iret();
        }));
        TheVM.callStatic("Main", "loop", "(I)I", {Slot::ofInt(10'000)});
      },
      "Main.pick.*@2: return leaves 1 operand");
}
