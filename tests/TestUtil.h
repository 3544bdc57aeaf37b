//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the test suite: small program factories, VM
/// construction shortcuts, and the eager/lazy update-mode pattern.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_TESTS_TESTUTIL_H
#define JVOLVE_TESTS_TESTUTIL_H

#include "bytecode/Builder.h"
#include "bytecode/Builtins.h"
#include "dsu/Updater.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

namespace jvolve::test {

/// True in a test binary started with --jvolve-instrumented: the main
/// turned telemetry on, opened a default trace session and configured
/// 2,000-tick windows before the first case (tests/TestMain.cpp).
bool instrumentedRun();

/// A VM with a small heap suitable for unit tests.
inline VM::Config smallConfig() {
  VM::Config C;
  C.HeapSpaceBytes = 4u << 20;
  return C;
}

/// Builds a one-class program whose static method Main.run()I executes the
/// instructions recorded by \p Fill.
template <typename FillFn> ClassSet intProgram(FillFn Fill) {
  ClassBuilder CB("Main");
  MethodBuilder &M = CB.staticMethod("run", "()I");
  Fill(M);
  ClassSet Set;
  Set.add(CB.build());
  return Set;
}

/// Runs Main.run()I of \p Program on a fresh VM and returns the result.
inline int64_t runIntMain(const ClassSet &Program) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(Program);
  return TheVM.callStatic("Main", "run", "()I").IntVal;
}

//===--- Eager and lazy update modes ----------------------------------------===//
//
// An update transforms the objects of changed classes either inside the
// pause (eager, paper §3.4) or after commit, on first touch and from a
// background drainer (lazy, dsu/LazyTransform.h). The two are separate
// mechanisms, so the update-path tests run in both, each case named by
// its mode; tests of the eager rollback contract stay eager. The mode is
// a bool, true meaning lazy.

/// Default UpdateOptions for the mode: UpdateOptions::LazyTransform = Lazy.
inline UpdateOptions modeOptions(bool Lazy) {
  UpdateOptions Opts;
  Opts.LazyTransform = Lazy;
  return Opts;
}

/// Case names for a ::testing::TestWithParam<bool> suite over both modes.
inline std::string modeName(const ::testing::TestParamInfo<bool> &Info) {
  return Info.param ? "Lazy" : "Eager";
}

/// Instantiates the TestWithParam<bool> suite \p Fixture over both modes,
/// as EagerAndLazy/<Fixture>.<Test>/Eager and .../Lazy.
#define INSTANTIATE_EAGER_AND_LAZY(Fixture)                                    \
  INSTANTIATE_TEST_SUITE_P(EagerAndLazy, Fixture, ::testing::Bool(),           \
                           ::jvolve::test::modeName)

/// Defines Suite.Name, which commits its updates eagerly, and
/// Suite.NameLazy, which runs the same body with lazy transformation. The
/// body sees the mode as `bool Lazy` and passes it on, usually through
/// modeOptions(Lazy). Unlike a parameterized suite, this keeps the eager
/// case's plain Suite.Name, so an existing test gains its lazy twin
/// without being renamed.
#define TEST_EAGER_AND_LAZY(Suite, Name)                                       \
  static void Suite##_##Name##_Body(bool Lazy);                                \
  TEST(Suite, Name) { Suite##_##Name##_Body(false); }                          \
  TEST(Suite, Name##Lazy) { Suite##_##Name##_Body(true); }                     \
  static void Suite##_##Name##_Body(bool Lazy)

} // namespace jvolve::test

#endif // JVOLVE_TESTS_TESTUTIL_H
