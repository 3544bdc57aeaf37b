//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluation-harness tests: the shared release evaluator used by the
/// Tables 2-4 benches produces the outcomes the paper reports, for one
/// representative release of each kind (plain apply, OSR apply, timeout,
/// idle-only apply).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "apps/CrossFtpApp.h"
#include "apps/EmailApp.h"
#include "apps/Evaluation.h"
#include "apps/JettyApp.h"

#include <gtest/gtest.h>

using namespace jvolve;

TEST_EAGER_AND_LAZY(Evaluation, JettyPlainApply) {
  AppModel App = makeJettyApp();
  ReleaseOutcome R = evaluateRelease(App, 1, {.Lazy = Lazy}); // 5.1.1
  EXPECT_EQ(R.Version, "5.1.1");
  EXPECT_EQ(R.Result.Status, UpdateStatus::Applied);
  EXPECT_TRUE(R.supported());
  EXPECT_TRUE(R.EcSupported); // body-only-ish row
  EXPECT_TRUE(summaryMatches(R.Summary, App.release(1).Target));
}

TEST(Evaluation, JettyImpossibleUpdateTimesOutEvenIdle) {
  AppModel App = makeJettyApp();
  ReleaseOutcome R = evaluateRelease(App, 3, {.TimeoutTicks = 60'000});
  EXPECT_EQ(R.Version, "5.1.3");
  EXPECT_EQ(R.Result.Status, UpdateStatus::TimedOut);
  // The idle retry cannot help: the accept loop itself changed.
  EXPECT_FALSE(R.AppliedWhenIdle);
  EXPECT_FALSE(R.supported());
}

TEST_EAGER_AND_LAZY(Evaluation, EmailOsrApply) {
  AppModel App = makeEmailApp();
  ReleaseOutcome R = evaluateRelease(App, 6, {.Lazy = Lazy}); // 1.3.2
  EXPECT_EQ(R.Version, "1.3.2");
  EXPECT_EQ(R.Result.Status, UpdateStatus::Applied);
  EXPECT_GE(R.Result.OsrReplacements, 2);
  EXPECT_GE(R.Result.ObjectsTransformed, 1u);
}

TEST_EAGER_AND_LAZY(Evaluation, CrossFtpIdleOnlyApply) {
  AppModel App = makeCrossFtpApp();
  ReleaseOutcome R =
      evaluateRelease(App, 3, {.TimeoutTicks = 60'000, .Lazy = Lazy});
  EXPECT_EQ(R.Version, "1.08");
  EXPECT_EQ(R.Result.Status, UpdateStatus::TimedOut); // busy
  EXPECT_TRUE(R.AppliedWhenIdle);                     // idle retry
  EXPECT_TRUE(R.supported());
  EXPECT_FALSE(R.EcSupported);
}
