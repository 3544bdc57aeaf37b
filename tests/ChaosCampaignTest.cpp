//===----------------------------------------------------------------------===//
///
/// \file
/// The chaos-campaign engine itself: scenario determinism (the property
/// recording mode depends on), clean runs satisfying every oracle, aimed
/// first-order faults firing at their exact probe index, full-coverage
/// mini campaigns, deterministic budget truncation, reproducer/JSON
/// plumbing, and multi-spec --inject parsing.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "support/ChaosCampaign.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

using Site = FaultInjector::Site;

/// Small, fast workload shared by every test here; campaigns re-run it
/// dozens of times, so keep the intervals tight.
ScenarioSpec smallSpec(const std::string &Stream, bool Lazy = false) {
  ScenarioSpec Spec;
  Spec.Stream = Stream;
  Spec.Lazy = Lazy;
  Spec.WarmTicks = 300;
  Spec.SettleTicks = 300;
  Spec.Requests = 1;
  return Spec;
}

uint64_t sum(const FaultInjector::SiteCounts &C) {
  uint64_t Total = 0;
  for (uint64_t V : C)
    Total += V;
  return Total;
}

//===----------------------------------------------------------------------===//
// Specs and reproducers.
//===----------------------------------------------------------------------===//

TEST(ChaosCampaign, FaultSpecRoundTripsThroughInjectSyntax) {
  ChaosFault F{Site::TransformerNthObject, 2, 5};
  EXPECT_EQ(F.spec(), "transformer-nth-object:2:5");

  ScenarioSpec Spec = smallSpec("email");
  Spec.Faults = {{Site::ClassLoad, 1, 0}, {Site::HeapAllocNth, 1, 3}};
  EXPECT_EQ(Spec.injectArg(), "class-load:1:0,heap-alloc-nth:1:3");

  // The spec string a violation report carries parses back via the same
  // armFromSpecList the tools use — reproducers stay pasteable.
  FaultInjector FI;
  std::vector<std::string> Errors;
  EXPECT_TRUE(FI.armFromSpecList(Spec.injectArg(), &Errors));
  EXPECT_TRUE(Errors.empty());
  EXPECT_TRUE(FI.armed(Site::ClassLoad));
  EXPECT_TRUE(FI.armed(Site::HeapAllocNth));
}

TEST(ChaosCampaign, SpecListCollectsEveryBadEntryAndArmsTheValid) {
  FaultInjector FI;
  std::vector<std::string> Errors;
  EXPECT_FALSE(FI.armFromSpecList("bogus:1,class-load:1:2,also-bad", &Errors));
  EXPECT_EQ(Errors.size(), 2u);
  // The valid middle entry armed despite its malformed neighbors.
  EXPECT_TRUE(FI.armed(Site::ClassLoad));
  EXPECT_FALSE(FI.probe(Site::ClassLoad)); // skip 1
  EXPECT_FALSE(FI.probe(Site::ClassLoad)); // skip 2
  EXPECT_TRUE(FI.probe(Site::ClassLoad));  // fire
}

//===----------------------------------------------------------------------===//
// Scenario driver.
//===----------------------------------------------------------------------===//

TEST_EAGER_AND_LAZY(ChaosCampaign, CleanScenarioSatisfiesEveryOracle) {
  auto Oracles = standardOracles();
  ScenarioResult Res = runScenario(smallSpec("email", Lazy), Oracles);
  EXPECT_EQ(Res.Status, UpdateStatus::Applied) << Res.Message;
  EXPECT_FALSE(Res.AnyFired);
  EXPECT_TRUE(Res.ok()) << Res.Violations.front();
  // The update path probed at least the install sites — recording mode
  // has real probe points to enumerate.
  EXPECT_GT(sum(Res.Probes), 0u);
  EXPECT_EQ(sum(Res.Fires), 0u);
}

TEST_EAGER_AND_LAZY(ChaosCampaign, ScenarioProbesAreBitIdenticalAcrossRuns) {
  auto Oracles = standardOracles();
  ScenarioSpec Spec = smallSpec("jetty", Lazy);
  ScenarioResult A = runScenario(Spec, Oracles);
  ScenarioResult B = runScenario(Spec, Oracles);
  // Fresh VMs under virtual time with fixed seeds: the recording pass and
  // every faulted pass see the same probe sequence.
  EXPECT_EQ(A.Status, B.Status);
  EXPECT_EQ(A.Probes, B.Probes);
  EXPECT_EQ(A.Fires, B.Fires);
  EXPECT_EQ(A.Violations, B.Violations);
}

TEST_EAGER_AND_LAZY(ChaosCampaign, AimedFaultFiresAtItsExactProbeIndex) {
  auto Oracles = standardOracles();
  ScenarioSpec Clean = smallSpec("email", Lazy);
  ScenarioResult Ref = runScenario(Clean, Oracles);
  ASSERT_TRUE(Ref.ok());
  uint64_t Points = Ref.Probes[static_cast<size_t>(Site::ClassLoad)];
  ASSERT_GT(Points, 0u) << "email 1.3.2 must load classes during install";

  // Fire the LAST class-load probe: skip = Points - 1. The abort must be
  // a defined terminal status and every invariant must still hold.
  ScenarioSpec Faulted = Clean;
  Faulted.Faults = {{Site::ClassLoad, 1, Points - 1}};
  ScenarioResult Res = runScenario(Faulted, Oracles);
  EXPECT_TRUE(Res.AnyFired);
  EXPECT_EQ(Res.Fires[static_cast<size_t>(Site::ClassLoad)], 1u);
  EXPECT_NE(Res.Status, UpdateStatus::Applied);
  EXPECT_TRUE(Res.ok()) << Res.Violations.front();
  // The first-fire snapshot counts the firing probe itself, so the
  // second-order window [snapshot, total) starts right AFTER the trigger.
  EXPECT_EQ(Res.ProbesAtFirstFire[static_cast<size_t>(Site::ClassLoad)],
            Points);
}

//===----------------------------------------------------------------------===//
// Campaigns.
//===----------------------------------------------------------------------===//

/// One stream, committing in the given mode (plus the eager codeversion
/// combo every campaign enumerates).
CampaignOptions miniOptions(bool Lazy) {
  CampaignOptions Opts;
  Opts.Eager = !Lazy;
  Opts.Lazy = Lazy;
  Opts.Streams = {"jetty"};
  Opts.WarmTicks = 300;
  Opts.SettleTicks = 300;
  Opts.Requests = 1;
  return Opts;
}

TEST_EAGER_AND_LAZY(ChaosCampaign, MiniFirstOrderCampaignReachesFullCoverage) {
  auto Oracles = standardOracles();
  CampaignReport Rep = runCampaign(miniOptions(Lazy), Oracles);
  EXPECT_TRUE(Rep.Violations.empty())
      << Rep.Violations.front().Violations.front();
  EXPECT_GT(Rep.ProbePoints, 0u);
  EXPECT_EQ(Rep.Covered, Rep.ProbePoints);
  EXPECT_DOUBLE_EQ(Rep.coverage(), 1.0);
  EXPECT_EQ(Rep.SkippedByBudget, 0u);
  // Sites gated off in this mode (e.g. canary-health-breach with the
  // window off) are bookkept, never silently dropped.
  EXPECT_FALSE(Rep.UnreachableInMode.empty());
}

TEST_EAGER_AND_LAZY(ChaosCampaign, BudgetTruncatesToAStablePrefix) {
  auto Oracles = standardOracles();
  CampaignOptions Opts = miniOptions(Lazy);
  Opts.Budget = 3;
  CampaignReport A = runCampaign(Opts, Oracles);
  EXPECT_GT(A.SkippedByBudget, 0u);
  // + one recording pass per mode combo (the mode + the codeversion combo).
  EXPECT_LE(A.Executions, Opts.Budget + 2);
  EXPECT_GT(A.Enumerated, A.ProbePoints);
  EXPECT_TRUE(A.Violations.empty());

  // Deterministic enumeration order: the same bounded run twice is the
  // same report, byte for byte.
  CampaignReport B = runCampaign(Opts, Oracles);
  EXPECT_EQ(A.json(), B.json());
}

TEST_EAGER_AND_LAZY(ChaosCampaign, ReportJsonCarriesTheCoverageContract) {
  auto Oracles = standardOracles();
  CampaignOptions Opts = miniOptions(Lazy);
  Opts.Budget = 1;
  CampaignReport Rep = runCampaign(Opts, Oracles);
  std::string Json = Rep.json();
  EXPECT_NE(Json.find("\"probe_points\""), std::string::npos);
  EXPECT_NE(Json.find("\"covered\""), std::string::npos);
  EXPECT_NE(Json.find("\"coverage\""), std::string::npos);
  EXPECT_NE(Json.find("\"violations\": []"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The reusable state-invariant core.
//===----------------------------------------------------------------------===//

TEST(ChaosCampaign, StateInvariantsHoldOnAFreshVM) {
  VM TheVM(smallConfig());
  ClassBuilder B("Cell");
  B.field("v", "I");
  ClassSet Set;
  Set.add(B.build());
  TheVM.loadProgram(Set);
  std::vector<std::string> Problems = checkStateInvariants(TheVM);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

} // namespace
