#include "support/FaultInjector.h"

#include "support/Error.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cstdlib>

using namespace jvolve;

std::vector<FaultInjector::Site> FaultInjector::allSites() {
  std::vector<Site> Sites;
  for (size_t I = 0; I < NumSites; ++I)
    Sites.push_back(static_cast<Site>(I));
  return Sites;
}

std::vector<std::string> FaultInjector::allSiteNames() {
  std::vector<std::string> Names;
  for (Site S : allSites())
    Names.push_back(siteName(S));
  return Names;
}

const char *FaultInjector::siteName(Site S) {
  switch (S) {
  case Site::ClassLoad: return "class-load";
  case Site::TransformerNthObject: return "transformer-nth-object";
  case Site::TransformerCycle: return "transformer-cycle";
  case Site::GcAllocExhaustion: return "gc-alloc-exhaustion";
  case Site::SafePointStarvation: return "safe-point-starvation";
  case Site::QuiescenceWatchdogExpiry: return "quiescence-watchdog-expiry";
  case Site::NetSlowClient: return "net-slow-client";
  case Site::LazyDrainTransformer: return "lazy-drain-transformer";
  case Site::CanaryHealthBreach: return "canary-health-breach";
  case Site::HeapAllocNth: return "heap-alloc-nth";
  case Site::BundleTruncated: return "bundle-truncated";
  case Site::SynthTransformerField: return "synth-transformer-field";
  case Site::CodeVersionInstall: return "codeversion-install";
  }
  unreachable("bad fault site");
}

bool FaultInjector::parseSpec(const std::string &Text, Spec &Out,
                              std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  size_t C1 = Text.find(':');
  std::string Name = Text.substr(0, C1);
  Spec S;
  if (!siteByName(Name, S.Where))
    return Fail("unknown fault site '" + Name + "'");
  if (C1 != std::string::npos) {
    char *End = nullptr;
    S.Fire = std::strtoull(Text.c_str() + C1 + 1, &End, 10);
    if (End == Text.c_str() + C1 + 1)
      return Fail("malformed fire count in '" + Text + "'");
    if (*End == ':') {
      char *End2 = nullptr;
      S.Skip = std::strtoull(End + 1, &End2, 10);
      if (End2 == End + 1)
        return Fail("malformed skip count in '" + Text + "'");
    }
  }
  Out = S;
  return true;
}

std::vector<FaultInjector::Spec>
FaultInjector::parseSpecList(const std::string &List,
                             std::vector<std::string> *Errors) {
  std::vector<Spec> Out;
  for (const std::string &Text : splitCommaList(List)) {
    Spec S;
    std::string Err;
    if (parseSpec(Text, S, &Err))
      Out.push_back(S);
    else if (Errors)
      Errors->push_back(Err);
  }
  return Out;
}

bool FaultInjector::armFromSpec(const std::string &Text, std::string *Err) {
  Spec S;
  if (!parseSpec(Text, S, Err))
    return false;
  arm(S.Where, S.Fire, S.Skip);
  return true;
}

bool FaultInjector::armFromSpecList(const std::string &List,
                                    std::vector<std::string> *Errors) {
  std::vector<std::string> Errs;
  for (const Spec &S : parseSpecList(List, &Errs))
    arm(S.Where, S.Fire, S.Skip);
  if (Errors)
    Errors->insert(Errors->end(), Errs.begin(), Errs.end());
  return Errs.empty();
}

bool FaultInjector::siteByName(const std::string &Name, Site &Out) {
  for (size_t I = 0; I < NumSites; ++I) {
    Site S = static_cast<Site>(I);
    if (Name == siteName(S)) {
      Out = S;
      return true;
    }
  }
  return false;
}

void FaultInjector::arm(Site S, uint64_t Fire, uint64_t Skip) {
  SiteState &St = state(S);
  St.M = SiteState::Mode::Counted;
  St.Skip = Skip;
  St.Fire = Fire;
  St.Probes = 0;
  St.Fires = 0;
}

void FaultInjector::armRandom(Site S, double Probability, uint64_t Seed) {
  SiteState &St = state(S);
  St.M = SiteState::Mode::Random;
  St.Probability = Probability;
  St.Seed = Seed;
  St.R = Rng(Seed);
  St.Probes = 0;
  St.Fires = 0;
}

void FaultInjector::disarm(Site S) { state(S).M = SiteState::Mode::Off; }

void FaultInjector::reset() {
  for (SiteState &St : Sites)
    St = SiteState();
  FirstFireSnapshot = SiteCounts{};
  HasFired = false;
}

void FaultInjector::resetCounters() {
  for (SiteState &St : Sites) {
    St.Probes = 0;
    St.Fires = 0;
    if (St.M == SiteState::Mode::Random)
      St.R = Rng(St.Seed);
  }
  FirstFireSnapshot = SiteCounts{};
  HasFired = false;
}

bool FaultInjector::armed(Site S) const {
  return state(S).M != SiteState::Mode::Off;
}

bool FaultInjector::probeArmed(Site S) {
  SiteState &St = state(S);
  bool Fail = false;
  switch (St.M) {
  case SiteState::Mode::Off:
    break;
  case SiteState::Mode::Counted:
    Fail = St.Probes > St.Skip && St.Probes <= St.Skip + St.Fire;
    break;
  case SiteState::Mode::Random:
    Fail = St.R.nextDouble() < St.Probability;
    break;
  }
  St.Fires += Fail;
  if (Fail && !HasFired) {
    HasFired = true;
    FirstFireSnapshot = probeCounts();
  }
  if (Fail && Telemetry::isEnabled())
    Telemetry::global().counter(metrics::faultFired(siteName(S))).inc();
  return Fail;
}

uint64_t FaultInjector::probeCount(Site S) const { return state(S).Probes; }

uint64_t FaultInjector::fireCount(Site S) const { return state(S).Fires; }

FaultInjector::SiteCounts FaultInjector::probeCounts() const {
  SiteCounts Counts{};
  for (size_t I = 0; I < NumSites; ++I)
    Counts[I] = Sites[I].Probes;
  return Counts;
}

FaultInjector::SiteCounts FaultInjector::fireCounts() const {
  SiteCounts Counts{};
  for (size_t I = 0; I < NumSites; ++I)
    Counts[I] = Sites[I].Fires;
  return Counts;
}

FaultInjector::SiteCounts FaultInjector::probesAtFirstFire() const {
  return FirstFireSnapshot;
}

bool FaultInjector::anyFired() const { return HasFired; }
