#include "support/FaultInjector.h"

#include "support/Error.h"
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

bool FaultInjector::armFromSpec(const std::string &Spec, std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  size_t C1 = Spec.find(':');
  std::string Name = Spec.substr(0, C1);
  Site S;
  if (!siteByName(Name, S))
    return Fail("unknown fault site '" + Name + "'");
  uint64_t Fire = 1, Skip = 0;
  if (C1 != std::string::npos) {
    char *End = nullptr;
    Fire = std::strtoull(Spec.c_str() + C1 + 1, &End, 10);
    if (End == Spec.c_str() + C1 + 1)
      return Fail("malformed fire count in '" + Spec + "'");
    if (*End == ':') {
      char *End2 = nullptr;
      Skip = std::strtoull(End + 1, &End2, 10);
      if (End2 == End + 1)
        return Fail("malformed skip count in '" + Spec + "'");
    }
  }
  arm(S, Fire, Skip);
  return true;
}

bool FaultInjector::armFromSpecList(const std::string &List,
                                    std::vector<std::string> *Errors) {
  bool Ok = true;
  size_t Pos = 0;
  while (Pos <= List.size()) {
    size_t Comma = List.find(',', Pos);
    size_t End = Comma == std::string::npos ? List.size() : Comma;
    std::string Spec = List.substr(Pos, End - Pos);
    // Trim surrounding spaces so pasted lists survive shell quoting.
    while (!Spec.empty() && Spec.front() == ' ')
      Spec.erase(Spec.begin());
    while (!Spec.empty() && Spec.back() == ' ')
      Spec.pop_back();
    if (!Spec.empty()) {
      std::string Err;
      if (!armFromSpec(Spec, &Err)) {
        Ok = false;
        if (Errors)
          Errors->push_back(Err);
      }
    }
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return Ok;
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
