//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the update transaction.
///
/// Every abort path of the five-step update algorithm is guarded by a named
/// *site*. Production code probes its site at the instrumented point; an
/// armed site makes the probe fire, and the code under test then fails
/// exactly as the real failure would (an UpdateError, or a deferred safe
/// point). Tests arm sites either deterministically — skip the first K
/// probes, fire the next N — or probabilistically from a seeded Rng, so
/// every rollback path is exercisable and reproducible.
///
/// Sites:
///   class-load             a class fails to load during install (step 4b)
///   transformer-nth-object the object transformer faults on the N-th object
///   transformer-cycle      a transformer cycle is detected (paper §3.4)
///   gc-alloc-exhaustion    to-space allocation fails mid-DSU-collection
///   safe-point-starvation  a safe-point attempt cannot park the threads
///   quiescence-watchdog-expiry  the safe-point deadline fires even when
///                          the threads would have quiesced in time
///   net-slow-client        a connection's inter-arrival gap stretches
///                          mid-update (drain/shed robustness)
///   lazy-drain-transformer the N-th background-drain transform of a lazy
///                          update faults after commit (degraded, no
///                          rollback possible)
///   canary-health-breach   a post-commit canary health check reports an
///                          SLO breach even though the telemetry is
///                          healthy (forces an automatic revert)
///   heap-alloc-nth         the N-th heap allocation fails once: inside an
///                          update transaction the allocation throws (the
///                          transaction rolls back); outside, the VM falls
///                          back to a forced collection and retries
///   bundle-truncated       the UpdateBundle arrives torn/truncated and
///                          must be rejected cleanly before any snapshot
///   synth-transformer-field transformer synthesis emits a wrong field
///                          mapping (the source field does not exist), so
///                          the synthesized transformer throws when it
///                          first runs — rollback when eager, degraded
///                          when lazy
///   codeversion-install    a per-method versioned body install fails
///                          mid-chain; the manager unwinds the already-
///                          swapped methods of the batch so the prior
///                          active versions keep serving (no partial
///                          switch ever becomes observable)
///
/// The list above is generated from the same registry the code uses:
/// allSites()/allSiteNames() is the single source of truth for tool usage
/// strings, "unknown site" diagnostics, and the docs table.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_SUPPORT_FAULTINJECTOR_H
#define JVOLVE_SUPPORT_FAULTINJECTOR_H

#include "support/Rng.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace jvolve {

/// Per-VM registry of armable fault sites.
class FaultInjector {
public:
  enum class Site : uint8_t {
    ClassLoad,
    TransformerNthObject,
    TransformerCycle,
    GcAllocExhaustion,
    SafePointStarvation,
    QuiescenceWatchdogExpiry,
    NetSlowClient,
    LazyDrainTransformer,
    CanaryHealthBreach,
    HeapAllocNth,
    BundleTruncated,
    SynthTransformerField,
    CodeVersionInstall,
  };
  static constexpr size_t NumSites = 13;

  /// One counter per registered site, indexed by Site enumeration order.
  /// The chaos campaign's recording mode snapshots probe/fire counts into
  /// these to enumerate every (site, fire-index) pair of a scenario.
  using SiteCounts = std::array<uint64_t, NumSites>;

  /// \returns the stable site name used in traces and tool flags.
  static const char *siteName(Site S);

  /// Parses a site name ("class-load", ...). \returns false when unknown.
  static bool siteByName(const std::string &Name, Site &Out);

  /// Every registered site, in Site enumeration order. The single source
  /// of truth behind allSiteNames(), tool usage strings, and the docs
  /// table.
  static std::vector<Site> allSites();

  /// Every valid site name, in Site enumeration order — for usage strings
  /// and "unknown site" diagnostics.
  static std::vector<std::string> allSiteNames();

  /// Arms \p S deterministically: the first \p Skip probes pass, the next
  /// \p Fire probes fail, every later probe passes again.
  void arm(Site S, uint64_t Fire = 1, uint64_t Skip = 0);

  /// One "site[:fire[:skip]]" spec of the tools' --inject syntax.
  struct Spec {
    Site Where = Site::ClassLoad;
    uint64_t Fire = 1;
    uint64_t Skip = 0;
  };

  /// Parses one spec. \returns false with \p Err set on an unknown site
  /// or malformed spec.
  static bool parseSpec(const std::string &Text, Spec &Out,
                        std::string *Err = nullptr);

  /// Parses a comma-separated "spec[,spec...]" list (splitCommaList: each
  /// entry trimmed, empty ones skipped). \returns the valid specs in list
  /// order; one diagnostic per bad spec is appended to \p Errors (when
  /// non-null).
  static std::vector<Spec>
  parseSpecList(const std::string &List,
                std::vector<std::string> *Errors = nullptr);

  /// Arms one site from a spec.
  /// \returns false with \p Err set on an unknown site or malformed spec.
  bool armFromSpec(const std::string &Text, std::string *Err = nullptr);

  /// Arms every spec of a parseSpecList list. Every valid spec is armed
  /// even when others are malformed; one diagnostic per bad spec is
  /// appended to \p Errors (when non-null). \returns true only when the
  /// whole list parsed.
  bool armFromSpecList(const std::string &List,
                       std::vector<std::string> *Errors = nullptr);

  /// Arms \p S probabilistically: each probe fails with \p Probability,
  /// drawn from a dedicated Rng seeded with \p Seed (deterministic runs).
  void armRandom(Site S, double Probability, uint64_t Seed);

  void disarm(Site S);

  /// Disarms every site and clears all counters.
  void reset();

  /// Clears probe/fire counters and the first-fire snapshot while keeping
  /// every site armed exactly as configured; Random-mode sites are
  /// reseeded from their original seed, so back-to-back runs with the
  /// same seed are bit-identical.
  void resetCounters();

  bool armed(Site S) const;

  /// Probes \p S from production code. \returns true when the site should
  /// fail now. Always counts, even when disarmed. The disarmed path is
  /// inline: DSU allocation and the transformers probe once per object.
  bool probe(Site S) {
    SiteState &St = state(S);
    ++St.Probes;
    return St.M != SiteState::Mode::Off && probeArmed(S);
  }

  uint64_t probeCount(Site S) const;
  uint64_t fireCount(Site S) const;

  /// Per-site probe counts in Site enumeration order — the recording-mode
  /// output a clean reference pass yields.
  SiteCounts probeCounts() const;

  /// Per-site fire counts in Site enumeration order.
  SiteCounts fireCounts() const;

  /// Per-site probe counts captured at the instant the first probe (on any
  /// site) fired. A second-order campaign arms site B's fire index inside
  /// the window [probesAtFirstFire()[B], probeCounts()[B]) to land the
  /// nested fault in the recovery path the first fault triggered. All
  /// zeros until anyFired().
  SiteCounts probesAtFirstFire() const;

  /// True once any probe has fired since the last reset()/resetCounters().
  bool anyFired() const;

private:
  struct SiteState {
    enum class Mode : uint8_t { Off, Counted, Random };
    Mode M = Mode::Off;
    uint64_t Skip = 0;
    uint64_t Fire = 0;
    double Probability = 0;
    uint64_t Seed = 0;
    Rng R;
    uint64_t Probes = 0;
    uint64_t Fires = 0;
  };

  /// probe() on an armed site, after counting the probe.
  bool probeArmed(Site S);

  SiteState &state(Site S) { return Sites[static_cast<size_t>(S)]; }
  const SiteState &state(Site S) const {
    return Sites[static_cast<size_t>(S)];
  }

  SiteState Sites[NumSites];
  SiteCounts FirstFireSnapshot{};
  bool HasFired = false;
};

} // namespace jvolve

#endif // JVOLVE_SUPPORT_FAULTINJECTOR_H
