//===----------------------------------------------------------------------===//
///
/// \file
/// Flag handling shared by the command-line tools: integer arguments, the
/// --inject site list and spec-list validation, and the --metrics-out
/// snapshot writer.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_TOOLS_TOOLFLAGS_H
#define JVOLVE_TOOLS_TOOLFLAGS_H

#include "support/FaultInjector.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace jvolve {

/// Parses \p Text, the value of \p What, as a whole base-10 integer in
/// [\p Min, \p Max]. Anything else (empty, trailing characters, out of
/// range) is reported as "<Tool>: <What> must be an integer ..., got
/// '<Text>'" and exits 2, as the tools do for every bad argument.
inline long long intArg(const char *Tool, const char *What, const char *Text,
                        long long Min, long long Max = LLONG_MAX) {
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(Text, &End, 10);
  if (End != Text && *End == '\0' && errno == 0 && V >= Min && V <= Max)
    return V;
  std::string Range;
  if (Min != LLONG_MIN)
    Range += " >= " + std::to_string(Min);
  if (Max != LLONG_MAX)
    Range += (Range.empty() ? " <= " : " and <= ") + std::to_string(Max);
  std::fprintf(stderr, "%s: %s must be an integer%s, got '%s'\n", Tool, What,
               Range.c_str(), Text);
  std::exit(2);
}

/// Comma-separated list of every valid --inject site name.
inline std::string injectSiteList() {
  return joinStrings(FaultInjector::allSiteNames(), ", ");
}

/// Validates a comma-separated --inject spec list on a scratch injector
/// (the tools build their VM later) and reports every bad entry, not just
/// the first, as "<Tool>: bad --inject entry: <why>". \returns false when
/// any entry is malformed.
inline bool validateInjectSpecs(const char *Tool, const std::string &Specs) {
  FaultInjector Probe;
  std::vector<std::string> Errs;
  if (Probe.armFromSpecList(Specs, &Errs))
    return true;
  for (const std::string &E : Errs)
    std::fprintf(stderr, "%s: bad --inject entry: %s\n", Tool, E.c_str());
  return false;
}

/// Writes the telemetry registry snapshot as JSON to \p Path, the format
/// scripts/metrics-diff.py reads. \returns 0, or 2 after reporting that
/// \p Path cannot be written.
inline int writeMetricsSnapshot(const char *Tool, const char *Path) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "%s: cannot write metrics to '%s'\n", Tool, Path);
    return 2;
  }
  std::fprintf(F, "%s\n", Telemetry::global().snapshot().json().c_str());
  std::fclose(F);
  return 0;
}

} // namespace jvolve

#endif // JVOLVE_TOOLS_TOOLFLAGS_H
