//===----------------------------------------------------------------------===//
///
/// \file
/// Flag handling shared by the command-line tools: the --inject site list
/// and spec-list validation, and the --metrics-out snapshot writer.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_TOOLS_TOOLFLAGS_H
#define JVOLVE_TOOLS_TOOLFLAGS_H

#include "support/FaultInjector.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <string>
#include <vector>

namespace jvolve {

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
