//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers shared by the bytecode layer, the UPT, the
/// transformer runtime (e.g. the e-mail address split in Figure 3), and
/// every JSON report writer.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_SUPPORT_STRINGUTILS_H
#define JVOLVE_SUPPORT_STRINGUTILS_H

#include <string>
#include <vector>

namespace jvolve {

/// Splits \p Text on \p Sep into at most \p Limit pieces (0 = unlimited),
/// mirroring Java's String.split(sep, limit) for literal separators.
std::vector<std::string> splitString(const std::string &Text, char Sep,
                                     size_t Limit = 0);

/// Splits a comma-separated list into its entries, each trimmed of the
/// spaces around it; empty entries are dropped ("a, b,,c" -> a, b, c).
/// The tools' list flags (--inject, --streams) go through it.
std::vector<std::string> splitCommaList(const std::string &Text);

/// \returns true if \p Text begins with \p Prefix.
bool startsWith(const std::string &Text, const std::string &Prefix);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string joinStrings(const std::vector<std::string> &Parts,
                        const std::string &Sep);

/// Appends \p Text to \p Out as a quoted JSON string literal, escaping
/// quotes, backslashes and control characters.
void appendJsonString(std::string &Out, const std::string &Text);

/// \returns \p Text as a quoted JSON string literal.
std::string jsonString(const std::string &Text);

} // namespace jvolve

#endif // JVOLVE_SUPPORT_STRINGUTILS_H
