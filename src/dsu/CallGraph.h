//===----------------------------------------------------------------------===//
///
/// \file
/// CHA-based call graph over a MiniVM program version.
///
/// The safe-point restriction in the paper is a closure over the call graph:
/// Jvolve blacklists "methods that are updated and methods that could call
/// updated methods" (§3.3). This module builds that graph once per program
/// version using class-hierarchy analysis — an InvokeVirtual through a
/// receiver of static type C may dispatch to C's resolved implementation or
/// to any override in a subclass of C — and answers the three reachability
/// questions the static update-safety analyzer needs: transitive callers of
/// the changed set, possible inliners of the changed set (a static mirror of
/// the optimizing compiler's inline policy), and entry-point reachability.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_CALLGRAPH_H
#define JVOLVE_DSU_CALLGRAPH_H

#include "bytecode/ClassDef.h"
#include "dsu/UpdateSpec.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace jvolve {

/// One method in the call graph. Keys are MethodRef::key() strings
/// ("Class.NameSig"), always naming the *declaring* class.
struct CallGraphNode {
  MethodRef Ref;
  const MethodDef *Def = nullptr; ///< body in the analyzed ClassSet
  /// Every method this one may call (direct targets plus CHA fan-out for
  /// virtual dispatch), deduplicated, sorted.
  std::vector<std::string> Callees;
  /// The subset of Callees reached through InvokeStatic/InvokeSpecial —
  /// the only call shapes the compiler will inline.
  std::vector<std::string> DirectCallees;
};

/// Call graph over one ClassSet, built eagerly by the constructor. Nodes
/// keep pointers into the ClassSet's method bodies, so the set must outlive
/// the graph and not be mutated while it is in use.
class CallGraph {
public:
  explicit CallGraph(const ClassSet &Set);

  size_t numMethods() const { return Nodes.size(); }
  size_t numEdges() const { return Edges; }

  /// \returns the node for \p Key ("Class.NameSig"), or nullptr.
  const CallGraphNode *node(const std::string &Key) const;

  const std::map<std::string, CallGraphNode> &nodes() const { return Nodes; }

  /// The paper's §3.3 closure rule: every method that is a seed or could
  /// transitively call a seed. This is the conservative blacklist.
  std::set<std::string>
  transitiveCallers(const std::set<std::string> &Seeds) const;

  /// Methods whose Opt-tier compiled form may physically embed a seed's
  /// bytecode through inlining. Mirrors Compiler::shouldInline statically:
  /// only direct calls (InvokeStatic/InvokeSpecial) inline, only callees
  /// with code size <= MaxInlineCodeLen, chains at most MaxInlineDepth
  /// frames deep (exec/Compiler.h), recursion excluded. Seeds themselves
  /// are not included unless they can also inline another seed.
  std::set<std::string>
  possibleInliners(const std::set<std::string> &Seeds) const;

  /// Every method reachable (in the callee direction) from \p Entries,
  /// including the entries themselves.
  std::set<std::string>
  reachableFrom(const std::set<std::string> &Entries) const;

private:
  std::map<std::string, CallGraphNode> Nodes;
  /// Reverse edges: callee key -> caller keys (all call shapes).
  std::map<std::string, std::vector<std::string>> Callers;
  /// Reverse edges restricted to direct (inlinable) calls.
  std::map<std::string, std::vector<std::string>> DirectCallers;
  size_t Edges = 0;
};

} // namespace jvolve

#endif // JVOLVE_DSU_CALLGRAPH_H
