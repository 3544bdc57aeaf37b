//===----------------------------------------------------------------------===//
///
/// \file
/// The quickening compiler ("JIT") of MiniVM.
///
/// Two tiers, like Jikes RVM: the *baseline* tier translates bytecode 1:1
/// into resolved instructions (so on-stack replacement can map program
/// counters directly), and the *opt* tier additionally inlines small
/// directly bound callees (InvokeStatic / InvokeSpecial), possibly several
/// levels deep. Both tiers hard-code field offsets, statics slots, TIB
/// slots and method ids — the compiled-representation dependence that gives
/// rise to category-(2) restricted methods during an update.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_EXEC_COMPILER_H
#define JVOLVE_EXEC_COMPILER_H

#include "exec/CompiledMethod.h"
#include "runtime/ClassRegistry.h"
#include "runtime/StringTable.h"

#include <memory>
#include <set>

namespace jvolve {

/// The opt tier's inlining policy, which the static analyzer's inline
/// closure (CallGraph::possibleInliners) reads too: callees of at most
/// MaxInlineCodeLen bytecode instructions are inlined, at most
/// MaxInlineDepth levels deep ("multiple levels down a hot call chain").
inline constexpr size_t MaxInlineCodeLen = 16;
inline constexpr size_t MaxInlineDepth = 3;

/// Compiles methods against the current state of the class registry.
class Compiler {
public:
  struct Options {
    /// Compile field accesses with JDrums/DVM-style indirection checks
    /// (the steady-state-overhead ablation; paper §5).
    bool IndirectionChecks = false;
    /// Compile object accesses with the lazy-transform read barrier. Only
    /// set while a LazyTransformEngine is draining; the engine flips it
    /// back off at barrier retirement.
    bool EmitLazyBarriers = false;
  };

  Compiler(ClassRegistry &Registry, StringTable &Strings, Options Opts)
      : Registry(Registry), Strings(Strings), Opts(Opts) {}
  Compiler(ClassRegistry &Registry, StringTable &Strings)
      : Compiler(Registry, Strings, Options()) {}

  /// Compiles \p Method at \p T. Aborts on unresolvable references — the
  /// verifier guarantees they resolve, so failure is a VM bug.
  std::shared_ptr<CompiledMethod> compile(MethodId Method, Tier T);

  const Options &options() const { return Opts; }

  /// Arms/retires the lazy-transform barrier for *future* compilations;
  /// the LazyTransformEngine patches already-compiled methods itself.
  void setEmitLazyBarriers(bool V) { Opts.EmitLazyBarriers = V; }

  /// Total number of compilations performed (benchmark counter).
  uint64_t compilationsPerformed() const { return NumCompilations; }

private:
  struct EmitContext {
    CompiledMethod *Out = nullptr;
    std::set<ClassId> RefClasses;
    std::set<MethodId> InlinedMethods;
    uint16_t NextLocal = 0;
  };

  /// Emits \p Def's body into \p Ctx. \p LocalBase is the slot offset of
  /// the method's locals, \p TopLevelBc the Bc index recorded for inlined
  /// code, and \p InlineStack the methods currently being inlined (for
  /// recursion detection). \returns the index of the first emitted
  /// instruction.
  size_t emitBody(const MethodDef &Def, uint16_t LocalBase, Tier T,
                  unsigned Depth, int32_t TopLevelBc,
                  std::vector<MethodId> &InlineStack, EmitContext &Ctx);

  bool shouldInline(MethodId Callee, Tier T, unsigned Depth,
                    const std::vector<MethodId> &InlineStack) const;

  ClassRegistry &Registry;
  StringTable &Strings;
  Options Opts;
  uint64_t NumCompilations = 0;
};

} // namespace jvolve

#endif // JVOLVE_EXEC_COMPILER_H
