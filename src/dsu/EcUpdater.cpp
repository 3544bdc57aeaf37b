#include "dsu/EcUpdater.h"

#include "bytecode/Builtins.h"
#include "bytecode/Verifier.h"
#include "dsu/CodeVersion.h"

#include <cassert>

using namespace jvolve;

bool EcUpdater::apply(const ClassSet &NewProgram, const UpdateSpec &Spec,
                      std::string *WhyNot, UpdateTrace *Trace,
                      const std::string &VersionTag) {
  auto Fail = [&](const std::string &Msg) {
    if (WhyNot)
      *WhyNot = Msg;
    return false;
  };

  if (!Spec.ClassUpdates.empty())
    return Fail("class signature changes are not supported");
  if (!Spec.AddedClasses.empty() || !Spec.DeletedClasses.empty())
    return Fail("class additions/deletions are not supported");

  ClassSet Program = NewProgram;
  ensureBuiltins(Program);
  if (!verifies(Program))
    return Fail("new version fails verification");

  // Route every swap through the per-method version chains: the manager
  // archives the superseded bodies (so a later install of the parent body
  // pops the chain instead of growing it), invalidates callers that
  // inlined a swapped body, and commits the batch as one atomic
  // active-version switch — HotSwap semantics without losing the history.
  ClassRegistry &Reg = TheVM.registry();
  std::vector<CodeVersionManager::BodyUpdate> Updates;
  for (const MethodRef &R : Spec.MethodBodyUpdates) {
    ClassId Cls = Reg.idOf(R.ClassName);
    assert(Cls != InvalidClassId && "body update on unknown class");
    MethodId Id = Reg.resolveMethod(Cls, R.Name, R.Sig);
    assert(Id != InvalidMethodId && "body update on unknown method");
    const ClassDef *NewCls = Program.find(R.ClassName);
    const MethodDef *NewBody = NewCls->findMethod(R.Name, R.Sig);
    assert(NewBody && "method missing from new version");
    Updates.push_back({Id, NewBody, R.ClassName + "." + R.Name + R.Sig});
  }
  std::string Why;
  if (!CodeVersionManager::of(TheVM).installBodySet(Updates, VersionTag,
                                                    Trace, &Why))
    return Fail(Why);

  TheVM.setProgram(std::move(Program));
  return true;
}
