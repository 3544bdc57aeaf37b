#include "dsu/CallGraph.h"

#include "exec/Compiler.h"

#include <deque>

using namespace jvolve;

CallGraph::CallGraph(const ClassSet &Set) {
  // Pass 1: one node per declared method.
  for (const auto &[ClassName, Cls] : Set.classes()) {
    for (const MethodDef &M : Cls->Methods) {
      MethodRef Ref{ClassName, M.Name, M.Sig};
      CallGraphNode &N = Nodes[Ref.key()];
      N.Ref = Ref;
      N.Def = &M;
    }
  }

  // Pass 2: edges. Direct calls resolve to one declaring class; virtual
  // calls fan out over the receiver's subclass overrides (CHA).
  for (auto &[Key, N] : Nodes) {
    if (!N.Def)
      continue;
    std::set<std::string> All, Direct;
    for (const Instr &I : N.Def->Code) {
      if (I.Op == Opcode::NewArray) {
        // Allocating an array whose (possibly nested) element class declares
        // constructors can reach those initializers when the elements are
        // populated. Peel the descriptor the same way Upt::referencedClasses
        // does so methods reached only through array-typed receivers keep
        // their call-graph edges (and precise stays a subset of
        // conservative).
        if (!Type::isValidDescriptor(I.Sig))
          continue;
        Type T = Type::parse(I.Sig);
        while (T.isArray())
          T = T.elementType();
        if (!T.isRef())
          continue;
        const ClassDef *Elem = Set.find(T.className());
        if (!Elem)
          continue;
        for (const MethodDef &M : Elem->Methods)
          if (M.Name == "<init>") {
            std::string InitKey = MethodRef{Elem->Name, M.Name, M.Sig}.key();
            All.insert(InitKey);
            Direct.insert(InitKey);
          }
        continue;
      }
      if (I.Op != Opcode::InvokeVirtual && I.Op != Opcode::InvokeStatic &&
          I.Op != Opcode::InvokeSpecial)
        continue;
      size_t Dot = I.Sym.find('.');
      if (Dot == std::string::npos)
        continue;
      std::string ClassName = I.Sym.substr(0, Dot);
      std::string MethodName = I.Sym.substr(Dot + 1);
      std::string Declaring;
      const MethodDef *Callee =
          Set.resolveMethod(ClassName, MethodName, I.Sig, &Declaring);
      if (!Callee)
        continue; // unresolvable: the verifier reports it, not us
      std::string CalleeKey =
          MethodRef{Declaring, MethodName, I.Sig}.key();
      All.insert(CalleeKey);
      if (I.Op != Opcode::InvokeVirtual) {
        Direct.insert(CalleeKey);
        continue;
      }
      // CHA: any subclass of the static receiver type that declares an
      // override is a possible dispatch target.
      for (const auto &[SubName, SubCls] : Set.classes()) {
        if (SubName == Declaring || !Set.isSubclassOf(SubName, ClassName))
          continue;
        if (SubCls->findMethod(MethodName, I.Sig))
          All.insert(MethodRef{SubName, MethodName, I.Sig}.key());
      }
    }
    N.Callees.assign(All.begin(), All.end());
    N.DirectCallees.assign(Direct.begin(), Direct.end());
    Edges += N.Callees.size();
    for (const std::string &C : N.Callees)
      Callers[C].push_back(Key);
    for (const std::string &C : N.DirectCallees)
      DirectCallers[C].push_back(Key);
  }
}

const CallGraphNode *CallGraph::node(const std::string &Key) const {
  auto It = Nodes.find(Key);
  return It == Nodes.end() ? nullptr : &It->second;
}

std::set<std::string>
CallGraph::transitiveCallers(const std::set<std::string> &Seeds) const {
  std::set<std::string> Closed;
  std::deque<std::string> Work;
  for (const std::string &S : Seeds)
    if (Closed.insert(S).second)
      Work.push_back(S);
  while (!Work.empty()) {
    std::string Cur = Work.front();
    Work.pop_front();
    auto It = Callers.find(Cur);
    if (It == Callers.end())
      continue;
    for (const std::string &Caller : It->second)
      if (Closed.insert(Caller).second)
        Work.push_back(Caller);
  }
  return Closed;
}

std::set<std::string>
CallGraph::possibleInliners(const std::set<std::string> &Seeds) const {
  // Reverse BFS over direct-call edges. An edge caller->callee can embed
  // the callee's body only if the compiler would inline it: callee code
  // size within MaxInlineCodeLen and the inline chain at most
  // MaxInlineDepth frames deep (Compiler::shouldInline requires Depth <
  // MaxInlineDepth at each step). Track the best (shortest) chain length
  // per method.
  std::set<std::string> Result;
  std::map<std::string, size_t> BestDepth;
  std::deque<std::pair<std::string, size_t>> Work;
  for (const std::string &S : Seeds) {
    BestDepth[S] = 0;
    Work.emplace_back(S, 0);
  }
  while (!Work.empty()) {
    auto [Cur, Depth] = Work.front();
    Work.pop_front();
    if (Depth >= MaxInlineDepth)
      continue; // chain budget exhausted; Cur cannot be inlined further up
    const CallGraphNode *CurNode = node(Cur);
    if (!CurNode || !CurNode->Def ||
        CurNode->Def->Code.size() > MaxInlineCodeLen)
      continue; // too big to ever inline (seeds at depth 0 included)
    auto It = DirectCallers.find(Cur);
    if (It == DirectCallers.end())
      continue;
    for (const std::string &Caller : It->second) {
      if (Caller == Cur)
        continue; // recursion: the compiler's InlineStack check
      size_t D = Depth + 1;
      auto BI = BestDepth.find(Caller);
      if (BI != BestDepth.end() && BI->second <= D)
        continue;
      BestDepth[Caller] = D;
      if (!Seeds.count(Caller))
        Result.insert(Caller);
      Work.emplace_back(Caller, D);
    }
  }
  return Result;
}

std::set<std::string>
CallGraph::reachableFrom(const std::set<std::string> &Entries) const {
  std::set<std::string> Seen;
  std::deque<std::string> Work;
  for (const std::string &E : Entries)
    if (Seen.insert(E).second)
      Work.push_back(E);
  while (!Work.empty()) {
    std::string Cur = Work.front();
    Work.pop_front();
    const CallGraphNode *N = node(Cur);
    if (!N)
      continue;
    for (const std::string &Callee : N->Callees)
      if (Seen.insert(Callee).second)
        Work.push_back(Callee);
  }
  return Seen;
}
