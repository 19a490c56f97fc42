//===- verify/GraphVerifier.cpp - Post-S4/S5 DynDFG verification ----------===//

#include "verify/GraphVerifier.h"

#include "support/Statistics.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <utility>

using namespace scorpio;
using namespace scorpio::verify;

namespace {

std::string nodeDesc(const DynDFG &G, NodeId Id) {
  const DfgNode &N = G.node(Id);
  std::string S = "u" + std::to_string(Id) + " (" + opKindName(N.Kind);
  if (!N.Label.empty())
    S += " '" + N.Label + "'";
  S += ")";
  return S;
}

/// Records a finding without a fix-it.
void flag(VerifyReport &R, RuleKind K, NodeId Node, int Arg,
          std::string Msg) {
  Finding F;
  F.Kind = K;
  F.Node = Node;
  F.ArgIndex = Arg;
  F.Message = std::move(Msg);
  R.add(std::move(F));
}

/// True when \p Id is in range for \p G and names an alive node.
bool aliveIn(const DynDFG &G, NodeId Id) {
  return G.isValidNode(Id) && G.node(Id).Alive;
}

/// Recomputes the BFS level of every node of \p G from its alive
/// outputs, as DfgNode::Level defines it, without touching \p G and
/// without the array pass (graph/TapeLevels.h) that set the levels.  Index i holds the expected level of node i (-1 for
/// dead or unreachable nodes).
std::vector<int> expectedLevels(const DynDFG &G) {
  const size_t N = G.size();
  std::vector<int> Level(N, -1);
  std::deque<NodeId> Queue;
  for (size_t I = 0; I != N; ++I) {
    const DfgNode &DN = G.node(static_cast<NodeId>(I));
    if (DN.Alive && DN.IsOutput) {
      Level[I] = 0;
      Queue.push_back(static_cast<NodeId>(I));
    }
  }
  while (!Queue.empty()) {
    const NodeId V = Queue.front();
    Queue.pop_front();
    const int Next = Level[static_cast<size_t>(V)] + 1;
    for (NodeId P : G.node(V).Preds) {
      if (!aliveIn(G, P))
        continue; // G002 reports the bad edge; do not walk through it
      if (Level[static_cast<size_t>(P)] != -1)
        continue;
      Level[static_cast<size_t>(P)] = Next;
      Queue.push_back(P);
    }
  }
  return Level;
}

/// G002: every Pred/Succ id of an alive node names an alive in-range
/// node.  Returns true when the edge lists are safe to traverse.
bool checkEdges(const DynDFG &G, VerifyReport &R) {
  bool Clean = true;
  for (size_t I = 0; I != G.size(); ++I) {
    const NodeId Id = static_cast<NodeId>(I);
    const DfgNode &N = G.node(Id);
    if (!N.Alive)
      continue;
    const auto Check = [&](const std::vector<NodeId> &List, const char *Dir) {
      for (size_t A = 0; A != List.size(); ++A) {
        const NodeId E = List[A];
        if (aliveIn(G, E))
          continue;
        Clean = false;
        std::ostringstream M;
        M << nodeDesc(G, Id) << " " << Dir << "[" << A << "] = " << E << " ";
        M << (G.isValidNode(E) ? "references a dead node"
                               : "is outside the graph");
        flag(R, RuleKind::GraphDanglingEdge, Id, static_cast<int>(A), M.str());
      }
    };
    Check(N.Preds, "pred");
    Check(N.Succs, "succ");
  }
  return Clean;
}

/// G001: Preds and Succs describe the same multiset of edges.
void checkMirrors(const DynDFG &G, VerifyReport &R) {
  // Count each alive-to-alive edge (producer, consumer) as seen from the
  // consumer's Preds and from the producer's Succs; any multiplicity
  // difference means the two views disagree.
  std::map<std::pair<NodeId, NodeId>, std::pair<int, int>> Edges;
  for (size_t I = 0; I != G.size(); ++I) {
    const NodeId Id = static_cast<NodeId>(I);
    const DfgNode &N = G.node(Id);
    if (!N.Alive)
      continue;
    for (NodeId P : N.Preds)
      if (aliveIn(G, P))
        ++Edges[{P, Id}].first;
    for (NodeId S : N.Succs)
      if (aliveIn(G, S))
        ++Edges[{Id, S}].second;
  }
  for (const auto &[Edge, Counts] : Edges) {
    if (Counts.first == Counts.second)
      continue;
    std::ostringstream M;
    M << "edge " << nodeDesc(G, Edge.first) << " -> "
      << nodeDesc(G, Edge.second) << " appears " << Counts.first
      << "x in Preds but " << Counts.second << "x in Succs";
    flag(R, RuleKind::MirrorInconsistency, Edge.second, -1, M.str());
  }
}

/// G003: the alive subgraph is a DAG.  Iterative coloring DFS over the
/// Preds relation; a back edge into an in-progress node is a cycle.
void checkAcyclic(const DynDFG &G, VerifyReport &R) {
  enum : uint8_t { White, Grey, Black };
  const size_t N = G.size();
  std::vector<uint8_t> Color(N, White);
  // Frame: node plus the index of the next pred to visit.
  std::vector<std::pair<NodeId, size_t>> Stack;
  for (size_t Root = 0; Root != N; ++Root) {
    if (Color[Root] != White || !G.node(static_cast<NodeId>(Root)).Alive)
      continue;
    Stack.emplace_back(static_cast<NodeId>(Root), 0);
    Color[Root] = Grey;
    while (!Stack.empty()) {
      auto &[V, Next] = Stack.back();
      const std::vector<NodeId> &Preds = G.node(V).Preds;
      if (Next == Preds.size()) {
        Color[static_cast<size_t>(V)] = Black;
        Stack.pop_back();
        continue;
      }
      const NodeId P = Preds[Next++];
      if (!aliveIn(G, P))
        continue; // reported by G002
      if (Color[static_cast<size_t>(P)] == Grey) {
        std::ostringstream M;
        M << "back edge " << nodeDesc(G, V) << " -> " << nodeDesc(G, P)
          << " closes a cycle in the alive subgraph";
        flag(R, RuleKind::GraphCycle, P, -1, M.str());
        continue;
      }
      if (Color[static_cast<size_t>(P)] == White) {
        Color[static_cast<size_t>(P)] = Grey;
        Stack.emplace_back(P, 0);
      }
    }
  }
}

/// G004 + G005: stored levels match the recomputed BFS distance, and
/// (optionally, as a warning) every alive node reaches an output.
void checkLevels(const DynDFG &G, const GraphVerifierOptions &Options,
                 VerifyReport &R) {
  const std::vector<int> Expected = expectedLevels(G);
  for (size_t I = 0; I != G.size(); ++I) {
    const NodeId Id = static_cast<NodeId>(I);
    const DfgNode &N = G.node(Id);
    if (!N.Alive)
      continue;
    if (N.Level != Expected[I]) {
      std::ostringstream M;
      M << nodeDesc(G, Id) << " stores level " << N.Level
        << " but its BFS distance from the outputs is " << Expected[I];
      flag(R, RuleKind::LevelInvariant, Id, -1, M.str());
    }
    if (Options.CheckUnreachable && Expected[I] == -1) {
      std::ostringstream M;
      M << nodeDesc(G, Id)
        << " is alive but no registered output depends on it";
      flag(R, RuleKind::UnreachableAlive, Id, -1, M.str());
    }
  }
}

/// Set of ids that are alive outputs of \p G.
std::set<NodeId> aliveOutputs(const DynDFG &G) {
  std::set<NodeId> Out;
  for (size_t I = 0; I != G.size(); ++I) {
    const DfgNode &N = G.node(static_cast<NodeId>(I));
    if (N.Alive && N.IsOutput)
      Out.insert(static_cast<NodeId>(I));
  }
  return Out;
}

} // namespace

VerifyReport verify::verifyGraph(const DynDFG &G,
                                 const GraphVerifierOptions &Options) {
  VerifyReport R(Options.MaxFindingsPerRule);
  const bool EdgesClean = checkEdges(G, R);
  checkMirrors(G, R);
  if (EdgesClean)
    checkAcyclic(G, R);
  checkLevels(G, Options, R);
  return R;
}

VerifyReport verify::verifySimplify(const DynDFG &Before, const DynDFG &After,
                                    const GraphVerifierOptions &Options) {
  VerifyReport R(Options.MaxFindingsPerRule);
  if (Before.size() != After.size()) {
    std::ostringstream M;
    M << "simplify changed the node id space: " << Before.size()
      << " nodes before, " << After.size() << " after";
    flag(R, RuleKind::OutputSetChanged, InvalidNodeId, -1, M.str());
    return R; // the id spaces are incomparable; nothing else is checkable
  }
  const size_t N = Before.size();

  // G006: the alive output set survives verbatim.
  const std::set<NodeId> OutB = aliveOutputs(Before);
  const std::set<NodeId> OutA = aliveOutputs(After);
  for (NodeId Id : OutB)
    if (!OutA.count(Id)) {
      flag(R, RuleKind::OutputSetChanged, Id, -1,
           "output " + nodeDesc(Before, Id) + " did not survive simplify");
    }
  for (NodeId Id : OutA)
    if (!OutB.count(Id)) {
      flag(R, RuleKind::OutputSetChanged, Id, -1,
           "simplify introduced output " + nodeDesc(After, Id));
    }

  // Collapsed = alive before, dead after.  Anything dead before must
  // stay dead (a revived node is not a collapse but it rewires the
  // graph just the same).
  std::vector<bool> Collapsed(N, false);
  for (size_t I = 0; I != N; ++I) {
    const NodeId Id = static_cast<NodeId>(I);
    const bool B = Before.node(Id).Alive, A = After.node(Id).Alive;
    if (B && !A)
      Collapsed[I] = true;
    else if (!B && A)
      flag(R, RuleKind::InvalidCollapse, Id, -1,
           "dead node " + nodeDesc(After, Id) + " was revived by simplify");
  }

  // G007a: every collapsed node satisfies the S4 chain-link criterion,
  // judged against Before: an accumulative non-output non-input
  // operation whose unique alive consumer performs the same operation.
  for (size_t I = 0; I != N; ++I) {
    if (!Collapsed[I])
      continue;
    const NodeId Id = static_cast<NodeId>(I);
    const DfgNode &V = Before.node(Id);
    std::string Why;
    if (V.IsOutput)
      Why = "is a registered output";
    else if (V.Kind == OpKind::Input)
      Why = "is an input";
    else if (!isAccumulativeOp(V.Kind))
      Why = "is not an accumulative operation";
    else if (V.Succs.size() != 1)
      Why = "has " + std::to_string(V.Succs.size()) +
            " consumers instead of exactly one";
    else if (!aliveIn(Before, V.Succs[0]) ||
             Before.node(V.Succs[0]).Kind != V.Kind)
      Why = "its consumer does not perform the same operation";
    if (!Why.empty())
      flag(R, RuleKind::InvalidCollapse, Id, -1,
           "collapsed node " + nodeDesc(Before, Id) + " " + Why +
               "; it is not a res = res + term chain link");
  }

  // Head of a collapsed node: follow the unique-consumer chain in
  // Before until a surviving node is reached.  Walks are bounded by N
  // so a forged cyclic chain cannot hang the verifier.
  const auto HeadOf = [&](NodeId Id) {
    for (size_t Steps = 0; Steps != N; ++Steps) {
      if (!Collapsed[static_cast<size_t>(Id)])
        return Id;
      const std::vector<NodeId> &Succs = Before.node(Id).Succs;
      if (Succs.size() != 1 || !Before.isValidNode(Succs[0]))
        return InvalidNodeId;
      Id = Succs[0];
    }
    return InvalidNodeId; // cyclic forged chain
  };

  // G007b: operand re-attachment.  For every surviving node H, the new
  // pred set must be exactly the surviving external operands of H plus
  // of every chain collapsed into H.
  std::vector<std::set<NodeId>> Expected(N);
  for (size_t I = 0; I != N; ++I) {
    if (!Before.node(static_cast<NodeId>(I)).Alive)
      continue;
    const NodeId Target = HeadOf(static_cast<NodeId>(I));
    if (Target == InvalidNodeId)
      continue; // already reported as an invalid collapse above
    for (NodeId P : Before.node(static_cast<NodeId>(I)).Preds)
      if (Before.isValidNode(P) && !Collapsed[static_cast<size_t>(P)])
        Expected[static_cast<size_t>(Target)].insert(P);
  }
  for (size_t I = 0; I != N; ++I) {
    const NodeId Id = static_cast<NodeId>(I);
    if (!After.node(Id).Alive || !Before.node(Id).Alive)
      continue;
    const std::vector<NodeId> &Got = After.node(Id).Preds;
    const std::set<NodeId> GotSet(Got.begin(), Got.end());
    if (GotSet != Expected[I]) {
      std::ostringstream M;
      M << nodeDesc(After, Id) << " has " << GotSet.size()
        << " operands after simplify but the collapsed chains imply "
        << Expected[I].size() << "; the re-attachment sets differ";
      flag(R, RuleKind::InvalidCollapse, Id, -1, M.str());
    }
  }

  // G008: significance is moved, never created or destroyed.  Surviving
  // nodes keep their recorded significance, and the output mass — the
  // Eq.-11 quantity every report normalizes by — is conserved.
  const auto Differs = [&](double A, double B) {
    return std::abs(A - B) >
           Options.MassTolerance * std::max(1.0, std::abs(B));
  };
  for (size_t I = 0; I != N; ++I) {
    const NodeId Id = static_cast<NodeId>(I);
    if (!Before.node(Id).Alive || !After.node(Id).Alive)
      continue;
    if (Differs(After.node(Id).Significance, Before.node(Id).Significance)) {
      std::ostringstream M;
      M << nodeDesc(After, Id) << " significance changed from "
        << Before.node(Id).Significance << " to "
        << After.node(Id).Significance << " across simplify";
      flag(R, RuleKind::SignificanceMassLoss, Id, -1, M.str());
    }
  }
  double MassB = 0.0, MassA = 0.0;
  for (NodeId Id : OutB)
    MassB += Before.node(Id).Significance;
  for (NodeId Id : OutA)
    MassA += After.node(Id).Significance;
  if (Differs(MassA, MassB)) {
    std::ostringstream M;
    M << "total alive output significance changed from " << MassB << " to "
      << MassA << " across simplify";
    flag(R, RuleKind::SignificanceMassLoss, InvalidNodeId, -1, M.str());
  }
  return R;
}

VerifyReport verify::verifyVarianceLevel(const DynDFG &G, int ReportedLevel,
                                         double Delta, double Divisor,
                                         const GraphVerifierOptions &Options) {
  VerifyReport R(Options.MaxFindingsPerRule);
  // Independent re-scan of the S5 search: first level in [1, height)
  // whose (normalized) significances have population variance > Delta.
  int Expected = -1;
  const int H = G.height();
  for (int L = 1; L < H; ++L) {
    std::vector<double> Sig = G.significancesAtLevel(L);
    if (Sig.size() < 2)
      continue;
    if (Divisor != 1.0)
      for (double &S : Sig)
        S /= Divisor;
    if (variance(Sig) > Delta) {
      Expected = L;
      break;
    }
  }
  if (Expected != ReportedLevel) {
    std::ostringstream M;
    M << "reported significance-variance level " << ReportedLevel
      << " but re-scanning the per-level significances (delta=" << Delta
      << ", divisor=" << Divisor << ") yields " << Expected;
    flag(R, RuleKind::VarianceLevelMismatch, InvalidNodeId, -1, M.str());
  }
  return R;
}

VerifyReport verify::verifyTruncation(const DynDFG &G, int MaxLevel,
                                      const DynDFG &Truncated,
                                      const GraphVerifierOptions &Options) {
  VerifyReport R(Options.MaxFindingsPerRule);
  if (G.size() != Truncated.size()) {
    std::ostringstream M;
    M << "truncatedAbove(" << MaxLevel << ") changed the node id space: "
      << G.size() << " nodes before, " << Truncated.size() << " after";
    flag(R, RuleKind::TruncationNotMonotone, InvalidNodeId, -1, M.str());
    return R;
  }
  const auto Survives = [&](NodeId Id) {
    const DfgNode &N = G.node(Id);
    return N.Alive && N.Level >= 0 && N.Level <= MaxLevel;
  };
  for (size_t I = 0; I != G.size(); ++I) {
    const NodeId Id = static_cast<NodeId>(I);
    const bool Want = Survives(Id);
    const DfgNode &T = Truncated.node(Id);
    if (T.Alive != Want) {
      std::ostringstream M;
      M << nodeDesc(G, Id) << " at level " << G.node(Id).Level << " is "
        << (T.Alive ? "alive" : "dead") << " after truncatedAbove("
        << MaxLevel << ") but the level prefix says it must be "
        << (Want ? "alive" : "dead");
      flag(R, RuleKind::TruncationNotMonotone, Id, -1, M.str());
      continue;
    }
    if (!Want)
      continue;
    const DfgNode &S = G.node(Id);
    // Payloads are copied, never recomputed: exact comparison.
    const bool PayloadSame = T.Kind == S.Kind && T.Value == S.Value &&
                             T.Significance == S.Significance &&
                             T.Level == S.Level && T.Label == S.Label &&
                             T.IsOutput == S.IsOutput;
    if (!PayloadSame) {
      flag(R, RuleKind::TruncationNotMonotone, Id, -1,
           "payload of " + nodeDesc(G, Id) +
               " changed across truncatedAbove(" +
               std::to_string(MaxLevel) + ")");
      continue;
    }
    // Edges must be the source edges filtered to survivors, in order.
    const auto Filtered = [&](const std::vector<NodeId> &List) {
      std::vector<NodeId> Out;
      for (NodeId E : List)
        if (G.isValidNode(E) && Survives(E))
          Out.push_back(E);
      return Out;
    };
    if (T.Preds != Filtered(S.Preds) || T.Succs != Filtered(S.Succs)) {
      flag(R, RuleKind::TruncationNotMonotone, Id, -1,
           "edge lists of " + nodeDesc(G, Id) +
               " are not the survivor-filtered source edges after "
               "truncatedAbove(" +
               std::to_string(MaxLevel) + ")");
    }
  }
  return R;
}

VerifyReport verify::auditGraphPipeline(
    const Tape &T, const std::vector<double> &Significance,
    const std::map<NodeId, std::string> &Labels,
    const std::vector<NodeId> &Outputs, double Delta, double Divisor,
    const GraphVerifierOptions &Options) {
  VerifyReport R(Options.MaxFindingsPerRule);

  // Post-fromTape structural audit.
  DynDFG G = DynDFG::fromTape(T, Significance, Labels, Outputs);
  R.merge(verifyGraph(G, Options));

  // S4 audit: simplify against a pristine copy.  The post-simplify
  // structural re-check drops the unreachable warning so one unread
  // input does not fire G005 per pipeline stage.
  const DynDFG BeforeS4 = G;
  G.simplify();
  R.merge(verifySimplify(BeforeS4, G, Options));
  GraphVerifierOptions PostS4 = Options;
  PostS4.CheckUnreachable = false;
  R.merge(verifyGraph(G, PostS4));

  // S5 audit.
  const int Level = G.findSignificanceVarianceLevel(Delta, Divisor);
  R.merge(verifyVarianceLevel(G, Level, Delta, Divisor, Options));

  // Truncation audit over a few representative cut levels: the boundary
  // the S5 search suggests (the paper's G.removeAbove(L+1)), the
  // outputs-only prefix, and the full height.
  std::vector<int> Cuts;
  if (Level >= 0)
    Cuts.push_back(Level);
  Cuts.push_back(0);
  if (G.height() > 1)
    Cuts.push_back(G.height() - 1);
  std::sort(Cuts.begin(), Cuts.end());
  Cuts.erase(std::unique(Cuts.begin(), Cuts.end()), Cuts.end());
  if (Options.MaxTruncationSamples >= 0 &&
      Cuts.size() > static_cast<size_t>(Options.MaxTruncationSamples))
    Cuts.resize(static_cast<size_t>(Options.MaxTruncationSamples));
  for (int Cut : Cuts)
    R.merge(verifyTruncation(G, Cut, G.truncatedAbove(Cut), Options));
  return R;
}
