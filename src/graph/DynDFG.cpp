//===- graph/DynDFG.cpp - On-demand DynDFG view --------------------------===//

#include "graph/DynDFG.h"

#include "support/Dot.h"

#include <algorithm>
#include <sstream>

using namespace scorpio;

DynDFG DynDFG::fromTape(const Tape &T,
                        const std::vector<double> &Significance,
                        const std::map<NodeId, std::string> &Labels,
                        const std::vector<NodeId> &Outputs) {
  DynDFG G;
  SCORPIO_REQUIRE(Significance.size() == T.size(), diag::ErrC::SizeMismatch,
                  "DynDFG::fromTape: need one significance per tape node", G);
  const auto OnTape = [&](NodeId Id) {
    return Id >= 0 && static_cast<size_t>(Id) < T.size();
  };
  for (const auto &Entry : Labels)
    SCORPIO_REQUIRE(OnTape(Entry.first), diag::ErrC::OutOfRange,
                    "DynDFG::fromTape: label names a node outside the tape",
                    G);
  for (NodeId Out : Outputs)
    SCORPIO_REQUIRE(OnTape(Out), diag::ErrC::OutOfRange,
                    "DynDFG::fromTape: output names a node outside the tape",
                    G);
  const TapeLevels Raw = computeTapeLevels(T, Outputs, /*Simplify=*/false);
  const std::span<const TapeOp> Ops = T.ops();
  const std::span<const TapeEdges> Edges = T.edges();
  const std::span<const Interval> Values = T.values();
  G.Nodes.resize(T.size());
  for (size_t I = 0; I != T.size(); ++I) {
    DfgNode &DN = G.Nodes[I];
    DN.Kind = Ops[I].Kind;
    DN.Value = Values[I];
    DN.Significance = Significance[I];
    DN.Level = Raw.Level[I];
    DN.Preds.assign(Edges[I].Args, Edges[I].Args + Edges[I].NumArgs);
  }
  for (const auto &[Id, Name] : Labels)
    G.Nodes[static_cast<size_t>(Id)].Label = Name;
  for (NodeId Out : Outputs)
    G.Nodes[static_cast<size_t>(Out)].IsOutput = true;
  // Derive successor lists.
  for (size_t I = 0; I != G.Nodes.size(); ++I)
    for (NodeId P : G.Nodes[I].Preds)
      G.Nodes[static_cast<size_t>(P)].Succs.push_back(
          static_cast<NodeId>(I));
  G.Collapse = computeTapeLevels(T, Outputs, /*Simplify=*/true);
  return G;
}

size_t DynDFG::numAlive() const {
  size_t N = 0;
  for (const DfgNode &DN : Nodes)
    if (DN.Alive)
      ++N;
  return N;
}

void DynDFG::simplify() {
  const size_t N = Nodes.size();
  if (Collapse.Head.size() != N)
    return; // no plan, or already applied
  const std::vector<NodeId> &HeadOf = Collapse.Head;
  auto Dead = [&](size_t I) {
    return !Collapse.isAlive(static_cast<NodeId>(I));
  };

  // Rebuild predecessor lists: each alive node keeps its non-dead preds;
  // the external operands of every collapsed chain attach to the head.
  std::vector<std::vector<NodeId>> NewPreds(N);
  for (size_t I = 0; I != N; ++I) {
    if (!Nodes[I].Alive)
      continue;
    const NodeId Target = HeadOf[I];
    for (NodeId P : Nodes[I].Preds) {
      if (Dead(static_cast<size_t>(P)))
        continue; // chain-internal edge
      NewPreds[static_cast<size_t>(Target)].push_back(P);
    }
  }

  for (size_t I = 0; I != N; ++I) {
    Nodes[I].Level = Collapse.Level[I];
    if (Dead(I)) {
      Nodes[I].Alive = false;
      // Preserve a user label by moving it to the chain head if the head
      // is unlabeled (e.g. intermediate accumulator snapshots).
      const size_t H = static_cast<size_t>(HeadOf[I]);
      if (!Nodes[I].Label.empty() && Nodes[H].Label.empty())
        Nodes[H].Label = Nodes[I].Label;
      Nodes[I].Preds.clear();
      Nodes[I].Succs.clear();
      continue;
    }
    // Deduplicate while preserving order.
    std::vector<NodeId> Unique;
    for (NodeId P : NewPreds[I])
      if (std::find(Unique.begin(), Unique.end(), P) == Unique.end())
        Unique.push_back(P);
    Nodes[I].Preds = std::move(Unique);
    Nodes[I].Succs.clear();
  }
  for (size_t I = 0; I != N; ++I)
    if (Nodes[I].Alive)
      for (NodeId P : Nodes[I].Preds)
        Nodes[static_cast<size_t>(P)].Succs.push_back(
            static_cast<NodeId>(I));
  Collapse = TapeLevels();
}

int DynDFG::height() const {
  int H = 0;
  for (const DfgNode &DN : Nodes)
    if (DN.Alive)
      H = std::max(H, DN.Level + 1);
  return H;
}

std::vector<NodeId> DynDFG::nodesAtLevel(int L) const {
  std::vector<NodeId> Ids;
  for (size_t I = 0; I != Nodes.size(); ++I)
    if (Nodes[I].Alive && Nodes[I].Level == L)
      Ids.push_back(static_cast<NodeId>(I));
  return Ids;
}

std::vector<double> DynDFG::significancesAtLevel(int L) const {
  std::vector<double> Sig;
  for (NodeId Id : nodesAtLevel(L))
    Sig.push_back(node(Id).Significance);
  return Sig;
}

int DynDFG::findSignificanceVarianceLevel(double Delta,
                                          double Divisor) const {
  std::vector<int> Level(Nodes.size());
  std::vector<double> Sig(Nodes.size());
  for (size_t I = 0; I != Nodes.size(); ++I) {
    Level[I] = Nodes[I].Alive ? Nodes[I].Level : -1;
    Sig[I] = Nodes[I].Significance;
  }
  return findVarianceLevel(Level, height(), Sig, Delta, Divisor);
}

DynDFG DynDFG::truncatedAbove(int MaxLevel) const {
  DynDFG G;
  G.Nodes = Nodes;
  for (DfgNode &DN : G.Nodes) {
    if (!DN.Alive)
      continue;
    if (DN.Level < 0 || DN.Level > MaxLevel)
      DN.Alive = false;
  }
  // Drop edges into removed nodes.
  for (DfgNode &DN : G.Nodes) {
    if (!DN.Alive) {
      DN.Preds.clear();
      DN.Succs.clear();
      continue;
    }
    auto IsDead = [&](NodeId Id) {
      return !G.Nodes[static_cast<size_t>(Id)].Alive;
    };
    DN.Preds.erase(std::remove_if(DN.Preds.begin(), DN.Preds.end(), IsDead),
                   DN.Preds.end());
    DN.Succs.erase(std::remove_if(DN.Succs.begin(), DN.Succs.end(), IsDead),
                   DN.Succs.end());
  }
  return G;
}

void DynDFG::writeDot(std::ostream &OS) const {
  DotWriter W("DynDFG");
  for (size_t I = 0; I != Nodes.size(); ++I) {
    const DfgNode &DN = Nodes[I];
    if (!DN.Alive)
      continue;
    std::ostringstream Label;
    if (!DN.Label.empty())
      Label << DN.Label << "\\n";
    Label << opKindName(DN.Kind) << "\\nS=" << DN.Significance;
    std::string Attrs =
        "label=\"" + DotWriter::escape(Label.str()) + "\", shape=box";
    if (DN.IsOutput)
      Attrs += ", style=bold";
    if (DN.Kind == OpKind::Input)
      Attrs += ", style=filled, fillcolor=lightgrey";
    W.addNode("n" + std::to_string(I), Attrs);
  }
  for (size_t I = 0; I != Nodes.size(); ++I) {
    if (!Nodes[I].Alive)
      continue;
    for (NodeId P : Nodes[I].Preds)
      W.addEdge("n" + std::to_string(P), "n" + std::to_string(I));
  }
  W.write(OS);
}
