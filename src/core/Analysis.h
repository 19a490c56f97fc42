//===- core/Analysis.h - Significance analysis driver ---------------------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing entry point of dco/scorpio: register inputs with their
/// value ranges (S2), run the kernel on IAValue (S3 forward sweep),
/// register intermediates and outputs (S1), then analyse() performs the
/// adjoint reverse sweep, computes Eq.-11 significances for every node,
/// simplifies the DynDFG (S4) and locates the significance-variance level
/// (S5), both straight off the tape (graph/TapeLevels.h).  The DynDFG
/// itself is a view that graph() builds on demand.
///
/// The paper's macro set (Table 1) is provided in core/Macros.h on top of
/// this class.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_CORE_ANALYSIS_H
#define SCORPIO_CORE_ANALYSIS_H

#include "graph/DynDFG.h"
#include "core/IAValue.h"
#include "tape/Tape.h"
#include "tape/TapeIO.h"
#include "verify/Verify.h"

#include <array>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace scorpio {

class JsonWriter;

/// How much of the verification stack analyse() runs over the freshly
/// recorded tape.  Serialized into .stap META as one byte — append
/// levels, never renumber.
enum class VerifyLevel : uint8_t {
  /// No verification.
  Off = 0,
  /// The structural tape verifier (SCORPIO-Exxx, src/verify): the old
  /// `VerifyTape = true`.
  Structural = 1,
  /// Structural plus the abstract-interpretation audit (SCORPIO-Axxx,
  /// verify/AbsInt.h): enclosures, partials and significance bounds
  /// are re-derived from the recorded inputs and cross-checked against
  /// the recorded tape and the dynamic sweep results.
  AbsInt = 2,
};

/// Which error-analysis backend the reverse sweep feeds (the pluggable
/// SweepBackendIface of core/SweepBackends.h).  A per-run analysis
/// choice like the sweep implementation or the merge-time verify level:
/// it is NOT part of the .stap wire format (tapes record dataflow, not
/// what question is asked of it), but it IS part of the result-cache
/// key — significance and FP-error reports must never collide.
enum class AnalysisBackend : uint8_t {
  /// The paper's Eq.-11 interval significance analysis (the default;
  /// byte-identical to the pre-refactor pipeline).
  Significance = 0,
  /// CHEF-FP-style floating-point rounding-error estimation: per-node
  /// local half-ulp errors scaled per OpKind, propagated through the
  /// same reverse adjoint sweep.  Per-node "significances" are then
  /// absolute error contributions and outputSignificance() is the
  /// total FP error bound at the outputs.
  FpError = 1,
};

/// Options controlling analyse().
struct AnalysisOptions {
  /// How multiple registered outputs are combined.
  enum class OutputMode {
    /// One reverse sweep with every output adjoint seeded to 1 (the
    /// paper's "single run" for vector functions, Section 2.3).
    CombinedSeed,
    /// One reverse sweep per output; per-node significances are the sum
    /// of the per-output significances (the literal definition
    /// S_y(u) = sum_i S_{y_i}(u)).  Costs ceil(m / BatchWidth) passes
    /// over the tape: outputs are propagated as adjoint lanes of
    /// Tape::reverseSweepBatch, which is bit-identical to (but much
    /// faster than) m dedicated sweeps.
    PerOutput,
  };

  /// How a node's significance is computed from its enclosure and
  /// interval adjoint.
  enum class Metric {
    /// Eq. 11 verbatim: S = w([u] * grad_[u][y]).  The paper notes this
    /// worst-case product "might introduce a considerable
    /// overestimation": variables with large point values absorb any
    /// adjoint width.
    Eq11WorstCase,
    /// S = w([u]) * mag(grad_[u][y]): the first-order perturbation
    /// impact; immune to the value-magnitude artifact.  Compared against
    /// Eq11WorstCase in bench/ablation_analysis.
    WidthTimesDerivative,
  };

  OutputMode Mode = OutputMode::CombinedSeed;
  Metric SignificanceMetric = Metric::Eq11WorstCase;
  /// Number of adjoint lanes propagated per PerOutput backward pass
  /// (vector-adjoint mode).  1 degenerates to the classic one-sweep-per-
  /// output loop; results are identical for every width.
  unsigned BatchWidth = 8;
  /// Run step S4 (aggregation-chain collapsing) before level analysis.
  bool Simplify = true;
  /// Run steps S4/S5: the level analysis behind the result's variance
  /// level and graph statistics.  Callers that only consume
  /// per-variable significances (block-significance apps, throughput
  /// benchmarks) can switch this off; VarianceLevel is then -1 and the
  /// graph statistics are 0.
  bool BuildGraph = true;
  /// Variance threshold delta of step S5, applied to *normalized*
  /// significances so it is scale-free.
  double Delta = 1e-3;
  /// Cap applied to infinite/overflowing significances so downstream
  /// statistics stay finite.
  double SignificanceCap = 1e300;
  /// Run the verification stack between S3 and the reverse sweep.
  /// Findings land in AnalysisResult::verification(); structural
  /// errors invalidate the result and skip the sweep — a malformed IR
  /// is reported, never analysed.  At VerifyLevel::AbsInt the
  /// abstract-interpretation audit additionally cross-checks recorded
  /// enclosures/partials and the dynamic significances against
  /// independently re-derived static bounds; A-errors invalidate the
  /// result but the significance data is still computed and reported.
  VerifyLevel VerifyTape = VerifyLevel::Off;
  /// Which adjoint-sweep implementation to run.  Auto (the default)
  /// uses the SIMD lanes when the build has them; Scalar forces the
  /// textbook loops.  Results are bit-identical either way (the E008
  /// contract) — the knob exists for A/B measurement and cross-checks.
  SweepBackend Sweep = SweepBackend::Auto;
  /// Which error-analysis backend interprets the adjoints the reverse
  /// sweep computes.  Significance (the default) reproduces the paper's
  /// Eq.-11 pipeline byte for byte; FpError reuses the same sweep
  /// machinery to accumulate CHEF-FP-style rounding-error bounds.
  AnalysisBackend Backend = AnalysisBackend::Significance;
  /// Worker threads ParallelAnalysis::run() fans shards over when its
  /// own NumThreads argument is 0 (0 here too = hardware concurrency).
  /// Purely an execution knob: deliberately excluded from shard META,
  /// cache keys and merge-side option matching, because the merged
  /// report is byte-identical at every thread count.
  unsigned NumThreads = 0;
};

/// Significance of one registered variable.
struct VariableSignificance {
  std::string Name;
  NodeId Node = InvalidNodeId;
  Interval Value;
  /// Raw Eq.-11 significance.
  double Significance = 0.0;
  /// Significance divided by the total output significance (so the
  /// output itself is 1.0, as in Figure 3).
  double Normalized = 0.0;
};

/// Everything analyse() produces.
class AnalysisResult {
public:
  /// False when the kernel branched on an ambiguous interval comparison;
  /// in that case Divergences lists the offending conditions and all
  /// significance data must be disregarded (paper Section 2.2).
  bool isValid() const { return Divergences.empty(); }
  const std::vector<std::string> &divergences() const { return Divergences; }

  /// Raw significance of tape node \p Id.
  double significanceOf(NodeId Id) const {
    return NodeSignificance[static_cast<size_t>(Id)];
  }

  /// All per-node raw significances, indexed by NodeId.  The semantic
  /// cache audit (verify/AbsInt.h) validates these against statically
  /// re-derived bounds.
  std::span<const double> nodeSignificances() const {
    return NodeSignificance;
  }

  /// Normalized significance of tape node \p Id.
  double normalizedSignificanceOf(NodeId Id) const;

  /// Registered-variable views, in registration order.
  const std::vector<VariableSignificance> &inputs() const { return Inputs; }
  const std::vector<VariableSignificance> &intermediates() const {
    return Intermediates;
  }
  const std::vector<VariableSignificance> &outputs() const {
    return Outputs;
  }

  /// Looks up a registered variable by name (inputs, intermediates, then
  /// outputs); returns nullptr when absent.
  const VariableSignificance *find(const std::string &Name) const;

  /// Sum of the raw significances of all registered outputs; the
  /// denominator of normalization.
  double outputSignificance() const { return OutputSig; }

  /// Alive-node count and height of the (simplified) DynDFG at
  /// analyse() time -- the graph Analysis::graph() would build.  A
  /// cached result reports the recorded numbers byte-identically.
  size_t graphAliveNodes() const { return GraphAlive; }
  int graphHeight() const { return GraphHeight; }

  /// Level found by step S5 (-1 when no variance level was detected).
  int varianceLevel() const { return VarianceLevel; }

  /// The error-analysis backend that produced this result.  Under
  /// AnalysisBackend::FpError, nodeSignificances() holds per-node FP
  /// error contributions and outputSignificance() the total FP error
  /// bound; everything else (normalization, graph, variance level) is
  /// computed over those numbers by the shared pipeline.
  AnalysisBackend backend() const { return Backend; }

  /// Verifier findings (empty unless AnalysisOptions::VerifyTape ran).
  const verify::VerifyReport &verification() const { return Verification; }

  /// True when the structural verifier ran on this result's tape.
  bool wasVerified() const { return Verified; }

  /// The paper's "report" step of ANALYSE(): prints registered variables
  /// with their enclosures and significances.
  void print(std::ostream &OS) const;

  /// Machine-readable form of the report: validity/divergences,
  /// registered variables with enclosures and (normalized)
  /// significances, output significance, and the S5 variance level.
  void writeJson(std::ostream &OS) const;

  /// Emits the same report as one JSON object into an already-open
  /// writer, so callers (e.g. ParallelAnalysisResult) can nest per-shard
  /// reports inside a larger document.
  void writeJson(JsonWriter &J) const;

private:
  friend class Analysis;
  friend class KernelRegistry;
  friend class ParallelAnalysis;
  std::vector<std::string> Divergences;
  std::vector<double> NodeSignificance;
  std::vector<VariableSignificance> Inputs, Intermediates, Outputs;
  double OutputSig = 0.0;
  size_t GraphAlive = 0;
  int GraphHeight = 0;
  int VarianceLevel = -1;
  AnalysisBackend Backend = AnalysisBackend::Significance;
  verify::VerifyReport Verification;
  bool Verified = false;
  /// Lazy find() index: Name -> (list id, index).  List ids follow the
  /// lookup order 0=Inputs, 1=Intermediates, 2=Outputs; the first
  /// registration of a name wins, preserving shadowing semantics.
  /// Indices (not pointers) keep the cache valid across copies.
  mutable std::map<std::string, std::pair<int, size_t>> FindIndex;
  mutable bool FindIndexBuilt = false;
};

/// A single significance-analysis session.
///
/// Construction activates a fresh thread-local tape; destruction restores
/// the previous one.  Exactly one Analysis may be live per thread at a
/// time (they nest like scopes).  reset() empties a session for the next
/// task but keeps every array's capacity: a driver that analyses many
/// task-sized pieces (ParallelAnalysis's runners) keeps one Analysis per
/// thread and records and sweeps each piece without allocating.
///
/// Registration stores only the three (node, name) lists and the
/// outputs; the NodeId -> name map of labels() is derived from them on
/// demand.
class Analysis {
public:
  Analysis();
  ~Analysis();
  Analysis(const Analysis &) = delete;
  Analysis &operator=(const Analysis &) = delete;

  /// The innermost live Analysis on this thread; asserts when none.
  static Analysis &current();

  /// Creates and registers an input with enclosure [Lo, Hi].
  IAValue input(const std::string &Name, double Lo, double Hi);

  /// Re-binds \p X to a fresh input node with enclosure [Lo, Hi]
  /// (the paper's INPUT(x, xl, xu) macro semantics).
  void registerInput(IAValue &X, const std::string &Name, double Lo,
                     double Hi);

  /// Names the node that computed \p Z (paper's INTERMEDIATE(z)).
  /// Passive values are ignored.
  void registerIntermediate(const IAValue &Z, const std::string &Name);

  /// Marks \p Y as an output (paper's OUTPUT(y)); its adjoint is seeded
  /// during analyse().
  void registerOutput(const IAValue &Y, const std::string &Name);

  /// Number of outputs registered so far.
  size_t numOutputs() const { return OutputNodes.size(); }

  /// Registered output nodes, in registration order (verifier/lint
  /// drivers seed and cross-check these).
  const std::vector<NodeId> &outputNodes() const { return OutputNodes; }

  /// Nodes registered via registerInput, in registration order.
  std::vector<NodeId> registeredInputNodes() const;

  /// NodeId -> user-facing name for every registered variable, built on
  /// each call: the first registration of a node names it, in
  /// registration order across inputs, intermediates and outputs.  An
  /// adopted tape starts from the labels it was loaded with.
  std::map<NodeId, std::string> labels() const;

  /// The paper's ANALYSE(): reverse sweep(s), Eq.-11 significances,
  /// S4 simplification, S5 variance-level detection.
  AnalysisResult analyse(const AnalysisOptions &Options = {});

  /// Snapshot of everything registered so far, in the form tape/TapeIO.h
  /// serializes: outputs, labels and the three variable lists.
  TapeRegistration registration() const;

  /// Adopts a deserialized tape (e.g. LoadedTape from loadStap) together
  /// with its registration.  Only valid on a fresh or reset Analysis —
  /// nothing recorded, nothing registered; analyse() then reproduces the
  /// original process's result bit for bit.  Registration node ids must
  /// name nodes of \p T; on any violation the analysis is left unchanged
  /// and an error Status is returned.  \p Reg is taken by value: a
  /// caller that is done with its registration moves it in.
  diag::Status adopt(Tape &&T, TapeRegistration Reg);

  /// Returns this analysis to the fresh state — no nodes, divergences,
  /// registrations or outputs — while every array keeps its capacity,
  /// including the tape's sweep scratch.  Recording and sweeping a task
  /// no larger than an earlier one then allocates nothing, and gives
  /// bitwise the result a fresh Analysis gives.
  void reset();

  /// The DynDFG view of \p R, a result of this analysis' analyse(): the
  /// tape's nodes with \p R's significances, this analysis' labels and
  /// outputs, simplified (S4) when \p Options.Simplify is set.  Pass the
  /// options \p R was analysed with, and the view's levels are the ones
  /// behind R.varianceLevel() and R.graphHeight().  Built on demand for
  /// DOT export, task suggestion and graph verification; analyse()
  /// itself never builds it.
  DynDFG graph(const AnalysisResult &R,
               const AnalysisOptions &Options = {}) const;

  /// Direct access to the recording tape (tests, tooling).
  Tape &tape() { return Scope.tape(); }
  const Tape &tape() const { return Scope.tape(); }

private:
  enum VarList : uint8_t { InputList, IntermediateList, OutputList };

  ActiveTapeScope Scope;
  Analysis *PreviousCurrent;
  std::vector<std::pair<NodeId, std::string>> InputVars, IntermediateVars,
      OutputVars;
  std::vector<NodeId> OutputNodes;
  /// The list each registration went to, in registration order: labels()
  /// replays it so the first registration of a node names it.
  std::vector<VarList> RegistrationOrder;
  /// An adopted tape's loaded labels, and how many entries of each list
  /// came with it (RegistrationOrder covers only the later ones).
  std::map<NodeId, std::string> AdoptedLabels;
  std::array<size_t, 3> AdoptedVars = {};
};

} // namespace scorpio

#endif // SCORPIO_CORE_ANALYSIS_H
