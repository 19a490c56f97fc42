//===- core/SweepBackends.cpp - Pluggable reverse-sweep backends ----------===//

#include "core/SweepBackends.h"

#include "verify/FpError.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

using namespace scorpio;

namespace {

/// Significance of one (value, adjoint) pair under the selected metric,
/// NaN-hardened and capped.  (Moved verbatim from Analysis.)
double cappedSignificance(const Interval &Value, const Interval &Adjoint,
                          const AnalysisOptions &Options) {
  double W = 0.0;
  switch (Options.SignificanceMetric) {
  case AnalysisOptions::Metric::Eq11WorstCase:
    // Eq. 11: S_y(u_j) = w([u_j] * grad_[u_j][y]).
    W = (Value * Adjoint).width();
    break;
  case AnalysisOptions::Metric::WidthTimesDerivative:
    W = Value.width() * Adjoint.mag();
    break;
  }
  if (std::isnan(W))
    return Options.SignificanceCap;
  return std::min(W, Options.SignificanceCap);
}

/// The paper's Eq.-11 interval significance analysis.  The three
/// seeding paths are the pre-refactor Analysis::analyse() bodies moved
/// verbatim (modulo PerNode standing in for R.NodeSignificance), so the
/// default pipeline stays byte-identical.
class SignificanceBackend final : public SweepBackendIface {
public:
  const char *name() const override { return "significance"; }

  void run(Tape &T, std::span<const NodeId> Outputs,
           const AnalysisOptions &Options, std::vector<double> &PerNode,
           double &Total) const override {
    if (Options.Mode == AnalysisOptions::OutputMode::CombinedSeed ||
        Outputs.size() == 1) {
      T.clearAdjoints();
      for (NodeId Out : Outputs)
        T.seedAdjoint(Out, Interval(1.0));
      T.reverseSweep(Options.Sweep);
      for (size_t I = 0; I != T.size(); ++I) {
        const NodeId Id = static_cast<NodeId>(I);
        PerNode[I] =
            cappedSignificance(T.value(Id), T.adjoint(Id), Options);
      }
    } else if (Options.BatchWidth <= 1) {
      // PerOutput, classic scalar-adjoint loop: m dedicated sweeps;
      // S_y(u) = sum_i S_{y_i}(u).  Kept as the BatchWidth=1 baseline.
      for (NodeId Out : Outputs) {
        T.clearAdjoints();
        T.seedAdjoint(Out, Interval(1.0));
        T.reverseSweep(Options.Sweep);
        for (size_t I = 0; I != T.size(); ++I) {
          const NodeId Id = static_cast<NodeId>(I);
          PerNode[I] +=
              cappedSignificance(T.value(Id), T.adjoint(Id), Options);
          PerNode[I] = std::min(PerNode[I], Options.SignificanceCap);
        }
      }
    } else {
      // PerOutput, vector-adjoint mode: propagate up to BatchWidth
      // output seeds per backward pass, then accumulate lane
      // significances in output order.  Per node the sequence of
      // += / min operations is exactly the scalar loop's, so results
      // are bit-identical; nodes are independent, so the order in which
      // they are visited does not matter.
      const bool IsEq11 = Options.SignificanceMetric ==
                          AnalysisOptions::Metric::Eq11WorstCase;
      const Interval Zero(0.0);
      const std::span<const Interval> Values = T.values();
      // A [0,0] lane adjoint contributes exactly 0 significance (the
      // interval product with an exact-zero factor is exactly [0,0]),
      // so a row that is not live contributes nothing and is not
      // visited — except under WidthTimesDerivative with an unbounded
      // value, where inf*0 = NaN is capped: there every lane of every
      // such node is evaluated, live or not.
      std::vector<NodeId> Unbounded;
      if (!IsEq11)
        for (size_t I = 0; I != Values.size(); ++I)
          if (!Values[I].isBounded())
            Unbounded.push_back(static_cast<NodeId>(I));
      // The tape's scratch: a tape recorded again after clear() sweeps
      // without allocating.
      BatchAdjoints &Batch = T.batchScratch().Adjoints;
      std::vector<std::pair<NodeId, Interval>> &Seeds =
          T.batchScratch().Seeds;
      for (size_t Begin = 0; Begin < Outputs.size();
           Begin += Options.BatchWidth) {
        const size_t End =
            std::min(Begin + Options.BatchWidth, Outputs.size());
        Seeds.clear();
        for (size_t O = Begin; O != End; ++O)
          Seeds.emplace_back(Outputs[O], Interval(1.0));
        T.reverseSweepBatch(Seeds, Batch, Options.Sweep);

        const unsigned W = static_cast<unsigned>(End - Begin);
        const auto Accumulate = [&](NodeId Id) {
          const size_t I = static_cast<size_t>(Id);
          const Interval &V = Values[I];
          const Interval *Row = std::as_const(Batch).row(Id);
          const bool SkipZeroLanes = IsEq11 || V.isBounded();
          for (unsigned L = 0; L != W; ++L) {
            if (SkipZeroLanes && Row[L] == Zero)
              continue;
            PerNode[I] += cappedSignificance(V, Row[L], Options);
            PerNode[I] = std::min(PerNode[I], Options.SignificanceCap);
          }
        };
        for (NodeId Id : Batch.live())
          Accumulate(Id);
        for (NodeId Id : Unbounded)
          if (!Batch.isLive(Id))
            Accumulate(Id);
      }
    }

    for (NodeId Out : Outputs)
      Total += PerNode[static_cast<size_t>(Out)];
  }
};

/// One node's FP-error contribution increment for one adjoint lane:
/// eps * |adjoint|, with the interval-arithmetic 0 * inf = 0 convention
/// (an exact op contributes nothing however large its adjoint, a dead
/// adjoint kills any local error) and NaN/overflow saturating at the
/// cap like cappedSignificance.
double cappedContribution(double Eps, double AdjointMag, double Cap) {
  const double W = detail::mulBound(Eps, AdjointMag);
  if (std::isnan(W))
    return Cap;
  return std::min(W, Cap);
}

/// CHEF-FP-style rounding-error estimation over the recorded tape.
/// Forward pass: each node gets the shared local-error model
/// (verify/FpError.h) evaluated at half an ulp of its recorded
/// enclosure midpoint.  Reverse pass: the same three seeding paths as
/// the significance backend — including the SIMD lane prefixes of
/// reverseSweepBatch — accumulate eps_i * |adjoint_i| per node.  The
/// total is the sum over all nodes: the first-order absolute error
/// bound at the outputs.
class FpErrorBackend final : public SweepBackendIface {
public:
  const char *name() const override { return "fperr"; }

  void run(Tape &T, std::span<const NodeId> Outputs,
           const AnalysisOptions &Options, std::vector<double> &PerNode,
           double &Total) const override {
    const size_t N = T.size();
    const double Cap = Options.SignificanceCap;

    // Forward pass: local rounding error at the recorded enclosure's
    // representative point.  An unbounded or empty-mid enclosure falls
    // back to the magnitude — fpLocalError turns inf into inf, which
    // the cap absorbs below.
    std::vector<double> Eps(N, 0.0);
    for (size_t I = 0; I != N; ++I) {
      const NodeId Id = static_cast<NodeId>(I);
      const Interval &V = T.value(Id);
      double Mid = std::fabs(V.mid());
      if (std::isnan(Mid))
        Mid = V.mag();
      Eps[I] = verify::fpLocalError(T.kind(Id), Mid);
    }

    if (Options.Mode == AnalysisOptions::OutputMode::CombinedSeed ||
        Outputs.size() == 1) {
      T.clearAdjoints();
      for (NodeId Out : Outputs)
        T.seedAdjoint(Out, Interval(1.0));
      T.reverseSweep(Options.Sweep);
      for (size_t I = 0; I != N; ++I) {
        const NodeId Id = static_cast<NodeId>(I);
        PerNode[I] =
            cappedContribution(Eps[I], T.adjoint(Id).mag(), Cap);
      }
    } else if (Options.BatchWidth <= 1) {
      for (NodeId Out : Outputs) {
        T.clearAdjoints();
        T.seedAdjoint(Out, Interval(1.0));
        T.reverseSweep(Options.Sweep);
        for (size_t I = 0; I != N; ++I) {
          const NodeId Id = static_cast<NodeId>(I);
          PerNode[I] +=
              cappedContribution(Eps[I], T.adjoint(Id).mag(), Cap);
          PerNode[I] = std::min(PerNode[I], Cap);
        }
      }
    } else {
      const Interval Zero(0.0);
      BatchAdjoints &Batch = T.batchScratch().Adjoints;
      std::vector<std::pair<NodeId, Interval>> &Seeds =
          T.batchScratch().Seeds;
      for (size_t Begin = 0; Begin < Outputs.size();
           Begin += Options.BatchWidth) {
        const size_t End =
            std::min(Begin + Options.BatchWidth, Outputs.size());
        Seeds.clear();
        for (size_t O = Begin; O != End; ++O)
          Seeds.emplace_back(Outputs[O], Interval(1.0));
        T.reverseSweepBatch(Seeds, Batch, Options.Sweep);

        // A [0,0] lane adjoint contributes exactly 0 error under the
        // mulBound convention, so skipping it — and every row that is
        // not live, which is [0,0] throughout — reproduces the scalar
        // loop bit for bit.
        const unsigned W = static_cast<unsigned>(End - Begin);
        for (NodeId Id : Batch.live()) {
          const size_t I = static_cast<size_t>(Id);
          const Interval *Row = std::as_const(Batch).row(Id);
          for (unsigned L = 0; L != W; ++L) {
            if (Row[L] == Zero)
              continue;
            PerNode[I] +=
                cappedContribution(Eps[I], Row[L].mag(), Cap);
            PerNode[I] = std::min(PerNode[I], Cap);
          }
        }
      }
    }

    // Total FP error bound at the outputs: the sum of every node's
    // contribution (all entries are in [0, Cap], so the sum is NaN-free
    // and the cap absorbs any overflow).
    for (size_t I = 0; I != N; ++I)
      Total += PerNode[I];
    Total = std::min(Total, Cap);
  }
};

} // namespace

const SweepBackendIface &scorpio::sweepBackendFor(AnalysisBackend Backend) {
  static const SignificanceBackend Significance;
  static const FpErrorBackend FpError;
  switch (Backend) {
  case AnalysisBackend::Significance:
    return Significance;
  case AnalysisBackend::FpError:
    return FpError;
  }
  return Significance; // unreachable; out-of-range bytes degrade safely
}
