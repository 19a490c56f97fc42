//===- apps/maclaurin/Maclaurin.h - The paper's running example -----------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Maclaurin geometric series f(x) = sum_i x^i ~ 1/(1-x) for
/// x in (-1, 1) — the running example of Section 3 (Listings 5-7 and
/// Figure 3).  Three forms are provided:
///
///  * maclaurinSeries      — the original double implementation
///                           (Listing 5);
///  * analyseMaclaurin     — the dco/scorpio-annotated version
///                           (Listing 6), registering every term as an
///                           intermediate so Figure 3 can be regenerated;
///  * maclaurinTasks       — the task-based restructuring (Listing 7)
///                           with per-term significance
///                           (N - i + 1) / (N + 2) and a fast-pow
///                           approximate version.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_APPS_MACLAURIN_MACLAURIN_H
#define SCORPIO_APPS_MACLAURIN_MACLAURIN_H

#include "core/Analysis.h"
#include "runtime/TaskRuntime.h"

namespace scorpio {
namespace apps {

/// Listing 5: sum of x^i for i in [0, N).
double maclaurinSeries(double X, int N);

/// Listing 6: records the series into \p A over the input range
/// [XCenter - HalfWidth, XCenter + HalfWidth], registering each term
/// as intermediate "term<i>" and the sum as output "result".
void recordMaclaurin(Analysis &A, double XCenter, double HalfWidth, int N);

/// Listing 6 end to end: recordMaclaurin into a fresh Analysis, then
/// analyse() it with the default options.
AnalysisResult analyseMaclaurin(double XCenter, double HalfWidth, int N);

/// The per-task significance formula of Listing 7 line 14.
inline double maclaurinTaskSignificance(int I, int N) {
  return static_cast<double>(N - I + 1) / static_cast<double>(N + 2);
}

/// Listing 7: one task per term; at taskwait, at least \p WaitRatio of
/// the tasks run the accurate pow, the rest a float fast-pow.  Charges
/// the global WorkMeter.
double maclaurinTasks(rt::TaskRuntime &RT, double X, int N,
                      double WaitRatio);

} // namespace apps
} // namespace scorpio

#endif // SCORPIO_APPS_MACLAURIN_MACLAURIN_H
