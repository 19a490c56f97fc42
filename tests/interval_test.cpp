//===- tests/interval_test.cpp - Interval arithmetic unit tests -----------===//
//
// Unit and property tests for src/interval: the containment contract
// (Eq. 4-6 of the paper) is the load-bearing invariant — every sampled
// point evaluation must land inside the interval evaluation.
//
//===----------------------------------------------------------------------===//

#include "interval/Interval.h"
#include "interval/IntervalCompare.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

using namespace scorpio;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

TEST(Interval, DefaultIsZeroPoint) {
  Interval X;
  EXPECT_EQ(X.lower(), 0.0);
  EXPECT_EQ(X.upper(), 0.0);
  EXPECT_TRUE(X.isPoint());
  EXPECT_EQ(X.width(), 0.0);
}

TEST(Interval, PointConstructor) {
  Interval X(3.5);
  EXPECT_TRUE(X.isPoint());
  EXPECT_EQ(X.mid(), 3.5);
  EXPECT_TRUE(X.contains(3.5));
  EXPECT_FALSE(X.contains(3.5000001));
}

TEST(Interval, BoundsConstructor) {
  Interval X(-1.0, 2.0);
  EXPECT_EQ(X.lower(), -1.0);
  EXPECT_EQ(X.upper(), 2.0);
  EXPECT_NEAR(X.width(), 3.0, 1e-12);
  EXPECT_NEAR(X.mid(), 0.5, 1e-12);
  EXPECT_NEAR(X.rad(), 1.5, 1e-12);
}

TEST(Interval, OrderedSwapsBounds) {
  Interval X = Interval::ordered(4.0, -4.0);
  EXPECT_EQ(X.lower(), -4.0);
  EXPECT_EQ(X.upper(), 4.0);
}

TEST(Interval, CenteredCoversRadius) {
  Interval X = Interval::centered(10.0, 2.0);
  EXPECT_TRUE(X.contains(8.0));
  EXPECT_TRUE(X.contains(12.0));
  EXPECT_LE(X.lower(), 8.0);
  EXPECT_GE(X.upper(), 12.0);
}

TEST(Interval, EntireIsUnbounded) {
  Interval X = Interval::entire();
  EXPECT_FALSE(X.isBounded());
  EXPECT_EQ(X.width(), Inf);
  EXPECT_EQ(X.mid(), 0.0);
  EXPECT_TRUE(X.contains(1e300));
  EXPECT_TRUE(X.contains(-1e300));
}

TEST(Interval, MagnitudeAndMignitude) {
  EXPECT_EQ(Interval(-3.0, 2.0).mag(), 3.0);
  EXPECT_EQ(Interval(-3.0, 2.0).mig(), 0.0); // contains zero
  EXPECT_EQ(Interval(1.0, 4.0).mig(), 1.0);
  EXPECT_EQ(Interval(-4.0, -1.0).mig(), 1.0);
  EXPECT_EQ(Interval(-4.0, -1.0).mag(), 4.0);
}

TEST(Interval, ContainsInterval) {
  EXPECT_TRUE(Interval(0.0, 10.0).contains(Interval(2.0, 3.0)));
  EXPECT_FALSE(Interval(0.0, 10.0).contains(Interval(-1.0, 3.0)));
  EXPECT_TRUE(Interval(0.0, 10.0).contains(Interval(0.0, 10.0)));
}

TEST(Interval, Intersects) {
  EXPECT_TRUE(Interval(0.0, 2.0).intersects(Interval(1.0, 3.0)));
  EXPECT_TRUE(Interval(0.0, 2.0).intersects(Interval(2.0, 3.0)));
  EXPECT_FALSE(Interval(0.0, 2.0).intersects(Interval(2.1, 3.0)));
}

TEST(Interval, HullAndIntersect) {
  Interval H = hull(Interval(0.0, 1.0), Interval(3.0, 4.0));
  EXPECT_EQ(H.lower(), 0.0);
  EXPECT_EQ(H.upper(), 4.0);
  Interval I = intersect(Interval(0.0, 2.0), Interval(1.0, 3.0));
  EXPECT_EQ(I.lower(), 1.0);
  EXPECT_EQ(I.upper(), 2.0);
}

TEST(Interval, AdditionEnclosesEndpointSums) {
  Interval R = Interval(1.0, 2.0) + Interval(10.0, 20.0);
  EXPECT_LE(R.lower(), 11.0);
  EXPECT_GE(R.upper(), 22.0);
  EXPECT_NEAR(R.lower(), 11.0, 1e-9);
  EXPECT_NEAR(R.upper(), 22.0, 1e-9);
}

TEST(Interval, SubtractionAntisymmetric) {
  Interval R = Interval(1.0, 2.0) - Interval(10.0, 20.0);
  EXPECT_NEAR(R.lower(), -19.0, 1e-9);
  EXPECT_NEAR(R.upper(), -8.0, 1e-9);
}

TEST(Interval, MultiplicationSignCases) {
  // positive * positive
  Interval PP = Interval(2.0, 3.0) * Interval(4.0, 5.0);
  EXPECT_NEAR(PP.lower(), 8.0, 1e-9);
  EXPECT_NEAR(PP.upper(), 15.0, 1e-9);
  // negative * positive
  Interval NP = Interval(-3.0, -2.0) * Interval(4.0, 5.0);
  EXPECT_NEAR(NP.lower(), -15.0, 1e-9);
  EXPECT_NEAR(NP.upper(), -8.0, 1e-9);
  // straddling * straddling
  Interval SS = Interval(-1.0, 2.0) * Interval(-3.0, 4.0);
  EXPECT_NEAR(SS.lower(), -6.0, 1e-9);
  EXPECT_NEAR(SS.upper(), 8.0, 1e-9);
}

TEST(Interval, MultiplicationByZeroPointIsZero) {
  Interval R = Interval(0.0) * Interval::entire();
  EXPECT_EQ(R.lower(), 0.0);
  EXPECT_EQ(R.upper(), 0.0);
}

TEST(Interval, DivisionRegular) {
  Interval R = Interval(1.0, 2.0) / Interval(4.0, 8.0);
  EXPECT_NEAR(R.lower(), 0.125, 1e-9);
  EXPECT_NEAR(R.upper(), 0.5, 1e-9);
}

TEST(Interval, DivisionByZeroContainingIsEntire) {
  Interval R = Interval(1.0, 2.0) / Interval(-1.0, 1.0);
  EXPECT_EQ(R.lower(), -Inf);
  EXPECT_EQ(R.upper(), Inf);
}

TEST(Interval, RecipOfPositive) {
  Interval R = recip(Interval(2.0, 4.0));
  EXPECT_NEAR(R.lower(), 0.25, 1e-9);
  EXPECT_NEAR(R.upper(), 0.5, 1e-9);
}

TEST(Interval, NegationFlips) {
  Interval R = -Interval(-1.0, 3.0);
  EXPECT_EQ(R.lower(), -3.0);
  EXPECT_EQ(R.upper(), 1.0);
}

TEST(Interval, SqrTighterThanSelfMultiplyOnStraddle) {
  Interval X(-2.0, 3.0);
  Interval S = sqr(X);
  Interval M = X * X;
  EXPECT_GE(S.lower(), 0.0);          // sqr knows the result sign
  EXPECT_LT(M.lower(), 0.0);          // x*x does not (dependency problem)
  EXPECT_NEAR(S.upper(), 9.0, 1e-9);
}

TEST(Interval, SqrtMonotone) {
  Interval R = sqrt(Interval(4.0, 9.0));
  EXPECT_NEAR(R.lower(), 2.0, 1e-9);
  EXPECT_NEAR(R.upper(), 3.0, 1e-9);
  EXPECT_GE(R.lower(), 0.0);
}

TEST(Interval, SqrtClampsNegativePart) {
  Interval R = sqrt(Interval(-1.0, 4.0));
  EXPECT_EQ(R.lower(), 0.0);
  EXPECT_NEAR(R.upper(), 2.0, 1e-9);
}

TEST(Interval, ExpPositiveAndMonotone) {
  Interval R = exp(Interval(0.0, 1.0));
  EXPECT_GE(R.lower(), 0.0);
  EXPECT_LE(R.lower(), 1.0);
  EXPECT_GE(R.upper(), std::exp(1.0));
}

TEST(Interval, LogOfPositive) {
  Interval R = log(Interval(1.0, std::exp(2.0)));
  EXPECT_LE(R.lower(), 0.0);
  EXPECT_GE(R.upper(), 2.0);
  EXPECT_NEAR(R.upper(), 2.0, 1e-9);
}

TEST(Interval, LogTouchingZeroHasInfiniteLower) {
  Interval R = log(Interval(0.0, 1.0));
  EXPECT_EQ(R.lower(), -Inf);
  EXPECT_NEAR(R.upper(), 0.0, 1e-9);
}

TEST(Interval, LogOfNonPositiveIsEntire) {
  EXPECT_EQ(log(Interval(-2.0, -1.0)).width(), Inf);
}

TEST(Interval, SinNarrowMonotoneSegment) {
  Interval R = sin(Interval(0.1, 0.2));
  EXPECT_NEAR(R.lower(), std::sin(0.1), 1e-9);
  EXPECT_NEAR(R.upper(), std::sin(0.2), 1e-9);
}

TEST(Interval, SinCapturesMaximum) {
  // The interval crosses pi/2 where sin attains 1.
  Interval R = sin(Interval(1.0, 2.0));
  EXPECT_NEAR(R.upper(), 1.0, 1e-12);
  EXPECT_NEAR(R.lower(), std::min(std::sin(1.0), std::sin(2.0)), 1e-9);
}

TEST(Interval, SinWidePeriodIsUnitBall) {
  Interval R = sin(Interval(0.0, 10.0));
  EXPECT_EQ(R.lower(), -1.0);
  EXPECT_EQ(R.upper(), 1.0);
}

TEST(Interval, CosCapturesMinimum) {
  // The interval crosses pi where cos attains -1.
  Interval R = cos(Interval(3.0, 3.3));
  EXPECT_NEAR(R.lower(), -1.0, 1e-12);
}

TEST(Interval, CosAtZeroCapturesMaximum) {
  Interval R = cos(Interval(-0.5, 0.5));
  EXPECT_NEAR(R.upper(), 1.0, 1e-12);
  EXPECT_NEAR(R.lower(), std::cos(0.5), 1e-9);
}

TEST(Interval, TanMonotoneSegment) {
  Interval R = tan(Interval(0.1, 0.5));
  EXPECT_NEAR(R.lower(), std::tan(0.1), 1e-6);
  EXPECT_NEAR(R.upper(), std::tan(0.5), 1e-6);
}

TEST(Interval, TanAcrossAsymptoteIsEntire) {
  Interval R = tan(Interval(1.5, 1.7)); // pi/2 ~ 1.5708 inside
  EXPECT_EQ(R.width(), Inf);
}

TEST(Interval, AtanBounds) {
  Interval R = atan(Interval::entire());
  EXPECT_GE(R.lower(), -1.5708);
  EXPECT_LE(R.upper(), 1.5708);
}

TEST(Interval, ErfBoundsAndMonotone) {
  Interval R = erf(Interval(-1.0, 1.0));
  EXPECT_GE(R.lower(), -1.0);
  EXPECT_LE(R.upper(), 1.0);
  EXPECT_NEAR(R.upper(), std::erf(1.0), 1e-9);
  EXPECT_NEAR(R.lower(), std::erf(-1.0), 1e-9);
}

TEST(Interval, FabsCases) {
  EXPECT_EQ(fabs(Interval(1.0, 2.0)), Interval(1.0, 2.0));
  EXPECT_EQ(fabs(Interval(-2.0, -1.0)), Interval(1.0, 2.0));
  Interval S = fabs(Interval(-2.0, 3.0));
  EXPECT_EQ(S.lower(), 0.0);
  EXPECT_EQ(S.upper(), 3.0);
}

TEST(Interval, PowIntZeroIsOne) {
  Interval R = pow(Interval(-5.0, 5.0), 0);
  EXPECT_EQ(R, Interval(1.0, 1.0));
}

TEST(Interval, PowIntOneIsIdentity) {
  Interval X(-2.0, 3.0);
  EXPECT_EQ(pow(X, 1), X);
}

TEST(Interval, PowIntEvenOnStraddle) {
  Interval R = pow(Interval(-2.0, 3.0), 2);
  EXPECT_LE(R.lower(), 0.0 + 1e-12);
  EXPECT_GE(R.upper(), 9.0);
  EXPECT_NEAR(R.upper(), 9.0, 1e-9);
}

TEST(Interval, PowIntOddPreservesSign) {
  Interval R = pow(Interval(-2.0, 3.0), 3);
  EXPECT_NEAR(R.lower(), -8.0, 1e-9);
  EXPECT_NEAR(R.upper(), 27.0, 1e-9);
}

TEST(Interval, PowIntNegativeExponent) {
  Interval R = pow(Interval(2.0, 4.0), -2);
  EXPECT_NEAR(R.lower(), 1.0 / 16.0, 1e-9);
  EXPECT_NEAR(R.upper(), 0.25, 1e-9);
}

TEST(Interval, PowGeneralMatchesExpLog) {
  Interval R = pow(Interval(2.0, 3.0), Interval(2.0));
  EXPECT_LE(R.lower(), 4.0);
  EXPECT_GE(R.upper(), 9.0);
  EXPECT_NEAR(R.lower(), 4.0, 1e-6);
  EXPECT_NEAR(R.upper(), 9.0, 1e-6);
}

TEST(Interval, MinMax) {
  Interval A(0.0, 5.0), B(2.0, 3.0);
  Interval Mn = min(A, B);
  EXPECT_EQ(Mn.lower(), 0.0);
  EXPECT_EQ(Mn.upper(), 3.0);
  Interval Mx = max(A, B);
  EXPECT_EQ(Mx.lower(), 2.0);
  EXPECT_EQ(Mx.upper(), 5.0);
}

TEST(Interval, RoundBothBounds) {
  Interval R = round(Interval(1.2, 3.7));
  EXPECT_EQ(R.lower(), 1.0);
  EXPECT_EQ(R.upper(), 4.0);
  // A narrow interval inside one step collapses to a point.
  Interval P = round(Interval(2.1, 2.4));
  EXPECT_TRUE(P.isPoint());
  EXPECT_EQ(P.lower(), 2.0);
}

TEST(Interval, StreamOutput) {
  std::ostringstream OS;
  OS << Interval(1.0, 2.0);
  EXPECT_EQ(OS.str(), "[1, 2]");
}

TEST(IntervalCompare, DisjointDecided) {
  EXPECT_EQ(certainlyLess(Interval(0.0, 1.0), Interval(2.0, 3.0)),
            Tribool::True);
  EXPECT_EQ(certainlyLess(Interval(2.0, 3.0), Interval(0.0, 1.0)),
            Tribool::False);
  EXPECT_EQ(certainlyGreater(Interval(2.0, 3.0), Interval(0.0, 1.0)),
            Tribool::True);
}

TEST(IntervalCompare, OverlapAmbiguous) {
  EXPECT_EQ(certainlyLess(Interval(0.0, 2.0), Interval(1.0, 3.0)),
            Tribool::Ambiguous);
  EXPECT_FALSE(isDecided(Tribool::Ambiguous));
  EXPECT_TRUE(isDecided(Tribool::True));
}

TEST(IntervalCompare, TouchingBoundsLessEqual) {
  EXPECT_EQ(certainlyLessEqual(Interval(0.0, 1.0), Interval(1.0, 2.0)),
            Tribool::True);
  // Strict less is ambiguous when bounds touch (both could be 1).
  EXPECT_EQ(certainlyLess(Interval(0.0, 1.0), Interval(1.0, 2.0)),
            Tribool::Ambiguous);
}

//===----------------------------------------------------------------------===//
// Property tests: containment under random point sampling.
//===----------------------------------------------------------------------===//

struct ContainmentCase {
  const char *Name;
  // Evaluates the scalar function and the interval function.
  double (*Scalar)(double, double);
  Interval (*IntervalFn)(const Interval &, const Interval &);
  double LoA, HiA, LoB, HiB;
};

/// gtest prints a parameter that has no printer as its raw bytes, and
/// ctest puts that dump into the test's name.  The case holds pointers,
/// whose values move with every load address, so it prints its op name
/// instead and each test keeps the same name from run to run.
void PrintTo(const ContainmentCase &C, std::ostream *OS) { *OS << C.Name; }

double addS(double A, double B) { return A + B; }
double subS(double A, double B) { return A - B; }
double mulS(double A, double B) { return A * B; }
double divS(double A, double B) { return A / B; }
double sinS(double A, double) { return std::sin(A); }
double cosS(double A, double) { return std::cos(A); }
double expS(double A, double) { return std::exp(A); }
double logS(double A, double) { return std::log(A); }
double sqrtS(double A, double) { return std::sqrt(A); }
double erfS(double A, double) { return std::erf(A); }
double atanS(double A, double) { return std::atan(A); }
double fabsS(double A, double) { return std::fabs(A); }
double pow5S(double A, double) { return std::pow(A, 5); }
double sqrS(double A, double) { return A * A; }

Interval addI(const Interval &A, const Interval &B) { return A + B; }
Interval subI(const Interval &A, const Interval &B) { return A - B; }
Interval mulI(const Interval &A, const Interval &B) { return A * B; }
Interval divI(const Interval &A, const Interval &B) { return A / B; }
Interval sinI(const Interval &A, const Interval &) { return sin(A); }
Interval cosI(const Interval &A, const Interval &) { return cos(A); }
Interval expI(const Interval &A, const Interval &) { return exp(A); }
Interval logI(const Interval &A, const Interval &) { return log(A); }
Interval sqrtI(const Interval &A, const Interval &) { return sqrt(A); }
Interval erfI(const Interval &A, const Interval &) { return erf(A); }
Interval atanI(const Interval &A, const Interval &) { return atan(A); }
Interval fabsI(const Interval &A, const Interval &) { return fabs(A); }
Interval pow5I(const Interval &A, const Interval &) { return pow(A, 5); }
Interval sqrI(const Interval &A, const Interval &) { return sqr(A); }

class ContainmentTest : public ::testing::TestWithParam<ContainmentCase> {};

TEST_P(ContainmentTest, RandomSubintervalsContainPointResults) {
  const ContainmentCase &C = GetParam();
  Random Rng(0xc0ffee);
  for (int Trial = 0; Trial < 200; ++Trial) {
    const double A0 = Rng.uniform(C.LoA, C.HiA);
    const double A1 = Rng.uniform(C.LoA, C.HiA);
    const double B0 = Rng.uniform(C.LoB, C.HiB);
    const double B1 = Rng.uniform(C.LoB, C.HiB);
    const Interval IA = Interval::ordered(A0, A1);
    const Interval IB = Interval::ordered(B0, B1);
    const Interval R = C.IntervalFn(IA, IB);
    for (int S = 0; S < 20; ++S) {
      const double PA = Rng.uniform(IA.lower(), IA.upper());
      const double PB = Rng.uniform(IB.lower(), IB.upper());
      const double Y = C.Scalar(PA, PB);
      ASSERT_TRUE(R.contains(Y))
          << C.Name << "(" << PA << ", " << PB << ") = " << Y
          << " escaped " << R;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, ContainmentTest,
    ::testing::Values(
        ContainmentCase{"add", addS, addI, -100, 100, -100, 100},
        ContainmentCase{"sub", subS, subI, -100, 100, -100, 100},
        ContainmentCase{"mul", mulS, mulI, -50, 50, -50, 50},
        ContainmentCase{"div", divS, divI, -50, 50, 1, 50},
        ContainmentCase{"divneg", divS, divI, -50, 50, -50, -1},
        ContainmentCase{"sin", sinS, sinI, -10, 10, 0, 1},
        ContainmentCase{"cos", cosS, cosI, -10, 10, 0, 1},
        ContainmentCase{"exp", expS, expI, -20, 20, 0, 1},
        ContainmentCase{"log", logS, logI, 0.01, 100, 0, 1},
        ContainmentCase{"sqrt", sqrtS, sqrtI, 0, 100, 0, 1},
        ContainmentCase{"erf", erfS, erfI, -5, 5, 0, 1},
        ContainmentCase{"atan", atanS, atanI, -100, 100, 0, 1},
        ContainmentCase{"fabs", fabsS, fabsI, -10, 10, 0, 1},
        ContainmentCase{"pow5", pow5S, pow5I, -5, 5, 0, 1},
        ContainmentCase{"sqr", sqrS, sqrI, -10, 10, 0, 1}),
    [](const ::testing::TestParamInfo<ContainmentCase> &Info) {
      return Info.param.Name;
    });

TEST(IntervalProperty, AdditionAssociativeWithinSlack) {
  Random Rng(7);
  for (int Trial = 0; Trial < 100; ++Trial) {
    Interval A = Interval::ordered(Rng.uniform(-10, 10),
                                   Rng.uniform(-10, 10));
    Interval B = Interval::ordered(Rng.uniform(-10, 10),
                                   Rng.uniform(-10, 10));
    Interval C = Interval::ordered(Rng.uniform(-10, 10),
                                   Rng.uniform(-10, 10));
    Interval L = (A + B) + C;
    Interval R = A + (B + C);
    EXPECT_NEAR(L.lower(), R.lower(), 1e-9);
    EXPECT_NEAR(L.upper(), R.upper(), 1e-9);
  }
}

TEST(IntervalProperty, MultiplicationInclusionMonotone) {
  // A' subset A and B' subset B implies A'*B' subset A*B (slackened by
  // outward rounding).
  Random Rng(13);
  for (int Trial = 0; Trial < 200; ++Trial) {
    Interval A = Interval::ordered(Rng.uniform(-20, 20),
                                   Rng.uniform(-20, 20));
    Interval B = Interval::ordered(Rng.uniform(-20, 20),
                                   Rng.uniform(-20, 20));
    const double AM = Rng.uniform(A.lower(), A.upper());
    const double BM = Rng.uniform(B.lower(), B.upper());
    Interval ASub(std::min(AM, A.upper()), A.upper());
    Interval BSub(B.lower(), std::max(BM, B.lower()));
    Interval Big = A * B;
    Interval Small = ASub * BSub;
    EXPECT_LE(Big.lower(), Small.lower() + 1e-9);
    EXPECT_GE(Big.upper(), Small.upper() - 1e-9);
  }
}

TEST(IntervalProperty, WidthNonNegativeAndSubadditive) {
  Random Rng(99);
  for (int Trial = 0; Trial < 200; ++Trial) {
    Interval A = Interval::ordered(Rng.uniform(-5, 5), Rng.uniform(-5, 5));
    Interval B = Interval::ordered(Rng.uniform(-5, 5), Rng.uniform(-5, 5));
    EXPECT_GE(A.width(), 0.0);
    // Width of a sum equals the sum of widths (+ rounding slack).
    EXPECT_NEAR((A + B).width(), A.width() + B.width(), 1e-9);
  }
}

TEST(Interval, StepFunctionsMatchNextafter) {
  // The inlined bit-manipulation stepUp/stepDown must agree with libm's
  // nextafter on every class of double: zeros of both signs, the
  // subnormal boundary, extremes, infinities, and ordinary values.
  const double Inf = std::numeric_limits<double>::infinity();
  const double Cases[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min(),
                          -std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::max(),
                          1.0,
                          -1.0,
                          0.1,
                          -3.75e200,
                          6.1e-300,
                          Inf,
                          -Inf};
  for (double X : Cases) {
    EXPECT_EQ(detail::stepUp(X), X == Inf ? Inf : std::nextafter(X, Inf))
        << "stepUp(" << X << ")";
    EXPECT_EQ(detail::stepDown(X),
              X == -Inf ? -Inf : std::nextafter(X, -Inf))
        << "stepDown(" << X << ")";
  }
  // Stepping the smallest subnormals toward zero keeps the zero's sign,
  // exactly like nextafter.
  EXPECT_FALSE(std::signbit(
      detail::stepDown(std::numeric_limits<double>::denorm_min())));
  EXPECT_TRUE(std::signbit(
      detail::stepUp(-std::numeric_limits<double>::denorm_min())));
  Random Rng(77);
  for (int I = 0; I < 1000; ++I) {
    const double X = Rng.uniform(-1e12, 1e12);
    EXPECT_EQ(detail::stepUp(X), std::nextafter(X, Inf));
    EXPECT_EQ(detail::stepDown(X), std::nextafter(X, -Inf));
  }
  // NaN passes through (the tape never stores one, but outward must not
  // turn it into something that looks ordered).
  EXPECT_TRUE(std::isnan(detail::stepUp(std::nan(""))));
  EXPECT_TRUE(std::isnan(detail::stepDown(std::nan(""))));
}

TEST(Interval, UnboundedDivisionNoNaN) {
  // Regression: with both operands unbounded, the corner quotient
  // inf/inf is NaN under IEEE and used to poison the min/max fold,
  // producing NaN interval bounds.  The unbounded-division path
  // substitutes the indeterminate corner with 0 (the adjacent corners
  // supply the +-inf extremes), so bounds stay ordered and containment
  // holds.
  const Interval A = Interval(1.0, Inf) / Interval(2.0, Inf);
  EXPECT_FALSE(std::isnan(A.lower()));
  EXPECT_FALSE(std::isnan(A.upper()));
  EXPECT_LE(A.lower(), A.upper());
  EXPECT_TRUE(A.contains(0.5));  // 1 / 2
  EXPECT_TRUE(A.contains(1e12)); // huge / 2
  EXPECT_TRUE(A.contains(1e-12)); // 1 / huge

  const Interval B = Interval(-Inf, 1.0) / Interval(2.0, Inf);
  EXPECT_FALSE(std::isnan(B.lower()));
  EXPECT_FALSE(std::isnan(B.upper()));
  EXPECT_EQ(B.lower(), -Inf); // -inf / 2
  EXPECT_TRUE(B.contains(0.5));

  const Interval C = Interval(1.0, Inf) / Interval(-Inf, -2.0);
  EXPECT_FALSE(std::isnan(C.lower()));
  EXPECT_FALSE(std::isnan(C.upper()));
  EXPECT_EQ(C.lower(), -Inf); // huge / -2
  EXPECT_TRUE(C.contains(-0.5));
  EXPECT_TRUE(C.contains(-1e-12)); // 1 / -huge

  const Interval D = Interval::entire() / Interval(2.0, Inf);
  EXPECT_FALSE(std::isnan(D.lower()));
  EXPECT_FALSE(std::isnan(D.upper()));
  EXPECT_EQ(D, Interval::entire());
}

TEST(Interval, DisjointIntersectRecovery) {
  // Regression: in a Release (NDEBUG) build the old assert-only
  // intersect returned the inverted "interval" [2, 1] for disjoint
  // inputs.  It now records a diagnostic and recovers with the gap hull,
  // which is a valid (ordered) interval and a superset of the empty true
  // intersection.
  diag::DiagSink::global().clear();
  const Interval I = intersect(Interval(0.0, 1.0), Interval(2.0, 3.0));
  EXPECT_LE(I.lower(), I.upper());
  EXPECT_EQ(I, Interval(1.0, 2.0));
  EXPECT_EQ(diag::DiagSink::global().countOf(diag::ErrC::DomainError), 1u);
  diag::DiagSink::global().clear();

  // Probing form: disjointness is an expected answer, no diagnostic.
  EXPECT_FALSE(tryIntersect(Interval(0.0, 1.0), Interval(2.0, 3.0))
                   .hasValue());
  EXPECT_EQ(diag::DiagSink::global().count(), 0u);
}

} // namespace
