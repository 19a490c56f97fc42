//===- tests/tangent_test.cpp - Tangent-linear mode tests ------------------===//
//
// Cross-validates the forward (tangent) interval-AD type against the
// adjoint (tape) mode and against analytic derivatives, mirroring the
// dual-mode design of the paper's dco/c++ base library.
//
//===----------------------------------------------------------------------===//

#include "core/IATangent.h"
#include "core/IAValue.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>

using namespace scorpio;

namespace {

/// Forward-mode derivative at a point (degenerate intervals).
template <typename Fn> double tangentAt(double X0, Fn Builder) {
  IATangent X(Interval(X0, X0), Interval(1.0));
  IATangent Y = Builder(X);
  return Y.tangent().mid();
}

/// Adjoint-mode derivative at a point for cross-validation.
template <typename Fn> double adjointAt(double X0, Fn Builder) {
  ActiveTapeScope Scope;
  IAValue X = IAValue::input(Interval(X0, X0));
  IAValue Y = Builder(X);
  Scope.tape().clearAdjoints();
  Scope.tape().seedAdjoint(Y.node(), Interval(1.0));
  Scope.tape().reverseSweep();
  return Scope.tape().adjoint(X.node()).mid();
}

TEST(IATangent, ConstantsHaveZeroTangent) {
  IATangent C(5.0);
  EXPECT_EQ(C.tangent(), Interval(0.0));
  IATangent Y = C * C + 3.0;
  EXPECT_EQ(Y.tangent(), Interval(0.0));
  EXPECT_NEAR(Y.toDouble(), 28.0, 1e-12);
}

TEST(IATangent, SeededVariablePropagates) {
  IATangent X(Interval(2.0), Interval(1.0));
  IATangent Y = X * X; // dy/dx = 2x = 4
  EXPECT_NEAR(Y.tangent().mid(), 4.0, 1e-9);
}

TEST(IATangent, ArithmeticRules) {
  EXPECT_NEAR(tangentAt(3.0, [](auto X) { return X + X; }), 2.0, 1e-12);
  EXPECT_NEAR(tangentAt(3.0, [](auto X) { return X - 2.0 * X; }), -1.0,
              1e-9);
  EXPECT_NEAR(tangentAt(3.0, [](auto X) { return X * X * X; }), 27.0,
              1e-9);
  EXPECT_NEAR(tangentAt(2.0, [](auto X) { return 1.0 / X; }), -0.25,
              1e-9);
}

TEST(IATangent, CompoundAssignment) {
  IATangent X(Interval(2.0), Interval(1.0));
  X *= X;       // x^2, d = 4
  X += 1.0;     // d unchanged
  X /= 2.0;     // d = 2
  EXPECT_NEAR(X.tangent().mid(), 2.0, 1e-9);
  EXPECT_NEAR(X.toDouble(), 2.5, 1e-9);
}

enum class UnaryOp : std::uint32_t {
  Sin, Cos, Tan, Exp, Log, Sqrt, Sqr, Erf, Atan
};

/// gtest prints a parameter that has no operator<< as its raw bytes, and
/// ctest puts that dump into the test's name. The case therefore holds no
/// pointers (their values move with every load address) and no padding,
/// so each test keeps the same name from build to build.
struct UnaryCase {
  char Name[20];
  UnaryOp Op;
  double Lo, Hi;
};
static_assert(sizeof(UnaryCase) == sizeof(char[20]) + sizeof(UnaryOp) +
                                      2 * sizeof(double),
              "UnaryCase must have no padding bytes");

double analytic(UnaryOp Op, double X) {
  switch (Op) {
  case UnaryOp::Sin: return std::cos(X);
  case UnaryOp::Cos: return -std::sin(X);
  case UnaryOp::Tan: return 1.0 / (std::cos(X) * std::cos(X));
  case UnaryOp::Exp: return std::exp(X);
  case UnaryOp::Log: return 1.0 / X;
  case UnaryOp::Sqrt: return 0.5 / std::sqrt(X);
  case UnaryOp::Sqr: return 2.0 * X;
  case UnaryOp::Erf: return 2.0 / std::sqrt(M_PI) * std::exp(-X * X);
  case UnaryOp::Atan: return 1.0 / (1.0 + X * X);
  }
  return std::nan("");
}

IATangent apply(UnaryOp Op, const IATangent &X) {
  switch (Op) {
  case UnaryOp::Sin: return sin(X);
  case UnaryOp::Cos: return cos(X);
  case UnaryOp::Tan: return tan(X);
  case UnaryOp::Exp: return exp(X);
  case UnaryOp::Log: return log(X);
  case UnaryOp::Sqrt: return sqrt(X);
  case UnaryOp::Sqr: return sqr(X);
  case UnaryOp::Erf: return erf(X);
  case UnaryOp::Atan: return atan(X);
  }
  return X;
}

class TangentUnaryTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(TangentUnaryTest, MatchesAnalyticDerivative) {
  const UnaryCase &C = GetParam();
  Random Rng(33);
  for (int Trial = 0; Trial < 50; ++Trial) {
    const double X0 = Rng.uniform(C.Lo, C.Hi);
    const double Got =
        tangentAt(X0, [&](const IATangent &X) { return apply(C.Op, X); });
    const double Want = analytic(C.Op, X0);
    ASSERT_NEAR(Got, Want, 1e-6 * std::max(1.0, std::fabs(Want)))
        << C.Name << " at x = " << X0;
  }
}

TEST_P(TangentUnaryTest, TangentEnclosesDerivativeOverInterval) {
  const UnaryCase &C = GetParam();
  Random Rng(34);
  for (int Trial = 0; Trial < 50; ++Trial) {
    const double A = Rng.uniform(C.Lo, C.Hi);
    const double B = Rng.uniform(C.Lo, C.Hi);
    const Interval XI = Interval::ordered(A, B);
    IATangent X(XI, Interval(1.0));
    const Interval D = apply(C.Op, X).tangent();
    for (int S = 0; S < 10; ++S) {
      const double P = Rng.uniform(XI.lower(), XI.upper());
      ASSERT_TRUE(D.contains(analytic(C.Op, P)))
          << C.Name << "'(" << P << ") escaped " << D;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Intrinsics, TangentUnaryTest,
    ::testing::Values(UnaryCase{"sin", UnaryOp::Sin, -1.5, 1.5},
                      UnaryCase{"cos", UnaryOp::Cos, -1.5, 1.5},
                      UnaryCase{"tan", UnaryOp::Tan, -0.6, 0.6},
                      UnaryCase{"exp", UnaryOp::Exp, -2.0, 2.0},
                      UnaryCase{"log", UnaryOp::Log, 0.2, 5.0},
                      UnaryCase{"sqrt", UnaryOp::Sqrt, 0.2, 9.0},
                      UnaryCase{"sqr", UnaryOp::Sqr, -3.0, 3.0},
                      UnaryCase{"erf", UnaryOp::Erf, -2.0, 2.0},
                      UnaryCase{"atan", UnaryOp::Atan, -3.0, 3.0}),
    [](const ::testing::TestParamInfo<UnaryCase> &Info) {
      return Info.param.Name;
    });

TEST(IATangent, AgreesWithAdjointOnListing1) {
  auto Fwd = [](IATangent X) { return cos(exp(sin(X) + X) - X); };
  auto Adj = [](IAValue X) { return cos(exp(sin(X) + X) - X); };
  for (double X0 : {-0.9, -0.3, 0.1, 0.7, 1.2})
    EXPECT_NEAR(tangentAt(X0, Fwd), adjointAt(X0, Adj), 1e-9)
        << "x = " << X0;
}

TEST(IATangent, PowIntRule) {
  EXPECT_NEAR(tangentAt(2.0, [](auto X) { return pow(X, 5); }), 80.0,
              1e-6);
  EXPECT_NEAR(tangentAt(2.0, [](auto X) { return pow(X, 0); }), 0.0,
              1e-12);
}

TEST(IATangent, TanOverXRule) {
  const double Phi = 1.2;
  const double FD = (tanOverXPoint(0.5 + 1e-7, Phi) -
                     tanOverXPoint(0.5 - 1e-7, Phi)) /
                    2e-7;
  EXPECT_NEAR(
      tangentAt(0.5, [&](auto X) { return tanOverX(X, Phi); }), FD,
      1e-4);
}

TEST(IATangent, MinMaxSelectDecided) {
  IATangent A(Interval(1.0), Interval(7.0));
  IATangent B(Interval(5.0), Interval(-3.0));
  EXPECT_NEAR(min(A, B).tangent().mid(), 7.0, 1e-12);
  EXPECT_NEAR(max(A, B).tangent().mid(), -3.0, 1e-12);
}

TEST(IATangent, MinMaxAmbiguousHullsTangents) {
  IATangent A(Interval(0.0, 2.0), Interval(7.0));
  IATangent B(Interval(1.0, 3.0), Interval(-3.0));
  const Interval T = min(A, B).tangent();
  EXPECT_LE(T.lower(), -3.0);
  EXPECT_GE(T.upper(), 7.0);
}

TEST(IATangent, FabsSubgradient) {
  EXPECT_NEAR(tangentAt(2.0, [](auto X) { return fabs(X); }), 1.0,
              1e-12);
  EXPECT_NEAR(tangentAt(-2.0, [](auto X) { return fabs(X); }), -1.0,
              1e-12);
  IATangent X(Interval(-1.0, 1.0), Interval(1.0));
  const Interval T = fabs(X).tangent();
  EXPECT_TRUE(T.contains(-1.0));
  EXPECT_TRUE(T.contains(1.0));
}

TEST(IATangent, StreamOutput) {
  std::ostringstream OS;
  OS << IATangent(Interval(1.0, 2.0), Interval(3.0, 4.0));
  EXPECT_EQ(OS.str(), "[1, 2] (d: [3, 4])");
}

TEST(IATangent, NoTapeInteraction) {
  // Forward mode must not touch any active tape.
  ActiveTapeScope Scope;
  IATangent X(Interval(1.0, 2.0), Interval(1.0));
  IATangent Y = exp(sin(X)) * X;
  (void)Y;
  EXPECT_EQ(Scope.tape().size(), 0u);
}

} // namespace
