//===- apps/sobel/Sobel.cpp - Sobel edge filter benchmark ----------------===//

#include "apps/sobel/Sobel.h"

#include "energy/Energy.h"

#include <algorithm>
#include <cmath>
#include <vector>

using namespace scorpio;
using namespace scorpio::apps;

namespace {

/// Work-unit charges (abstract op counts per pixel).
constexpr double PartUnitsPerPixel = 4.0;    // one coefficient block
constexpr double CombineUnitsPerPixel = 8.0; // sqrt + clip + sums

/// Per-block partial convolution sums for one pixel.
///
/// Blocks follow Section 4.1.1: A holds the +-2-weighted taps, B and C
/// split the eight +-1 corner taps.  We split them by gradient
/// direction — B is the corner part of Gx, C the corner part of Gy — so
/// each block is zero-mean on flat content and dropping any block
/// degrades gracefully (dropping "the corner taps of one row" would
/// leave an unbalanced sum that saturates the output).
///   A: Gx += 2*E - 2*W             Gy += 2*S - 2*N
///   B: Gx += (NE - NW) + (SE - SW)
///   C:                             Gy += (SW + SE) - (NW + NE)
template <typename T>
void blockA(const T &W, const T &E, const T &N, const T &S, T &Gx, T &Gy) {
  Gx = 2.0 * E - 2.0 * W;
  Gy = 2.0 * S - 2.0 * N;
}

template <typename T>
void blockB(const T &NW, const T &NE, const T &SW, const T &SE, T &Gx,
            T &Gy) {
  Gx = (NE - NW) + (SE - SW);
  Gy = T(0.0);
}

template <typename T>
void blockC(const T &NW, const T &NE, const T &SW, const T &SE, T &Gx,
            T &Gy) {
  Gx = T(0.0);
  Gy = (SW + SE) - (NW + NE);
}

/// Combine step shared by every variant: magnitude + clip.
template <typename T> T combine(const T &Gx, const T &Gy) {
  using std::max;
  using std::min;
  using std::sqrt;
  T Mag = sqrt(Gx * Gx + Gy * Gy);
  return min(max(Mag, T(0.0)), T(255.0));
}

} // namespace

Image scorpio::apps::sobelReference(const Image &In) {
  const int W = In.width(), H = In.height();
  Image Out(W, H);
  for (int Y = 0; Y < H; ++Y) {
    for (int X = 0; X < W; ++X) {
      double GxA, GyA, GxB, GyB, GxC, GyC;
      blockA<double>(In.clamped(X - 1, Y), In.clamped(X + 1, Y),
                     In.clamped(X, Y - 1), In.clamped(X, Y + 1), GxA, GyA);
      blockB<double>(In.clamped(X - 1, Y - 1), In.clamped(X + 1, Y - 1),
                     In.clamped(X - 1, Y + 1), In.clamped(X + 1, Y + 1),
                     GxB, GyB);
      blockC<double>(In.clamped(X - 1, Y - 1), In.clamped(X + 1, Y - 1),
                     In.clamped(X - 1, Y + 1), In.clamped(X + 1, Y + 1),
                     GxC, GyC);
      Out.at(X, Y) = clampToByte(
          combine<double>(GxA + GxB + GxC, GyA + GyB + GyC));
    }
  }
  WorkMeter::global().add(
      (3.0 * PartUnitsPerPixel + CombineUnitsPerPixel) * W * H);
  return Out;
}

Image scorpio::apps::sobelTasks(rt::TaskRuntime &RT, const Image &In,
                                double Ratio, int BandRows) {
  // A band of no rows would never advance the band loop below.
  SCORPIO_REQUIRE(BandRows > 0, diag::ErrC::InvalidArgument,
                  "sobelTasks: BandRows must be positive", Image());
  const int W = In.width(), H = In.height();
  const size_t NumPx = static_cast<size_t>(W) * H;
  // Per-block partial gradients; dropped tasks leave zeros, which is the
  // paper's "approximate by dropping the respective computation".
  std::vector<float> Gx[3], Gy[3];
  for (int P = 0; P < 3; ++P) {
    Gx[P].assign(NumPx, 0.0f);
    Gy[P].assign(NumPx, 0.0f);
  }

  for (int Y0 = 0; Y0 < H; Y0 += BandRows) {
    const int Y1 = std::min(Y0 + BandRows, H);
    auto SpawnPart = [&](int P, double Significance, auto Body) {
      rt::TaskOptions Opts;
      Opts.Significance = Significance;
      Opts.Label = "sobel.conv";
      RT.spawn(
          [&, P, Y0, Y1, Body] {
            for (int Y = Y0; Y < Y1; ++Y)
              for (int X = 0; X < W; ++X) {
                double GxV, GyV;
                Body(X, Y, GxV, GyV);
                const size_t I = static_cast<size_t>(Y) * W + X;
                Gx[P][I] = static_cast<float>(GxV);
                Gy[P][I] = static_cast<float>(GyV);
              }
            WorkMeter::global().add(PartUnitsPerPixel * W * (Y1 - Y0));
          },
          std::move(Opts));
    };
    SpawnPart(0, /*Significance=*/1.0, [&](int X, int Y, double &GxV,
                                           double &GyV) {
      blockA<double>(In.clamped(X - 1, Y), In.clamped(X + 1, Y),
                     In.clamped(X, Y - 1), In.clamped(X, Y + 1), GxV, GyV);
    });
    SpawnPart(1, /*Significance=*/0.5, [&](int X, int Y, double &GxV,
                                           double &GyV) {
      blockB<double>(In.clamped(X - 1, Y - 1), In.clamped(X + 1, Y - 1),
                     In.clamped(X - 1, Y + 1), In.clamped(X + 1, Y + 1),
                     GxV, GyV);
    });
    SpawnPart(2, /*Significance=*/0.5, [&](int X, int Y, double &GxV,
                                           double &GyV) {
      blockC<double>(In.clamped(X - 1, Y - 1), In.clamped(X + 1, Y - 1),
                     In.clamped(X - 1, Y + 1), In.clamped(X + 1, Y + 1),
                     GxV, GyV);
    });
  }
  RT.taskwait("sobel.conv", Ratio);

  // Second group: always accurate (high significance for the output).
  Image Out(W, H);
  for (int Y0 = 0; Y0 < H; Y0 += BandRows) {
    const int Y1 = std::min(Y0 + BandRows, H);
    rt::TaskOptions Opts;
    Opts.Significance = 1.0;
    Opts.Label = "sobel.combine";
    RT.spawn(
        [&, Y0, Y1] {
          for (int Y = Y0; Y < Y1; ++Y)
            for (int X = 0; X < W; ++X) {
              const size_t I = static_cast<size_t>(Y) * W + X;
              const double GxS = double(Gx[0][I]) + Gx[1][I] + Gx[2][I];
              const double GyS = double(Gy[0][I]) + Gy[1][I] + Gy[2][I];
              Out.at(X, Y) = clampToByte(combine<double>(GxS, GyS));
            }
          WorkMeter::global().add(CombineUnitsPerPixel * W * (Y1 - Y0));
        },
        std::move(Opts));
  }
  RT.taskwait("sobel.combine", 1.0);
  return Out;
}

Image scorpio::apps::sobelPerforated(const Image &In, double Rate) {
  assert(Rate >= 0.0 && Rate <= 1.0 && "rate out of [0, 1]");
  const int W = In.width(), H = In.height();
  Image Out(W, H);
  int LastComputed = -1;
  double Acc = 0.0;
  for (int Y = 0; Y < H; ++Y) {
    Acc += Rate;
    const bool Execute = Acc >= 1.0 - 1e-12 || (Y == 0 && Rate > 0.0);
    if (Execute)
      Acc -= 1.0;
    if (!Execute) {
      // Skipped iteration: replicate the nearest computed row (the
      // charitable reading of perforation for image outputs).
      for (int X = 0; X < W; ++X)
        Out.at(X, Y) = LastComputed >= 0 ? Out.at(X, LastComputed) : 0;
      continue;
    }
    for (int X = 0; X < W; ++X) {
      double GxA, GyA, GxB, GyB, GxC, GyC;
      blockA<double>(In.clamped(X - 1, Y), In.clamped(X + 1, Y),
                     In.clamped(X, Y - 1), In.clamped(X, Y + 1), GxA, GyA);
      blockB<double>(In.clamped(X - 1, Y - 1), In.clamped(X + 1, Y - 1),
                     In.clamped(X - 1, Y + 1), In.clamped(X + 1, Y + 1),
                     GxB, GyB);
      blockC<double>(In.clamped(X - 1, Y - 1), In.clamped(X + 1, Y - 1),
                     In.clamped(X - 1, Y + 1), In.clamped(X + 1, Y + 1),
                     GxC, GyC);
      Out.at(X, Y) = clampToByte(
          combine<double>(GxA + GxB + GxC, GyA + GyB + GyC));
    }
    WorkMeter::global().add(
        (3.0 * PartUnitsPerPixel + CombineUnitsPerPixel) * W);
    LastComputed = Y;
  }
  return Out;
}

SobelBlockSignificance scorpio::apps::analyseSobelBlocks(const Image &In,
                                                         int X, int Y,
                                                         double HalfWidth) {
  assert(In.inBounds(X, Y) && "analysis pixel out of bounds");
  Analysis A;
  A.tape().reserve(64);
  auto Input = [&](int DX, int DY, const char *Name) {
    const double P = In.clamped(X + DX, Y + DY);
    return A.input(Name, P - HalfWidth, P + HalfWidth);
  };
  IAValue NW = Input(-1, -1, "nw"), N = Input(0, -1, "n"),
          NE = Input(1, -1, "ne");
  IAValue W = Input(-1, 0, "w"), E = Input(1, 0, "e");
  IAValue SW = Input(-1, 1, "sw"), S = Input(0, 1, "s"),
          SE = Input(1, 1, "se");

  IAValue GxA, GyA, GxB, GyB, GxC, GyC;
  blockA<IAValue>(W, E, N, S, GxA, GyA);
  blockB<IAValue>(NW, NE, SW, SE, GxB, GyB);
  blockC<IAValue>(NW, NE, SW, SE, GxC, GyC);
  // Block B contributes only to Gx and block C only to Gy; their other
  // component is the passive constant 0 and carries no node.
  A.registerIntermediate(GxA, "Ax");
  A.registerIntermediate(GyA, "Ay");
  A.registerIntermediate(GxB, "Bx");
  A.registerIntermediate(GyC, "Cy");

  // The blocks feed the convolution-stage outputs Gx/Gy (the level-1
  // nodes the paper partitions at); the magnitude+clip stage forms the
  // second, always-accurate task group.  Registering Gx/Gy as the
  // analysis outputs keeps the adjoints finite even where the gradient
  // enclosure touches zero (sqrt'(0) is unbounded).
  IAValue Gx = GxA + GxB + GxC;
  IAValue Gy = GyA + GyB + GyC;
  A.registerOutput(Gx, "gx");
  A.registerOutput(Gy, "gy");

  SobelBlockSignificance Sig;
  AnalysisOptions Opts;
  Opts.Mode = AnalysisOptions::OutputMode::PerOutput;
  Sig.Result = A.analyse(Opts);
  auto SigOf = [&](const char *Name) {
    const VariableSignificance *V = Sig.Result.find(Name);
    assert(V && "registered variable missing");
    return V ? V->Significance : 0.0;
  };
  Sig.A = SigOf("Ax") + SigOf("Ay");
  Sig.B = SigOf("Bx");
  Sig.C = SigOf("Cy");
  return Sig;
}

void scorpio::apps::recordSobelTile(const Image &In, int X0, int Y0, int X1,
                                    int Y1, double HalfWidth) {
  Analysis &A = Analysis::current();
  const int GW = X1 - X0 + 2, GH = Y1 - Y0 + 2;
  std::vector<IAValue> Grid(static_cast<size_t>(GW) * GH);
  for (int GY = Y0 - 1; GY <= Y1; ++GY)
    for (int GX = X0 - 1; GX <= X1; ++GX) {
      const int LX = GX - (X0 - 1), LY = GY - (Y0 - 1);
      const double P = In.clamped(GX, GY);
      Grid[static_cast<size_t>(LY) * GW + LX] =
          A.input("p" + std::to_string(LX) + "_" + std::to_string(LY),
                  P - HalfWidth, P + HalfWidth);
    }
  auto At = [&](int GX, int GY) -> const IAValue & {
    return Grid[static_cast<size_t>(GY - (Y0 - 1)) * GW + (GX - (X0 - 1))];
  };

  for (int Y = Y0; Y < Y1; ++Y)
    for (int X = X0; X < X1; ++X) {
      const std::string Suffix = "_" + std::to_string(X - X0) + "_" +
                                 std::to_string(Y - Y0);
      IAValue GxA, GyA, GxB, GyB, GxC, GyC;
      blockA<IAValue>(At(X - 1, Y), At(X + 1, Y), At(X, Y - 1),
                      At(X, Y + 1), GxA, GyA);
      blockB<IAValue>(At(X - 1, Y - 1), At(X + 1, Y - 1), At(X - 1, Y + 1),
                      At(X + 1, Y + 1), GxB, GyB);
      blockC<IAValue>(At(X - 1, Y - 1), At(X + 1, Y - 1), At(X - 1, Y + 1),
                      At(X + 1, Y + 1), GxC, GyC);
      A.registerIntermediate(GxA, "Ax" + Suffix);
      A.registerIntermediate(GyA, "Ay" + Suffix);
      A.registerIntermediate(GxB, "Bx" + Suffix);
      A.registerIntermediate(GyC, "Cy" + Suffix);
      IAValue Gx = GxA + GxB + GxC;
      IAValue Gy = GyA + GyB + GyC;
      A.registerOutput(Gx, "gx" + Suffix);
      A.registerOutput(Gy, "gy" + Suffix);
    }
}

SobelTileSignificance scorpio::apps::analyseSobelTiles(
    const Image &In, int TileSize, double HalfWidth, unsigned NumThreads,
    ShardVerification Verify) {
  // A tile of no pixels would never advance the tiling loop below.
  SCORPIO_REQUIRE(TileSize > 0, diag::ErrC::InvalidArgument,
                  "analyseSobelTiles: TileSize must be positive",
                  SobelTileSignificance());
  const int W = In.width(), H = In.height();

  ParallelAnalysis P;
  for (int Y0 = 0; Y0 < H; Y0 += TileSize)
    for (int X0 = 0; X0 < W; X0 += TileSize) {
      const int X1 = std::min(X0 + TileSize, W);
      const int Y1 = std::min(Y0 + TileSize, H);
      const size_t NumPx =
          static_cast<size_t>(X1 - X0) * static_cast<size_t>(Y1 - Y0);
      const size_t Hint =
          static_cast<size_t>(X1 - X0 + 2) * (Y1 - Y0 + 2) + 20 * NumPx;
      P.addShard("tile_" + std::to_string(X0 / TileSize) + "_" +
                     std::to_string(Y0 / TileSize),
                 [&In, X0, Y0, X1, Y1, HalfWidth] {
                   recordSobelTile(In, X0, Y0, X1, Y1, HalfWidth);
                 },
                 Hint);
    }

  AnalysisOptions Opts;
  Opts.Mode = AnalysisOptions::OutputMode::PerOutput;

  SobelTileSignificance Sig;
  Sig.Result = P.run(Opts, NumThreads, Verify);
  for (const ShardResult &S : Sig.Result.shards())
    for (const VariableSignificance &V : S.Result.intermediates()) {
      if (V.Name.compare(0, 2, "Ax") == 0 ||
          V.Name.compare(0, 2, "Ay") == 0)
        Sig.A += V.Significance;
      else if (V.Name.compare(0, 2, "Bx") == 0)
        Sig.B += V.Significance;
      else if (V.Name.compare(0, 2, "Cy") == 0)
        Sig.C += V.Significance;
    }
  return Sig;
}
