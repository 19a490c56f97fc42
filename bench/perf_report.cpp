//===- bench/perf_report.cpp - Analysis pipeline throughput report --------===//
//
// Times the four stages of the significance-analysis pipeline — tape
// recording, scalar reverse sweep, batched vector-adjoint sweep, and
// the sharded end-to-end driver — and writes the measurements to
// BENCH_analysis.json for tracking across commits.
//
// The headline ratios:
//   * batched_sweep_speedup: reverse-sweeping all 16 outputs of a
//     shared-support tape through Tape::reverseSweepBatch in width-8
//     groups versus 16 dedicated clear+seed+sweep passes.  The
//     analyse()-level width-1/width-8 measurements are also recorded;
//     they dilute the sweep win with the width-independent significance
//     accumulation pass, so the headline targets the sweep stage.
//   * simd_sweep_speedup: the same width-8 batched sweep with the Auto
//     (SIMD) backend versus the forced scalar backend — the pure
//     vectorization win, gated at >= 2.0 on SIMD-capable builds.
//   * sharded_speedup_t2 / sharded_speedup_t4: tile-sharded Sobel
//     analysis on a 2-/4-thread pool versus a single
//     thread (sharded_sobel_speedup keeps the t4 ratio under its
//     historical key).  Recorded always; the >1.0 gate needs more than
//     one hardware thread, and the scaling gate (t4 >= 1.3) more than
//     two (on a single-core box ~1.0 is the honest answer and not a
//     regression).
//
//===----------------------------------------------------------------------===//

#include "apps/sobel/Sobel.h"
#include "core/Analysis.h"
#include "kernels/KernelRegistry.h"
#include "core/ParallelAnalysis.h"
#include "quality/Image.h"
#include "service/ResultCache.h"
#include "simd/IntervalOps.h"
#include "support/Json.h"
#include "support/Timer.h"
#include "tape/Tape.h"
#include "tape/TapeIO.h"
#include "verify/AbsInt.h"
#include "verify/FpError.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <iostream>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

using namespace scorpio;

namespace {

struct Measurement {
  std::string Name;
  size_t Items = 0;       // work items per call (nodes, outputs, pixels)
  size_t Calls = 0;       // calls per timed block
  double Seconds = 0.0;   // best (minimum) block time
  double secondsPerCall() const {
    return Calls ? Seconds / static_cast<double>(Calls) : 0.0;
  }
  double opsPerSec() const {
    return Seconds > 0.0
               ? static_cast<double>(Items * Calls) / Seconds
               : 0.0;
  }
  double nsPerOp() const {
    const double Ops = static_cast<double>(Items * Calls);
    return Ops > 0.0 ? Seconds / Ops * 1e9 : 0.0;
  }
};

/// Best-of-blocks timing: calibrates a block of calls to ~50 ms, runs
/// several blocks, and keeps the fastest one.  The minimum suppresses
/// scheduler preemption noise, which dominates on a shared host.
Measurement measure(const std::string &Name, size_t ItemsPerCall,
                    const std::function<void()> &Fn, int NumBlocks = 7,
                    double BlockSeconds = 0.05) {
  Measurement M;
  M.Name = Name;
  M.Items = ItemsPerCall;
  // Warm-up doubles as calibration: how many calls fill one block?
  Timer T;
  size_t Warm = 0;
  do {
    Fn();
    ++Warm;
  } while (T.seconds() < BlockSeconds);
  M.Calls = Warm;
  M.Seconds = std::numeric_limits<double>::infinity();
  for (int B = 0; B != NumBlocks; ++B) {
    T.reset();
    for (size_t C = 0; C != M.Calls; ++C)
      Fn();
    M.Seconds = std::min(M.Seconds, T.seconds());
  }
  return M;
}

/// Records one multiply-add chain of ChainLen steps with NumOutputs
/// outputs branching off its end — the m-output shared-support workload
/// (the DCT shape: every output depends on the whole pipeline) for the
/// batched-sweep comparison.
std::vector<NodeId> recordChains(Analysis &A, int NumOutputs, int ChainLen) {
  A.tape().reserve(2 * static_cast<size_t>(ChainLen) +
                   static_cast<size_t>(NumOutputs) + 2);
  IAValue X = A.input("x", 0.99, 1.01);
  IAValue Y = X;
  for (int I = 0; I != ChainLen; ++I)
    Y = Y * 1.0001 + 0.0001;
  std::vector<NodeId> Outs;
  for (int O = 0; O != NumOutputs; ++O) {
    const IAValue Out = Y * (1.0 + 0.01 * O);
    A.registerOutput(Out, "y" + std::to_string(O));
    Outs.push_back(Out.node());
  }
  return Outs;
}

double analyseChainsSeconds(unsigned BatchWidth, int NumOutputs,
                            int ChainLen, Measurement &Out) {
  Analysis A;
  recordChains(A, NumOutputs, ChainLen);
  AnalysisOptions Opts;
  Opts.Mode = AnalysisOptions::OutputMode::PerOutput;
  Opts.BatchWidth = BatchWidth;
  // Sweep-stage throughput: skip the DynDFG/level analysis, which is
  // identical for every width and would only dilute the comparison.
  Opts.BuildGraph = false;
  Out = measure("per_output_sweep_width" + std::to_string(BatchWidth),
                static_cast<size_t>(NumOutputs),
                [&] {
                  const AnalysisResult R = A.analyse(Opts);
                  if (!R.isValid())
                    std::abort();
                });
  return Out.secondsPerCall();
}

Image benchImage(int W, int H) {
  Image In(W, H);
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X)
      In.at(X, Y) = static_cast<uint8_t>((X * 37 + Y * 91 + 13) % 256);
  return In;
}

} // namespace

int main() {
  std::cout << "=== scorpio analysis pipeline throughput ===\n";
  std::vector<Measurement> Results;

  // --- Stage 1: tape recording -------------------------------------
  constexpr int RecordNodes = 20000;
  Results.push_back(measure("record", RecordNodes, [] {
    ActiveTapeScope Scope;
    Scope.tape().reserve(RecordNodes + 2);
    IAValue X = IAValue::input(Interval(0.99, 1.01));
    IAValue Y = X;
    for (int I = 0; I != RecordNodes / 2; ++I)
      Y = Y * 1.0001 + 0.0001;
  }));

  // --- Stage 2: scalar reverse sweep -------------------------------
  {
    ActiveTapeScope Scope;
    Scope.tape().reserve(RecordNodes + 2);
    IAValue X = IAValue::input(Interval(0.99, 1.01));
    IAValue Y = X;
    for (int I = 0; I != RecordNodes / 2; ++I)
      Y = Y * 1.0001 + 0.0001;
    const NodeId Out = Y.node();
    Results.push_back(measure("sweep", Scope.tape().size(), [&] {
      Scope.tape().clearAdjoints();
      Scope.tape().seedAdjoint(Out, Interval(1.0));
      Scope.tape().reverseSweep();
    }));
  }

  // --- Stage 3: batched vector-adjoint sweep -----------------------
  // 16 outputs off a shared 4096-step chain: sweeping all of them needs
  // 16 full tape traversals with scalar adjoints but only 2 at width 8,
  // with the per-node edge/partial loads and the partial classification
  // amortized across the 8 lanes.
  constexpr int NumOutputs = 16;
  constexpr int ChainLen = 4096;
  constexpr unsigned BatchW = 8;
  double BatchSpeedup = 0.0;
  double SimdSweepSpeedup = 1.0;
  {
    Analysis A;
    const std::vector<NodeId> Outs = recordChains(A, NumOutputs, ChainLen);
    Tape &T = A.tape();

    const Measurement SweepScalar =
        measure("msweep_scalar_m16", NumOutputs, [&] {
          for (NodeId Out : Outs) {
            T.clearAdjoints();
            T.seedAdjoint(Out, Interval(1.0));
            T.reverseSweep();
          }
        });
    BatchAdjoints Batch;
    const Measurement SweepBatched =
        measure("msweep_batched_m16_w8", NumOutputs, [&] {
          for (size_t B = 0; B < Outs.size(); B += BatchW) {
            const size_t E = std::min(B + BatchW, Outs.size());
            T.reverseSweepBatch(
                std::span<const NodeId>(Outs.data() + B, E - B), Batch);
          }
        });
    // The same batched sweep, forced onto the textbook scalar lane
    // loops: the ratio isolates the SIMD kernels from the batching win.
    const Measurement SweepBatchedScalar =
        measure("msweep_batched_m16_w8_scalar", NumOutputs, [&] {
          for (size_t B = 0; B < Outs.size(); B += BatchW) {
            const size_t E = std::min(B + BatchW, Outs.size());
            T.reverseSweepBatch(
                std::span<const NodeId>(Outs.data() + B, E - B), Batch,
                SweepBackend::Scalar);
          }
        });
    Results.push_back(SweepScalar);
    Results.push_back(SweepBatched);
    Results.push_back(SweepBatchedScalar);
    BatchSpeedup =
        SweepScalar.secondsPerCall() / SweepBatched.secondsPerCall();
    SimdSweepSpeedup = SweepBatchedScalar.secondsPerCall() /
                       SweepBatched.secondsPerCall();
  }

  // analyse()-level context: the same tape end to end.  The ratio here
  // is smaller because the per-lane significance accumulation is
  // identical for every width.
  Measurement Scalar, Batched;
  analyseChainsSeconds(1, NumOutputs, ChainLen, Scalar);
  analyseChainsSeconds(BatchW, NumOutputs, ChainLen, Batched);
  Results.push_back(Scalar);
  Results.push_back(Batched);

  // --- Stage 4: sharded end-to-end Sobel ---------------------------
  const Image In = benchImage(64, 64);
  const size_t NumPixels =
      static_cast<size_t>(In.width()) * static_cast<size_t>(In.height());
  Measurement Sharded1 = measure("sharded_sobel_1thread", NumPixels, [&] {
    const apps::SobelTileSignificance R =
        apps::analyseSobelTiles(In, 16, 8.0, /*NumThreads=*/1);
    if (!R.Result.isValid())
      std::abort();
  });
  Measurement Sharded2 = measure("sharded_sobel_2threads", NumPixels, [&] {
    const apps::SobelTileSignificance R =
        apps::analyseSobelTiles(In, 16, 8.0, /*NumThreads=*/2);
    if (!R.Result.isValid())
      std::abort();
  });
  Measurement Sharded4 = measure("sharded_sobel_4threads", NumPixels, [&] {
    const apps::SobelTileSignificance R =
        apps::analyseSobelTiles(In, 16, 8.0, /*NumThreads=*/4);
    if (!R.Result.isValid())
      std::abort();
  });
  Results.push_back(Sharded1);
  Results.push_back(Sharded2);
  Results.push_back(Sharded4);
  const double ShardSpeedupT2 = Sharded2.opsPerSec() / Sharded1.opsPerSec();
  const double ShardSpeedup = Sharded4.opsPerSec() / Sharded1.opsPerSec();

  // --- Stage 5: incremental shard re-verification overhead ---------
  // Same sharded Sobel, single-threaded so the verification cost is not
  // hidden by idle cores, with per-shard incremental re-verification
  // (sub-tape structure replay, no graph audit or E008) against the
  // verification-off baseline.  The acceptance gate is < 10% overhead.
  // Each call takes longer than one measure() block, so the two sides
  // are timed as interleaved pairs and the overhead is the ratio of the
  // per-side minima — a quiet window for one side is a quiet window for
  // the other, which a sequential best-of comparison cannot guarantee.
  const auto RunBaseline = [&] {
    const apps::SobelTileSignificance R =
        apps::analyseSobelTiles(In, 16, 8.0, /*NumThreads=*/1);
    if (!R.Result.isValid())
      std::abort();
  };
  const auto RunVerified = [&] {
    const apps::SobelTileSignificance R = apps::analyseSobelTiles(
        In, 16, 8.0, /*NumThreads=*/1, ShardVerification::Incremental);
    if (!R.Result.isValid() || !R.Result.wasVerified() ||
        R.Result.verification().errorCount() != 0)
      std::abort();
  };
  RunVerified(); // warm-up
  double BaseMin = std::numeric_limits<double>::infinity();
  double VerifiedMin = BaseMin;
  for (int Round = 0; Round != 9; ++Round) {
    Timer T;
    RunBaseline();
    BaseMin = std::min(BaseMin, T.seconds());
    T.reset();
    RunVerified();
    VerifiedMin = std::min(VerifiedMin, T.seconds());
  }
  Measurement ShardedVerified;
  ShardedVerified.Name = "sharded_sobel_1thread_incverify";
  ShardedVerified.Items = NumPixels;
  ShardedVerified.Calls = 1;
  ShardedVerified.Seconds = VerifiedMin;
  Results.push_back(ShardedVerified);
  const double VerifyOverhead =
      BaseMin > 0.0 ? VerifiedMin / BaseMin - 1.0 : 0.0;

  // --- Stage 5b: abstract-interpretation audit overhead ------------
  // The dct8 row kernel under per-output seeding: VerifyLevel::AbsInt
  // adds one abstract forward pass plus one scalar backward magnitude
  // propagation (absInterpret) and the A003 bound check on top of the
  // structural pipeline.  The audit side is timed directly on a
  // pre-recorded tape rather than as the difference of two end-to-end
  // runs — the delta is ~20us per ~220us iteration, so subtracting two
  // nearly equal minima would put all the timer noise on the gate.
  // Gate: audit cost < 10% of the structurally verified record+analyse.
  const KernelDescriptor *Dct = KernelRegistry::global().find("dct8");
  if (!Dct)
    std::abort();
  constexpr int AbsIntBatch = 256;
  Analysis DctRecorded;
  Dct->Analyse(DctRecorded, Dct->DefaultRanges);
  AnalysisOptions DctOpt;
  DctOpt.Mode = AnalysisOptions::OutputMode::PerOutput;
  DctOpt.VerifyTape = VerifyLevel::Structural;
  const AnalysisResult DctResult = DctRecorded.analyse(DctOpt);
  if (!DctResult.isValid() || !DctResult.wasVerified())
    std::abort();
  const auto RunStructural = [&] {
    for (int I = 0; I != AbsIntBatch; ++I) {
      Analysis A;
      Dct->Analyse(A, Dct->DefaultRanges);
      const AnalysisResult R = A.analyse(DctOpt);
      if (!R.isValid() || !R.wasVerified() ||
          R.verification().errorCount() != 0)
        std::abort();
    }
  };
  // Same work the VerifyLevel::AbsInt hook adds inside analyse():
  // default AbsIntOptions (the hook only mirrors SignificanceCap,
  // which defaults to the same value) plus the A003 dynamic check.
  const auto RunAudit = [&] {
    for (int I = 0; I != AbsIntBatch; ++I) {
      verify::AbsIntResult AR = verify::absInterpret(
          DctRecorded.tape(), DctRecorded.outputNodes(), {});
      verify::checkDynamicSignificance(AR, DctResult.nodeSignificances(),
                                       {});
      if (AR.Report.hasErrors())
        std::abort();
    }
  };
  RunAudit(); // warm-up
  RunStructural();
  double StructuralMin = std::numeric_limits<double>::infinity();
  double AuditMin = StructuralMin;
  for (int Round = 0; Round != 9; ++Round) {
    Timer T;
    RunStructural();
    StructuralMin = std::min(StructuralMin, T.seconds());
    T.reset();
    RunAudit();
    AuditMin = std::min(AuditMin, T.seconds());
  }
  Measurement AbsIntAudited;
  AbsIntAudited.Name = "dct8_peroutput_absint_audit";
  AbsIntAudited.Items = AbsIntBatch;
  AbsIntAudited.Calls = 1;
  AbsIntAudited.Seconds = AuditMin;
  Results.push_back(AbsIntAudited);
  const double AbsIntOverhead =
      StructuralMin > 0.0 ? AuditMin / StructuralMin : 0.0;

  // --- Stage 5c: FP-error audit overhead ---------------------------
  // The rounding-error counterpart of Stage 5b: fpErrorInterpret is the
  // same abstract forward/backward pass plus a linear ulp-scaling loop,
  // and checkDynamicFpError the same per-node bound comparison, so the
  // identical < 10% gate applies.  The dynamic contributions come from
  // a one-off FP-error-backend analyse of the pre-recorded tape.
  AnalysisOptions DctFpOpt = DctOpt;
  DctFpOpt.Backend = AnalysisBackend::FpError;
  const AnalysisResult DctFpResult = DctRecorded.analyse(DctFpOpt);
  if (!DctFpResult.isValid())
    std::abort();
  const auto RunFpAudit = [&] {
    for (int I = 0; I != AbsIntBatch; ++I) {
      verify::FpErrorResult FR = verify::fpErrorInterpret(
          DctRecorded.tape(), DctRecorded.outputNodes(), {});
      verify::checkDynamicFpError(FR, DctFpResult.nodeSignificances(), {});
      if (FR.Report.hasErrors())
        std::abort();
    }
  };
  RunFpAudit(); // warm-up
  double FpStructuralMin = std::numeric_limits<double>::infinity();
  double FpAuditMin = FpStructuralMin;
  for (int Round = 0; Round != 9; ++Round) {
    Timer T;
    RunStructural();
    FpStructuralMin = std::min(FpStructuralMin, T.seconds());
    T.reset();
    RunFpAudit();
    FpAuditMin = std::min(FpAuditMin, T.seconds());
  }
  Measurement FpErrAudited;
  FpErrAudited.Name = "dct8_peroutput_fperr_audit";
  FpErrAudited.Items = AbsIntBatch;
  FpErrAudited.Calls = 1;
  FpErrAudited.Seconds = FpAuditMin;
  Results.push_back(FpErrAudited);
  const double FpErrOverhead =
      FpStructuralMin > 0.0 ? FpAuditMin / FpStructuralMin : 0.0;

  // --- Stage 6: .stap serialize/deserialize throughput -------------
  // The cross-process transport cost: one 20k-node chain tape through
  // writeStap (raw and compressed v2) and back through the verifying
  // readStap.  Items are tape nodes so the ops/sec lines compare
  // directly with the record/sweep stages; the compression ratio is
  // compressed bytes over raw bytes (smaller is better).
  double StapCompressionRatio = 1.0;
  {
    Analysis A;
    recordChains(A, NumOutputs, RecordNodes / 2);
    const size_t StapNodes = A.tape().size();
    const TapeRegistration Reg = A.registration();

    StapWriteOptions RawOpts;
    RawOpts.Compress = false;
    StapWriteOptions PackOpts;
    PackOpts.Compress = true;

    std::ostringstream Raw(std::ios::binary), Packed(std::ios::binary);
    if (!writeStap(Raw, A.tape(), Reg, {}, RawOpts).isOk() ||
        !writeStap(Packed, A.tape(), Reg, {}, PackOpts).isOk())
      std::abort();
    const std::string RawBytes = Raw.str(), PackedBytes = Packed.str();
    StapCompressionRatio = static_cast<double>(PackedBytes.size()) /
                           static_cast<double>(RawBytes.size());

    Results.push_back(measure("stap_serialize_compressed", StapNodes, [&] {
      std::ostringstream OS(std::ios::binary);
      if (!writeStap(OS, A.tape(), Reg, {}, PackOpts).isOk())
        std::abort();
    }));
    Results.push_back(measure("stap_deserialize_compressed", StapNodes, [&] {
      std::istringstream IS(PackedBytes, std::ios::binary);
      if (!readStap(IS).hasValue())
        std::abort();
    }));
    Results.push_back(measure("stap_deserialize_raw", StapNodes, [&] {
      std::istringstream IS(RawBytes, std::ios::binary);
      if (!readStap(IS).hasValue())
        std::abort();
    }));
  }

  // --- Stage 6b: warm result-cache merge speedup -------------------
  // A directory of analysis-heavy chain shards merged streaming twice:
  // cold (every shard analysed) versus against a pre-warmed
  // content-addressed result cache (every shard served without a
  // reverse sweep).  The ratio is the repeat-merge win scorpio_merge
  // --cache buys; the floor is 1.0 — a warm cache must never cost more
  // than the analysis it replaces.
  double CacheHitSpeedup = 1.0;
  {
    namespace fs = std::filesystem;
    const std::string ShardDir = "bench_cache_shards.tmp";
    const std::string CacheDir = "bench_cache_entries.tmp";
    fs::remove_all(ShardDir);
    fs::remove_all(CacheDir);
    fs::create_directories(ShardDir);

    AnalysisOptions ChainOpts;
    ChainOpts.Mode = AnalysisOptions::OutputMode::PerOutput;
    ParallelAnalysis P;
    for (int S = 0; S != 8; ++S)
      P.addShard("chain" + std::to_string(S), [] {
        recordChains(Analysis::current(), NumOutputs, RecordNodes / 16);
      });
    const std::vector<std::string> ShardPaths =
        P.saveShards(ShardDir, ChainOpts).valueOr({});
    const size_t NumShards = ShardPaths.size();

    const auto StreamMerge = [&](StreamingMergeOptions Options) {
      if (!ParallelAnalysis::mergeStapStreaming(ShardPaths, Options)
               .hasValue())
        std::abort();
    };
    const Measurement NoCache =
        measure("stap_merge_nocache", NumShards,
                [&] { StreamMerge({}); });

    service::ResultCache Cache(CacheDir);
    StreamingMergeOptions Cached;
    Cached.Cache = CacheMode::ReadWrite;
    Cached.ResultCache = &Cache;
    StreamMerge(Cached); // populate once; timed runs below all hit
    const Measurement Warm =
        measure("stap_merge_warmcache", NumShards,
                [&] { StreamMerge(Cached); });
    Results.push_back(NoCache);
    Results.push_back(Warm);
    CacheHitSpeedup = Warm.secondsPerCall() > 0.0
                          ? NoCache.secondsPerCall() / Warm.secondsPerCall()
                          : 1.0;
    fs::remove_all(ShardDir);
    fs::remove_all(CacheDir);
  }

  // --- Stage 7: interval-primitive microbenchmarks -----------------
  // Per-op cost of the three interval primitives the sweep is built
  // from — full product, hull, and the outward-rounding step — as a
  // scalar loop and through the simd run kernels over the same buffers.
  // Each pair is checked bit-identical once before timing; the JSON
  // carries per-op ns so primitive regressions are visible without
  // re-deriving them from the sweep numbers.
  {
    constexpr size_t PrimN = 4096;
    std::vector<Interval, simd::AlignedAllocator<Interval>> A, B, OutS,
        OutV;
    A.reserve(PrimN);
    B.reserve(PrimN);
    OutS.resize(PrimN, Interval(0.0));
    OutV.resize(PrimN, Interval(0.0));
    for (size_t I = 0; I != PrimN; ++I) {
      // Deterministic mixed-sign, mixed-width operands, with exact
      // zeros sprinkled in so the zero-identity lanes get exercised.
      const double C = static_cast<double>(I % 997) - 498.0;
      const double W = static_cast<double>(I % 13) * 0.25;
      A.push_back(I % 31 == 0 ? Interval(0.0) : Interval(C - W, C + W));
      const double C2 = 300.0 - static_cast<double>(I % 601);
      B.push_back(I % 37 == 0 ? Interval(0.0)
                              : Interval(C2 - 0.5, C2 + 0.5));
    }
    const auto BitEqualRuns = [&] {
      return std::memcmp(OutS.data(), OutV.data(),
                         PrimN * sizeof(Interval)) == 0;
    };
    bool PrimIdentical = true;

    for (size_t I = 0; I != PrimN; ++I)
      OutS[I] = A[I] * B[I];
    simd::mulRun(A.data(), B.data(), OutV.data(), PrimN);
    PrimIdentical = PrimIdentical && BitEqualRuns();
    Results.push_back(measure("prim_mul_scalar", PrimN, [&] {
      for (size_t I = 0; I != PrimN; ++I)
        OutS[I] = A[I] * B[I];
    }));
    Results.push_back(measure("prim_mul_simd", PrimN, [&] {
      simd::mulRun(A.data(), B.data(), OutV.data(), PrimN);
    }));

    for (size_t I = 0; I != PrimN; ++I)
      OutS[I] = hull(A[I], B[I]);
    simd::hullRun(A.data(), B.data(), OutV.data(), PrimN);
    PrimIdentical = PrimIdentical && BitEqualRuns();
    Results.push_back(measure("prim_hull_scalar", PrimN, [&] {
      for (size_t I = 0; I != PrimN; ++I)
        OutS[I] = hull(A[I], B[I]);
    }));
    Results.push_back(measure("prim_hull_simd", PrimN, [&] {
      simd::hullRun(A.data(), B.data(), OutV.data(), PrimN);
    }));

    for (size_t I = 0; I != PrimN; ++I)
      OutS[I] = detail::outward(A[I].lower(), A[I].upper(), 1);
    simd::outwardRun(A.data(), OutV.data(), PrimN);
    PrimIdentical = PrimIdentical && BitEqualRuns();
    Results.push_back(measure("prim_outward_scalar", PrimN, [&] {
      for (size_t I = 0; I != PrimN; ++I)
        OutS[I] = detail::outward(A[I].lower(), A[I].upper(), 1);
    }));
    Results.push_back(measure("prim_outward_simd", PrimN, [&] {
      simd::outwardRun(A.data(), OutV.data(), PrimN);
    }));

    if (!PrimIdentical) {
      std::cout << "ERROR: simd primitive runs are not bit-identical to "
                   "the scalar loops\n";
      return 1;
    }
  }

  // Determinism: different pool sizes must merge to identical JSON.
  std::ostringstream J1, J4;
  apps::analyseSobelTiles(In, 16, 8.0, 1).Result.writeJson(J1);
  apps::analyseSobelTiles(In, 16, 8.0, 4).Result.writeJson(J4);
  const bool Deterministic = J1.str() == J4.str();

  // --- Report ------------------------------------------------------
  for (const Measurement &M : Results)
    std::cout << "  " << M.Name << ": " << M.opsPerSec() << " ops/sec ("
              << M.nsPerOp() << " ns/op, " << M.Calls << " calls, "
              << M.Seconds << " s)\n";
  std::cout << "  batched sweep speedup (16 outputs, width-8 groups vs "
               "16 scalar sweeps): "
            << BatchSpeedup << "x\n";
  std::cout << "  simd sweep speedup (width-8 batch, Auto vs Scalar "
               "backend, "
            << simd::NativeLanes << " native lanes): " << SimdSweepSpeedup
            << "x\n";
  std::cout << "  sharded sobel speedup (2 vs 1 threads): "
            << ShardSpeedupT2 << "x\n";
  std::cout << "  sharded sobel speedup (4 vs 1 threads): " << ShardSpeedup
            << "x on " << std::thread::hardware_concurrency()
            << " hardware thread(s)\n";
  std::cout << "  incremental shard re-verification overhead: "
            << VerifyOverhead * 100.0 << "% (gate: < 10%)\n";
  std::cout << "  abstract-interpretation audit cost (dct8 per-output, "
               "audit vs structural record+analyse): "
            << AbsIntOverhead * 100.0 << "% (gate: < 10%)\n";
  std::cout << "  fp-error audit cost (dct8 per-output, audit vs "
               "structural record+analyse): "
            << FpErrOverhead * 100.0 << "% (gate: < 10%)\n";
  std::cout << "  stap compression ratio (compressed/raw bytes): "
            << StapCompressionRatio << "\n";
  std::cout << "  stap cache-hit speedup (streaming merge, warm cache vs "
               "full analysis): "
            << CacheHitSpeedup << "x\n";
  std::cout << "  sharded merge deterministic: "
            << (Deterministic ? "yes" : "NO") << "\n";

  // Gates that depend on what this box can express: the SIMD-vs-scalar
  // ratio only means something when the build actually has vector
  // lanes, and the 4-vs-1-thread ratio only when there is more than one
  // hardware thread to run on.  Both numbers are recorded regardless,
  // with the gating decision labelled alongside them in the JSON.
  const bool SimdGate = simd::NativeLanes > 1;
  const bool ShardGate = std::thread::hardware_concurrency() > 1;
  // The scaling gate proper: with more than two hardware threads the
  // sharded analysis must buy a real speedup at 4 workers, not
  // just avoid a slowdown.  On one- and two-core boxes the ratio is
  // still recorded and labelled, just not enforced.
  const bool ShardScalingGate = std::thread::hardware_concurrency() > 2;

  bool Wrote = true;
  {
    std::ofstream OS("BENCH_analysis.json");
    JsonWriter J(OS);
    J.beginObject();
    J.key("hardware_concurrency")
        .value(static_cast<size_t>(std::thread::hardware_concurrency()));
    J.key("benchmarks").beginArray();
    for (const Measurement &M : Results) {
      J.beginObject();
      J.key("name").value(M.Name);
      J.key("items_per_call").value(M.Items);
      J.key("calls").value(M.Calls);
      J.key("seconds").value(M.Seconds);
      J.key("ops_per_sec").value(M.opsPerSec());
      J.key("ns_per_op").value(M.nsPerOp());
      J.endObject();
    }
    J.endArray();
    J.key("batched_sweep_speedup").value(BatchSpeedup);
    J.key("simd_native_lanes")
        .value(static_cast<size_t>(simd::NativeLanes));
    J.key("simd_sweep_speedup").value(SimdSweepSpeedup);
    J.key("simd_sweep_gated").value(SimdGate);
    J.key("sharded_sobel_speedup").value(ShardSpeedup);
    J.key("sharded_sobel_gated").value(ShardGate);
    J.key("sharded_speedup_t2").value(ShardSpeedupT2);
    J.key("sharded_speedup_t4").value(ShardSpeedup);
    J.key("sharded_t4_gated").value(ShardScalingGate);
    J.key("incremental_verify_overhead").value(VerifyOverhead);
    J.key("absint_overhead").value(AbsIntOverhead);
    J.key("fperr_overhead").value(FpErrOverhead);
    J.key("stap_compression_ratio").value(StapCompressionRatio);
    J.key("stap_cache_hit_speedup").value(CacheHitSpeedup);
    J.key("sharded_deterministic").value(Deterministic);
    J.endObject();
    OS << "\n";
    Wrote = static_cast<bool>(OS);
  }
  std::cout << (Wrote ? "wrote BENCH_analysis.json\n"
                      : "ERROR: could not write BENCH_analysis.json\n");

  // The determinism contract is unconditional; the batched-sweep win
  // only needs the sweeps to dominate, which m=16 chains guarantee.
  // Incremental re-verification is a linear pass over data the analysis
  // already touched, so < 10% of the record+sweep cost is structural.
  // The abstract-interpretation audit is one forward interval pass and
  // one scalar backward pass against a pipeline that runs per-output
  // batched sweeps plus the graph stages — the same linear-vs-super-
  // linear argument keeps it under the 10% gate.
  // The chain tape's delta-friendly OPS/EDGE streams make < 1.0 a
  // structural property of the varint codec, not a tuning accident.
  // The SIMD sweep gate asks for >= 2.0 pure vectorization win on
  // SIMD-capable builds; the sharded gate needs real parallel hardware.
  // A warm result cache trades every reverse sweep for one key hash and
  // a file read, so >= 1.0 is the structural floor: the cache must
  // never cost more than the analysis it skips.
  const bool Ok = Wrote && Deterministic && BatchSpeedup > 1.0 &&
                  (!SimdGate || SimdSweepSpeedup >= 2.0) &&
                  (!ShardGate || ShardSpeedup > 1.0) &&
                  (!ShardScalingGate || ShardSpeedup >= 1.3) &&
                  VerifyOverhead < 0.10 && AbsIntOverhead < 0.10 &&
                  FpErrOverhead < 0.10 &&
                  StapCompressionRatio < 1.0 && CacheHitSpeedup >= 1.0;
  std::cout << "perf report: " << (Ok ? "PASS" : "FAIL") << "\n";
  return Ok ? 0 : 1;
}
