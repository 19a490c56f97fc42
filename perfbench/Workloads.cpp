//===- perfbench/Workloads.cpp - Inputs, oracles and the four workloads ---===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/sobel/Sobel.h"
#include "graph/DynDFG.h"
#include "service/ResultCache.h"
#include "verify/AbsInt.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>

using namespace perfbench;
using namespace scorpio;
namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

namespace {

/// Seeded interior points per instance, besides the midpoint.
constexpr unsigned InteriorPoints = 2;
/// Redraws allowed before a kernel is declared unusable: a sub-box
/// whose recording diverges would make the instance's report invalid.
constexpr unsigned MaxDraws = 64;

std::vector<Interval> drawSubBox(Rng &R, const std::vector<Interval> &Range) {
  std::vector<Interval> Box;
  Box.reserve(Range.size());
  for (const Interval &D : Range) {
    const double Span = D.upper() - D.lower();
    // Between a quarter and three quarters of the default width.
    const double Width = (0.25 + 0.5 * R.uniform()) * Span;
    const double Lo = D.lower() + R.uniform() * (Span - Width);
    Box.emplace_back(Lo, std::min(Lo + Width, D.upper()));
  }
  return Box;
}

bool recordsCleanly(const KernelDescriptor &K, const std::vector<Interval> &Box) {
  Analysis A;
  K.Analyse(A, Box);
  return !A.tape().hasDiverged() && A.numOutputs() != 0;
}

} // namespace

std::vector<KernelInstance> perfbench::makeKernelInstances(uint64_t Seed,
                                                           unsigned PerKernel) {
  const KernelRegistry &Registry = KernelRegistry::global();
  std::vector<KernelInstance> Out;
  Rng R(Seed);
  for (const std::string &Name : Registry.names()) {
    const KernelDescriptor *K = Registry.find(Name);
    for (unsigned J = 0; J != PerKernel; ++J) {
      KernelInstance I;
      I.K = K;
      I.Name = Name + "/" + std::to_string(J);
      unsigned Draw = 0;
      do {
        if (++Draw > MaxDraws)
          throw std::runtime_error("kernel '" + Name +
                                   "' diverges on every drawn sub-box");
        I.Box = drawSubBox(R, K->DefaultRanges);
      } while (!recordsCleanly(*K, I.Box));
      std::vector<double> Mid;
      for (const Interval &B : I.Box)
        Mid.push_back(B.lower() + 0.5 * (B.upper() - B.lower()));
      I.Points.push_back(std::move(Mid));
      for (unsigned P = 0; P != InteriorPoints; ++P) {
        std::vector<double> X;
        for (const Interval &B : I.Box)
          X.push_back(B.lower() +
                      (0.05 + 0.9 * R.uniform()) * (B.upper() - B.lower()));
        I.Points.push_back(std::move(X));
      }
      Out.push_back(std::move(I));
    }
  }
  return Out;
}

std::string perfbench::encodeInstances(
    const std::vector<KernelInstance> &Instances) {
  std::string Bytes;
  auto PutDouble = [&Bytes](double X) {
    char B[sizeof(double)];
    std::memcpy(B, &X, sizeof(double));
    Bytes.append(B, sizeof(double));
  };
  for (const KernelInstance &I : Instances) {
    Bytes += I.Name;
    Bytes += '\0';
    for (const Interval &B : I.Box) {
      PutDouble(B.lower());
      PutDouble(B.upper());
    }
    for (const std::vector<double> &P : I.Points)
      for (double X : P)
        PutDouble(X);
  }
  return Bytes;
}

std::vector<double> perfbench::expectedValues(const KernelInstance &I) {
  std::vector<double> Out;
  for (const std::vector<double> &P : I.Points)
    Out.push_back(I.K->Evaluate(P));
  return Out;
}

bool perfbench::checkKernelResult(const AnalysisResult &R,
                                  const std::vector<double> &Expected,
                                  std::string &Why) {
  if (!R.isValid()) {
    Why = "report invalid (divergence)";
    return false;
  }
  if (R.outputs().empty()) {
    Why = "no outputs";
    return false;
  }
  Interval Sum = R.outputs().front().Value;
  for (size_t I = 1; I < R.outputs().size(); ++I)
    Sum = Sum + R.outputs()[I].Value;
  // Multi-output kernels evaluate to the double sum of their outputs;
  // allow the few ulps that sum may round away from the exact one.
  const double Slack =
      64 * std::numeric_limits<double>::epsilon() *
      std::max(std::fabs(Sum.lower()), std::fabs(Sum.upper()));
  for (double V : Expected)
    if (!(Sum.lower() - Slack <= V && V <= Sum.upper() + Slack)) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "point value %.17g outside output enclosure [%.17g, "
                    "%.17g]",
                    V, Sum.lower(), Sum.upper());
      Why = Buf;
      return false;
    }
  return true;
}

Image perfbench::makeImage(uint64_t Seed, int W, int H) {
  Rng R(Seed ^ 0x50be1u);
  struct Wave {
    double Kx, Ky, Phase, Amp;
  };
  std::vector<Wave> Waves;
  for (int I = 0; I != 4; ++I)
    Waves.push_back({(R.uniform() - 0.5) * 0.4, (R.uniform() - 0.5) * 0.4,
                     R.uniform() * 6.283185307179586,
                     20.0 + 20.0 * R.uniform()});
  Image Img(W, H);
  for (int Y = 0; Y != H; ++Y)
    for (int X = 0; X != W; ++X) {
      double V = 128.0 + 16.0 * (R.uniform() - 0.5);
      for (const Wave &Wv : Waves)
        V += Wv.Amp * std::sin(Wv.Kx * X + Wv.Ky * Y + Wv.Phase);
      Img.at(X, Y) = static_cast<uint8_t>(std::clamp(std::lround(V), 0L, 255L));
    }
  return Img;
}

ShardFiles perfbench::writeShards(const std::vector<KernelInstance> &Instances,
                                  const std::string &Dir, Tracer *T) {
  ShardFiles Files;
  const AnalysisOptions Options; // the defaults scorpio_merge replays
  StapWriteOptions WOpts;
  WOpts.Compress = true;
  for (size_t I = 0; I != Instances.size(); ++I) {
    const KernelInstance &Inst = Instances[I];
    Analysis A;
    {
      ScopedSpan Span(T, "tape.record");
      Inst.K->Analyse(A, Inst.Box);
      Span.count(A.tape().size());
    }
    const TapeMeta Meta = makeShardMeta(Inst.Name, I, Options);
    char File[32];
    std::snprintf(File, sizeof(File), "shard_%06zu.stap", I);
    const std::string Path = Dir + "/" + File;
    diag::Status S;
    {
      ScopedSpan Span(T, "tapeio.save");
      S = saveStap(Path, A.tape(), A.registration(), {}, WOpts, &Meta);
    }
    if (!S)
      throw std::runtime_error(Path + ": " + S.message());
    Files.Paths.push_back(Path);
    Files.Bytes += fs::file_size(Path);
    Files.Nodes += A.tape().size();
  }
  return Files;
}

void perfbench::syncFilesystem(const std::string &Dir) {
  const int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return;
  ::syncfs(Fd);
  ::close(Fd);
}

std::string perfbench::jsonOf(const ParallelAnalysisResult &R) {
  std::ostringstream OS;
  R.writeJson(OS);
  return OS.str();
}

ParallelAnalysisResult
perfbench::inProcessResult(const std::vector<KernelInstance> &Instances,
                           unsigned Workers) {
  ParallelAnalysis P;
  for (const KernelInstance &I : Instances)
    P.addShard(I.Name, [K = I.K, Box = I.Box] {
      K->Analyse(Analysis::current(), Box);
    });
  return P.run(AnalysisOptions(), Workers);
}

bool perfbench::checkSameReport(const std::string &Got, const std::string &Want,
                                std::string &Why) {
  if (Got == Want)
    return true;
  const size_t At = static_cast<size_t>(
      std::mismatch(Got.begin(), Got.begin() + std::min(Got.size(), Want.size()),
                    Want.begin())
          .first -
      Got.begin());
  Why = "merged report differs from the reference at byte " +
        std::to_string(At) + " (" + std::to_string(Got.size()) + " vs " +
        std::to_string(Want.size()) + " bytes)";
  return false;
}

namespace {

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

bool sameVariables(const std::vector<VariableSignificance> &A,
                   const std::vector<VariableSignificance> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Name != B[I].Name || A[I].Node != B[I].Node ||
        !sameBits(A[I].Value.lower(), B[I].Value.lower()) ||
        !sameBits(A[I].Value.upper(), B[I].Value.upper()) ||
        !sameBits(A[I].Significance, B[I].Significance) ||
        !sameBits(A[I].Normalized, B[I].Normalized))
      return false;
  return true;
}

bool sameAnalysis(const AnalysisResult &A, const AnalysisResult &B) {
  const std::span<const double> SA = A.nodeSignificances(),
                                SB = B.nodeSignificances();
  return A.divergences() == B.divergences() && SA.size() == SB.size() &&
         std::memcmp(SA.data(), SB.data(), SA.size() * sizeof(double)) == 0 &&
         sameVariables(A.inputs(), B.inputs()) &&
         sameVariables(A.intermediates(), B.intermediates()) &&
         sameVariables(A.outputs(), B.outputs()) &&
         sameBits(A.outputSignificance(), B.outputSignificance()) &&
         A.varianceLevel() == B.varianceLevel() &&
         A.graphAliveNodes() == B.graphAliveNodes() &&
         A.graphHeight() == B.graphHeight() && A.backend() == B.backend();
}

} // namespace

bool perfbench::checkSameResult(const ParallelAnalysisResult &Got,
                                const ParallelAnalysisResult &Want,
                                std::string &Why) {
  if (Got.shards().size() != Want.shards().size()) {
    Why = "merged report has " + std::to_string(Got.shards().size()) +
          " shards, reference " + std::to_string(Want.shards().size());
    return false;
  }
  for (size_t I = 0; I != Got.shards().size(); ++I) {
    const ShardResult &G = Got.shards()[I], &W = Want.shards()[I];
    if (G.Name != W.Name || G.Index != W.Index ||
        !sameAnalysis(G.Result, W.Result)) {
      Why = "shard " + std::to_string(I) + " (" + G.Name +
            ") differs from the reference";
      return false;
    }
  }
  if (Got.divergences() != Want.divergences() ||
      !sameBits(Got.outputSignificance(), Want.outputSignificance())) {
    Why = "merged totals differ from the reference";
    return false;
  }
  return true;
}

bool perfbench::checkColdStats(const StreamingMergeStats &S, size_t Stores,
                               size_t Shards, std::string &Why) {
  if (S.ShardsMerged == Shards && S.CacheMisses == Shards &&
      S.Analysed == Shards && Stores == Shards)
    return true;
  Why = "cold merge: merged " + std::to_string(S.ShardsMerged) + ", misses " +
        std::to_string(S.CacheMisses) + ", analysed " +
        std::to_string(S.Analysed) + ", stores " + std::to_string(Stores) +
        " (want " + std::to_string(Shards) + " each)";
  return false;
}

bool perfbench::checkWarmStats(const StreamingMergeStats &S, size_t Shards,
                               std::string &Why) {
  if (S.ShardsMerged == Shards && S.CacheHits == Shards && S.Analysed == 0 &&
      S.CacheAuditRejected == 0)
    return true;
  Why = "warm merge: merged " + std::to_string(S.ShardsMerged) + ", hits " +
        std::to_string(S.CacheHits) + ", analysed " +
        std::to_string(S.Analysed) + ", audit rejections " +
        std::to_string(S.CacheAuditRejected) + " (want all hits, 0 analysed)";
  return false;
}

//===----------------------------------------------------------------------===//
// Layer probes shared by the walks
//===----------------------------------------------------------------------===//

namespace {

/// The combined-seed reverse sweep analyse() runs, on a recorded tape.
void probeSweep(Tracer &T, Tape &Tp, const std::vector<NodeId> &Outputs) {
  ScopedSpan Span(&T, "core.sweep");
  Tp.clearAdjoints();
  for (NodeId Out : Outputs)
    Tp.seedAdjoint(Out, Interval(1.0));
  Tp.reverseSweep();
}

/// DynDFG build + S4 + S5 over an analysed tape, as analyse() runs them.
void probeGraph(Tracer &T, const Tape &Tp, const AnalysisResult &R,
                const std::map<NodeId, std::string> &Labels,
                const std::vector<NodeId> &Outputs) {
  const std::vector<double> Sig(R.nodeSignificances().begin(),
                                R.nodeSignificances().end());
  const AnalysisOptions Defaults;
  ScopedSpan Span(&T, "graph");
  DynDFG G = DynDFG::fromTape(Tp, Sig, Labels, Outputs);
  G.simplify();
  const int Level = G.findSignificanceVarianceLevel(
      Defaults.Delta, R.outputSignificance() > 0.0 ? R.outputSignificance()
                                                   : 1.0);
  if (Level != R.varianceLevel())
    throw std::runtime_error("graph probe disagrees with analyse()");
}

/// Oracle of merged reports against a reference: every printed field
/// compared bitwise on every call, and the rendered JSON byte for byte
/// on the first call and every FullCheckEvery-th after it (rendering a
/// large report costs more than the call itself).
class ReportOracle {
public:
  void setReference(ParallelAnalysisResult R) {
    Want = std::move(R);
    WantJson = jsonOf(Want);
    Checked = 0;
  }

  bool check(const ParallelAnalysisResult &Got, std::string &Why) {
    if (!checkSameResult(Got, Want, Why))
      return false;
    return Checked++ % FullCheckEvery != 0 ||
           checkSameReport(jsonOf(Got), WantJson, Why);
  }

private:
  static constexpr size_t FullCheckEvery = 10;
  ParallelAnalysisResult Want;
  std::string WantJson;
  size_t Checked = 0;
};

LoadedTape loadOrThrow(const std::string &Path) {
  diag::Expected<LoadedTape> L = loadStap(Path);
  if (!L)
    throw std::runtime_error(Path + ": " + L.status().message());
  return std::move(L.value());
}

} // namespace

//===----------------------------------------------------------------------===//
// The layer walk
//===----------------------------------------------------------------------===//

std::string perfbench::Workload::freshDir(const char *Stem) {
  std::string D = Root + "/" + Stem + "_" + std::to_string(NextDir++);
  fs::create_directories(D);
  return D;
}

void perfbench::Workload::walkLayers(Tracer &T) {
  const std::string Dir = freshDir("walk");
  Walked = writeShards(walkInstances(), Dir, &T);
  service::ResultCache Cache(Dir + "/cache");
  for (const std::string &Path : Walked.Paths) {
    ScopedSpan Shard(&T, "walk.shard");
    LoadedTape L;
    {
      ScopedSpan Span(&T, "tapeio.load");
      L = loadOrThrow(Path);
    }
    const AnalysisOptions Options = shardMetaOptions(*L.Meta);
    uint64_t Key = 0;
    {
      ScopedSpan Span(&T, "service.key");
      Key = shardCacheKey(L, Options);
    }
    Analysis A;
    if (diag::Status S = A.adopt(std::move(L.T), L.Reg); !S)
      throw std::runtime_error(Path + ": " + S.message());
    ShardResult SR;
    SR.Name = L.Meta->ShardName;
    SR.Index = L.Meta->ShardIndex;
    {
      ScopedSpan Span(&T, "core.analyse");
      SR.Result = A.analyse(Options);
    }
    probeSweep(T, A.tape(), A.outputNodes());
    probeGraph(T, A.tape(), SR.Result, A.labels(), A.outputNodes());
    {
      ScopedSpan Span(&T, "service.store");
      if (!Cache.store(Key, SR))
        throw std::runtime_error(Path + ": cache store failed");
    }
    ShardResult Hit;
    {
      ScopedSpan Span(&T, "service.lookup");
      if (!Cache.lookup(Key, Hit))
        throw std::runtime_error(Path + ": stored entry missed");
    }
    {
      // The semantic audit a cache hit gets before it is served.
      ScopedSpan Span(&T, "verify.absint");
      verify::AbsIntOptions AbsOpts;
      AbsOpts.SignificanceCap = Options.SignificanceCap;
      const verify::AbsIntResult Abs =
          verify::absInterpret(A.tape(), A.outputNodes(), AbsOpts);
      if (verify::auditStoredSignificance(Abs, Hit.Result.nodeSignificances(),
                                          AbsOpts)
              .hasErrors())
        throw std::runtime_error(Path + ": cache audit rejected a hit");
    }
  }
}

namespace {

//===----------------------------------------------------------------------===//
// kernels
//===----------------------------------------------------------------------===//

/// Every registry kernel x 16 seeded boxes; one call = one fresh
/// Analysis recording and analysing one instance on the calling thread.
class KernelsWorkload : public Workload {
public:
  using Workload::Workload;

  void setup(uint64_t Seed, Tracer *) override {
    Instances = makeKernelInstances(Seed);
    Next = 0;
    call(1, nullptr);
  }

  void prepareOracle() override {
    Expected.clear();
    for (const KernelInstance &I : Instances)
      Expected.push_back(expectedValues(I));
  }

  size_t call(unsigned, Tracer *T) override {
    LastIndex = Next;
    Next = (Next + 1) % Instances.size();
    const KernelInstance &I = Instances[LastIndex];
    ScopedSpan Call(T, "kernels.call");
    Analysis A;
    {
      ScopedSpan Span(T, "tape.record");
      I.K->Analyse(A, I.Box);
      Span.count(A.tape().size());
    }
    {
      ScopedSpan Span(T, "core.analyse");
      Last = A.analyse();
    }
    return 1;
  }

  bool check(std::string &Why) override {
    return checkKernelResult(Last, Expected[LastIndex], Why);
  }

protected:
  std::vector<KernelInstance> walkInstances() const override {
    return Instances;
  }

private:
  std::vector<KernelInstance> Instances;
  std::vector<std::vector<double>> Expected;
  size_t Next = 0, LastIndex = 0;
  AnalysisResult Last;
};

//===----------------------------------------------------------------------===//
// sobel_tiles
//===----------------------------------------------------------------------===//

constexpr int SobelSide = 48;
constexpr int SobelTile = 4;
constexpr double SobelHalfWidth = 8.0;

/// apps::analyseSobelTiles on a seeded image: 144 PerOutput shards.
class SobelTilesWorkload : public Workload {
public:
  using Workload::Workload;

  void setup(uint64_t Seed, Tracer *) override {
    Img = makeImage(Seed, SobelSide, SobelSide);
    call(Workers, nullptr);
  }

  void prepareOracle() override {
    Oracle.setReference(
        apps::analyseSobelTiles(Img, SobelTile, SobelHalfWidth, 1).Result);
  }

  size_t call(unsigned Threads, Tracer *T) override {
    ScopedSpan Call(T, "sobel.call");
    Last = apps::analyseSobelTiles(Img, SobelTile, SobelHalfWidth, Threads)
               .Result;
    return Last.shards().size();
  }

  bool check(std::string &Why) override {
    if (!Last.isValid()) {
      Why = "sobel report invalid";
      return false;
    }
    return Oracle.check(Last, Why);
  }

protected:
  /// The tiles are recorded inside analyseSobelTiles, out of reach of the
  /// public API, so the walk records the registry's sobel-pixel kernel
  /// on the centre pixel of every tile instead, each input the pixel's
  /// value +- SobelHalfWidth as in the tile analysis.
  std::vector<KernelInstance> walkInstances() const override {
    const KernelDescriptor *K = KernelRegistry::global().find("sobel-pixel");
    if (!K)
      throw std::runtime_error("registry has no sobel-pixel kernel");
    std::vector<KernelInstance> Out;
    for (int Y = SobelTile / 2; Y < SobelSide; Y += SobelTile)
      for (int X = SobelTile / 2; X < SobelSide; X += SobelTile) {
        KernelInstance I;
        I.K = K;
        I.Name = "sobel-pixel/" + std::to_string(X) + "_" + std::to_string(Y);
        for (int DY = -1; DY <= 1; ++DY)
          for (int DX = -1; DX <= 1; ++DX) {
            const double V = Img.at(X + DX, Y + DY);
            I.Box.emplace_back(V - SobelHalfWidth, V + SobelHalfWidth);
          }
        Out.push_back(std::move(I));
      }
    return Out;
  }

private:
  Image Img;
  ReportOracle Oracle;
  ParallelAnalysisResult Last;
};

//===----------------------------------------------------------------------===//
// merge_warm
//===----------------------------------------------------------------------===//

/// mergeStapStreaming over the kernel instances written as .stap shards,
/// against a filled ResultCache with the semantic audit on: every shard
/// is a hit and no reverse sweep runs.  The cache is filled read-write
/// in set-up and served read-only, as a shared cache directory is, so
/// the timed calls write nothing: a read-write hit also touches the
/// entry's mtime, a metadata write whose latency on an ext4 disk swings
/// with unrelated activity.
///
/// Nothing is deleted or overwritten: on ext4 with online discard,
/// freeing blocks slows the creates that follow by 3-15x, and a run
/// that deletes its files at exit made the set-up of each later run
/// slower than the last (60 ms to 360 ms over ten runs).  Each set-up
/// writes into a fresh directory under the work directory, which stays
/// behind; run.py prunes old run directories, rarely and before timing
/// starts.
class MergeWarmWorkload : public Workload {
public:
  using Workload::Workload;

  void setup(uint64_t Seed, Tracer *T) override {
    const std::string Dir = freshDir("setup");
    CacheDir = Dir + "/cache";
    fs::create_directories(Dir + "/shards");
    Instances = makeKernelInstances(Seed);
    Files = writeShards(Instances, Dir + "/shards", T);
    const size_t N = Files.Paths.size();
    std::string Why;
    {
      service::ResultCache Fill(CacheDir);
      merge(Fill, CacheMode::ReadWrite, Workers);
      if (!Last || !checkColdStats(LastStats, Fill.stats().Stores, N, Why))
        throw std::runtime_error("cache fill failed: " + Why + Error);
    }
    call(Workers, nullptr);
    if (!Last || !checkWarmStats(LastStats, N, Why))
      throw std::runtime_error("warm-up merge failed: " + Why + Error);
  }

  void prepareOracle() override {
    Oracle.setReference(inProcessResult(Instances, Workers));
  }

  size_t call(unsigned Threads, Tracer *T) override {
    ScopedSpan Call(T, "merge.call");
    service::ResultCache Cache(CacheDir, /*Writable=*/false);
    merge(Cache, CacheMode::ReadOnly, Threads);
    Counters.Lookups += LastStats.CacheHits + LastStats.CacheMisses;
    Counters.Hits += LastStats.CacheHits;
    Counters.MaxTapesInFlight =
        std::max(Counters.MaxTapesInFlight, LastStats.MaxTapesInFlight);
    return LastStats.ShardsMerged;
  }

  bool check(std::string &Why) override {
    if (!Last) {
      Why = "merge failed: " + Error;
      return false;
    }
    return checkWarmStats(LastStats, Files.Paths.size(), Why) &&
           Oracle.check(*Last, Why);
  }

  bool writesFiles() const override { return true; }

protected:
  std::vector<KernelInstance> walkInstances() const override {
    return Instances;
  }

private:
  void merge(service::ResultCache &Cache, CacheMode Mode, unsigned Threads) {
    StreamingMergeOptions O;
    O.NumThreads = Threads;
    O.Cache = Mode;
    O.ResultCache = &Cache;
    O.CacheAudit = true;
    LastStats = StreamingMergeStats();
    diag::Expected<ParallelAnalysisResult> R =
        ParallelAnalysis::mergeStapStreaming(Files.Paths, O, &LastStats);
    if (R) {
      Last = std::move(R.value());
    } else {
      Last.reset();
      Error = R.status().message();
    }
  }

  std::string CacheDir;
  std::vector<KernelInstance> Instances;
  ShardFiles Files;
  ReportOracle Oracle;
  std::string Error;
  std::optional<ParallelAnalysisResult> Last;
  StreamingMergeStats LastStats;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  const std::string &WorkDir,
                                                  unsigned Workers) {
  if (Name == "kernels")
    return std::make_unique<KernelsWorkload>(WorkDir, Workers);
  if (Name == "sobel_tiles")
    return std::make_unique<SobelTilesWorkload>(WorkDir, Workers);
  if (Name == "merge_warm")
    return std::make_unique<MergeWarmWorkload>(WorkDir, Workers);
  return nullptr;
}
