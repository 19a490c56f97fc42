//===- tests/streaming_merge_test.cpp - Streaming merge + result cache ----===//
//
// The PR-7 contract: ParallelAnalysis::mergeStapStreaming must produce a
// merged report byte-identical to loading every tape and batch-merging —
// on every registry kernel, compressed and raw — while never holding
// more than the prefetch window of tapes; the content-addressed result
// cache must serve a repeat merge without a single reverse sweep, and
// every corrupted/invalidated entry must degrade to a miss, never a
// wrong result.  Also covers the merge-CLI correctness seams: the
// refusal of META-less and mismatched shards, saveJson sink checking
// and the explicit-increment directory scanner.
//
//===----------------------------------------------------------------------===//

#include "core/ParallelAnalysis.h"
#include "service/ResultCache.h"

#include "kernels/KernelRegistry.h"
#include "support/Diag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

using namespace scorpio;

namespace {

class StreamingMergeTest : public ::testing::Test {
protected:
  void SetUp() override {
    diag::DiagSink::global().clear();
    diag::setCheckPolicy(diag::CheckPolicy::ReturnStatus);
  }
  void TearDown() override { diag::DiagSink::global().clear(); }
};

/// Self-cleaning scratch directory under the gtest temp root.
struct TempDir {
  std::string Path;
  explicit TempDir(const std::string &Name)
      : Path(::testing::TempDir() + "/" + Name) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() { std::filesystem::remove_all(Path); }
};

/// Records every registry kernel as one META-stamped shard tape in
/// \p Dir (exactly what scorpio_shardd produces) and returns the
/// in-process merged report as the byte-identity baseline.
std::string recordRegistryShards(const std::string &Dir,
                                 bool Compress = true) {
  ParallelAnalysis P;
  KernelRegistry &Registry = KernelRegistry::global();
  std::vector<std::string> Names = Registry.names();
  std::sort(Names.begin(), Names.end());
  for (const std::string &Name : Names) {
    const KernelDescriptor *K = Registry.find(Name);
    EXPECT_NE(K, nullptr);
    P.addShard(Name,
               [K] { K->Analyse(Analysis::current(), K->DefaultRanges); });
  }
  diag::Expected<std::vector<std::string>> Paths =
      P.saveShards(Dir, {}, Compress);
  EXPECT_TRUE(Paths.hasValue()) << Paths.status().message();
  std::ostringstream OS;
  P.run({}, /*NumThreads=*/4).writeJson(OS);
  return OS.str();
}

/// The pre-streaming merge algorithm (load every tape, pick the first
/// META options, analyse in path order, mergeShards) — the reference
/// the streaming path must reproduce bit for bit.
std::string batchMergeJson(const std::vector<std::string> &Paths) {
  std::vector<LoadedTape> Tapes;
  for (const std::string &Path : Paths) {
    diag::Expected<LoadedTape> Loaded = loadStap(Path);
    EXPECT_TRUE(Loaded.hasValue()) << Path << ": "
                                   << Loaded.status().message();
    Tapes.push_back(std::move(Loaded.value()));
  }
  AnalysisOptions Options;
  for (const LoadedTape &T : Tapes)
    if (T.Meta && T.Meta->HasOptions) {
      Options = shardMetaOptions(*T.Meta);
      break;
    }
  std::vector<ShardResult> Shards;
  for (LoadedTape &T : Tapes)
    Shards.push_back(
        ParallelAnalysis::analyseShardTape(std::move(T), Options));
  std::ostringstream OS;
  ParallelAnalysis::mergeShards(std::move(Shards)).writeJson(OS);
  return OS.str();
}

std::string streamJson(const std::vector<std::string> &Paths,
                       const StreamingMergeOptions &Options = {},
                       StreamingMergeStats *Stats = nullptr) {
  diag::Expected<ParallelAnalysisResult> R =
      ParallelAnalysis::mergeStapStreaming(Paths, Options, Stats);
  EXPECT_TRUE(R.hasValue()) << R.status().message();
  if (!R.hasValue())
    return {};
  std::ostringstream OS;
  R.value().writeJson(OS);
  return OS.str();
}

/// Writes one tiny kernel (y = x * x, x in [Lo, Hi]) as a .stap shard;
/// with \p Meta null the tape carries no META section.
void writeSquareShard(const std::string &Path, double Lo, double Hi,
                      const TapeMeta *Meta) {
  Analysis A;
  IAValue X = A.input("x", Lo, Hi);
  IAValue Y = X * X;
  A.registerOutput(Y, "y");
  const diag::Status S =
      saveStap(Path, A.tape(), A.registration(), {}, {}, Meta);
  ASSERT_TRUE(S.isOk()) << S.message();
}

//===----------------------------------------------------------------------===//
// Streaming byte-identity and the window bound
//===----------------------------------------------------------------------===//

TEST_F(StreamingMergeTest, StreamingIsByteIdenticalOnAllRegistryKernels) {
  for (const bool Compress : {true, false}) {
    TempDir Dir(Compress ? "scorpio_stream_c" : "scorpio_stream_r");
    const std::string InProcess = recordRegistryShards(Dir.Path, Compress);
    diag::Expected<std::vector<std::string>> Paths =
        listStapShards(Dir.Path);
    ASSERT_TRUE(Paths.hasValue()) << Paths.status().message();
    ASSERT_EQ(Paths.value().size(),
              KernelRegistry::global().names().size());

    StreamingMergeStats Stats;
    const std::string Streamed = streamJson(Paths.value(), {}, &Stats);
    EXPECT_EQ(InProcess, Streamed);
    EXPECT_EQ(InProcess, batchMergeJson(Paths.value()));
    EXPECT_EQ(Stats.ShardsMerged, Paths.value().size());
    EXPECT_EQ(Stats.Analysed, Paths.value().size());
    EXPECT_EQ(Stats.CacheHits, 0u);
  }
}

TEST_F(StreamingMergeTest, PrefetchWindowBoundsTapesInFlight) {
  TempDir Dir("scorpio_stream_window");
  const std::string InProcess = recordRegistryShards(Dir.Path);
  const std::vector<std::string> Paths =
      listStapShards(Dir.Path).valueOr({});
  for (const unsigned Window : {1u, 2u, 5u}) {
    StreamingMergeOptions Options;
    Options.PrefetchWindow = Window;
    StreamingMergeStats Stats;
    EXPECT_EQ(InProcess, streamJson(Paths, Options, &Stats));
    EXPECT_GE(Stats.MaxTapesInFlight, 1u);
    EXPECT_LE(Stats.MaxTapesInFlight, Window);
  }
}

TEST_F(StreamingMergeTest, LoadFailureRejectsWholeMerge) {
  TempDir Dir("scorpio_stream_badshard");
  recordRegistryShards(Dir.Path);
  {
    std::ofstream OS(Dir.Path + "/shard_zz_bad.stap", std::ios::binary);
    OS << "STAPgarbage-that-is-not-a-tape";
  }
  const std::vector<std::string> Paths =
      listStapShards(Dir.Path).valueOr({});
  diag::Expected<ParallelAnalysisResult> R =
      ParallelAnalysis::mergeStapStreaming(Paths);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.status().message().find("shard_zz_bad.stap"),
            std::string::npos)
      << R.status().message();
}

TEST_F(StreamingMergeTest, MidStreamLoadFailureDoesNotStallThePipeline) {
  // A shard in the middle of the path order is corrupted while slots
  // behind it are already loading/analysing on workers.  The poisoned
  // slot must publish (never leave the consumer waiting on a slot that
  // will never fill), the error must name the bad shard, and the drain
  // guard must retire every outstanding worker job before return.
  TempDir Dir("scorpio_stream_poison");
  recordRegistryShards(Dir.Path);
  std::vector<std::string> Paths = listStapShards(Dir.Path).valueOr({});
  ASSERT_GT(Paths.size(), 4u);
  const std::string Victim = Paths[Paths.size() / 2];
  {
    std::ofstream OS(Victim, std::ios::binary | std::ios::trunc);
    OS << "STAPtruncated-mid-stream";
  }
  for (const unsigned Threads : {1u, 4u}) {
    StreamingMergeOptions Options;
    Options.NumThreads = Threads;
    Options.PrefetchWindow = 6;
    diag::Expected<ParallelAnalysisResult> R =
        ParallelAnalysis::mergeStapStreaming(Paths, Options);
    ASSERT_FALSE(R.hasValue());
    EXPECT_NE(R.status().message().find(Victim), std::string::npos)
        << R.status().message();
  }
}

TEST_F(StreamingMergeTest, TwoBadShardsRejectWithTheFirstInPathOrder) {
  // Adjacent bad shards, so wide runners claim both at once.  The
  // earlier one is a full registry tape re-stamped with other options:
  // it loads completely and is refused only at the META check.  The
  // later one fails at once on load, so under threads the later
  // failure is usually seen first.  Either way the merge must report
  // the earlier shard, after folding exactly the shards before it.
  TempDir Dir("scorpio_stream_two_bad");
  recordRegistryShards(Dir.Path);
  const std::vector<std::string> Paths =
      listStapShards(Dir.Path).valueOr({});
  ASSERT_GT(Paths.size(), 4u);
  const size_t Early = 1;
  const size_t Late = 2;
  {
    diag::Expected<LoadedTape> L = loadStap(Paths[Early]);
    ASSERT_TRUE(L.hasValue()) << L.status().message();
    AnalysisOptions Other;
    Other.Delta = 2 * Other.Delta + 1;
    const TapeMeta Mismatched =
        makeShardMeta(L.value().Meta->ShardName, Early, Other);
    const diag::Status S = saveStap(Paths[Early], L.value().T,
                                    L.value().Reg, {}, {}, &Mismatched);
    ASSERT_TRUE(S.isOk()) << S.message();
  }
  {
    std::ofstream OS(Paths[Late], std::ios::binary | std::ios::trunc);
    OS << "STAPtruncated-late";
  }
  for (const unsigned Threads : {1u, 4u})
    for (const unsigned Window : {1u, 2u, 6u}) {
      StreamingMergeOptions Options;
      Options.NumThreads = Threads;
      Options.PrefetchWindow = Window;
      StreamingMergeStats Stats;
      diag::Expected<ParallelAnalysisResult> R =
          ParallelAnalysis::mergeStapStreaming(Paths, Options, &Stats);
      ASSERT_FALSE(R.hasValue());
      const std::string &Message = R.status().message();
      EXPECT_NE(Message.find(Paths[Early]), std::string::npos)
          << "threads " << Threads << ", window " << Window << ": "
          << Message;
      EXPECT_EQ(Message.find(Paths[Late]), std::string::npos)
          << "threads " << Threads << ", window " << Window << ": "
          << Message;
      EXPECT_EQ(Stats.ShardsMerged, Early)
          << "threads " << Threads << ", window " << Window;
    }
}

//===----------------------------------------------------------------------===//
// META reference semantics: Paths[0] sets the options, the rest must match
//===----------------------------------------------------------------------===//

/// Writes \p Count META-stamped square shards "<Dir>/s<i>.stap" under
/// the default options and returns their paths in order.
std::vector<std::string> writeSquareShards(const std::string &Dir,
                                           int Count) {
  std::vector<std::string> Paths;
  for (int I = 0; I != Count; ++I) {
    const TapeMeta Meta =
        makeShardMeta("sq" + std::to_string(I), static_cast<uint64_t>(I), {});
    Paths.push_back(Dir + "/s" + std::to_string(I) + ".stap");
    writeSquareShard(Paths.back(), 1.0 + I, 2.0 + I, &Meta);
  }
  return Paths;
}

/// True when \p Cache holds an entry for the shard at \p Path, keyed as
/// the merge would key it under the default recording options.
bool hasEntryFor(const std::string &Cache, const std::string &Path) {
  diag::Expected<LoadedTape> L = loadStap(Path);
  EXPECT_TRUE(L.hasValue()) << L.status().message();
  return L.hasValue() &&
         std::filesystem::exists(
             Cache + "/" +
             service::ResultCache::entryFileName(shardCacheKey(L.value(), {})));
}

TEST_F(StreamingMergeTest, MetaMismatchNamesTheActualReferencePath) {
  TempDir Shards("scorpio_stream_metamix");
  TempDir Cache("scorpio_stream_metamix_cache");
  std::vector<std::string> Paths = writeSquareShards(Shards.Path, 6);
  // A mid-stream shard recorded under other options, behind a window of
  // healthy shards that workers analyse and store concurrently.
  AnalysisOptions Other;
  Other.Delta = 0.25; // differs from the defaults
  const TapeMeta OtherMeta = makeShardMeta("sq3", 3, Other);
  writeSquareShard(Paths[3], 4.0, 5.0, &OtherMeta);

  for (const unsigned Threads : {1u, 4u}) {
    service::ResultCache RC(Cache.Path);
    StreamingMergeOptions Options;
    Options.NumThreads = Threads;
    Options.Cache = CacheMode::ReadWrite;
    Options.ResultCache = &RC;
    diag::Expected<ParallelAnalysisResult> R =
        ParallelAnalysis::mergeStapStreaming(Paths, Options);
    ASSERT_FALSE(R.hasValue());
    // The offending shard and the reference, Paths[0] — no bystander.
    const std::string &Msg = R.status().message();
    EXPECT_NE(Msg.find(Paths[3]), std::string::npos) << Msg;
    EXPECT_NE(Msg.find(Paths[0]), std::string::npos) << Msg;
    EXPECT_EQ(Msg.find(Paths[2]), std::string::npos) << Msg;
    // The refused shard was never analysed, so never stored; at most
    // the five healthy shards were.
    EXPECT_FALSE(hasEntryFor(Cache.Path, Paths[3]));
    EXPECT_LE(RC.stats().Stores, Paths.size() - 1);
  }
}

TEST_F(StreamingMergeTest, MetalessShardIsRefusedFirstOrMidStream) {
  for (const size_t Bad : {size_t(0), size_t(3)}) {
    TempDir Shards("scorpio_stream_nometa");
    TempDir Cache("scorpio_stream_nometa_cache");
    std::vector<std::string> Paths = writeSquareShards(Shards.Path, 6);
    writeSquareShard(Paths[Bad], 9.0, 10.0, /*Meta=*/nullptr);
    // The loader still accepts a META-less tape; only the merge refuses.
    ASSERT_TRUE(loadStap(Paths[Bad]).hasValue());

    for (const unsigned Threads : {1u, 4u}) {
      service::ResultCache RC(Cache.Path);
      StreamingMergeOptions Options;
      Options.NumThreads = Threads;
      Options.Cache = CacheMode::ReadWrite;
      Options.ResultCache = &RC;
      diag::Expected<ParallelAnalysisResult> R =
          ParallelAnalysis::mergeStapStreaming(Paths, Options);
      ASSERT_FALSE(R.hasValue()) << "bad=" << Bad;
      const std::string &Msg = R.status().message();
      EXPECT_NE(Msg.find(Paths[Bad]), std::string::npos) << Msg;
      EXPECT_NE(Msg.find("META"), std::string::npos) << Msg;
      EXPECT_FALSE(hasEntryFor(Cache.Path, Paths[Bad]));
      // A META-less Paths[0] leaves no reference: nothing is analysed.
      EXPECT_LE(RC.stats().Stores, Bad == 0 ? 0u : Paths.size() - 1);
    }
  }
}

//===----------------------------------------------------------------------===//
// Result cache: hits, invalidation, corruption, read-only
//===----------------------------------------------------------------------===//

TEST_F(StreamingMergeTest, WarmCacheIsByteIdenticalWithoutAnySweep) {
  TempDir Shards("scorpio_cache_shards");
  TempDir Cache("scorpio_cache_dir");
  const std::string InProcess = recordRegistryShards(Shards.Path);
  const std::vector<std::string> Paths =
      listStapShards(Shards.Path).valueOr({});
  const size_t N = Paths.size();

  service::ResultCache RC(Cache.Path);
  ASSERT_TRUE(RC.directoryStatus().isOk());
  StreamingMergeOptions Options;
  Options.Cache = CacheMode::ReadWrite;
  Options.ResultCache = &RC;

  StreamingMergeStats Cold;
  EXPECT_EQ(InProcess, streamJson(Paths, Options, &Cold));
  EXPECT_EQ(Cold.CacheHits, 0u);
  EXPECT_EQ(Cold.CacheMisses, N);
  EXPECT_EQ(Cold.Analysed, N);
  EXPECT_EQ(RC.stats().Stores, N);

  // The warm merge must not run one reverse sweep: every shard is
  // served from the cache, so the process-wide sweep counter freezes.
  const uint64_t SweepsBefore = Tape::totalReverseSweeps();
  StreamingMergeStats Warm;
  EXPECT_EQ(InProcess, streamJson(Paths, Options, &Warm));
  EXPECT_EQ(Tape::totalReverseSweeps(), SweepsBefore);
  EXPECT_EQ(Warm.CacheHits, N);
  EXPECT_EQ(Warm.CacheMisses, 0u);
  EXPECT_EQ(Warm.Analysed, 0u);
}

TEST_F(StreamingMergeTest, VerificationBypassesTheCache) {
  TempDir Shards("scorpio_cache_verify_shards");
  TempDir Cache("scorpio_cache_verify_dir");
  recordRegistryShards(Shards.Path);
  const std::vector<std::string> Paths =
      listStapShards(Shards.Path).valueOr({});
  service::ResultCache RC(Cache.Path);
  StreamingMergeOptions Options;
  Options.Cache = CacheMode::ReadWrite;
  Options.ResultCache = &RC;
  Options.Verify = ShardVerification::Incremental;
  StreamingMergeStats Stats;
  streamJson(Paths, Options, &Stats);
  // Verified merges carry findings a cache entry cannot: no lookups, no
  // stores, every shard analysed fresh.
  EXPECT_EQ(Stats.CacheHits + Stats.CacheMisses, 0u);
  EXPECT_EQ(Stats.Analysed, Paths.size());
  EXPECT_EQ(RC.stats().Stores, 0u);
}

TEST_F(StreamingMergeTest, CacheKeySeparatesEveryInput) {
  Analysis A;
  IAValue X = A.input("x", 1.0, 2.0);
  IAValue Y = X * X;
  A.registerOutput(Y, "y");
  std::ostringstream OS(std::ios::binary);
  const TapeMeta Meta = makeShardMeta("square", 0, {});
  ASSERT_TRUE(writeStap(OS, A.tape(), A.registration(), {}, {}, &Meta)
                  .isOk());
  const auto Load = [&] {
    std::istringstream IS(OS.str(), std::ios::binary);
    diag::Expected<LoadedTape> L = readStap(IS);
    EXPECT_TRUE(L.hasValue());
    return std::move(L.value());
  };
  const LoadedTape Base = Load();
  const uint64_t Key = shardCacheKey(Base, {});
  EXPECT_EQ(Key, shardCacheKey(Load(), {})); // deterministic

  // A different build's schema hash must never share entries.
  EXPECT_NE(Key, shardCacheKey(Base, {}, stapSchemaHash() ^ 1));

  // Every analysis option participates, including the sweep backend.
  AnalysisOptions Opt;
  Opt.Delta = 0.5;
  EXPECT_NE(Key, shardCacheKey(Base, Opt));
  Opt = {};
  Opt.Sweep = SweepBackend::Scalar;
  EXPECT_NE(Key, shardCacheKey(Base, Opt));
  // ...and the error-analysis backend: FP-error and significance
  // results must never collide under one key.
  Opt = {};
  Opt.Backend = AnalysisBackend::FpError;
  EXPECT_NE(Key, shardCacheKey(Base, Opt));

  // A changed input enclosure changes the key.
  Analysis B;
  IAValue X2 = B.input("x", 1.0, 2.0000000000000004); // one ulp wider
  IAValue Y2 = X2 * X2;
  B.registerOutput(Y2, "y");
  std::ostringstream OS2(std::ios::binary);
  ASSERT_TRUE(writeStap(OS2, B.tape(), B.registration(), {}, {}, &Meta)
                  .isOk());
  std::istringstream IS2(OS2.str(), std::ios::binary);
  diag::Expected<LoadedTape> Wider = readStap(IS2);
  ASSERT_TRUE(Wider.hasValue());
  EXPECT_NE(Key, shardCacheKey(Wider.value(), {}));

  // META identity participates: same tape bytes, different shard name.
  LoadedTape Renamed = Load();
  Renamed.Meta->ShardName = "square2";
  EXPECT_NE(Key, shardCacheKey(Renamed, {}));
}

TEST_F(StreamingMergeTest, CorruptedEntryFallsBackToAnalysis) {
  TempDir Shards("scorpio_cache_corrupt_shards");
  TempDir Cache("scorpio_cache_corrupt_dir");
  const std::string InProcess = recordRegistryShards(Shards.Path);
  const std::vector<std::string> Paths =
      listStapShards(Shards.Path).valueOr({});
  {
    service::ResultCache RC(Cache.Path);
    StreamingMergeOptions Options;
    Options.Cache = CacheMode::ReadWrite;
    Options.ResultCache = &RC;
    streamJson(Paths, Options, nullptr);
  }
  // Flip one byte in the middle of every entry: checksums must catch
  // each one, the merge must re-analyse and still be byte-identical,
  // and ReadWrite mode must evict and re-store clean entries.
  size_t Entries = 0;
  for (const auto &E :
       std::filesystem::directory_iterator(Cache.Path)) {
    std::fstream F(E.path(), std::ios::in | std::ios::out |
                                 std::ios::binary);
    F.seekg(0, std::ios::end);
    const auto Size = F.tellg();
    F.seekp(static_cast<std::streamoff>(Size) / 2);
    char C = 0;
    F.seekg(static_cast<std::streamoff>(Size) / 2);
    F.get(C);
    F.seekp(static_cast<std::streamoff>(Size) / 2);
    F.put(static_cast<char>(C ^ 0x5a));
    ++Entries;
  }
  ASSERT_EQ(Entries, Paths.size());

  service::ResultCache RC(Cache.Path);
  StreamingMergeOptions Options;
  Options.Cache = CacheMode::ReadWrite;
  Options.ResultCache = &RC;
  StreamingMergeStats Stats;
  EXPECT_EQ(InProcess, streamJson(Paths, Options, &Stats));
  EXPECT_EQ(Stats.CacheHits, 0u);
  EXPECT_EQ(Stats.CacheMisses, Paths.size());
  EXPECT_EQ(RC.stats().CorruptEntries, Paths.size());
  EXPECT_EQ(RC.stats().Stores, Paths.size());

  // The re-stored entries serve the next merge.
  StreamingMergeStats Warm;
  EXPECT_EQ(InProcess, streamJson(Paths, Options, &Warm));
  EXPECT_EQ(Warm.CacheHits, Paths.size());
}

TEST_F(StreamingMergeTest, ReadOnlyCacheNeverWrites) {
  TempDir Shards("scorpio_cache_ro_shards");
  TempDir Cache("scorpio_cache_ro_dir");
  const std::string InProcess = recordRegistryShards(Shards.Path);
  const std::vector<std::string> Paths =
      listStapShards(Shards.Path).valueOr({});

  service::ResultCache RC(Cache.Path, /*Writable=*/false);
  StreamingMergeOptions Options;
  Options.Cache = CacheMode::ReadOnly;
  Options.ResultCache = &RC;
  StreamingMergeStats Stats;
  EXPECT_EQ(InProcess, streamJson(Paths, Options, &Stats));
  EXPECT_EQ(Stats.CacheMisses, Paths.size());
  EXPECT_EQ(RC.stats().Stores, 0u);
  EXPECT_TRUE(std::filesystem::is_empty(Cache.Path));

  // Populate read-write, then serve read-only.
  {
    service::ResultCache RW(Cache.Path);
    StreamingMergeOptions Populate;
    Populate.Cache = CacheMode::ReadWrite;
    Populate.ResultCache = &RW;
    streamJson(Paths, Populate, nullptr);
  }
  service::ResultCache RO(Cache.Path, /*Writable=*/false);
  StreamingMergeOptions Serve;
  Serve.Cache = CacheMode::ReadOnly;
  Serve.ResultCache = &RO;
  StreamingMergeStats Warm;
  EXPECT_EQ(InProcess, streamJson(Paths, Serve, &Warm));
  EXPECT_EQ(Warm.CacheHits, Paths.size());
}

//===----------------------------------------------------------------------===//
// Semantic cache audit and the size budget
//===----------------------------------------------------------------------===//

TEST_F(StreamingMergeTest, CacheAuditAcceptsHonestAndRejectsForgedEntries) {
  TempDir Shards("scorpio_cache_audit_shards");
  TempDir Cache("scorpio_cache_audit_dir");
  const TapeMeta Meta = makeShardMeta("square", 0, {});
  writeSquareShard(Shards.Path + "/shard_0.stap", 1.0, 2.0, &Meta);
  const std::vector<std::string> Paths =
      listStapShards(Shards.Path).valueOr({});
  ASSERT_EQ(Paths.size(), 1u);

  service::ResultCache RC(Cache.Path);
  StreamingMergeOptions Options;
  Options.Cache = CacheMode::ReadWrite;
  Options.ResultCache = &RC;
  Options.CacheAudit = true;

  // Honest entries sail through the audit: cold stores, warm hits.
  StreamingMergeStats Cold;
  const std::string Honest = streamJson(Paths, Options, &Cold);
  EXPECT_EQ(Cold.CacheAuditRejected, 0u);
  StreamingMergeStats Warm;
  EXPECT_EQ(Honest, streamJson(Paths, Options, &Warm));
  EXPECT_EQ(Warm.CacheHits, 1u);
  EXPECT_EQ(Warm.CacheAuditRejected, 0u);

  // Forge the stored report: serialize the cached result, overwrite
  // every per-node significance with a value the static bounds rule
  // out, and store the forgery under the honest key.  The entry is
  // checksummed, verified and framed perfectly — exactly what a stale
  // or buggy build would have left behind.
  diag::Expected<LoadedTape> Loaded = loadStap(Paths[0]);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  ASSERT_TRUE(Loaded.value().Meta.has_value());
  const AnalysisOptions RefOpts = shardMetaOptions(*Loaded.value().Meta);
  const uint64_t Key = shardCacheKey(Loaded.value(), RefOpts);
  ShardResult Hit;
  ASSERT_TRUE(RC.lookup(Key, Hit));
  ASSERT_TRUE(Hit.Result.divergences().empty());
  std::string Payload = ParallelAnalysis::serializeShardResult(Hit);
  // Layout: name (len + bytes), index, divergence count (0), node
  // count, then the per-node significance doubles.
  const size_t At = 8 + Hit.Name.size() + 8 + 8 + 8;
  const double Huge = 1e305;
  for (size_t I = 0; I != Hit.Result.nodeSignificances().size(); ++I)
    std::memcpy(Payload.data() + At + I * sizeof(double), &Huge,
                sizeof(double));
  diag::Expected<ShardResult> Forged =
      ParallelAnalysis::deserializeShardResult(Payload);
  ASSERT_TRUE(Forged.hasValue()) << Forged.status().message();
  ASSERT_EQ(Forged.value().Result.nodeSignificances()[0], Huge);
  ASSERT_TRUE(RC.store(Key, Forged.value()));

  // Without the audit the forgery is served — its checksums are fine.
  StreamingMergeOptions NoAudit = Options;
  NoAudit.CacheAudit = false;
  StreamingMergeStats Blind;
  streamJson(Paths, NoAudit, &Blind);
  EXPECT_EQ(Blind.CacheHits, 1u);

  // With the audit the entry is rejected, invalidated and re-analysed;
  // the merged report is byte-identical to the honest one.
  StreamingMergeStats Audited;
  EXPECT_EQ(Honest, streamJson(Paths, Options, &Audited));
  EXPECT_EQ(Audited.CacheAuditRejected, 1u);
  EXPECT_EQ(Audited.CacheHits, 0u);
  EXPECT_EQ(Audited.CacheMisses, 1u);
  EXPECT_EQ(Audited.Analysed, 1u);

  // The re-stored clean entry passes the next audited merge.
  StreamingMergeStats Clean;
  EXPECT_EQ(Honest, streamJson(Paths, Options, &Clean));
  EXPECT_EQ(Clean.CacheHits, 1u);
  EXPECT_EQ(Clean.CacheAuditRejected, 0u);
}

TEST_F(StreamingMergeTest, BackendsNeverShareCacheEntries) {
  TempDir Shards("scorpio_cache_backend_shards");
  TempDir Cache("scorpio_cache_backend_dir");
  const TapeMeta Meta = makeShardMeta("square", 0, {});
  writeSquareShard(Shards.Path + "/shard_0.stap", 1.0, 2.0, &Meta);
  const std::vector<std::string> Paths =
      listStapShards(Shards.Path).valueOr({});
  ASSERT_EQ(Paths.size(), 1u);

  service::ResultCache RC(Cache.Path);
  StreamingMergeOptions Sig;
  Sig.Cache = CacheMode::ReadWrite;
  Sig.ResultCache = &RC;
  StreamingMergeOptions Fp = Sig;
  Fp.Backend = AnalysisBackend::FpError;

  // Warm the cache with the significance backend, then merge under the
  // FP-error backend: not one hit may be served across the boundary —
  // the backend is part of the cache key.
  const std::string SigReport = streamJson(Paths, Sig, nullptr);
  StreamingMergeStats FpCold;
  const std::string FpReport = streamJson(Paths, Fp, &FpCold);
  EXPECT_EQ(FpCold.CacheHits, 0u);
  EXPECT_EQ(FpCold.CacheMisses, 1u);
  EXPECT_EQ(FpCold.Analysed, 1u);
  // Different numbers (and a self-identifying report), not a re-label.
  EXPECT_NE(SigReport, FpReport);
  EXPECT_NE(FpReport.find("\"backend\":\"fperr\""), std::string::npos);
  EXPECT_EQ(SigReport.find("\"backend\""), std::string::npos);

  // Both entries now coexist; each backend warm-hits only its own.
  StreamingMergeStats FpWarm, SigWarm;
  EXPECT_EQ(FpReport, streamJson(Paths, Fp, &FpWarm));
  EXPECT_EQ(FpWarm.CacheHits, 1u);
  EXPECT_EQ(SigReport, streamJson(Paths, Sig, &SigWarm));
  EXPECT_EQ(SigWarm.CacheHits, 1u);

  // The semantic audit accepts each backend's honest entry under its
  // own bounds (FP-error hits are audited against auditStoredFpError,
  // not the significance bounds, which they would violate).
  StreamingMergeOptions FpAudit = Fp;
  FpAudit.CacheAudit = true;
  StreamingMergeOptions SigAudit = Sig;
  SigAudit.CacheAudit = true;
  StreamingMergeStats FpAudited, SigAudited;
  EXPECT_EQ(FpReport, streamJson(Paths, FpAudit, &FpAudited));
  EXPECT_EQ(FpAudited.CacheHits, 1u);
  EXPECT_EQ(FpAudited.CacheAuditRejected, 0u);
  EXPECT_EQ(SigReport, streamJson(Paths, SigAudit, &SigAudited));
  EXPECT_EQ(SigAudited.CacheHits, 1u);
  EXPECT_EQ(SigAudited.CacheAuditRejected, 0u);

  // Defense in depth: a significance result smuggled under the
  // FP-error key (what a key collision or a buggy build would leave
  // behind) is rejected by the audited merge on its backend tag alone,
  // before any bound comparison, and the shard re-analyses honestly.
  diag::Expected<LoadedTape> Loaded = loadStap(Paths[0]);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  ASSERT_TRUE(Loaded.value().Meta.has_value());
  AnalysisOptions SigRef = shardMetaOptions(*Loaded.value().Meta);
  AnalysisOptions FpRef = SigRef;
  FpRef.Backend = AnalysisBackend::FpError;
  const uint64_t SigKey = shardCacheKey(Loaded.value(), SigRef);
  const uint64_t FpKey = shardCacheKey(Loaded.value(), FpRef);
  ASSERT_NE(SigKey, FpKey);
  ShardResult SigHit;
  ASSERT_TRUE(RC.lookup(SigKey, SigHit));
  EXPECT_EQ(SigHit.Result.backend(), AnalysisBackend::Significance);
  ASSERT_TRUE(RC.store(FpKey, SigHit));
  StreamingMergeStats Recovered;
  EXPECT_EQ(FpReport, streamJson(Paths, FpAudit, &Recovered));
  EXPECT_EQ(Recovered.CacheAuditRejected, 1u);
  EXPECT_EQ(Recovered.CacheHits, 0u);
  EXPECT_EQ(Recovered.Analysed, 1u);
}

TEST_F(StreamingMergeTest, InvalidateRemovesTheEntryFile) {
  TempDir Shards("scorpio_cache_inval_shards");
  TempDir Cache("scorpio_cache_inval_dir");
  const TapeMeta Meta = makeShardMeta("square", 0, {});
  writeSquareShard(Shards.Path + "/s.stap", 1.0, 2.0, &Meta);
  diag::Expected<LoadedTape> Loaded = loadStap(Shards.Path + "/s.stap");
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  const uint64_t Key = shardCacheKey(Loaded.value(), {});
  const ShardResult SR =
      ParallelAnalysis::analyseShardTape(std::move(Loaded.value()), {});
  const std::string Entry =
      Cache.Path + "/" + service::ResultCache::entryFileName(Key);

  service::ResultCache RC(Cache.Path);
  ASSERT_TRUE(RC.store(Key, SR));
  EXPECT_TRUE(std::filesystem::exists(Entry));
  RC.invalidate(Key);
  EXPECT_FALSE(std::filesystem::exists(Entry));
  ShardResult Out;
  EXPECT_FALSE(RC.lookup(Key, Out));

  // A read-only cache must not repair the shared directory.
  ASSERT_TRUE(RC.store(Key, SR));
  service::ResultCache RO(Cache.Path, /*Writable=*/false);
  RO.invalidate(Key);
  EXPECT_TRUE(std::filesystem::exists(Entry));
}

TEST_F(StreamingMergeTest, CacheBudgetEvictsLeastRecentlyUsedEntries) {
  namespace fs = std::filesystem;
  // Measure one entry's on-disk size (all shards below share the tape
  // shape and name length, so every entry is this large).
  uint64_t EntrySize = 0;
  {
    TempDir Probe("scorpio_cache_budget_probe");
    const TapeMeta Meta = makeShardMeta("sq9", 9, {});
    writeSquareShard(Probe.Path + "/p.stap", 9.0, 10.0, &Meta);
    diag::Expected<LoadedTape> L = loadStap(Probe.Path + "/p.stap");
    ASSERT_TRUE(L.hasValue());
    const uint64_t Key = shardCacheKey(L.value(), {});
    service::ResultCache PC(Probe.Path + "/cache");
    ASSERT_TRUE(PC.store(
        Key, ParallelAnalysis::analyseShardTape(std::move(L.value()), {})));
    EntrySize = fs::file_size(Probe.Path + "/cache/" +
                              service::ResultCache::entryFileName(Key));
  }
  ASSERT_GT(EntrySize, 0u);

  TempDir Shards("scorpio_cache_budget_shards");
  TempDir Cache("scorpio_cache_budget_dir");
  for (int I = 0; I != 6; ++I) {
    const std::string Name = "sq" + std::to_string(I);
    const TapeMeta Meta = makeShardMeta(Name, static_cast<uint64_t>(I), {});
    writeSquareShard(Shards.Path + "/shard_" + std::to_string(I) + ".stap",
                     1.0 + I, 2.0 + I, &Meta);
  }
  const std::vector<std::string> Paths =
      listStapShards(Shards.Path).valueOr({});
  ASSERT_EQ(Paths.size(), 6u);
  const std::string Reference = streamJson(Paths); // uncached baseline

  // Three entries fit; storing six must evict at least three, oldest
  // first, and the directory must end up within the budget.
  const uint64_t Budget = 3 * EntrySize;
  service::ResultCache RC(Cache.Path, /*Writable=*/true, Budget);
  StreamingMergeOptions Options;
  Options.Cache = CacheMode::ReadWrite;
  Options.ResultCache = &RC;
  // The cold merge stores strictly in path order: one worker and a
  // one-tape window leave a single shard in flight at a time, so
  // Paths.back() is the last entry stored by construction.  Concurrent
  // workers store in any order, and eviction breaks coarse-mtime ties
  // arbitrarily.
  StreamingMergeOptions Serial = Options;
  Serial.NumThreads = 1;
  Serial.PrefetchWindow = 1;
  StreamingMergeStats Cold;
  EXPECT_EQ(Reference, streamJson(Paths, Serial, &Cold));
  EXPECT_EQ(Cold.CacheMisses, 6u);
  EXPECT_EQ(RC.stats().Stores, 6u);
  EXPECT_GE(RC.stats().Evictions, 3u);

  uint64_t Total = 0;
  size_t Files = 0;
  for (const auto &E : fs::directory_iterator(Cache.Path)) {
    if (E.path().extension() != ".scrc")
      continue;
    Total += E.file_size();
    ++Files;
  }
  EXPECT_LE(Total, Budget);
  EXPECT_LE(Files, 3u);
  EXPECT_GE(Files, 1u);

  // The most recently stored shard survives (a store never evicts its
  // own entry).
  diag::Expected<LoadedTape> Last = loadStap(Paths.back());
  ASSERT_TRUE(Last.hasValue());
  EXPECT_TRUE(fs::exists(
      Cache.Path + "/" +
      service::ResultCache::entryFileName(shardCacheKey(
          Last.value(), shardMetaOptions(*Last.value().Meta)))));

  // A surviving entry still serves (and the single-shard merge it
  // feeds is byte-identical to an uncached one).
  const std::vector<std::string> LastOnly{Paths.back()};
  StreamingMergeStats Survivor;
  EXPECT_EQ(streamJson(LastOnly), streamJson(LastOnly, Options, &Survivor));
  EXPECT_EQ(Survivor.CacheHits, 1u);

  // A full warm scan under a budget below the working set thrashes by
  // design (each re-store evicts the next shard's entry) — it must
  // still merge byte-identically and stay within budget.
  StreamingMergeStats Warm;
  EXPECT_EQ(Reference, streamJson(Paths, Options, &Warm));
  EXPECT_EQ(Warm.CacheHits + Warm.CacheMisses, 6u);
}

TEST_F(StreamingMergeTest, ConcurrentLookupStoreInvalidateNeverServesATornEntry) {
  // Four threads race lookups, stores and invalidations over six keys
  // on a read-write cache whose budget holds about three entries, so
  // evictions race too.  Lookups read without the cache lock; every
  // hit must still be exactly the result stored under its key, and
  // every lookup must count as one hit or one miss.
  TempDir Shards("scorpio_cache_race_shards");
  TempDir Cache("scorpio_cache_race_dir");
  constexpr int NumKeys = 6;
  std::vector<ShardResult> Results;
  std::vector<std::string> Expected;
  for (int I = 0; I != NumKeys; ++I) {
    const std::string Path = Shards.Path + "/s" + std::to_string(I) + ".stap";
    const TapeMeta Meta =
        makeShardMeta("sq" + std::to_string(I), static_cast<uint64_t>(I), {});
    writeSquareShard(Path, 1.0 + I, 2.0 + I, &Meta);
    diag::Expected<LoadedTape> L = loadStap(Path);
    ASSERT_TRUE(L.hasValue()) << L.status().message();
    Results.push_back(
        ParallelAnalysis::analyseShardTape(std::move(L.value()), {}));
    Expected.push_back(ParallelAnalysis::serializeShardResult(Results.back()));
  }
  const auto KeyOf = [](int I) { return 0x5eed0000ULL + I; };
  uint64_t EntrySize = 0;
  {
    service::ResultCache Probe(Cache.Path);
    ASSERT_TRUE(Probe.store(KeyOf(0), Results[0]));
    EntrySize = std::filesystem::file_size(
        Cache.Path + "/" + service::ResultCache::entryFileName(KeyOf(0)));
  }
  ASSERT_GT(EntrySize, 0u);

  service::ResultCache RC(Cache.Path, /*Writable=*/true, 3 * EntrySize);
  constexpr int NumThreads = 4;
  constexpr int OpsPerThread = 250;
  std::atomic<size_t> Lookups{0};
  std::atomic<size_t> Hits{0};
  std::atomic<size_t> Torn{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != NumThreads; ++T)
    Workers.emplace_back([&, T] {
      std::mt19937 Rng(static_cast<unsigned>(T) + 1);
      for (int Op = 0; Op != OpsPerThread; ++Op) {
        const int I = static_cast<int>(Rng() % NumKeys);
        switch (Rng() % 4) {
        case 0:
          RC.store(KeyOf(I), Results[static_cast<size_t>(I)]);
          break;
        case 1:
          RC.invalidate(KeyOf(I));
          break;
        default: {
          ShardResult Out;
          ++Lookups;
          if (!RC.lookup(KeyOf(I), Out))
            break;
          ++Hits;
          if (ParallelAnalysis::serializeShardResult(Out) !=
              Expected[static_cast<size_t>(I)])
            ++Torn;
          break;
        }
        }
      }
    });
  for (std::thread &W : Workers)
    W.join();

  const service::ResultCache::Stats Stats = RC.stats();
  EXPECT_EQ(Torn.load(), 0u);
  EXPECT_EQ(Stats.Hits + Stats.Misses, Lookups.load());
  EXPECT_EQ(Stats.Hits, Hits.load());
  EXPECT_EQ(Stats.CorruptEntries, 0u);
  EXPECT_EQ(Stats.WriteFailures, 0u);
  EXPECT_GT(Stats.Stores, 0u);
}

//===----------------------------------------------------------------------===//
// Serialization round-trip
//===----------------------------------------------------------------------===//

TEST_F(StreamingMergeTest, ShardResultSerializationRoundTrips) {
  Analysis A;
  IAValue X = A.input("x", 1.0, 2.0);
  IAValue Z = A.input("z", -0.5, 0.5);
  IAValue Mid = X * Z;
  A.registerIntermediate(Mid, "mid");
  IAValue Y = Mid + X * X;
  A.registerOutput(Y, "y");
  ShardResult SR;
  SR.Name = "round-trip";
  SR.Index = 42;
  SR.Result = A.analyse();

  const std::string Bytes = ParallelAnalysis::serializeShardResult(SR);
  diag::Expected<ShardResult> Back =
      ParallelAnalysis::deserializeShardResult(Bytes);
  ASSERT_TRUE(Back.hasValue()) << Back.status().message();
  EXPECT_EQ(Back.value().Name, SR.Name);
  EXPECT_EQ(Back.value().Index, SR.Index);
  std::ostringstream Orig, Re;
  SR.Result.writeJson(Orig);
  Back.value().Result.writeJson(Re);
  EXPECT_EQ(Orig.str(), Re.str());
  // And re-serialization is bit-stable (the store-time verification
  // relies on it).
  EXPECT_EQ(Bytes,
            ParallelAnalysis::serializeShardResult(Back.value()));

  // Truncation at every length must be an error, never a crash or a
  // silently partial result.
  for (size_t Len = 0; Len != Bytes.size(); ++Len)
    EXPECT_FALSE(ParallelAnalysis::deserializeShardResult(
                     std::string_view(Bytes).substr(0, Len))
                     .hasValue())
        << "accepted truncation at " << Len;
  // Trailing garbage is foreign bytes, not an entry.
  EXPECT_FALSE(
      ParallelAnalysis::deserializeShardResult(Bytes + "x").hasValue());
  // A NaN interval bound would violate the Interval invariant.
  EXPECT_FALSE(ParallelAnalysis::deserializeShardResult("").hasValue());
}

//===----------------------------------------------------------------------===//
// CLI seams: saveJson sink checking and the directory scanner
//===----------------------------------------------------------------------===//

TEST_F(StreamingMergeTest, SaveJsonSurfacesSinkFailures) {
  ParallelAnalysis P;
  P.addShard("square", [] {
    Analysis &A = Analysis::current();
    IAValue X = A.input("x", 1.0, 2.0);
    IAValue Y = X * X;
    A.registerOutput(Y, "y");
  });
  const ParallelAnalysisResult R = P.run({}, 1);

  // Unopenable path: error, not silence.
  EXPECT_FALSE(
      R.saveJson("/nonexistent-scorpio-dir/report.json").isOk());

  // A sink that accepts open() but fails writes: /dev/full makes the
  // flush fail, which the old writeJson-to-ofstream path never checked.
  if (std::filesystem::exists("/dev/full")) {
    const diag::Status S = R.saveJson("/dev/full");
    EXPECT_FALSE(S.isOk());
    EXPECT_NE(S.message().find("/dev/full"), std::string::npos);
  }

  // The happy path round-trips through writeJson byte-identically.
  TempDir Dir("scorpio_savejson");
  const std::string Path = Dir.Path + "/report.json";
  ASSERT_TRUE(R.saveJson(Path).isOk());
  std::ifstream IS(Path, std::ios::binary);
  std::ostringstream Got, Want;
  Got << IS.rdbuf();
  R.writeJson(Want);
  EXPECT_EQ(Got.str(), Want.str());
}

TEST_F(StreamingMergeTest, ListStapShardsFiltersAndSorts) {
  TempDir Dir("scorpio_scan");
  writeSquareShard(Dir.Path + "/b.stap", 1.0, 2.0, nullptr);
  writeSquareShard(Dir.Path + "/a.stap", 1.0, 2.0, nullptr);
  { std::ofstream(Dir.Path + "/notes.txt") << "not a tape"; }
  // A directory named like a tape is not a regular file.
  std::filesystem::create_directory(Dir.Path + "/dir.stap");

  diag::Expected<std::vector<std::string>> Paths =
      listStapShards(Dir.Path);
  ASSERT_TRUE(Paths.hasValue()) << Paths.status().message();
  ASSERT_EQ(Paths.value().size(), 2u);
  EXPECT_EQ(Paths.value()[0], Dir.Path + "/a.stap");
  EXPECT_EQ(Paths.value()[1], Dir.Path + "/b.stap");

  diag::Expected<std::vector<std::string>> Missing =
      listStapShards(Dir.Path + "/no-such-dir");
  ASSERT_FALSE(Missing.hasValue());
  EXPECT_NE(Missing.status().message().find("no-such-dir"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Non-regular files: FIFOs and directories where a file is expected
//===----------------------------------------------------------------------===//

TEST_F(StreamingMergeTest, NonRegularCacheEntryIsAPlainMiss) {
  TempDir Shards("scorpio_cache_fifo_shards");
  TempDir Cache("scorpio_cache_fifo_dir");
  const std::string InProcess = recordRegistryShards(Shards.Path);
  const std::vector<std::string> Paths =
      listStapShards(Shards.Path).valueOr({});
  ASSERT_GE(Paths.size(), 2u);
  const auto EntryPath = [&](const std::string &Shard) {
    diag::Expected<LoadedTape> L = loadStap(Shard);
    EXPECT_TRUE(L.hasValue()) << L.status().message();
    return Cache.Path + "/" +
           service::ResultCache::entryFileName(shardCacheKey(L.value(), {}));
  };
  // A FIFO and a directory stand where the first two shards' entries
  // would be.  A blocking open of the FIFO would wait for a writer that
  // never comes.
  const std::string Fifo = EntryPath(Paths[0]);
  const std::string Dir = EntryPath(Paths[1]);
  ASSERT_EQ(::mkfifo(Fifo.c_str(), 0600), 0) << std::strerror(errno);
  ASSERT_TRUE(std::filesystem::create_directory(Dir));

  service::ResultCache RC(Cache.Path, /*Writable=*/false);
  StreamingMergeOptions Options;
  Options.Cache = CacheMode::ReadOnly;
  Options.ResultCache = &RC;
  StreamingMergeStats Stats;
  EXPECT_EQ(InProcess, streamJson(Paths, Options, &Stats));
  EXPECT_EQ(Stats.CacheHits, 0u);
  EXPECT_EQ(Stats.CacheMisses, Paths.size());
  EXPECT_EQ(RC.stats().Misses, Paths.size());
  EXPECT_EQ(RC.stats().CorruptEntries, 0u);
  EXPECT_TRUE(std::filesystem::is_fifo(Fifo));
  EXPECT_TRUE(std::filesystem::is_directory(Dir));
}

TEST_F(StreamingMergeTest, NonRegularShardIsAnErrorNamingThePath) {
  TempDir Dir("scorpio_stream_fifo_shard");
  recordRegistryShards(Dir.Path);
  const std::vector<std::string> Paths = listStapShards(Dir.Path).valueOr({});
  ASSERT_GE(Paths.size(), 2u);
  const std::string Fifo = Dir.Path + "/shard_fifo.stap";
  const std::string Subdir = Dir.Path + "/shard_dir.stap";
  ASSERT_EQ(::mkfifo(Fifo.c_str(), 0600), 0) << std::strerror(errno);
  ASSERT_TRUE(std::filesystem::create_directory(Subdir));
  // The directory scan lists regular files only, but an explicit path
  // list can name anything, first or mid-stream.
  EXPECT_EQ(listStapShards(Dir.Path).valueOr({}), Paths);
  for (const std::string &Bad : {Fifo, Subdir}) {
    diag::Expected<LoadedTape> L = loadStap(Bad);
    ASSERT_FALSE(L.hasValue()) << Bad;
    EXPECT_NE(L.status().message().find(Bad), std::string::npos)
        << L.status().message();
    for (const size_t At : {size_t{0}, Paths.size() / 2}) {
      std::vector<std::string> WithBad = Paths;
      WithBad.insert(WithBad.begin() + static_cast<ptrdiff_t>(At), Bad);
      diag::Expected<ParallelAnalysisResult> R =
          ParallelAnalysis::mergeStapStreaming(WithBad);
      ASSERT_FALSE(R.hasValue()) << Bad << " at " << At;
      EXPECT_NE(R.status().message().find(Bad), std::string::npos)
          << R.status().message();
    }
  }
}

} // namespace
