//===- core/ParallelAnalysis.h - Sharded significance analysis ------------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fans independent significance-analysis work items ("shards": a Sobel
/// tile, a DCT block, one BlackScholes option, an N-Body particle) out
/// over rt::ThreadPool.  Each shard records into its own thread-local
/// Analysis — tapes are thread-local, so shards never contend — and the
/// merge step is purely shard-index ordered: the merged result is
/// byte-identical regardless of thread count or completion order.
///
/// The SCoRPiO runtime motivates this shape: per-task significance
/// analyses are embarrassingly parallel, and the paper's single-run
/// efficiency claim only pays off when the driver can keep every core
/// busy with one tape each.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_CORE_PARALLELANALYSIS_H
#define SCORPIO_CORE_PARALLELANALYSIS_H

#include "core/Analysis.h"
#include "tape/TapeIO.h"

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace scorpio {

/// How much re-verification run() performs on each shard before the
/// merge consumes it.
enum class ShardVerification : uint8_t {
  /// No verification (the default; shards are trusted).
  Off,
  /// Incremental re-verification: each worker re-checks its own shard's
  /// sub-tape structure (SCORPIO-Exxx) at merge time.  Skips the
  /// O(tape x lanes) batch-sweep replay and the graph audit, so the
  /// overhead is a small fraction of the recording+sweep cost.
  Incremental,
  /// The full audit: incremental checks plus the SCORPIO-E008
  /// batch-vs-dedicated sweep bit-identity replay and, when the graph
  /// stage ran, the post-S4/S5 DynDFG invariants (SCORPIO-Gxxx) over a
  /// DynDFG view built for the check.
  Full,
};

/// How shard analyses interact with a content-addressed result cache.
enum class CacheMode : uint8_t {
  /// Never consult or write the cache (the default).
  Off,
  /// Serve cached results on a key hit; store freshly analysed results.
  ReadWrite,
  /// Serve hits but never write (shared/immutable cache directories).
  ReadOnly,
};

struct ShardResult;

/// Abstract content-addressed store of per-shard analysis results,
/// keyed by shardCacheKey().  Implementations (src/service/ResultCache)
/// must be safe to call from several analysis workers concurrently, and
/// must serve only entries that round-trip verification blessed: a
/// corrupted or mismatched entry behaves as a miss, never as a wrong
/// result.
class ShardResultCache {
public:
  virtual ~ShardResultCache() = default;
  /// Fills \p Out and returns true when \p Key has a valid entry.
  virtual bool lookup(uint64_t Key, ShardResult &Out) = 0;
  /// Persists \p Result under \p Key.  Returns false when the entry
  /// could not be durably stored (the cache then behaves as if absent).
  virtual bool store(uint64_t Key, const ShardResult &Result) = 0;
  /// Drops \p Key's entry so later lookups miss.  Called when the
  /// semantic cache audit rejects a stored report; the default is a
  /// no-op for implementations with nothing to drop.
  virtual void invalidate(uint64_t /*Key*/) {}
};

/// Builds the META payload ParallelAnalysis::saveShards stamps into a
/// shard tape: name, index and the recording AnalysisOptions, flattened
/// into TapeMeta fields.
TapeMeta makeShardMeta(const std::string &Name, uint64_t Index,
                       const AnalysisOptions &Options);

/// Reconstructs the recording AnalysisOptions from a shard tape's META.
AnalysisOptions shardMetaOptions(const TapeMeta &Meta);

/// True when \p Meta carries options and they match \p Options exactly —
/// the merge-side guard against mixing shards recorded under different
/// analysis configurations.
bool shardMetaMatches(const TapeMeta &Meta, const AnalysisOptions &Options);

/// Content-addressed cache key of one loaded shard tape: an FNV-1a hash
/// over (\p SchemaHash, the META shard identity, every flattened field
/// of \p Options — including the error-analysis backend, so FP-error
/// and significance results never collide —, the input-node enclosures
/// bit for bit, a structural
/// digest of the node stream — op kinds, aux exponents, argument ids,
/// partial bounds — the recorded divergences, and the registration
/// lists).  Any change that could alter the analysis report changes the
/// key; \p SchemaHash defaults to the running build's stapSchemaHash()
/// so results cached by an incompatible build can never be served.
/// Keys hash host-memory bytes, so a cache directory is machine-local.
uint64_t shardCacheKey(const LoadedTape &Shard,
                       const AnalysisOptions &Options,
                       uint64_t SchemaHash = stapSchemaHash());

/// Sorted paths of every regular "*.stap" file directly inside \p Dir.
/// The directory is walked with the explicit error_code increment form,
/// so a scan failure mid-iteration (permission flip, racing unlink of
/// the directory) reports the failing entry instead of throwing.
diag::Expected<std::vector<std::string>>
listStapShards(const std::string &Dir);

/// The result of one shard, tagged with its registration-order index and
/// user-supplied name.
struct ShardResult {
  std::string Name;
  size_t Index = 0;
  AnalysisResult Result;
  /// This shard's re-verification findings (empty when verification was
  /// off).
  verify::VerifyReport Verification;
};

/// Deterministically merged output of ParallelAnalysis::run().
class ParallelAnalysisResult {
public:
  /// Per-shard results in shard registration order (never completion
  /// order).
  const std::vector<ShardResult> &shards() const { return Shards; }

  /// False when any shard's kernel diverged; divergences() lists every
  /// offending condition prefixed with the shard name, in shard order.
  /// Every result that consumed a diverged tape is invalid, so the whole
  /// merged report must be disregarded (paper Section 2.2).
  bool isValid() const { return Divergences.empty(); }
  const std::vector<std::string> &divergences() const { return Divergences; }

  /// All registered variables of all shards concatenated in shard order
  /// (per shard: inputs, intermediates, outputs), names prefixed
  /// "<shard>/".  Built on each call from shards(): the merge itself
  /// copies no variable.
  std::vector<VariableSignificance> variables() const;

  /// Looks up "<shard>/<variable>": the first shard, in shard order,
  /// whose "<name>/" prefixes \p PrefixedName and whose lists hold the
  /// rest — the same entry a scan of variables() finds first.  Returns
  /// that shard's own entry, whose Name is the unprefixed variable
  /// name; nullptr when absent.
  const VariableSignificance *find(std::string_view PrefixedName) const;

  /// Sum of the per-shard output significances.
  double outputSignificance() const { return OutputSig; }

  /// Every shard's re-verification findings merged in shard order, each
  /// message prefixed "<shard>: ".  Empty unless run() was asked to
  /// verify.
  const verify::VerifyReport &verification() const { return Verification; }

  /// True when per-shard re-verification ran for this result.
  bool wasVerified() const { return Verified; }

  /// Machine-readable merged report: validity, prefixed divergences and
  /// one nested AnalysisResult report per shard, all in shard order.
  /// Byte-identical for identical shard results, whatever the thread
  /// count that produced them.
  void writeJson(std::ostream &OS) const;

  /// Writes the merged report to the file at \p Path.  The stream is
  /// flushed and closed before returning: a full disk or failing sink
  /// yields an error Status, never a silently truncated report
  /// (mirrors saveStap).
  diag::Status saveJson(const std::string &Path) const;

private:
  friend class ParallelAnalysis;
  std::vector<ShardResult> Shards;
  std::vector<std::string> Divergences;
  double OutputSig = 0.0;
  verify::VerifyReport Verification;
  bool Verified = false;
};

/// Knobs of ParallelAnalysis::mergeStapStreaming().
struct StreamingMergeOptions {
  /// Per-shard re-verification before the merge consumes a shard.
  /// Anything other than Off bypasses the result cache (cached entries
  /// carry no verification findings).
  ShardVerification Verify = ShardVerification::Off;
  /// Upper bound on simultaneously loaded tapes; values < 1 behave as
  /// 1.  The merge runs min(PrefetchWindow, pool threads, #paths)
  /// claim-loop runners, each holding at most one tape at a time, so
  /// this — not the shard count — bounds the merge's memory.
  unsigned PrefetchWindow = 4;
  /// Worker threads of the pool the runners run on (0 = hardware
  /// concurrency).  Each runner claims the next path index, loads,
  /// checks and analyses that shard, and drops its tape before it
  /// claims again; results are stored by path index, so the schedule
  /// never reaches the report.
  unsigned NumThreads = 0;
  /// Result cache: a key hit skips adoption and every reverse sweep for
  /// that shard.  Cached entries carry no verification findings, so
  /// merges with \p Verify != Off bypass the cache entirely.
  CacheMode Cache = CacheMode::Off;
  /// The cache implementation; not owned, ignored when Cache == Off.
  ShardResultCache *ResultCache = nullptr;
  /// Semantic cache audit: before a key hit is served, the shard's node
  /// stream is abstract-interpreted (verify/AbsInt.h) and the cached
  /// per-node significances are checked against the statically derived
  /// bounds.  An entry whose stored report violates a bound is
  /// invalidated and the shard re-analysed — a wrong cached result is
  /// rejected, not served.
  bool CacheAudit = false;
  /// Error-analysis backend every shard analyses under.  A merge-side
  /// choice layered on top of the META reference options — the .stap
  /// wire format records how the tape was produced, not which question
  /// the merge asks of it — and part of the result-cache key, so
  /// FP-error and significance runs over the same shards never serve
  /// each other's entries.
  AnalysisBackend Backend = AnalysisBackend::Significance;
};

/// Counters one mergeStapStreaming() call fills (all zero-initialized).
struct StreamingMergeStats {
  /// Shards folded into the merged result.  On a rejected merge, the
  /// path index of the first bad shard: every shard before it was
  /// analysed.
  size_t ShardsMerged = 0;
  /// Shards served from / missed in the result cache (both zero when
  /// the cache was off or bypassed).
  size_t CacheHits = 0;
  size_t CacheMisses = 0;
  /// Shards that ran a full analysis (== CacheMisses when caching,
  /// == ShardsMerged when not).
  size_t Analysed = 0;
  /// Cache entries the semantic audit rejected: the key hit, but the
  /// stored significances violated the abstract-interpretation bounds,
  /// so the entry was invalidated and the shard re-analysed (each such
  /// shard also counts as a CacheMiss).
  size_t CacheAuditRejected = 0;
  /// High-water mark of simultaneously loaded tapes; never exceeds the
  /// prefetch window.
  size_t MaxTapesInFlight = 0;
};

/// Driver fanning shard record-functions over a thread pool.
///
/// \code
///   ParallelAnalysis P;
///   for (const Tile &T : tiles)
///     P.addShard(T.name(), [=] { recordTile(T); }, T.opCountHint());
///   ParallelAnalysisResult R = P.run(Opts, /*NumThreads=*/0);
/// \endcode
///
/// Each record function runs with a fresh or reset Analysis active on
/// the worker thread (each runner keeps one and resets it per shard); it
/// registers inputs/intermediates/outputs exactly as a
/// sequential kernel would (via Analysis::current() or the Table-1
/// macros) and returns.  run() analyses every shard and merges.
class ParallelAnalysis {
public:
  /// Registers a work item.  \p Record performs S1-S3 for this shard on
  /// the current thread's Analysis.  \p TapeSizeHint preallocates the
  /// shard tape (0 = no hint).
  void addShard(std::string Name, std::function<void()> Record,
                size_t TapeSizeHint = 0);

  size_t numShards() const { return Shards.size(); }

  /// Records and analyses every shard on \p NumThreads pool workers
  /// (0 = AnalysisOptions::NumThreads, itself 0 = hardware
  /// concurrency), then merges deterministically.  Claim-loop runners,
  /// one per worker and at most one per shard, take the shards in index
  /// order, so a large shard holds only the runner that claimed it.
  /// Repeated calls reuse one process-wide pool (ThreadPool::shared) —
  /// no per-call thread churn.
  /// \p Verify selects per-shard re-verification: each worker audits its
  /// own sub-tape/sub-graph right after analysing it, and the merge
  /// combines the per-shard reports (messages prefixed with the shard
  /// name) into ParallelAnalysisResult::verification().
  ParallelAnalysisResult run(const AnalysisOptions &Options = {},
                             unsigned NumThreads = 0,
                             ShardVerification Verify = ShardVerification::Off);

  /// The recording half of the cross-process pipeline: records every
  /// shard serially on the calling thread — each in one reset Analysis
  /// with its size hint reserved, exactly as run()'s workers do — and
  /// writes it as the `.stap` v2 file "<Dir>/shard_<index>.stap"
  /// (\p Dir must exist), META-stamped by makeShardMeta with
  /// \p Options.  Returns the written paths in shard order, or the first
  /// write failure.  mergeStapStreaming over the returned paths
  /// reproduces run(\p Options)'s merged report byte for byte.
  diag::Expected<std::vector<std::string>>
  saveShards(const std::string &Dir, const AnalysisOptions &Options = {},
             bool Compress = true) const;

  /// Analyses one deserialized shard tape exactly as the streaming merge
  /// does: adopt into a fresh Analysis, analyse, optionally re-verify.
  /// Name/Index come from the tape's META when present.  Adoption
  /// failure yields an invalid result with a "transport: ..."
  /// divergence.
  static ShardResult analyseShardTape(LoadedTape Loaded,
                                      const AnalysisOptions &Options = {},
                                      ShardVerification Verify =
                                          ShardVerification::Off);

  /// Deterministically merges per-shard results (stably re-sorted by
  /// Index) into a ParallelAnalysisResult — the exact merge run()
  /// performs, exposed so an out-of-process driver can reproduce it.
  static ParallelAnalysisResult mergeShards(std::vector<ShardResult> Shards,
                                            bool Verified = false);

  /// Bounded-memory streaming merge of on-disk shard tapes, the only
  /// engine that turns `.stap` shards into a merged report.  Every
  /// shard analyses under the reference options recorded in
  /// \p Paths[0]'s META, read before any work is submitted.  Claim-loop
  /// runners on the shared pool then take the paths in index order:
  /// each is loaded through the loadStap trust boundary,
  /// META-checked, analysed (or served from the result cache) and
  /// released before its runner claims the next.  A shard without META
  /// options, or one recorded under options other than the reference,
  /// is refused — never analysed, never stored — with an error Status
  /// naming its path (and, for a mismatch, \p Paths[0]).  No runner
  /// claims past the smallest failing index, so the merge reports the
  /// first bad shard in path order, without every tape having been
  /// resident.  The merged report is byte-identical to loading every
  /// tape and calling analyseShardTape + mergeShards.
  static diag::Expected<ParallelAnalysisResult>
  mergeStapStreaming(const std::vector<std::string> &Paths,
                     const StreamingMergeOptions &Options = {},
                     StreamingMergeStats *Stats = nullptr);

  /// Serializes one shard's report payload (name, index, divergences,
  /// per-node significances, variable lists, output significance,
  /// variance level, graph stats — not the verification findings) to a
  /// stable byte string: the result-cache wire format.
  /// Host-endian; cache entries are machine-local like their keys.
  static std::string serializeShardResult(const ShardResult &Shard);

  /// Reverses serializeShardResult.  Returns an error Status on any
  /// truncated or malformed byte stream; a round-trip through both
  /// functions reproduces writeJson output byte-identically.
  static diag::Expected<ShardResult>
  deserializeShardResult(std::string_view Bytes);

private:
  struct Shard {
    std::string Name;
    std::function<void()> Record;
    size_t TapeSizeHint = 0;
  };
  std::vector<Shard> Shards;

  /// Shared worker tail: analyse (or produce a valid-but-empty result
  /// for a shard with no registered outputs) and optionally re-verify.
  static void analyseWorker(Analysis &A, ShardResult &Slot,
                            const AnalysisOptions &Options,
                            ShardVerification Verify);
  /// Records shard \p Index into \p A, the current Analysis of the
  /// calling thread: run()'s workers and saveShards share it.
  void recordShard(size_t Index, Analysis &A) const;
};

} // namespace scorpio

#endif // SCORPIO_CORE_PARALLELANALYSIS_H
