//===- tools/scorpio_merge.cpp - Merge a directory of shard tapes ---------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The merging half of the cross-process pipeline: streams every `.stap`
/// file in a directory through the full trust boundary (checksum, codec
/// expansion caps, schema hash, `verifyStructure` acceptance gate) into
/// `ParallelAnalysis::mergeStapStreaming`, and writes the
/// deterministically merged `ParallelAnalysisResult` JSON — byte-
/// identical to what the recording process's in-process
/// `ParallelAnalysis::run` would have produced.  Every shard must carry
/// META analysis options (every writer in the repo stamps them), and all
/// must match those of the first shard in path order: a directory with
/// a META-less or mismatched shard is refused, naming it.
///
/// The merge is bounded-memory: at most --window workers each load,
/// analyse and release one shard at a time, so a thousand-shard
/// directory needs the footprint of --window tapes, not of all of them.
/// With --cache, per-shard results are served from a content-addressed
/// on-disk cache keyed by the tape bytes, the analysis options and the
/// build's schema hash; a warm cache repeats a merge without running a
/// single reverse sweep.
///
/// Exit codes: 0 merged and valid, 1 merged but the report is invalid
/// (a shard diverged), 2 load/compatibility/argument/write failure.
///
//===----------------------------------------------------------------------===//

#include "core/ParallelAnalysis.h"
#include "service/ResultCache.h"

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

using namespace scorpio;

namespace {

int usage(std::ostream &OS, int Code) {
  OS << "usage: scorpio_merge <dir> [options]\n"
        "\n"
        "Streams every .stap shard tape in <dir> through the verifying\n"
        "loader, re-analyses each under the analysis options recorded\n"
        "in its META section, and writes the merged\n"
        "ParallelAnalysisResult JSON.\n"
        "\n"
        "  --json <file|->          merged report destination (default -)\n"
        "  --verify <mode>          per-shard re-verification before the\n"
        "                           merge: off, incremental or full\n"
        "  --window <n>             max simultaneously loaded tapes\n"
        "                           (default 4)\n"
        "  --threads <n>            analysis/prefetch worker threads;\n"
        "                           0 or omitted = all cores\n"
        "  --cache <dir>            content-addressed result cache\n"
        "                           directory (created if missing)\n"
        "  --cache-mode <rw|ro>     rw serves and stores (default),\n"
        "                           ro only serves\n"
        "  --cache-budget <mb>      cap the cache directory size; after\n"
        "                           each store, least-recently-used\n"
        "                           entries are evicted until it fits\n"
        "  --cache-audit            semantic audit: abstract-interpret\n"
        "                           each hit's tape and reject cached\n"
        "                           reports that violate the static\n"
        "                           significance bounds (SCORPIO-A004)\n"
        "                           or FP-error bounds (SCORPIO-F002)\n"
        "  --fperr                  analyse every shard under the\n"
        "                           FP-error backend: per-node rounding-\n"
        "                           error contributions instead of\n"
        "                           Eq.-11 significances (cached\n"
        "                           separately from significance runs)\n"
        "  --help                   this text\n";
  return Code;
}

/// Parses a positive integer option value; 0 on failure.
unsigned parseCount(const char *V) {
  char *End = nullptr;
  const unsigned long N = std::strtoul(V, &End, 10);
  if (End == V || *End != '\0' || N == 0 || N > 1u << 20)
    return 0;
  return static_cast<unsigned>(N);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Dir, JsonPath = "-", CacheDir;
  StreamingMergeOptions Merge;
  CacheMode Cache = CacheMode::ReadWrite;
  uint64_t CacheBudgetBytes = 0;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::cerr << "scorpio_merge: " << Arg << " needs a value\n";
        return nullptr;
      }
      return Argv[++I];
    };
    const char *V = nullptr;
    if (Arg == "--json") {
      if (!(V = Value()))
        return usage(std::cerr, 2);
      JsonPath = V;
    } else if (Arg == "--verify") {
      if (!(V = Value()))
        return usage(std::cerr, 2);
      const std::string Mode = V;
      if (Mode == "off")
        Merge.Verify = ShardVerification::Off;
      else if (Mode == "incremental")
        Merge.Verify = ShardVerification::Incremental;
      else if (Mode == "full")
        Merge.Verify = ShardVerification::Full;
      else {
        std::cerr << "scorpio_merge: unknown --verify mode '" << Mode
                  << "'\n";
        return usage(std::cerr, 2);
      }
    } else if (Arg == "--window") {
      if (!(V = Value()))
        return usage(std::cerr, 2);
      if (!(Merge.PrefetchWindow = parseCount(V))) {
        std::cerr << "scorpio_merge: bad --window value '" << V << "'\n";
        return usage(std::cerr, 2);
      }
    } else if (Arg == "--threads") {
      if (!(V = Value()))
        return usage(std::cerr, 2);
      // "--threads 0" is the documented auto value (hardware
      // concurrency), consistent with AnalysisOptions::NumThreads and
      // StreamingMergeOptions::NumThreads; parseCount cannot express it
      // because 0 is its failure value.
      if (std::string_view(V) == "0") {
        Merge.NumThreads = 0;
      } else if (!(Merge.NumThreads = parseCount(V))) {
        std::cerr << "scorpio_merge: bad --threads value '" << V << "'\n";
        return usage(std::cerr, 2);
      }
    } else if (Arg == "--cache") {
      if (!(V = Value()))
        return usage(std::cerr, 2);
      CacheDir = V;
    } else if (Arg == "--cache-mode") {
      if (!(V = Value()))
        return usage(std::cerr, 2);
      const std::string Mode = V;
      if (Mode == "rw")
        Cache = CacheMode::ReadWrite;
      else if (Mode == "ro")
        Cache = CacheMode::ReadOnly;
      else {
        std::cerr << "scorpio_merge: unknown --cache-mode '" << Mode
                  << "'\n";
        return usage(std::cerr, 2);
      }
    } else if (Arg == "--cache-budget") {
      if (!(V = Value()))
        return usage(std::cerr, 2);
      const unsigned MB = parseCount(V);
      if (!MB) {
        std::cerr << "scorpio_merge: bad --cache-budget value '" << V
                  << "'\n";
        return usage(std::cerr, 2);
      }
      CacheBudgetBytes = static_cast<uint64_t>(MB) * 1024 * 1024;
    } else if (Arg == "--cache-audit") {
      Merge.CacheAudit = true;
    } else if (Arg == "--fperr") {
      Merge.Backend = AnalysisBackend::FpError;
    } else if (Arg == "--help" || Arg == "-h") {
      return usage(std::cout, 0);
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "scorpio_merge: unknown option '" << Arg << "'\n";
      return usage(std::cerr, 2);
    } else if (Dir.empty()) {
      Dir = Arg;
    } else {
      std::cerr << "scorpio_merge: more than one directory given\n";
      return usage(std::cerr, 2);
    }
  }
  if (Dir.empty()) {
    std::cerr << "scorpio_merge: a shard directory is required\n";
    return usage(std::cerr, 2);
  }

  // The explicit-increment scanner: a failure mid-scan (not just at
  // open) is reported with the entry it died on instead of being
  // silently swallowed by the iterator turning into end().
  diag::Expected<std::vector<std::string>> Paths = listStapShards(Dir);
  if (!Paths) {
    std::cerr << "scorpio_merge: " << Paths.status().message() << "\n";
    return 2;
  }
  if (Paths.value().empty()) {
    std::cerr << "scorpio_merge: no .stap files in '" << Dir << "'\n";
    return 2;
  }

  std::unique_ptr<service::ResultCache> ResultCache;
  if (!CacheDir.empty()) {
    ResultCache = std::make_unique<service::ResultCache>(
        CacheDir, /*Writable=*/Cache == CacheMode::ReadWrite,
        CacheBudgetBytes);
    if (!ResultCache->directoryStatus().isOk())
      // Degraded, not fatal: the merge still runs, every shard just
      // analyses fresh (and the stats line shows all misses).
      std::cerr << "scorpio_merge: "
                << ResultCache->directoryStatus().message() << "\n";
    Merge.Cache = Cache;
    Merge.ResultCache = ResultCache.get();
  }

  StreamingMergeStats Stats;
  diag::Expected<ParallelAnalysisResult> Merged =
      ParallelAnalysis::mergeStapStreaming(Paths.value(), Merge, &Stats);
  if (!Merged) {
    std::cerr << "scorpio_merge: " << Merged.status().message() << "\n";
    return 2;
  }
  const ParallelAnalysisResult &R = Merged.value();

  if (ResultCache) {
    // The "hits ... corrupt" prefix is a stable surface scripts grep;
    // new counters extend the line, never reorder it.
    const service::ResultCache::Stats CS = ResultCache->stats();
    std::cerr << "scorpio_merge: cache: " << CS.Hits << " hits, "
              << CS.Misses << " misses, " << CS.Stores << " stores, "
              << CS.CorruptEntries << " corrupt, " << CS.Evictions
              << " evicted, " << Stats.CacheAuditRejected
              << " audit-rejected\n";
  }

  if (JsonPath == "-") {
    R.writeJson(std::cout);
    // A redirected stdout fails silently unless flushed and checked:
    // a full disk must be exit code 2, not a truncated report.
    std::cout.flush();
    if (!std::cout.good()) {
      std::cerr << "scorpio_merge: error writing report to stdout\n";
      return 2;
    }
  } else if (diag::Status S = R.saveJson(JsonPath); !S.isOk()) {
    std::cerr << "scorpio_merge: " << S.message() << "\n";
    return 2;
  }
  return R.isValid() ? 0 : 1;
}
