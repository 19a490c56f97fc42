//===- service/ResultCache.h - On-disk shard-result cache -----------------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed on-disk cache of per-shard analysis results, the
/// concrete ShardResultCache behind `scorpio_merge --cache`.
///
/// Entries are keyed by shardCacheKey() — an FNV-1a hash of the running
/// build's .stap schema hash, the shard's META identity, the flattened
/// AnalysisOptions and a structural digest of the tape (input
/// enclosures, node stream, registration) — so any change that could
/// alter the report changes the key.  Each entry is one file holding a
/// checksummed ParallelAnalysis::serializeShardResult() payload, written
/// via a verified temp-file + rename protocol: a store only becomes
/// visible after the bytes were read back, deserialized and re-serialized
/// bit-identically.  A corrupted, truncated or foreign entry behaves as
/// a miss (and is evicted in ReadWrite use), never as a wrong result.
///
/// The cache is machine-local state, like a build system's object cache:
/// keys and payloads hash/store host-memory bytes and make no
/// cross-endianness promises.  The `.stap` tapes a cache is derived from
/// remain the canonical cross-machine artifact.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_SERVICE_RESULTCACHE_H
#define SCORPIO_SERVICE_RESULTCACHE_H

#include "core/ParallelAnalysis.h"

#include <cstdint>
#include <mutex>
#include <string>

namespace scorpio {
namespace service {

/// Directory-backed ShardResultCache.  Safe for concurrent use by
/// several analysis workers of one process; concurrent processes
/// sharing a directory are safe too (stores are atomic renames and
/// last-writer-wins on identical keys, which by construction hold
/// identical payloads).  lookup() reads and parses its entry without
/// the lock — the rename protocol means a reader sees a whole old
/// file, a whole new one or none — and locks only to count; store(),
/// invalidate() and the budget eviction run under the lock.
class ResultCache : public ShardResultCache {
public:
  /// Observability counters (monotonic over the cache's lifetime).
  struct Stats {
    size_t Hits = 0;
    size_t Misses = 0;
    size_t Stores = 0;
    /// Entries that existed but failed validation (bad magic, checksum,
    /// key mismatch, undeserializable payload).  Each also counts as a
    /// miss.
    size_t CorruptEntries = 0;
    /// store() calls that could not produce a durable verified entry.
    size_t WriteFailures = 0;
    /// Entries removed to keep the directory under the size budget
    /// (least-recently-used first, by entry mtime).
    size_t Evictions = 0;
  };

  /// Uses (and if needed creates) \p Dir as the entry directory.
  /// \p Writable false puts the cache in read-only mode: lookups are
  /// served but store() refuses and corrupt entries are not evicted.
  /// \p BudgetBytes > 0 caps the combined size of the entries: after
  /// each store, least-recently-used entries (by mtime; lookups touch
  /// the entry they serve) are removed until the directory fits.
  explicit ResultCache(std::string Dir, bool Writable = true,
                       uint64_t BudgetBytes = 0);

  /// Ok when the entry directory exists (or was created) and is usable.
  /// A cache with a bad directory still works — every lookup misses and
  /// every store fails — so a worker never dies on cache trouble.
  const diag::Status &directoryStatus() const { return DirStatus; }

  bool lookup(uint64_t Key, ShardResult &Out) override;
  bool store(uint64_t Key, const ShardResult &Result) override;
  /// Removes \p Key's entry file (semantic audit rejection).  No-op in
  /// read-only mode — the caller still re-analyses, it just cannot
  /// repair the shared directory.
  void invalidate(uint64_t Key) override;

  Stats stats() const;

  /// On-disk file name of \p Key's entry ("scrc_<16 hex digits>.scrc"),
  /// exposed for tests and tooling.
  static std::string entryFileName(uint64_t Key);

private:
  std::string entryPath(uint64_t Key) const;
  /// Evicts LRU entries until the directory fits the budget (requires
  /// the lock; \p JustStored is exempt so a store never evicts itself).
  void enforceBudget(const std::string &JustStored);

  std::string Dir;
  bool Writable;
  uint64_t BudgetBytes;
  diag::Status DirStatus;
  mutable std::mutex Mutex;
  Stats Counters;
  /// Per-process temp-file disambiguator (concurrent stores must not
  /// share a staging file).
  uint64_t NextTmpId = 0;
};

} // namespace service
} // namespace scorpio

#endif // SCORPIO_SERVICE_RESULTCACHE_H
