//===- service/ResultCache.cpp - On-disk shard-result cache ---------------===//

#include "service/ResultCache.h"

#include "support/FileIO.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

using namespace scorpio;
using namespace scorpio::service;

namespace {

// Entry layout (host-endian, machine-local like the keys):
//   char[4]  magic "SCRC"
//   uint32   entry-format version (1)
//   uint64   cache key (must match the file's name-derived key)
//   uint64   payload size in bytes
//   payload  serializeShardResult() bytes
//   uint64   FNV-1a of everything above
constexpr char EntryMagic[4] = {'S', 'C', 'R', 'C'};
constexpr uint32_t EntryVersion = 1;
constexpr size_t EntryHeaderSize = 4 + 4 + 8 + 8;

uint64_t fnv1a64(const char *Data, size_t Size) {
  uint64_t Hash = 14695981039346656037ULL;
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= static_cast<uint8_t>(Data[I]);
    Hash *= 1099511628211ULL;
  }
  return Hash;
}

template <typename T> void append(std::string &Buf, const T &V) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t At = Buf.size();
  Buf.resize(At + sizeof(T));
  std::memcpy(Buf.data() + At, &V, sizeof(T));
}

template <typename T> T readAt(const std::string &Buf, size_t Pos) {
  T V{};
  std::memcpy(&V, Buf.data() + Pos, sizeof(T));
  return V;
}

std::string buildEntry(uint64_t Key, const std::string &Payload) {
  std::string Entry;
  Entry.reserve(EntryHeaderSize + Payload.size() + 8);
  Entry.append(EntryMagic, sizeof(EntryMagic));
  append(Entry, EntryVersion);
  append(Entry, Key);
  append(Entry, static_cast<uint64_t>(Payload.size()));
  Entry.append(Payload);
  append(Entry, fnv1a64(Entry.data(), Entry.size()));
  return Entry;
}

/// Parses and fully validates one entry file's bytes; returns the
/// deserialized result or an error.  Validation is belt and braces:
/// frame checks catch torn writes, the checksum catches bit rot, and
/// deserializeShardResult catches payloads a different build wrote.
diag::Expected<ShardResult> parseEntry(const std::string &Bytes,
                                       uint64_t Key) {
  const auto Corrupt = [](const char *What) {
    return diag::Status::error(diag::ErrC::InvalidArgument,
                               std::string("cache entry: ") + What);
  };
  if (Bytes.size() < EntryHeaderSize + 8)
    return Corrupt("truncated header");
  if (std::memcmp(Bytes.data(), EntryMagic, sizeof(EntryMagic)) != 0)
    return Corrupt("bad magic");
  if (readAt<uint32_t>(Bytes, 4) != EntryVersion)
    return Corrupt("unknown entry version");
  if (readAt<uint64_t>(Bytes, 8) != Key)
    return Corrupt("key does not match entry file");
  const uint64_t PayloadSize = readAt<uint64_t>(Bytes, 16);
  if (PayloadSize != Bytes.size() - EntryHeaderSize - 8)
    return Corrupt("payload size does not match file size");
  const uint64_t Stored = readAt<uint64_t>(Bytes, Bytes.size() - 8);
  if (Stored != fnv1a64(Bytes.data(), Bytes.size() - 8))
    return Corrupt("checksum mismatch");
  return ParallelAnalysis::deserializeShardResult(
      std::string_view(Bytes).substr(EntryHeaderSize,
                                     static_cast<size_t>(PayloadSize)));
}

} // namespace

ResultCache::ResultCache(std::string Dir, bool Writable,
                         uint64_t BudgetBytes)
    : Dir(std::move(Dir)), Writable(Writable), BudgetBytes(BudgetBytes) {
  namespace fs = std::filesystem;
  std::error_code EC;
  if (fs::is_directory(this->Dir, EC))
    return;
  if (!Writable) {
    DirStatus = diag::Status::error(diag::ErrC::InvalidArgument,
                                    "cache directory '" + this->Dir +
                                        "' does not exist");
    return;
  }
  fs::create_directories(this->Dir, EC);
  if (EC)
    DirStatus = diag::Status::error(diag::ErrC::InvalidArgument,
                                    "cannot create cache directory '" +
                                        this->Dir + "': " + EC.message());
}

std::string ResultCache::entryFileName(uint64_t Key) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "scrc_%016llx.scrc",
                static_cast<unsigned long long>(Key));
  return Buf;
}

std::string ResultCache::entryPath(uint64_t Key) const {
  return Dir + "/" + entryFileName(Key);
}

bool ResultCache::lookup(uint64_t Key, ShardResult &Out) {
  // The entry is read and parsed without the lock: entries are
  // content-addressed and a store renames a fully written temp file
  // over the entry, so a reader sees a whole old file, a whole new one
  // or none.  The lock only guards the counters and the eviction of a
  // corrupt entry.
  const std::string Path = entryPath(Key);
  std::string Bytes;
  if (!readRegularFile(Path, Bytes).isOk()) {
    // Absent entry: the ordinary cold-cache miss.  A FIFO or directory
    // named like an entry is one too (readRegularFile never blocks on
    // it).
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.Misses;
    return false;
  }
  diag::Expected<ShardResult> Parsed = parseEntry(Bytes, Key);
  if (!Parsed.hasValue()) {
    // Present but invalid: report as a miss so the caller re-analyses,
    // and (when allowed) evict so the entry is rewritten cleanly.  The
    // entry is re-read under the lock, which every in-process store
    // holds across its rename, so an entry stored since the read above
    // is not evicted in its place.
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.CorruptEntries;
    ++Counters.Misses;
    std::string Current;
    if (Writable && readRegularFile(Path, Current).isOk() &&
        Current == Bytes) {
      std::error_code EC;
      std::filesystem::remove(Path, EC);
    }
    return false;
  }
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.Hits;
  }
  // Touch the entry so LRU eviction sees it as recently used.  Best
  // effort: a failed touch (read-only directory, entry evicted or
  // invalidated meanwhile) costs eviction accuracy, never correctness.
  if (Writable) {
    std::error_code EC;
    std::filesystem::last_write_time(
        Path, std::filesystem::file_time_type::clock::now(), EC);
  }
  Out = std::move(Parsed.value());
  return true;
}

void ResultCache::invalidate(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!Writable)
    return;
  std::error_code EC;
  std::filesystem::remove(entryPath(Key), EC);
}

bool ResultCache::store(uint64_t Key, const ShardResult &Result) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!Writable)
    return false;
  const std::string Payload = ParallelAnalysis::serializeShardResult(Result);
  const std::string Entry = buildEntry(Key, Payload);
  const std::string Path = entryPath(Key);
  const std::string Tmp =
      Path + ".tmp" + std::to_string(NextTmpId++) + "." +
      std::to_string(reinterpret_cast<uintptr_t>(this));

  const auto Fail = [&] {
    std::error_code EC;
    std::filesystem::remove(Tmp, EC);
    ++Counters.WriteFailures;
    return false;
  };
  {
    std::ofstream OS(Tmp, std::ios::binary | std::ios::trunc);
    if (!OS)
      return Fail();
    OS.write(Entry.data(), static_cast<std::streamsize>(Entry.size()));
    OS.flush();
    if (!OS.good())
      return Fail();
  }
  // Verified round-trip before the entry becomes visible: re-read the
  // staged bytes, parse them through the full validation gauntlet and
  // require the payload to re-serialize bit-identically.  A store that
  // cannot prove its own readability never lands.
  std::string Readback;
  if (!readRegularFile(Tmp, Readback).isOk() || Readback != Entry)
    return Fail();
  diag::Expected<ShardResult> Parsed = parseEntry(Readback, Key);
  if (!Parsed.hasValue() ||
      ParallelAnalysis::serializeShardResult(Parsed.value()) != Payload)
    return Fail();
  std::error_code EC;
  std::filesystem::rename(Tmp, Path, EC);
  if (EC)
    return Fail();
  ++Counters.Stores;
  if (BudgetBytes > 0)
    enforceBudget(Path);
  return true;
}

void ResultCache::enforceBudget(const std::string &JustStored) {
  namespace fs = std::filesystem;
  struct EntryInfo {
    fs::file_time_type MTime;
    uint64_t Size = 0;
    std::string Path;
  };
  std::vector<EntryInfo> Entries;
  uint64_t Total = 0;
  std::error_code EC;
  fs::directory_iterator It(Dir, EC);
  if (EC)
    return;
  // Explicit increment form, as in listStapShards: a mid-scan failure
  // must end the walk, not throw out of a cache store.
  for (fs::directory_iterator End; It != End; It.increment(EC)) {
    if (EC)
      return;
    const fs::directory_entry &Entry = *It;
    if (Entry.path().extension() != ".scrc")
      continue;
    EntryInfo Info;
    Info.Path = Entry.path().string();
    Info.Size = Entry.file_size(EC);
    if (EC)
      continue;
    Info.MTime = Entry.last_write_time(EC);
    if (EC)
      continue;
    Total += Info.Size;
    Entries.push_back(std::move(Info));
  }
  if (Total <= BudgetBytes)
    return;
  // Oldest mtime first; the freshly stored entry is exempt so a store
  // can never evict its own result (even with a budget smaller than
  // one entry, the caller gets a usable warm entry until the next
  // store displaces it).
  std::sort(Entries.begin(), Entries.end(),
            [](const EntryInfo &A, const EntryInfo &B) {
              return A.MTime < B.MTime;
            });
  for (const EntryInfo &Info : Entries) {
    if (Total <= BudgetBytes)
      break;
    if (Info.Path == JustStored)
      continue;
    std::error_code RemoveEC;
    if (!fs::remove(Info.Path, RemoveEC) || RemoveEC)
      continue;
    Total -= Info.Size;
    ++Counters.Evictions;
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}
