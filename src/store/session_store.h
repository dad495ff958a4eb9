// Embedded key-value store for evolving sessions — the stand-in for the
// RocksDB instance the paper colocates with each serving machine
// (Section 4.2). Matches the paper's usage pattern: machine-local point
// reads/writes at microsecond latency, and automatic removal of session
// state "after 30 minutes of inactivity".
//
// Architecture: hash-sharded in-memory tables (per-shard mutex, so
// concurrent requests for different sessions never contend), an optional
// write-ahead log for durability with crash recovery, lazy TTL expiry on
// read plus an explicit sweep for background eviction, and a compaction
// that rewrites the log with only the live entries.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"
#include "store/wal.h"

namespace serenade {

/// Injectable time source (seconds); tests use a manual clock.
using ClockFn = std::function<uint64_t()>;

/// Wall-clock seconds.
uint64_t SystemClockSeconds();

struct SessionStoreOptions {
  /// Entries untouched for this long are expired (paper: 30 minutes).
  uint64_t ttl_seconds = 30 * 60;
  /// Number of hash shards (power of two recommended).
  size_t num_shards = 16;
  /// WAL file path; empty = volatile in-memory store.
  std::string wal_path;
  /// fflush the WAL after every write (slower, more durable).
  bool sync_every_write = false;
  /// Time source override for tests.
  ClockFn clock = SystemClockSeconds;
};

/// Counters exposed for monitoring and the store microbenchmark.
struct SessionStoreStats {
  uint64_t reads = 0;
  uint64_t read_misses = 0;
  uint64_t writes = 0;
  uint64_t deletes = 0;
  uint64_t expirations = 0;
  uint64_t live_entries = 0;
};

/// Thread-safe TTL key-value store.
class SessionStore {
 public:
  /// Creates the store; if options.wal_path exists, recovers state from it
  /// (expired entries are dropped during recovery).
  static StatusOr<std::unique_ptr<SessionStore>> Open(
      SessionStoreOptions options);

  ~SessionStore();

  SessionStore(const SessionStore&) = delete;
  SessionStore& operator=(const SessionStore&) = delete;

  /// Inserts or replaces a value and refreshes its TTL.
  Status Put(const std::string& key, const std::string& value);

  /// Reads a value; refreshes its TTL (an active session stays alive).
  /// kNotFound for missing or expired keys. A non-null `trace` records
  /// the lookup as a store_get span.
  StatusOr<std::string> Get(const std::string& key, Trace* trace = nullptr);

  /// Removes a key (idempotent).
  Status Delete(const std::string& key);

  /// Read-modify-write under the shard lock: the mutator receives the
  /// current value ("" if absent) and returns the new value. Used by the
  /// serving layer to append a click to the evolving session atomically.
  /// A non-null `trace` records the whole operation (including the WAL
  /// append) as a store_put span.
  Status Update(const std::string& key,
                const std::function<std::string(const std::string&)>& mutator,
                Trace* trace = nullptr);

  /// Batched point reads for the service batch path: fills
  /// `(*values)[i]` / `(*found)[i]` for `keys[i]`, grouping keys by shard
  /// so each shard lock is taken once per batch instead of once per key.
  /// Found entries get their TTL refreshed exactly like Get(); missing or
  /// expired keys yield found=false with an empty value (not a Status —
  /// an absent session is a normal new-visitor case on this path). A
  /// non-null `trace` records one store_get span for the whole batch.
  void MultiGet(const std::vector<std::string>& keys,
                std::vector<std::string>* values, std::vector<bool>* found,
                Trace* trace = nullptr);

  /// Batched upserts: one shard-lock acquisition per distinct shard and
  /// one WAL-lock acquisition (plus at most one sync) for the whole
  /// batch. Later duplicates of a key win, matching sequential Put order.
  /// A non-null `trace` records one store_put span for the whole batch.
  Status MultiPut(
      const std::vector<std::pair<std::string, std::string>>& entries,
      Trace* trace = nullptr);

  /// Drops all expired entries; returns how many were evicted.
  size_t SweepExpired();

  /// Rewrites the WAL with only the live entries (no-op when volatile).
  /// Bumps wal_generation() so a WAL shipper knows the byte stream it was
  /// tailing has been rewritten and must restart from offset zero.
  Status Compact();

  /// One live entry as exported for replication / hand-off.
  struct RestoreEntry {
    std::string key;
    std::string value;
    uint64_t last_access = 0;
  };

  /// Copies every live (non-expired) entry without refreshing TTLs.
  std::vector<RestoreEntry> DumpEntries() const;

  /// Reads one entry without the TTL touch of Get(); nullopt for missing
  /// or expired keys. Used by the hand-off cutover check.
  std::optional<RestoreEntry> PeekEntry(const std::string& key);

  /// Applies entries received from a peer (hand-off / promotion).
  /// Unconditional put that PRESERVES the incoming last_access (no TTL
  /// refresh — a restored session expires on its original schedule, so a
  /// hand-off can never resurrect an expired session). Entries already
  /// expired at the local clock are skipped. Returns how many were
  /// applied; each applied entry is WAL-logged with its original
  /// timestamp.
  StatusOr<size_t> Restore(const std::vector<RestoreEntry>& entries);

  /// Flushes buffered WAL bytes to the OS (no-op when volatile). The WAL
  /// shipper calls this before reading the file so every acknowledged
  /// write is visible to the byte stream it tails.
  Status SyncWal();

  /// Bumped whenever the WAL file is rewritten in place (compaction).
  uint64_t wal_generation() const {
    return wal_generation_.load(std::memory_order_acquire);
  }

  const SessionStoreOptions& options() const { return options_; }

  SessionStoreStats Stats() const;

 private:
  struct Entry {
    std::string value;
    uint64_t last_access = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> table;
  };

  explicit SessionStore(SessionStoreOptions options);

  Shard& ShardFor(const std::string& key);
  bool IsExpired(const Entry& entry, uint64_t now) const;
  Status LogWrite(WalRecordType type, const std::string& key,
                  const std::string& value, uint64_t now);

  SessionStoreOptions options_;
  std::vector<Shard> shards_;

  std::mutex wal_mutex_;
  WalWriter wal_;
  std::atomic<uint64_t> wal_generation_{0};

  mutable std::atomic<uint64_t> reads_{0}, read_misses_{0}, writes_{0},
      deletes_{0}, expirations_{0};
};

}  // namespace serenade
