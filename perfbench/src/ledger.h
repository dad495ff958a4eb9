// The traced run's per-layer ledger. Nothing here instruments the
// program: spans are taken around calls into each layer's public entry
// point, replaying the workload's recorded requests one thread at a time,
// and the counters the program already exposes are read before and after
// the loaded phase.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "fleet.h"

namespace perfbench {

/// The counters the program exposes, summed over the fleet.
struct CounterSnapshot {
  uint64_t gateway_retries = 0;
  uint64_t gateway_degraded = 0;
  double pool_acquires = 0;
  double pool_reuses = 0;
  uint64_t loop_iterations = 0;
  uint64_t requests_served = 0;
  uint64_t shed = 0;
  uint64_t store_writes = 0;
  uint64_t wal_bytes = 0;
  uint64_t deltas_applied = 0;
  uint64_t tap_dropped = 0;
  uint64_t shipped_bytes = 0;
  /// Prometheus sample name (with labels) -> value, for the pods' stage
  /// and freshness _sum/_count series.
  std::map<std::string, double> samples;
};
CounterSnapshot ReadCounters(Fleet& fleet);

/// Samples the largest replica lag (bytes) over the pods every 10 ms
/// while alive; a no-op for fleets without replication.
class LagSampler {
 public:
  explicit LagSampler(Fleet& fleet);
  ~LagSampler();
  LagSampler(const LagSampler&) = delete;
  LagSampler& operator=(const LagSampler&) = delete;
  uint64_t max_lag_bytes() const { return max_lag_.load(); }

 private:
  Fleet& fleet_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> max_lag_{0};
  std::thread thread_;
};

/// One recorded request of the workload: a single click or a batch.
using RecordedCall = std::vector<Click>;

struct LedgerInput {
  Fleet* fleet = nullptr;
  const Inputs* inputs = nullptr;
  const std::vector<std::string>* keys = nullptr;  ///< Click::session names
  std::vector<RecordedCall> calls;
  /// Leading calls that only deepen sessions (replayed, not timed).
  size_t warm_calls = 0;
  /// The loaded (traced) phase's client latency, for the ledger rows.
  double client_mean_us = 0;
  CounterSnapshot before;
  CounterSnapshot after;
  uint64_t max_lag_bytes = 0;
};

/// Replays every layer in isolation and writes the per-layer metrics
/// (cluster, http, executor, json, service, store, knn, rank, index,
/// freshness, replication, stage and ledger rows) into `sink`. Returns
/// the number of replayed HTTP calls that did not answer 200.
size_t RunLedger(const LedgerInput& input, MetricSink* sink);

}  // namespace perfbench
