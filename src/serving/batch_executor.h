// Execution layer for update-and-recommend between the HTTP routes and
// SerenadeService. Every request runs inline on the caller's thread, as
// in the paper's Section 6 serving loop: a single click goes straight to
// SerenadeService::HandleUpdateAndRecommend, and an explicit client-side
// batch (POST /v1/recommend:batch) runs as one service batch that pays
// the fixed per-request costs once — one session-store MultiGet/MultiPut,
// one index-snapshot pin, one recommender-pool checkout. The pod never
// coalesces requests across connections; clients amortise with :batch.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/service.h"

namespace serenade {

/// Thread-safe facade in front of a SerenadeService that counts client
/// batches.
class BatchExecutor {
 public:
  using Result = StatusOr<std::vector<ScoredItem>>;

  /// `service` must outlive the executor. A non-null `registry` receives
  /// the client-batch metrics (batch / request counters, batch-size
  /// histogram).
  explicit BatchExecutor(SerenadeService* service,
                         MetricsRegistry* registry = nullptr);

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Executes one request inline: exactly SerenadeService::
  /// HandleUpdateAndRecommend. Not counted as a batch.
  Result Execute(const RecommendRequest& request, Trace* trace = nullptr);

  /// Executes an explicit client-side batch as one service batch:
  /// results[i] corresponds to requests[i]; a failing slot never fails its
  /// siblings. Duplicate session keys are applied in slot order. A
  /// non-null `trace` receives the batch's stage spans.
  std::vector<Result> ExecuteBatch(
      const std::vector<RecommendRequest>& requests, Trace* trace = nullptr);

  /// Client-side batches executed, and the requests they carried.
  uint64_t batches_executed() const {
    return batches_.load(std::memory_order_relaxed);
  }
  uint64_t requests_executed() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  SerenadeService* service_;
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> requests_{0};
  MetricHistogram* batch_size_hist_ = nullptr;
};

}  // namespace serenade
