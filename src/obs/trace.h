// Per-request tracing for the serving tiers. A Trace is created when a
// request enters a tier (gateway accept or pod accept), carries a
// process-unique hex trace id plus per-stage accumulated timings, and is
// threaded by pointer through the handler, the service, and the session
// store. Stages are recorded with RAII Span guards, so every early
// return is timed correctly.
//
// Trace-context propagation: the gateway stamps the id onto proxied
// requests as the `X-Serenade-Trace-Id` header; backends adopt an
// incoming id instead of minting their own and echo it on the response,
// so one id follows a request gateway -> pod -> stage breakdown.
//
// A Trace is owned by exactly one request thread; it is intentionally
// unsynchronised (plain uint64 accumulation, no atomics) — never share
// one Trace across threads. All APIs accept a null Trace* and degrade to
// no-ops so untraced callers (tests, offline tools) pay nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/stopwatch.h"

namespace serenade {

/// Request stages the serving tiers attribute latency to (the per-stage
/// breakdown behind the paper's Figure 3 latency analysis).
enum class TraceStage {
  kParse = 0,      ///< HTTP parse + request validation
  kStoreGet,       ///< session-store point read
  kStorePut,       ///< session-store read-modify-write
  kSnapshotPin,    ///< index-snapshot pin + recommender acquisition
  kKnnRetrieve,    ///< VMIS-kNN scoring
  kRank,           ///< business rules / ranking
  kSerialize,      ///< response JSON serialization
  kForward,        ///< gateway: backend forwarding (all attempts)
};
inline constexpr size_t kNumTraceStages = 8;

/// Stable label for a stage (used as the Prometheus `stage` label and in
/// slow-request log lines).
const char* TraceStageName(TraceStage stage);

/// Generates a process-unique 16-hex-digit trace id.
std::string GenerateTraceId();

/// Returns true when `id` looks like a well-formed trace id (1-64 hex
/// chars) — malformed inbound headers are replaced, not propagated.
bool IsValidTraceId(const std::string& id);

/// One request's trace context: id + per-stage accumulated timings.
class Trace {
 public:
  /// Mints a fresh id.
  Trace() : id_(GenerateTraceId()) {}
  /// Adopts a propagated id (gateway -> pod).
  explicit Trace(std::string id) : id_(std::move(id)) {}

  const std::string& id() const { return id_; }

  /// Adds one timed occurrence of `stage`. Stages hit multiple times per
  /// request (e.g. store reads) accumulate.
  void Record(TraceStage stage, uint64_t micros) {
    stage_micros_[static_cast<size_t>(stage)] += micros;
    stage_counts_[static_cast<size_t>(stage)] += 1;
  }

  uint64_t StageMicros(TraceStage stage) const {
    return stage_micros_[static_cast<size_t>(stage)];
  }
  uint64_t StageCount(TraceStage stage) const {
    return stage_counts_[static_cast<size_t>(stage)];
  }

  /// Wall time since the trace was created (request admission).
  uint64_t TotalMicros() const { return lifetime_.ElapsedMicros(); }

  /// `trace_id=... total_us=... parse_us=... ...` — stages that never ran
  /// are omitted. The structured tail of a slow-request log line.
  std::string Describe() const;

 private:
  std::string id_;
  Stopwatch lifetime_;
  uint64_t stage_micros_[kNumTraceStages] = {};
  uint64_t stage_counts_[kNumTraceStages] = {};
};

/// RAII stage timer: records elapsed time into the trace on destruction
/// (or at an explicit End()). Null trace = no-op.
class Span {
 public:
  Span(Trace* trace, TraceStage stage) : trace_(trace), stage_(stage) {}
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Stops the span early; idempotent.
  void End() {
    if (trace_ == nullptr) return;
    trace_->Record(stage_, watch_.ElapsedMicros());
    trace_ = nullptr;
  }

 private:
  Trace* trace_;
  TraceStage stage_;
  Stopwatch watch_;
};

/// Slow-request logging policy. threshold 0 disables; sample_every_n = N
/// logs every Nth slow request (1 = all), bounding log volume when a
/// whole fleet degrades at once.
struct TraceConfig {
  uint64_t slow_request_micros = 0;
  uint64_t sample_every_n = 1;
};

/// Emits sampled structured slow-request lines through common/logging.
/// Thread-safe: the sampling counter is atomic.
class SlowRequestLogger {
 public:
  explicit SlowRequestLogger(TraceConfig config) : config_(config) {}

  /// Logs `trace` if it exceeded the threshold and the sampler picks it.
  /// Returns true when a line was emitted.
  bool MaybeLog(const Trace& trace, const char* tier, const std::string& path,
                int http_status);

  uint64_t slow_requests_seen() const {
    return seen_.load(std::memory_order_relaxed);
  }
  uint64_t slow_requests_logged() const {
    return logged_.load(std::memory_order_relaxed);
  }

 private:
  TraceConfig config_;
  std::atomic<uint64_t> seen_{0};
  std::atomic<uint64_t> logged_{0};
};

}  // namespace serenade
