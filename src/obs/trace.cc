#include "obs/trace.h"

#include <chrono>

#include "common/hash.h"
#include "common/logging.h"

namespace serenade {

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kParse: return "parse";
    case TraceStage::kStoreGet: return "store_get";
    case TraceStage::kStorePut: return "store_put";
    case TraceStage::kSnapshotPin: return "snapshot_pin";
    case TraceStage::kKnnRetrieve: return "knn_retrieve";
    case TraceStage::kRank: return "rank";
    case TraceStage::kSerialize: return "serialize";
    case TraceStage::kForward: return "forward";
  }
  return "unknown";
}

std::string GenerateTraceId() {
  // Process-unique without coordination: a global draw counter mixed with
  // the process start time, pushed through a 64-bit finalizer. Two
  // processes (gateway + pods) disagree on the time component, so ids
  // stay distinct across the fleet with overwhelming probability.
  static std::atomic<uint64_t> counter{0};
  static const uint64_t process_seed = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count()) ^
      (static_cast<uint64_t>(
           std::chrono::system_clock::now().time_since_epoch().count())
       << 1);
  const uint64_t draw =
      Mix64(process_seed + 0x9e3779b97f4a7c15ULL *
                               (counter.fetch_add(1,
                                                  std::memory_order_relaxed) +
                                1));
  static constexpr char kHex[] = "0123456789abcdef";
  std::string id(16, '0');
  for (int i = 0; i < 16; ++i) {
    id[15 - i] = kHex[(draw >> (4 * i)) & 0xF];
  }
  return id;
}

bool IsValidTraceId(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (char c : id) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
                     (c >= 'A' && c <= 'F');
    if (!hex) return false;
  }
  return true;
}

std::string Trace::Describe() const {
  std::string out = "trace_id=" + id_;
  out += " total_us=" + std::to_string(TotalMicros());
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    if (stage_counts_[i] == 0) continue;
    out += ' ';
    out += TraceStageName(static_cast<TraceStage>(i));
    out += "_us=" + std::to_string(stage_micros_[i]);
  }
  return out;
}

bool SlowRequestLogger::MaybeLog(const Trace& trace, const char* tier,
                                 const std::string& path, int http_status) {
  if (config_.slow_request_micros == 0) return false;
  if (trace.TotalMicros() < config_.slow_request_micros) return false;
  const uint64_t seen = seen_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t every = config_.sample_every_n == 0 ? 1
                                                     : config_.sample_every_n;
  if (seen % every != 0) return false;
  logged_.fetch_add(1, std::memory_order_relaxed);
  LOG_WARNING << "slow_request tier=" << tier << " path=" << path
              << " status=" << http_status << " " << trace.Describe();
  return true;
}

}  // namespace serenade
