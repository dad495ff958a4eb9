// Process-wide metrics substrate for the serving tiers: one
// MetricsRegistry per server instance hands out typed handles (counters,
// latency histograms, callback-backed counters and gauges) and is the one
// source of both read-outs: the Prometheus text exposition (/v1/metrics)
// and the flat counter/gauge readings the JSON /v1/stats view renders.
//
// Hot-path cost model: counters are single relaxed atomics;
// histograms reuse ShardedHistogram (per-thread shard selection, one
// cache-line-separated lock per shard) so concurrent request threads do
// not serialise. Registration and rendering take the registry mutex;
// both are rare (startup / scrape) relative to recording.
//
// Naming conventions (see DESIGN.md §8):
//   <tier>_<noun>_total        counters   (tier = serenade | gateway)
//   <tier>_<noun>              gauges
//   <tier>_<noun>_microseconds histograms, rendered as summaries with
//                              quantile labels + _count + _sum
// Labeled families carry exactly one label key (backend=..., stage=...).
// The /v1/stats key of a family is its name minus the tier prefix and a
// trailing "_total" (gateway_client_reuses_total -> client_reuses).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace serenade {

/// Monotonic counter. Lock-free; safe for concurrent Increment.
class MetricCounter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Latency histogram rendered as a Prometheus summary (quantiles 0.5,
/// 0.75, 0.9, 0.99, 0.995 plus _count and _sum). Recording goes to the
/// calling thread's shard.
class MetricHistogram {
 public:
  void Record(uint64_t value) { sharded_.Record(value); }
  Histogram Merged() const { return sharded_.Merged(); }

 private:
  ShardedHistogram sharded_;
};

enum class MetricType { kCounter, kGauge };

/// One sample produced by a callback metric: `label_value` is rendered
/// with the family's label key ("" = unlabeled single sample).
struct MetricSample {
  std::string label_value;
  uint64_t value = 0;
};

/// One counter or gauge sample of MetricsRegistry::Readings(): `key` is
/// the family's stats key, `label_value` its label ("" = unlabeled).
struct MetricReading {
  std::string key;
  std::string label_value;
  uint64_t value = 0;
};

/// Pull-style metric: invoked at scrape time. Used for values owned by
/// other components (session-store stats, index-manager versions, health
/// snapshots) so the registry never caches stale copies of them.
using MetricCallback = std::function<std::vector<MetricSample>()>;

/// Thread-safe metric registry + Prometheus text renderer. Handles
/// returned by Add* are stable for the registry's lifetime; registering
/// the same (name, label) twice returns the existing handle.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Unlabeled counter.
  MetricCounter& AddCounter(const std::string& name, const std::string& help);
  /// Member of a one-label counter family (e.g. backend="pod-0").
  MetricCounter& AddCounter(const std::string& name, const std::string& help,
                            const std::string& label_key,
                            const std::string& label_value);

  MetricHistogram& AddHistogram(const std::string& name,
                                const std::string& help);
  MetricHistogram& AddHistogram(const std::string& name,
                                const std::string& help,
                                const std::string& label_key,
                                const std::string& label_value);

  /// Callback-backed counter or gauge family; `label_key` is "" for a
  /// single unlabeled sample.
  void AddCallback(const std::string& name, const std::string& help,
                   MetricType type, const std::string& label_key,
                   MetricCallback callback);
  /// Unlabeled callback-backed counter or gauge: `value` is read at
  /// scrape time.
  void AddCallback(const std::string& name, const std::string& help,
                   MetricType type, std::function<uint64_t()> value);

  /// Renders every registered metric in registration order as Prometheus
  /// text exposition format 0.0.4.
  std::string RenderPrometheus() const;

  /// Every counter and gauge sample (histograms excluded) in
  /// registration order, keyed by StatsKey(family name).
  std::vector<MetricReading> Readings() const;

  /// The /v1/stats key of a family: the name without its "serenade_" or
  /// "gateway_" prefix and without a trailing "_total".
  static std::string StatsKey(const std::string& family_name);

  /// The scrape Content-Type for RenderPrometheus output.
  static const char* ContentType() { return "text/plain; version=0.0.4"; }

 private:
  enum class Kind { kCounter, kHistogram, kCallback };

  struct Member {
    std::string label_value;  // "" = unlabeled
    std::unique_ptr<MetricCounter> counter;
    std::unique_ptr<MetricHistogram> histogram;
  };

  struct Family {
    std::string name;
    std::string help;
    std::string label_key;  // "" = unlabeled family
    Kind kind = Kind::kCounter;
    MetricType callback_type = MetricType::kCounter;
    MetricCallback callback;
    std::vector<std::unique_ptr<Member>> members;
  };

  Family& FamilyFor(const std::string& name, const std::string& help,
                    const std::string& label_key, Kind kind);
  Member& MemberFor(Family& family, const std::string& label_value);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Family>> families_;
};

}  // namespace serenade
