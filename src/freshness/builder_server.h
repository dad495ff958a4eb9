// The index-builder role: an HTTP server that accepts the click stream
// tapped off serving pods (POST /v1/ingest), sessionizes it through a
// DeltaBuilder, and publishes cumulative versioned delta artifacts for
// the fleet to poll (GET /v1/delta/latest) — the middle of the streaming
// freshness pipeline (DESIGN.md §9).
//
// Surface:
//   POST /v1/ingest        {"clicks":[{"session_id","item_id",
//                          "observed_unix_ms"}]} -> {"accepted":N}
//   GET  /v1/delta/latest  ?after=V: 200 + delta bytes (headers
//                          X-Serenade-Delta-Version /
//                          X-Serenade-Base-Version) when a version newer
//                          than V is published, else 204
//   GET  /v1/healthz       {"status":"ok","role":"index-builder",...}
//   GET  /v1/stats         JSON view of the metrics registry + "role"
//   GET  /v1/metrics       Prometheus text exposition
//
// Compaction (seal idle sessions, cut a new delta version, optionally
// stamp it to publish_dir) runs on an optional background cadence or
// explicitly via CompactNow(now) for deterministic tests.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/status.h"
#include "freshness/delta_builder.h"
#include "obs/metrics.h"
#include "serving/http.h"

namespace serenade {

struct IndexBuilderConfig {
  uint16_t port = 0;  ///< 0 = ephemeral
  DeltaBuilderConfig builder;
  /// Background seal+compact cadence; 0 = manual CompactNow() only.
  uint64_t compact_interval_ms = 0;
  /// When set, each published delta is also stamped to
  /// `<publish_dir>/delta-v<version>.srndelta` plus a kind=delta
  /// manifest sidecar.
  std::string publish_dir;
  /// Reactor tuning for the builder's HTTP front door (connection cap,
  /// idle/deadline timeouts, reactor count).
  HttpServerOptions http;
};

class IndexBuilderServer {
 public:
  explicit IndexBuilderServer(IndexBuilderConfig config);
  ~IndexBuilderServer();

  IndexBuilderServer(const IndexBuilderServer&) = delete;
  IndexBuilderServer& operator=(const IndexBuilderServer&) = delete;

  Status Start();
  void Stop();

  uint16_t port() const { return http_.port(); }

  /// Seals idle sessions and publishes a new delta version if the sealed
  /// content changed. `now_unix_ms` 0 means wall clock; tests pass
  /// explicit times. Returns the published (or still-current) delta
  /// version, or 0 when nothing has ever been sealed. The
  /// kDeltaPublishCrash fault site aborts mid-publish: a torn artifact
  /// may land on disk, but the served in-memory version never advances.
  StatusOr<uint64_t> CompactNow(uint64_t now_unix_ms = 0);

  DeltaBuilder& builder() { return builder_; }
  MetricsRegistry& metrics() { return registry_; }

  /// The delta version currently served by /v1/delta/latest (0 = none).
  uint64_t published_version() const;
  uint64_t published_watermark_unix_ms() const;

 private:
  void BuildRoutes();
  void RegisterMetrics();
  HttpResponse Handle(const HttpRequest& request);
  HttpResponse HandleIngest(const HttpRequest& request);
  HttpResponse HandleDeltaLatest(const HttpRequest& request);
  HttpResponse HandleHealthz(const HttpRequest& request);
  HttpResponse HandleStats(const HttpRequest& request);
  void CompactLoop();

  const IndexBuilderConfig config_;
  DeltaBuilder builder_;
  MetricsRegistry registry_;
  Router router_;
  HttpServer http_;

  mutable std::mutex publish_mutex_;  // guards the published artifact
  std::optional<IndexDelta> published_;
  std::string published_bytes_;

  std::mutex compact_mutex_;  // serialises CompactNow vs. the loop
  std::condition_variable compact_cv_;
  bool stopping_ = false;
  std::thread compactor_;

  MetricHistogram* click_to_publish_ms_ = nullptr;
  std::atomic<uint64_t> publish_failures_{0};
};

}  // namespace serenade
