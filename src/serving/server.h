// The REST face of a Serenade serving machine: binds a SerenadeService to
// an HttpServer (through the inline BatchExecutor) and runs the
// background TTL janitor. The API is versioned under /v1:
//   GET  /v1/recommend?session_id=<key>&item_id=<id>[&consent=true|false]
//                     [&engine=vmis|ann]
//        -> {"items":[...],"scores":[...]}
//   POST /v1/recommend   body {"session_id":"k","item_id":N[,"consent":b]
//                              [,"engine":"vmis"|"ann"]}
//        -> same response; single requests from JSON-speaking clients
//        Both spellings pick the retrieval family per request; the
//        response carries X-Serenade-Engine with the engine that actually
//        served (ann degrades to vmis when no embeddings are attached).
//   POST /v1/recommend:batch   body {"requests":[<single bodies>...]}
//        -> {"results":[{"items":..,"scores":..} | {"error":{...}}, ...]}
//        order-preserving; one bad item never fails its siblings
//   GET  /v1/healthz  -> {"status":"ok","index_version":N}
//   GET  /v1/stats    -> JSON view of the metrics registry (every counter
//                        and gauge of /v1/metrics, see API.md) plus the
//                        index_source / index_build_id identity strings
//   GET  /v1/metrics  -> Prometheus text exposition rendered by the shared
//                        MetricsRegistry (src/obs), including client-batch
//                        counters and sizes
//   POST /v1/admin/index/reload[?path=<index file>]
//        -> hot-swaps the serving index with zero downtime
//   POST /v1/admin/index/delta  -> applies a streaming freshness delta
//   POST /v1/admin/embeddings/reload[?path=<embedding file>]
//        -> hot-swaps the ANN engine's embedding artifact (409-style
//           error when this pod has no embedding manager attached)
//
// Admin endpoints live under the uniform /v1/admin/<subsystem>/<verb>
// namespace; the replication subsystem (src/replication) registers its
// /v1/admin/replication/* and /v1/admin/sessions/* routes on the same
// router. Only /v1 paths exist: unknown paths get a 404 and wrong
// methods a 405 (with Allow), both as the unified error envelope
// {"error":{"code":...,"message":...,"trace_id":...}} (see API.md).
//
// Observability: every request carries a Trace (adopting an inbound
// X-Serenade-Trace-Id, e.g. from the cluster gateway, or minting one),
// whose id is echoed on the response. Per-stage timings of recommend
// requests feed the serenade_stage_duration_microseconds{stage=...}
// histograms, and requests slower than
// ServerConfig::trace.slow_request_micros emit a sampled structured log
// line keyed by the trace id.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/batch_executor.h"
#include "serving/http.h"
#include "serving/json.h"
#include "serving/service.h"

namespace serenade {

/// Trace-context header stamped by the gateway and echoed by pods.
inline constexpr char kTraceIdHeader[] = "X-Serenade-Trace-Id";

/// Response header naming the retrieval family that actually served a
/// recommend request ("vmis" | "ann"). The gateway reads it to detect a
/// dead ANN arm degrading to VMIS; clients and tests read it to verify
/// A/B bucket assignment.
inline constexpr char kEngineHeader[] = "X-Serenade-Engine";

struct ServerConfig {
  uint16_t port = 0;  ///< 0 = pick an ephemeral port
  /// Background eviction interval for expired sessions (0 = disabled).
  uint64_t janitor_interval_ms = 0;
  /// Largest accepted client-side batch (/v1/recommend:batch); larger
  /// requests are rejected with 413.
  size_t max_batch_items = 128;
  /// Slow-request logging policy (threshold 0 = disabled).
  TraceConfig trace;
  /// Retry-After stamped on every 503 connection-shed response, seconds.
  uint64_t retry_after_seconds = 1;
  /// Reactor tuning (connection cap, idle/deadline timeouts, reactor
  /// count).
  HttpServerOptions http;
};

/// Hooks the replication subsystem installs around session writes (set
/// before Start()). `divert` runs before a recommend request executes
/// locally: a non-nullopt result is returned to the client instead of
/// executing (a 307 redirect or a proxied result while the session's key
/// range is mid-hand-off); nullopt admits the write, and the server then
/// calls `done(key)` as soon as the local execution finishes — the
/// hand-off cutover uses that in-flight accounting to know when a key's
/// value has quiesced. `slot_json` carries the single-request JSON body
/// on the batch path so a diverted slot can be proxied verbatim ("" on
/// the single-request paths).
struct WriteHooks {
  std::function<std::optional<HttpResponse>(const std::string& session_key,
                                            bool batch_slot,
                                            const std::string& slot_json)>
      divert;
  std::function<void(const std::string& session_key)> done;
};

/// One serving machine (a "Serenade pod" in Figure 1).
class SerenadeServer {
 public:
  SerenadeServer(std::unique_ptr<SerenadeService> service,
                 ServerConfig config);
  ~SerenadeServer();

  Status Start();
  void Stop();

  uint16_t port() const { return http_ ? http_->port() : 0; }
  SerenadeService& service() { return *service_; }
  BatchExecutor& executor() { return *executor_; }
  uint64_t requests_served() const {
    return http_ ? http_->requests_served() : 0;
  }
  /// Reactor counters of the pod's front door (zeros before Start()).
  HttpServerStats http_stats() const {
    return http_ ? http_->stats() : HttpServerStats{};
  }

  /// The pod's metric registry (handed to tests and future collectors).
  MetricsRegistry& metrics() { return registry_; }

  /// The pod's route table. Attached subsystems (replication) register
  /// their /v1/admin/* routes here before Start(); the Router is not
  /// thread-safe to mutate once the server is serving.
  Router& router() { return router_; }

  /// Installs the replication write hooks (see WriteHooks). Call before
  /// Start().
  void set_write_hooks(WriteHooks hooks) { write_hooks_ = std::move(hooks); }

  /// Appends extra fields to the /v1/healthz JSON object — how
  /// replication surfaces replica lag and the ring epoch without the
  /// server depending on it (its /v1/stats fields are metric families).
  /// Call before Start(); callbacks must be thread-safe.
  void add_healthz_extra(std::function<void(JsonWriter&)> fn) {
    healthz_extras_.push_back(std::move(fn));
  }

  /// Click observer for the freshness pipeline: invoked once per
  /// successfully served recommend request (single and batch slots) with
  /// the accepted (session key, item). Set before Start(); the observer
  /// must be cheap and non-blocking (in practice ClickTap::Observe).
  void set_click_observer(
      std::function<void(const std::string&, ItemId)> observer) {
    click_observer_ = std::move(observer);
  }

  /// Applies a streaming freshness delta over the pod's pinned base
  /// snapshot (also exposed as POST /v1/admin/index/delta) and records the
  /// click->servable latency of the sessions it adds. kAlreadyExists
  /// passes through (idempotent re-delivery).
  Status ApplyDelta(const IndexDelta& delta);

 private:
  void RegisterMetrics();
  void BuildRoutes();

  HttpResponse Handle(const HttpRequest& request);
  HttpResponse HandleRecommendGet(const HttpRequest& request, Trace* trace);
  HttpResponse HandleRecommendPost(const HttpRequest& request, Trace* trace);
  HttpResponse HandleRecommendBatch(const HttpRequest& request, Trace* trace);
  HttpResponse HandleHealthz();
  HttpResponse HandleAdminReload(const HttpRequest& request, Trace* trace);
  HttpResponse HandleAdminDelta(const HttpRequest& request, Trace* trace);
  HttpResponse HandleAdminEmbeddingsReload(const HttpRequest& request,
                                           Trace* trace);
  HttpResponse HandleStats();

  /// Runs one parsed request through the executor and serialises the
  /// result (shared by the GET and POST single-recommend routes).
  HttpResponse RunRecommend(const RecommendRequest& request, Trace* trace);

  /// Folds a finished request trace into the per-stage histograms.
  void RecordStageMetrics(const Trace& trace);

  std::unique_ptr<SerenadeService> service_;
  ServerConfig config_;
  std::unique_ptr<BatchExecutor> executor_;
  Router router_;
  std::unique_ptr<HttpServer> http_;
  std::atomic<bool> stopping_{false};
  std::thread janitor_;

  // Shared metrics substrate: /v1/metrics and /v1/stats render from it.
  MetricsRegistry registry_;
  MetricHistogram* recommend_latency_micros_ = nullptr;
  /// Per-retrieval-family request latency ([0]=vmis, [1]=ann, indexed by
  /// the *resolved* engine) — the pod-side half of the A/B read-out.
  MetricHistogram* engine_latency_micros_[2] = {};
  std::atomic<uint64_t> engine_requests_[2] = {{0}, {0}};
  MetricHistogram* reactor_loop_lag_micros_ = nullptr;
  MetricHistogram* stage_micros_[kNumTraceStages] = {};
  /// Click->servable freshness latency, recorded when an applied delta
  /// carries observe timestamps for its newly sealed sessions.
  MetricHistogram* click_to_servable_ms_ = nullptr;
  std::function<void(const std::string&, ItemId)> click_observer_;
  SlowRequestLogger slow_logger_;
  WriteHooks write_hooks_;
  std::vector<std::function<void(JsonWriter&)>> healthz_extras_;
};

}  // namespace serenade
