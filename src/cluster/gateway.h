// ClusterGateway: the fleet-routing front door of Figure 1. An HTTP
// server that owns a set of Serenade pod endpoints and routes /recommend
// by session key over a consistent-hash ring (sticky sessions), with
// active health checking, bounded retries with exponential backoff and
// jitter against the next ring replica, optional hedged second requests
// for tail latency, and graceful degradation to an in-process popularity
// recommender when the whole fleet is down — the client sees
// {"degraded":true}, never a 5xx.
//
// Observability: every /recommend request carries a Trace; the gateway
// stamps its id onto proxied requests as X-Serenade-Trace-Id, backends
// adopt and echo it, and both tiers emit sampled structured slow-request
// log lines keyed by the same id — a fleet-level p99 outlier can be
// followed gateway -> pod -> stage. All gateway metrics live in one
// MetricsRegistry (src/obs), which renders /v1/metrics and /v1/stats.
//
// Routes (versioned /v1 API; only /v1 paths exist, see API.md):
//   GET  /v1/recommend?session_id=<key>&item_id=<id>[...] -> forwarded
//   POST /v1/recommend        body {"session_id":...}     -> forwarded
//   POST /v1/recommend:batch  body {"requests":[...]}
//        -> scatter-gathered: slots are grouped by their session key's
//           ring owner, forwarded as per-backend sub-batches, and merged
//           back in request order; a failed sub-batch degrades or errors
//           only its own slots
//   GET  /v1/healthz  -> gateway liveness + healthy-backend count
//   GET  /v1/stats    -> JSON view of the metrics registry: aggregate
//                        counters plus per-backend objects keyed by name
//   GET  /v1/metrics  -> Prometheus text exposition (MetricsRegistry)
//
// Elastic-fleet control plane (versioned, epoch-fenced; see API.md):
//   GET  /v1/admin/cluster         -> ring membership, epoch, per-member
//                                     health + replica lag
//   POST /v1/admin/cluster/join    {"epoch":E,"name":N,"port":P}
//   POST /v1/admin/cluster/drain   {"epoch":E,"name":N}
//   POST /v1/admin/cluster/remove  {"epoch":E,"name":N}
// Mutations must carry the current ring epoch; a stale epoch is rejected
// with 409 + the error envelope (and the current epoch), so two racing
// operators can never fork the ring. With manage_replication on, the
// gateway also orchestrates the data motion: join/drain run the
// snapshot + tail-chase + cutover hand-off on the affected donors before
// the ring flips, and remove promotes the dead pod's replica on its ring
// successor first.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/health.h"
#include "common/status.h"
#include "core/recommender.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/client_pool.h"
#include "serving/http.h"
#include "serving/json.h"

namespace serenade {

struct GatewayConfig {
  uint16_t port = 0;  ///< 0 = ephemeral
  /// Virtual nodes per backend on the placement ring.
  size_t virtual_nodes = 128;
  /// Per-attempt connect + read deadline when forwarding.
  uint64_t forward_timeout_ms = 1000;
  /// Total forwarding attempts per request across ring replicas.
  uint32_t max_attempts = 3;
  /// Base backoff before retry n is backoff * 2^(n-1) plus jitter.
  uint64_t retry_backoff_ms = 2;
  /// Hedge a second request against the next replica when the primary
  /// has not answered within this delay (0 = hedging disabled).
  uint64_t hedge_delay_ms = 0;
  /// Items served by the degraded-mode fallback recommender.
  size_t fallback_items = 21;
  /// Idle keep-alive connections retained per backend.
  size_t max_pooled_clients = 8;
  /// Largest accepted /v1/recommend:batch request (413 beyond).
  size_t max_batch_items = 128;
  HealthCheckerConfig health;
  /// Slow-request logging policy (threshold 0 = disabled).
  TraceConfig trace;
  /// Front-door reactor tuning (connection cap, timeouts, reactor count).
  HttpServerOptions http;
  /// When set, membership changes orchestrate the replication data plane:
  /// join/drain run session hand-offs on the affected donors, remove
  /// promotes the dead pod's replica, and every change re-pushes each
  /// pod's shipping peer. Off = pure membership mutations (pods without
  /// the replication subsystem attached).
  bool manage_replication = false;
  /// Per-call deadline for control-plane calls to pods (hand-offs move
  /// real data, so this is much larger than forward_timeout_ms).
  uint64_t admin_timeout_ms = 15000;
  /// Retries for a failed hand-off/promote call before the membership
  /// change is abandoned (a donor may 500 mid-transfer and resume).
  uint32_t admin_retry_attempts = 100;
  /// A/B experiment knob: percent of sessions (0-100) bucketed into the
  /// ANN retrieval arm. Buckets are sticky per session key (pure hash of
  /// key + ab_salt, no per-request state), the gateway stamps the bucket
  /// as `engine=` on every forwarded request, and a client-specified
  /// engine always wins over the bucket. 0 = experiment off.
  uint32_t ab_ann_percent = 0;
  /// Salt folded into the bucket hash so re-running the experiment
  /// re-shuffles which sessions land in which arm.
  uint64_t ab_salt = 0;
  /// Sessions tracked for the engagement read-out (shown-items memory);
  /// beyond this, new sessions are served but not quality-tracked.
  size_t ab_engagement_capacity = 65536;
};

/// Aggregate gateway counters (monotonic).
struct GatewayCounters {
  uint64_t forwarded_ok = 0;       ///< requests answered by a backend
  uint64_t degraded = 0;           ///< requests served by the fallback
  uint64_t failed = 0;             ///< requests that returned an error
  uint64_t retries = 0;            ///< extra attempts after the first
  uint64_t hedges = 0;             ///< hedged second requests launched
  uint64_t hedge_wins = 0;         ///< hedges that beat the primary
};

/// Per-arm A/B experiment counters (monotonic; [0]=vmis, [1]=ann, indexed
/// by the engine the gateway assigned to the request).
struct AbCounters {
  uint64_t requests[2] = {0, 0};     ///< forwarded recommend requests
  uint64_t impressions[2] = {0, 0};  ///< responses whose items were tracked
  uint64_t engagements[2] = {0, 0};  ///< next click hit a shown item
  /// ANN-arm requests a pod actually served with VMIS (dead-arm
  /// degradation, detected via the X-Serenade-Engine response header).
  uint64_t fallbacks = 0;
};

/// Per-backend forwarding counters (monotonic).
struct BackendCounters {
  std::string name;
  uint64_t requests = 0;  ///< forwarding attempts sent
  uint64_t errors = 0;    ///< attempts that failed (error status or 5xx)
};

class ClusterGateway {
 public:
  /// `fallback` powers degraded-mode serving; when null, an all-backends-
  /// down request returns 503 instead.
  ClusterGateway(std::vector<BackendEndpoint> backends, GatewayConfig config,
                 std::unique_ptr<Recommender> fallback = nullptr);
  ~ClusterGateway();

  ClusterGateway(const ClusterGateway&) = delete;
  ClusterGateway& operator=(const ClusterGateway&) = delete;

  /// Probes the fleet once, then starts the front door and the health
  /// checker.
  Status Start();
  void Stop();

  uint16_t port() const { return http_ ? http_->port() : 0; }
  HealthChecker& health() { return *health_; }
  uint64_t requests_served() const {
    return http_ ? http_->requests_served() : 0;
  }
  GatewayCounters counters() const;
  std::vector<BackendCounters> backend_counters() const;
  /// A/B experiment read-out (zeros when ab_ann_percent is 0 and no
  /// client ever asked for an explicit engine).
  AbCounters ab_counters() const;

  /// The experiment arm `session_key` is bucketed into ("vmis" | "ann"),
  /// before any client override — the sticky assignment tests assert on.
  const char* AbArmOf(const std::string& session_key) const;

  /// The gateway's metric registry (handed to tests and collectors).
  MetricsRegistry& metrics() { return registry_; }

  /// Current fleet-membership epoch (starts at 1; bumped per change).
  uint64_t ring_epoch() const;

  /// The pod currently owning `session_key` on the live ring ("" for an
  /// empty ring). Resolved under the membership lock — the answer tests
  /// use to find where a session must live after a rebalance.
  std::string OwnerOf(const std::string& session_key) const;

  /// Current members (name + port) under the membership lock.
  std::vector<BackendEndpoint> Members() const;

  /// Pushes each member's shipping peer (its ring successor) and the
  /// current epoch to the fleet. Called automatically at Start() and
  /// after every membership change when manage_replication is set;
  /// exposed so a restarted pod can be rewired explicitly. Best-effort:
  /// returns the first push failure, having attempted every member.
  Status PushReplicationWiring();

  /// Test seam: runs before every retry attempt's candidate
  /// re-resolution in ForwardWithFailover (so tests can mutate
  /// membership between attempts deterministically).
  void set_pre_retry_hook(std::function<void()> hook) {
    pre_retry_hook_ = std::move(hook);
  }

 private:
  struct Backend {
    BackendEndpoint endpoint;
    // Registry-owned forwarding counters (exported with backend=<name>).
    MetricCounter* requests = nullptr;
    MetricCounter* errors = nullptr;
  };

  // Outcome of one forwarding attempt.
  struct AttemptResult {
    bool ok = false;
    HttpResponse response;
    Status error;
  };

  void RegisterMetrics();
  void BuildRoutes();
  void AttachBackendLocked(const BackendEndpoint& endpoint);

  HttpResponse Handle(const HttpRequest& request);
  HttpResponse HandleRecommendGet(const HttpRequest& request, Trace* trace);
  HttpResponse HandleRecommendPost(const HttpRequest& request, Trace* trace);
  HttpResponse HandleRecommendBatch(const HttpRequest& request, Trace* trace);
  HttpResponse HandleHealthz();
  HttpResponse HandleStats();
  HttpResponse HandleClusterGet(Trace* trace);
  HttpResponse HandleClusterJoin(const HttpRequest& request, Trace* trace);
  HttpResponse HandleClusterDrain(const HttpRequest& request, Trace* trace);
  HttpResponse HandleClusterRemove(const HttpRequest& request, Trace* trace);

  /// Validates the mutation's "epoch" field against the current ring
  /// epoch; a non-null return is the 409 (or 400) rejection to send.
  std::optional<HttpResponse> CheckEpoch(const JsonValue& doc, Trace* trace);
  /// Stamps X-Serenade-Ring-Epoch and returns `response`.
  HttpResponse WithEpochHeader(HttpResponse response) const;

  /// One fresh-connection control-plane POST to a pod (admin deadline).
  StatusOr<HttpResponse> PostAdmin(uint16_t port, const std::string& path,
                                   const std::string& body);
  /// PostAdmin retried until 2xx (bounded by admin_retry_attempts): a
  /// donor that 500s mid-hand-off keeps its transfer state and resumes
  /// on the retried call.
  Status PostAdminRetried(uint16_t port, const std::string& path,
                          const std::string& body);
  /// The hand-off request body for a pending membership.
  std::string HandoffBody(const std::vector<BackendEndpoint>& pending,
                          uint64_t new_epoch) const;

  Backend* FindBackendLocked(const std::string& name);
  /// One forwarding attempt; `headers` carry the trace-context header. A
  /// non-null `post_body` forwards a POST instead of a GET.
  AttemptResult ForwardOnce(Backend& backend, const std::string& target,
                            const std::map<std::string, std::string>& headers,
                            const std::string* post_body);
  /// Primary attempt, optionally racing a hedged attempt on `secondary`.
  AttemptResult ForwardMaybeHedged(
      Backend& primary, Backend* secondary, const std::string& target,
      const std::map<std::string, std::string>& headers,
      const std::string* post_body);
  /// The full routing policy for one session key: ring-ordered healthy
  /// candidates, bounded retries with backoff, optional hedging. Records
  /// the forward span on `trace`; error carries "no healthy backend" when
  /// the candidate list was empty.
  AttemptResult ForwardWithFailover(
      const std::string& session_key, const std::string& target,
      const std::map<std::string, std::string>& headers,
      const std::string* post_body, Trace* trace);
  /// Forwards straight to a port outside the named-backend bookkeeping —
  /// the one-hop follow of a donor's mid-hand-off 307.
  AttemptResult ForwardToPort(uint16_t port, const std::string& target,
                              const std::map<std::string, std::string>& headers,
                              const std::string* post_body);
  /// First healthy candidate for a key on the CURRENT ring ("" if none),
  /// in node-successor order so failover traffic lands on the pod holding
  /// the owner's replica.
  std::string FirstHealthyFor(const std::string& session_key) const;

  /// True when `session_key` hashes into the ANN arm under the current
  /// experiment knobs (false when the experiment is off).
  bool AbAnnBucket(const std::string& session_key) const;
  /// Engagement check: the user just clicked `item_text` — if it was
  /// among the items last shown to this session, credit that arm.
  void AbObserveClick(const std::string& session_key,
                      const std::string& item_text);
  /// Impression record: parses "items" out of a served response body and
  /// remembers them (bounded) as this session's last shown set.
  void AbObserveResponse(const std::string& session_key, int arm,
                         const std::string& body);
  /// Per-arm accounting for one successfully forwarded request: request
  /// counter, latency histogram, and dead-arm fallback detection via the
  /// X-Serenade-Engine header ("" = header absent, e.g. batch slots).
  void AbCountForward(int arm, uint64_t latency_micros,
                      const std::string& served_engine);

  /// Fallback recommendations seeded with the (possibly empty) clicked
  /// item; `item_text` is its decimal form.
  std::vector<ScoredItem> FallbackItems(const std::string& item_text);
  HttpResponse ServeDegraded(const std::string& item_text);
  /// One degraded batch-slot entry ({"items":..,"scores":..,
  /// "degraded":true}); counts into the degraded metric.
  std::string DegradedEntryJson(const std::string& item_text);

  std::unique_ptr<HttpClient> AcquireClient(Backend& backend, Status* status);
  void ReleaseClient(Backend& backend, std::unique_ptr<HttpClient> client,
                     bool reusable);

  // Live membership: backends_, ring_, and ring_epoch_ move together
  // under membership_mutex_ (held briefly — candidate resolution and
  // mutation only, never across network I/O). Removed backends park in
  // retired_backends_ so Backend* held by in-flight forwards and hedge
  // losers stay valid for the gateway's lifetime.
  mutable std::mutex membership_mutex_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::vector<std::unique_ptr<Backend>> retired_backends_;
  uint64_t ring_epoch_ = 1;
  // Serializes control-plane mutations end to end (epoch check ->
  // hand-off -> ring flip -> rewire); forwarding never takes it.
  std::mutex admin_mutex_;
  GatewayConfig config_;
  // Keep-alive connections to the pods, keyed by backend port (bounded
  // per endpoint; close-on-error).
  std::unique_ptr<HttpClientPool> pool_;
  std::unique_ptr<Recommender> fallback_;
  std::mutex fallback_mutex_;
  HashRing ring_;
  std::unique_ptr<HealthChecker> health_;
  Router router_;
  std::unique_ptr<HttpServer> http_;

  // Shared metrics substrate: /v1/metrics and /v1/stats render from it.
  MetricsRegistry registry_;
  MetricCounter* forwarded_ok_ = nullptr;
  MetricCounter* degraded_ = nullptr;
  MetricCounter* failed_ = nullptr;
  MetricCounter* retries_ = nullptr;
  MetricCounter* hedges_ = nullptr;
  MetricCounter* hedge_wins_ = nullptr;
  MetricCounter* stale_epoch_rejects_ = nullptr;
  MetricCounter* redirects_followed_ = nullptr;
  // A/B experiment accounting ([0]=vmis, [1]=ann by assigned arm).
  MetricCounter* ab_requests_[2] = {};
  MetricCounter* ab_impressions_[2] = {};
  MetricCounter* ab_engagements_[2] = {};
  MetricCounter* ab_fallbacks_ = nullptr;
  MetricHistogram* ab_latency_micros_[2] = {};
  // Last items shown per session (bounded by ab_engagement_capacity):
  // the next click landing in `shown` is an engagement for `arm`.
  struct AbEngagement {
    int arm = 0;
    std::vector<ItemId> shown;
  };
  mutable std::mutex ab_mutex_;
  std::map<std::string, AbEngagement> ab_sessions_;
  MetricHistogram* forward_latency_micros_ = nullptr;
  MetricHistogram* request_latency_micros_ = nullptr;
  MetricHistogram* reactor_loop_lag_micros_ = nullptr;
  MetricHistogram* stage_micros_[kNumTraceStages] = {};
  SlowRequestLogger slow_logger_;

  // Detached hedge-loser threads still in flight; Stop() waits for zero
  // so they never outlive the state they touch.
  std::atomic<int> inflight_hedges_{0};

  std::function<void()> pre_retry_hook_;
};

/// Percent-encodes a URL query component (inverse of UrlDecode for the
/// characters that matter in query strings).
std::string UrlEncodeComponent(const std::string& text);

}  // namespace serenade
