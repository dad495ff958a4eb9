#include "cluster/gateway.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <thread>

#include <set>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/types.h"
#include "replication/replication_protocol.h"
#include "serving/json.h"
#include "serving/server.h"

namespace serenade {

namespace {

// Equal-jitter exponential backoff: half deterministic, half uniform, so
// retry storms from concurrent request threads spread out in time.
uint64_t BackoffWithJitterMs(uint64_t base_ms, uint32_t retry_number) {
  constexpr uint64_t kMaxBackoffMs = 200;
  thread_local Rng rng(Mix64(static_cast<uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()))));
  uint64_t delay = base_ms << std::min<uint32_t>(retry_number, 6);
  delay = std::min(delay, kMaxBackoffMs);
  if (delay == 0) return 0;
  return delay / 2 + rng.Below(delay / 2 + 1);
}

// Gateway-side stages exported as gateway_stage_duration_microseconds.
constexpr TraceStage kGatewayStages[] = {
    TraceStage::kParse,
    TraceStage::kForward,
    TraceStage::kSerialize,
};

}  // namespace

std::string UrlEncodeComponent(const std::string& text) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    const bool unreserved = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                            c == '.' || c == '~';
    if (unreserved) {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xF]);
    }
  }
  return out;
}

ClusterGateway::ClusterGateway(std::vector<BackendEndpoint> backends,
                               GatewayConfig config,
                               std::unique_ptr<Recommender> fallback)
    : config_(config),
      fallback_(std::move(fallback)),
      ring_(config.virtual_nodes),
      slow_logger_(config.trace) {
  HttpClientPoolConfig pool_config;
  pool_config.max_idle_per_endpoint = config_.max_pooled_clients;
  pool_config.client.connect_timeout_ms = config_.forward_timeout_ms;
  pool_config.client.io_timeout_ms = config_.forward_timeout_ms;
  pool_ = std::make_unique<HttpClientPool>(pool_config);
  RegisterMetrics();
  BuildRoutes();
  backends_.reserve(backends.size());
  for (const BackendEndpoint& endpoint : backends) {
    AttachBackendLocked(endpoint);
  }
  std::vector<BackendEndpoint> endpoints;
  endpoints.reserve(backends.size());
  for (const auto& backend : backends_) endpoints.push_back(backend->endpoint);
  health_ = std::make_unique<HealthChecker>(std::move(endpoints),
                                            config_.health);

  // Per-backend health families pull from the checker at scrape time,
  // so a scrape always sees the current ejection state, never a cached
  // copy. The replica-lag rows are the fleet's replication view: how far
  // each pod's ring successor trails its WAL, as reported on /v1/healthz.
  static constexpr struct {
    const char* name;
    const char* help;
    MetricType type;
    uint64_t (*field)(const BackendHealth&);
  } kBackendFamilies[] = {
      {"gateway_backend_healthy", "whether the backend is routable",
       MetricType::kGauge,
       [](const BackendHealth& b) -> uint64_t { return b.healthy; }},
      {"gateway_backend_port", "127.0.0.1 port the backend serves on",
       MetricType::kGauge,
       [](const BackendHealth& b) -> uint64_t { return b.port; }},
      {"gateway_backend_index_version",
       "index snapshot version last reported by the backend",
       MetricType::kGauge,
       [](const BackendHealth& b) { return b.index_version; }},
      {"gateway_backend_index_freshness_seconds",
       "index freshness (age of newest servable click) last reported by "
       "the backend",
       MetricType::kGauge,
       [](const BackendHealth& b) { return b.index_freshness_seconds; }},
      {"gateway_backend_ejections_total",
       "times the health checker ejected the backend", MetricType::kCounter,
       [](const BackendHealth& b) { return b.ejections_total; }},
      {"gateway_backend_probe_connects_total",
       "health-probe connections dialed to the backend", MetricType::kCounter,
       [](const BackendHealth& b) { return b.probe_connects_total; }},
      {"gateway_backend_probe_reuses_total",
       "health probes sent over a kept-alive connection",
       MetricType::kCounter,
       [](const BackendHealth& b) { return b.probe_reuses_total; }},
      {"gateway_backend_replica_lag_bytes",
       "WAL bytes the backend's ring successor has not yet acknowledged",
       MetricType::kGauge,
       [](const BackendHealth& b) { return b.replica_lag_bytes; }},
      {"gateway_backend_replica_lag_milliseconds",
       "milliseconds since the backend's ring successor was last caught up",
       MetricType::kGauge,
       [](const BackendHealth& b) {
         return static_cast<uint64_t>(b.replica_lag_seconds * 1000.0);
       }},
      {"gateway_backend_ring_epoch",
       "fleet-membership epoch the backend last adopted", MetricType::kGauge,
       [](const BackendHealth& b) { return b.ring_epoch; }},
  };
  for (const auto& family : kBackendFamilies) {
    registry_.AddCallback(
        family.name, family.help, family.type, "backend",
        [this, field = family.field] {
          std::vector<MetricSample> samples;
          for (const BackendHealth& entry : health_->Snapshot()) {
            samples.push_back({entry.name, field(entry)});
          }
          return samples;
        });
  }
}

ClusterGateway::~ClusterGateway() { Stop(); }

void ClusterGateway::RegisterMetrics() {
  registry_.AddCallback(
      "gateway_requests_total", "requests accepted by the gateway",
      MetricType::kCounter, [this] { return requests_served(); });
  forwarded_ok_ = &registry_.AddCounter("gateway_forwarded_ok_total",
                                        "requests answered by a backend");
  degraded_ = &registry_.AddCounter(
      "gateway_degraded_responses_total",
      "requests served by the popularity fallback");
  failed_ = &registry_.AddCounter("gateway_failed_requests_total",
                                  "requests that exhausted all attempts");
  retries_ = &registry_.AddCounter("gateway_retries_total",
                                   "retry attempts against ring successors");
  hedges_ = &registry_.AddCounter("gateway_hedges_total",
                                  "hedged second requests launched");
  hedge_wins_ = &registry_.AddCounter("gateway_hedge_wins_total",
                                      "hedges that beat the primary");
  stale_epoch_rejects_ = &registry_.AddCounter(
      "gateway_stale_epoch_rejects_total",
      "cluster mutations rejected for carrying a stale ring epoch");
  // A/B experiment read-out, labelled by the arm the gateway ASSIGNED
  // (the pod's serenade_engine_requests_total counts what actually
  // served; the two disagree exactly when an arm degrades).
  static constexpr const char* kArmNames[2] = {"vmis", "ann"};
  for (int arm = 0; arm < 2; ++arm) {
    ab_requests_[arm] = &registry_.AddCounter(
        "gateway_ab_requests_total",
        "forwarded recommend requests per experiment arm", "engine",
        kArmNames[arm]);
    ab_impressions_[arm] = &registry_.AddCounter(
        "gateway_ab_impressions_total",
        "served responses whose items entered the engagement tracker",
        "engine", kArmNames[arm]);
    ab_engagements_[arm] = &registry_.AddCounter(
        "gateway_ab_engagements_total",
        "clicks that landed on an item the same session was just shown",
        "engine", kArmNames[arm]);
    ab_latency_micros_[arm] = &registry_.AddHistogram(
        "gateway_ab_latency_microseconds",
        "end-to-end forwarding latency per experiment arm", "engine",
        kArmNames[arm]);
  }
  registry_.AddCallback(
      "gateway_ab_ann_percent",
      "percent of sessions bucketed into the ANN arm (0 = experiment off)",
      MetricType::kGauge, [this] { return config_.ab_ann_percent; });
  ab_fallbacks_ = &registry_.AddCounter(
      "gateway_ab_fallbacks_total",
      "ANN-arm requests a pod actually served with VMIS (dead arm)");
  redirects_followed_ = &registry_.AddCounter(
      "gateway_redirects_followed_total",
      "mid-hand-off 307 redirects followed to a session's new owner");
  registry_.AddCallback("gateway_ring_epoch", "current fleet-membership epoch",
                        MetricType::kGauge, [this] { return ring_epoch(); });
  registry_.AddCallback(
      "gateway_slow_requests_total", "requests over the slow-request threshold",
      MetricType::kCounter,
      [this] { return slow_logger_.slow_requests_seen(); });
  // Keep-alive reuse on the gateway→pod hop: a warm fleet should show a
  // reuse ratio near 1 (each acquire served by a parked connection).
  registry_.AddCallback(
      "gateway_client_acquires_total",
      "pooled-client checkouts for forwarding attempts", MetricType::kCounter,
      [this] { return pool_->acquires_total(); });
  registry_.AddCallback(
      "gateway_client_reuses_total",
      "checkouts served by a parked keep-alive connection",
      MetricType::kCounter, [this] { return pool_->reuses_total(); });
  registry_.AddCallback(
      "gateway_client_discards_total",
      "pooled clients dropped (transport error or full shelf)",
      MetricType::kCounter, [this] { return pool_->discards_total(); });
  // Front-door reactor counters (same family as the pod's serenade_*).
  registry_.AddCallback(
      "gateway_open_connections", "currently open HTTP connections",
      MetricType::kGauge,
      [this] { return http_ ? http_->stats().open_connections : 0; });
  registry_.AddCallback(
      "gateway_shed_connections_total",
      "connections refused with 503 + Retry-After at the connection cap",
      MetricType::kCounter, [this] { return http_ ? http_->stats().shed : 0; });
  registry_.AddCallback(
      "gateway_reactor_loop_iterations_total", "event-loop wakeups",
      MetricType::kCounter,
      [this] { return http_ ? http_->stats().loop_iterations : 0; });
  registry_.AddCallback(
      "gateway_connection_timeouts_total",
      "connections closed by the timer wheel", MetricType::kCounter, "kind",
      [this]() -> std::vector<MetricSample> {
        const HttpServerStats stats =
            http_ ? http_->stats() : HttpServerStats{};
        return {{"idle", stats.idle_timeouts},
                {"deadline", stats.deadline_timeouts}};
      });
  reactor_loop_lag_micros_ = &registry_.AddHistogram(
      "gateway_reactor_loop_lag_microseconds",
      "time the event loop spent processing one epoll batch");
  forward_latency_micros_ = &registry_.AddHistogram(
      "gateway_forward_latency_microseconds",
      "per-attempt forwarding latency");
  request_latency_micros_ = &registry_.AddHistogram(
      "gateway_request_latency_microseconds",
      "end-to-end /v1/recommend handling latency at the gateway");
  for (TraceStage stage : kGatewayStages) {
    stage_micros_[static_cast<size_t>(stage)] = &registry_.AddHistogram(
        "gateway_stage_duration_microseconds",
        "per-request latency attributed to one gateway stage", "stage",
        TraceStageName(stage));
  }
}

void ClusterGateway::AttachBackendLocked(const BackendEndpoint& endpoint) {
  auto backend = std::make_unique<Backend>();
  backend->endpoint = endpoint;
  // AddCounter returns the existing handle when a retired backend's name
  // is reused, so counters survive leave/rejoin cycles.
  backend->requests = &registry_.AddCounter(
      "gateway_backend_requests_total", "forwarding attempts per backend",
      "backend", endpoint.name);
  backend->errors = &registry_.AddCounter(
      "gateway_backend_errors_total",
      "failed forwarding attempts per backend", "backend", endpoint.name);
  ring_.AddNode(endpoint.name);
  backends_.push_back(std::move(backend));
}

uint64_t ClusterGateway::ring_epoch() const {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  return ring_epoch_;
}

std::string ClusterGateway::OwnerOf(const std::string& session_key) const {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  if (ring_.num_nodes() == 0) return "";
  return ring_.NodeFor(session_key);
}

std::vector<BackendEndpoint> ClusterGateway::Members() const {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  std::vector<BackendEndpoint> members;
  members.reserve(backends_.size());
  for (const auto& backend : backends_) members.push_back(backend->endpoint);
  return members;
}

Status ClusterGateway::Start() {
  if (backends_.empty() && fallback_ == nullptr) {
    return Status::InvalidArgument(
        "gateway needs at least one backend or a fallback recommender");
  }
  // Seed the health view before taking traffic so a dead pod configured
  // at startup is never routed to.
  health_->ProbeAllOnce();
  health_->Start();
  if (config_.manage_replication) {
    // Tell every pod who its ring successor is before traffic (and
    // therefore WAL writes) start flowing.
    const Status wired = PushReplicationWiring();
    if (!wired.ok()) {
      LOG_WARNING << "gateway: initial replication wiring incomplete: "
                  << wired.ToString();
    }
  }
  http_ = std::make_unique<HttpServer>(
      [this](const HttpRequest& request) { return Handle(request); },
      config_.http);
  http_->set_loop_lag_histogram(reactor_loop_lag_micros_);
  Status started = http_->Start(config_.port);
  if (!started.ok()) health_->Stop();
  return started;
}

void ClusterGateway::Stop() {
  if (http_) http_->Stop();
  // Hedge losers hold references into our backend pools; wait them out
  // (each is bounded by forward_timeout_ms).
  while (inflight_hedges_.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (health_) health_->Stop();
}

ClusterGateway::Backend* ClusterGateway::FindBackendLocked(
    const std::string& name) {
  for (const auto& backend : backends_) {
    if (backend->endpoint.name == name) return backend.get();
  }
  return nullptr;
}

std::unique_ptr<HttpClient> ClusterGateway::AcquireClient(Backend& backend,
                                                          Status* status) {
  auto client = pool_->Acquire(backend.endpoint.port);
  if (!client.ok()) {
    *status = client.status();
    return nullptr;
  }
  return std::move(client).value();
}

void ClusterGateway::ReleaseClient(Backend& backend,
                                   std::unique_ptr<HttpClient> client,
                                   bool reusable) {
  pool_->Release(backend.endpoint.port, std::move(client), reusable);
}

ClusterGateway::AttemptResult ClusterGateway::ForwardOnce(
    Backend& backend, const std::string& target,
    const std::map<std::string, std::string>& headers,
    const std::string* post_body) {
  AttemptResult result;
  backend.requests->Increment();
  Stopwatch stopwatch;

  Status connect_status = Status::Ok();
  auto client = AcquireClient(backend, &connect_status);
  if (client == nullptr) {
    forward_latency_micros_->Record(stopwatch.ElapsedMicros());
    backend.errors->Increment();
    health_->ReportResult(backend.endpoint.name, false);
    result.error = std::move(connect_status);
    return result;
  }

  auto response = post_body != nullptr
                      ? client->Post(target, *post_body, headers)
                      : client->Get(target, headers);
  forward_latency_micros_->Record(stopwatch.ElapsedMicros());
  const bool transport_ok = response.ok();
  // Any parsed HTTP response proves the pod is alive; 5xx bodies are
  // handler bugs, not fleet-membership signals.
  health_->ReportResult(backend.endpoint.name, transport_ok);
  ReleaseClient(backend, std::move(client), transport_ok);

  if (!transport_ok) {
    backend.errors->Increment();
    result.error = response.status();
    return result;
  }
  if (response->status >= 500) {
    backend.errors->Increment();
    result.error = Status::Internal("backend " + backend.endpoint.name +
                                    " returned " +
                                    std::to_string(response->status));
    // Keep the parsed response: a 503 with Retry-After is a donor saying
    // "this key is mid-cutover, ask me again", which the failover loop
    // treats differently from a dead pod.
    result.response = std::move(response).value();
    return result;
  }
  result.ok = true;
  result.response = std::move(response).value();
  return result;
}

ClusterGateway::AttemptResult ClusterGateway::ForwardToPort(
    uint16_t port, const std::string& target,
    const std::map<std::string, std::string>& headers,
    const std::string* post_body) {
  AttemptResult result;
  auto client = pool_->Acquire(port);
  if (!client.ok()) {
    result.error = client.status();
    return result;
  }
  auto http = std::move(client).value();
  auto response = post_body != nullptr ? http->Post(target, *post_body, headers)
                                       : http->Get(target, headers);
  const bool transport_ok = response.ok();
  pool_->Release(port, std::move(http), transport_ok);
  if (!transport_ok) {
    result.error = response.status();
    return result;
  }
  if (response->status >= 500) {
    result.error = Status::Internal("redirect target on port " +
                                    std::to_string(port) + " returned " +
                                    std::to_string(response->status));
    result.response = std::move(response).value();
    return result;
  }
  result.ok = true;
  result.response = std::move(response).value();
  return result;
}

std::string ClusterGateway::FirstHealthyFor(
    const std::string& session_key) const {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  if (ring_.num_nodes() == 0) return "";
  for (const std::string& name :
       ring_.SuccessorChain(ring_.NodeFor(session_key))) {
    if (health_->IsHealthy(name)) return name;
  }
  return "";
}

ClusterGateway::AttemptResult ClusterGateway::ForwardMaybeHedged(
    Backend& primary, Backend* secondary, const std::string& target,
    const std::map<std::string, std::string>& headers,
    const std::string* post_body) {
  if (config_.hedge_delay_ms == 0 || secondary == nullptr) {
    return ForwardOnce(primary, target, headers, post_body);
  }

  struct SharedState {
    std::mutex mutex;
    std::condition_variable cv;
    int outstanding = 0;
    bool have_winner = false;
    bool winner_was_hedge = false;
    AttemptResult winner;
    AttemptResult last_failure;
  };
  auto state = std::make_shared<SharedState>();

  auto launch = [this, state, &target, &headers, post_body](Backend* backend,
                                                            bool is_hedge) {
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      ++state->outstanding;
    }
    inflight_hedges_.fetch_add(1);
    // Detached: the winner's caller returns immediately, the loser keeps
    // running (bounded by forward_timeout_ms); Stop() drains via
    // inflight_hedges_. `target`, `headers`, and the body are copied
    // into the thread.
    std::thread([this, state, backend, is_hedge, target_copy = target,
                 headers_copy = headers,
                 body_copy = post_body == nullptr
                     ? std::string()
                     : *post_body,
                 has_body = post_body != nullptr]() mutable {
      AttemptResult result = ForwardOnce(*backend, target_copy, headers_copy,
                                         has_body ? &body_copy : nullptr);
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        --state->outstanding;
        if (result.ok && !state->have_winner) {
          state->have_winner = true;
          state->winner_was_hedge = is_hedge;
          state->winner = std::move(result);
        } else if (!result.ok) {
          state->last_failure = std::move(result);
        }
      }
      state->cv.notify_all();
      inflight_hedges_.fetch_sub(1);
    }).detach();
  };

  launch(&primary, /*is_hedge=*/false);

  std::unique_lock<std::mutex> lock(state->mutex);
  const bool primary_done = state->cv.wait_for(
      lock, std::chrono::milliseconds(config_.hedge_delay_ms),
      [&] { return state->have_winner || state->outstanding == 0; });
  if (!primary_done) {
    lock.unlock();
    hedges_->Increment();
    launch(secondary, /*is_hedge=*/true);
    lock.lock();
  }
  state->cv.wait(lock,
                 [&] { return state->have_winner || state->outstanding == 0; });
  if (state->have_winner) {
    if (state->winner_was_hedge) {
      hedge_wins_->Increment();
    }
    return std::move(state->winner);
  }
  return std::move(state->last_failure);
}

void ClusterGateway::BuildRoutes() {
  router_.Handle("GET", "/v1/recommend",
                 [this](const HttpRequest& request, Trace* trace) {
                   return HandleRecommendGet(request, trace);
                 });
  router_.Handle("POST", "/v1/recommend",
                 [this](const HttpRequest& request, Trace* trace) {
                   return HandleRecommendPost(request, trace);
                 });
  router_.Handle("POST", "/v1/recommend:batch",
                 [this](const HttpRequest& request, Trace* trace) {
                   return HandleRecommendBatch(request, trace);
                 });
  router_.Handle("GET", "/v1/healthz",
                 [this](const HttpRequest&, Trace*) { return HandleHealthz(); });
  router_.Handle("GET", "/v1/stats",
                 [this](const HttpRequest&, Trace*) { return HandleStats(); });
  router_.Handle("GET", "/v1/metrics",
                 [this](const HttpRequest&, Trace*) {
                   return HttpResponse::Text(registry_.RenderPrometheus(),
                                             MetricsRegistry::ContentType());
                 });

  // Elastic-fleet control plane (epoch-fenced, see API.md).
  router_.Handle("GET", "/v1/admin/cluster",
                 [this](const HttpRequest&, Trace* trace) {
                   return HandleClusterGet(trace);
                 });
  router_.Handle("POST", "/v1/admin/cluster/join",
                 [this](const HttpRequest& request, Trace* trace) {
                   return HandleClusterJoin(request, trace);
                 });
  router_.Handle("POST", "/v1/admin/cluster/drain",
                 [this](const HttpRequest& request, Trace* trace) {
                   return HandleClusterDrain(request, trace);
                 });
  router_.Handle("POST", "/v1/admin/cluster/remove",
                 [this](const HttpRequest& request, Trace* trace) {
                   return HandleClusterRemove(request, trace);
                 });
}

HttpResponse ClusterGateway::Handle(const HttpRequest& request) {
  // Adopt a caller-supplied trace id (e.g. an edge proxy), else mint
  // one; either way the same id follows the request into the fleet.
  const std::string inbound = request.Header(kTraceIdHeader);
  Trace trace = IsValidTraceId(inbound) ? Trace(inbound) : Trace();
  trace.Record(TraceStage::kParse, request.parse_micros);

  HttpResponse response = router_.Dispatch(request, &trace);
  // The backend echo arrives lower-cased (header names are folded on
  // parse); drop it so the response carries the header exactly once.
  response.headers.erase("x-serenade-trace-id");
  response.headers[kTraceIdHeader] = trace.id();

  // Request-level latency metrics cover the recommend routes only, so
  // metrics scrapes and health probes don't dilute the histograms.
  if (request.path == "/v1/recommend" ||
      request.path == "/v1/recommend:batch") {
    request_latency_micros_->Record(trace.TotalMicros());
    for (TraceStage stage : kGatewayStages) {
      if (trace.StageCount(stage) == 0) continue;
      stage_micros_[static_cast<size_t>(stage)]->Record(
          trace.StageMicros(stage));
    }
    slow_logger_.MaybeLog(trace, "gateway", request.path, response.status);
  }
  return response;
}

ClusterGateway::AttemptResult ClusterGateway::ForwardWithFailover(
    const std::string& session_key, const std::string& target,
    const std::map<std::string, std::string>& headers,
    const std::string* post_body, Trace* trace) {
  Span forward_span(trace, TraceStage::kForward);
  AttemptResult last;
  last.error = Status::Unavailable("no healthy backend");
  // Candidates are re-resolved from the LIVE ring on every attempt, not
  // precomputed: a join/drain/remove (or an ejection) between attempts
  // must steer the retry at the key's current owner, or a retried click
  // lands on a pod that no longer owns the session. Ring order is the
  // node-successor chain, so failover traffic for a dead owner reaches
  // the pod holding its replica first.
  std::set<std::string> tried;
  uint32_t attempts = 0;
  while (attempts < config_.max_attempts) {
    if (attempts > 0) {
      retries_->Increment();
      const uint64_t delay =
          BackoffWithJitterMs(config_.retry_backoff_ms, attempts - 1);
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
      if (pre_retry_hook_) pre_retry_hook_();
    }
    Backend* primary = nullptr;
    Backend* secondary = nullptr;
    {
      std::lock_guard<std::mutex> lock(membership_mutex_);
      if (ring_.num_nodes() > 0) {
        for (const std::string& name :
             ring_.SuccessorChain(ring_.NodeFor(session_key))) {
          if (tried.count(name) != 0 || !health_->IsHealthy(name)) continue;
          Backend* backend = FindBackendLocked(name);
          if (backend == nullptr) continue;
          if (primary == nullptr) {
            primary = backend;
          } else {
            secondary = backend;
            break;
          }
        }
      }
    }
    if (primary == nullptr) break;  // no untried healthy candidate left
    // Hedge only on the first round: a retry already proved the fleet
    // slow or unstable, racing a third request just adds load.
    const bool hedged =
        attempts == 0 && config_.hedge_delay_ms > 0 && secondary != nullptr;
    tried.insert(primary->endpoint.name);
    if (hedged) tried.insert(secondary->endpoint.name);
    last = hedged ? ForwardMaybeHedged(*primary, secondary, target, headers,
                                       post_body)
                  : ForwardOnce(*primary, target, headers, post_body);
    attempts += hedged ? 2 : 1;
    if (!last.ok) {
      // 503 + Retry-After is a donor holding this key closed for a
      // moment mid-cutover — the key is still THERE, so the same pod
      // stays a candidate for the next attempt instead of the request
      // wandering to a non-owner.
      if (last.response.status == 503 &&
          !last.response.Header("Retry-After").empty()) {
        tried.erase(primary->endpoint.name);
      }
      continue;
    }
    // A donor answering for an already-cut-over key 307s to the new
    // owner; follow exactly one hop so clients never see the redirect.
    if (last.response.status == 307) {
      uint16_t redirect_port = 0;
      const std::string port_text =
          last.response.Header(repl::kBackendPortHeader);
      std::from_chars(port_text.data(), port_text.data() + port_text.size(),
                      redirect_port);
      if (redirect_port != 0) {
        redirects_followed_->Increment();
        AttemptResult followed =
            ForwardToPort(redirect_port, target, headers, post_body);
        if (followed.ok && followed.response.status != 307) return followed;
        last = std::move(followed);
        if (last.ok) {
          last.ok = false;
          last.error = Status::Internal("redirect loop during hand-off");
        }
        continue;  // treat a failed follow as a failed attempt
      }
    }
    return last;
  }
  return last;
}

HttpResponse ClusterGateway::HandleRecommendGet(const HttpRequest& request,
                                                Trace* trace) {
  const std::string session_key = request.Param("session_id");
  if (session_key.empty()) {
    return ApiError(400, "session_id is required", trace->id());
  }

  // Engine resolution: an explicit engine= from the client wins; else
  // the sticky A/B bucket is stamped onto the forwarded query so the pod
  // serves this session's assigned arm.
  std::string engine = request.Param("engine");
  const bool client_specified = !engine.empty();
  if (!client_specified && config_.ab_ann_percent > 0) {
    engine = AbArmOf(session_key);
  }
  const int arm = engine == "ann" ? 1 : 0;
  if (config_.ab_ann_percent > 0) {
    AbObserveClick(session_key, request.Param("item_id"));
  }

  // Re-encode the query for forwarding (it arrived percent-decoded).
  std::string target = request.path;
  char separator = '?';
  for (const auto& [key, value] : request.query) {
    target += separator;
    target += UrlEncodeComponent(key);
    target += '=';
    target += UrlEncodeComponent(value);
    separator = '&';
  }
  if (!client_specified && !engine.empty()) {
    target += separator;
    target += "engine=";
    target += engine;
  }

  // Trace-context propagation: the backend adopts this id and echoes it,
  // so the pod's slow-request logs join with ours.
  const std::map<std::string, std::string> forward_headers = {
      {kTraceIdHeader, trace->id()}};
  Stopwatch forward_watch;
  AttemptResult last = ForwardWithFailover(session_key, target,
                                           forward_headers, nullptr, trace);
  if (last.ok) {
    forwarded_ok_->Increment();
    AbCountForward(arm, forward_watch.ElapsedMicros(),
                   last.response.Header(kEngineHeader));
    if (config_.ab_ann_percent > 0) {
      AbObserveResponse(session_key, arm, last.response.body);
    }
    return std::move(last.response);
  }
  if (fallback_ != nullptr) return ServeDegraded(request.Param("item_id"));
  failed_->Increment();
  return ApiError(503, last.error.ToString(), trace->id());
}

HttpResponse ClusterGateway::HandleRecommendPost(const HttpRequest& request,
                                                 Trace* trace) {
  auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    return ApiError(400, "malformed JSON body: " + doc.status().message(),
                    trace->id());
  }
  const JsonValue* session = doc->Find("session_id");
  if (session == nullptr || session->type() != JsonValue::Type::kString ||
      session->AsString().empty()) {
    return ApiError(400, "session_id is required", trace->id());
  }
  const std::string session_key = session->AsString();

  // Engine resolution mirrors the GET path: an explicit "engine" field
  // wins, else the A/B bucket is stamped into the forwarded body.
  std::string engine;
  if (const JsonValue* field = doc->Find("engine");
      field != nullptr && field->type() == JsonValue::Type::kString) {
    engine = field->AsString();
  }
  const bool client_specified = !engine.empty();
  if (!client_specified && config_.ab_ann_percent > 0) {
    engine = AbArmOf(session_key);
  }
  const int arm = engine == "ann" ? 1 : 0;
  const std::string* forward_body = &request.body;
  std::string stamped_body;
  if (!client_specified && !engine.empty()) {
    std::map<std::string, JsonValue> members = doc->AsObject();
    members["engine"] = JsonValue::String(engine);
    stamped_body = SerializeJson(JsonValue::Object(std::move(members)));
    forward_body = &stamped_body;
  }
  std::string item_text;
  if (const JsonValue* item = doc->Find("item_id");
      item != nullptr && item->type() == JsonValue::Type::kNumber) {
    item_text = std::to_string(item->AsInt());
  }
  if (config_.ab_ann_percent > 0) AbObserveClick(session_key, item_text);

  const std::map<std::string, std::string> forward_headers = {
      {kTraceIdHeader, trace->id()}};
  Stopwatch forward_watch;
  AttemptResult last = ForwardWithFailover(session_key, request.path,
                                           forward_headers, forward_body,
                                           trace);
  if (last.ok) {
    forwarded_ok_->Increment();
    AbCountForward(arm, forward_watch.ElapsedMicros(),
                   last.response.Header(kEngineHeader));
    if (config_.ab_ann_percent > 0) {
      AbObserveResponse(session_key, arm, last.response.body);
    }
    return std::move(last.response);
  }
  if (fallback_ != nullptr) return ServeDegraded(item_text);
  failed_->Increment();
  return ApiError(503, last.error.ToString(), trace->id());
}

HttpResponse ClusterGateway::HandleRecommendBatch(const HttpRequest& request,
                                                  Trace* trace) {
  auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    return ApiError(400, "malformed JSON body: " + doc.status().message(),
                    trace->id());
  }
  const JsonValue* entries = doc->Find("requests");
  if (entries == nullptr || entries->type() != JsonValue::Type::kArray) {
    return ApiError(400, "body must carry a \"requests\" array", trace->id());
  }
  const std::vector<JsonValue>& slots = entries->AsArray();
  if (slots.size() > config_.max_batch_items) {
    return ApiError(413,
                    "batch of " + std::to_string(slots.size()) +
                        " exceeds the limit of " +
                        std::to_string(config_.max_batch_items),
                    trace->id());
  }

  auto error_entry = [&](int status, const std::string& message) {
    JsonWriter writer;
    writer.BeginObject().Key("error").BeginObject();
    writer.Key("code").Value(ApiErrorCode(status));
    writer.Key("message").Value(message);
    writer.Key("trace_id").Value(trace->id());
    writer.EndObject().EndObject();
    return writer.str();
  };
  auto item_text_of = [](const JsonValue& slot) {
    const JsonValue* item = slot.Find("item_id");
    return item != nullptr && item->type() == JsonValue::Type::kNumber
               ? std::to_string(item->AsInt())
               : std::string();
  };

  // Scatter: group slots by their session key's ring owner. Slots whose
  // key can't be read get a per-slot error — they never fail siblings.
  struct Group {
    std::string session_key;    // routes the sub-batch
    std::vector<size_t> slots;  // positions in the client batch
  };
  std::map<std::string, Group> groups;  // backend name (or "") -> group
  std::vector<std::string> merged(slots.size());
  // Per-slot A/B arm ([i] meaningful only for grouped slots): a slot's
  // own "engine" field wins, else its session key's sticky bucket is
  // stamped into the forwarded slot JSON.
  std::vector<int> slot_arms(slots.size(), 0);
  std::vector<std::string> slot_bodies(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    const JsonValue* session = slots[i].Find("session_id");
    if (session == nullptr || session->type() != JsonValue::Type::kString ||
        session->AsString().empty()) {
      merged[i] = error_entry(400, "session_id is required");
      continue;
    }
    std::string engine;
    if (const JsonValue* field = slots[i].Find("engine");
        field != nullptr && field->type() == JsonValue::Type::kString) {
      engine = field->AsString();
    }
    if (engine.empty() && config_.ab_ann_percent > 0) {
      engine = AbArmOf(session->AsString());
      std::map<std::string, JsonValue> members = slots[i].AsObject();
      members["engine"] = JsonValue::String(engine);
      slot_bodies[i] = SerializeJson(JsonValue::Object(std::move(members)));
    } else {
      // Re-serialising parsed slots (rather than slicing raw text) keeps
      // the forwarded sub-batch canonical JSON whatever the client sent.
      slot_bodies[i] = SerializeJson(slots[i]);
    }
    slot_arms[i] = engine == "ann" ? 1 : 0;
    // First healthy candidate on the live ring = the pod this key's
    // micro-batches land on (resolved under the membership lock).
    const std::string owner = FirstHealthyFor(session->AsString());
    Group& group = groups[owner];
    if (group.slots.empty()) group.session_key = session->AsString();
    group.slots.push_back(i);
  }

  // Forward each sub-batch (the "" group has no healthy owner and skips
  // straight to fallback), then gather into the slot order.
  const std::map<std::string, std::string> forward_headers = {
      {kTraceIdHeader, trace->id()}};
  for (auto& [owner, group] : groups) {
    AttemptResult last;
    if (!owner.empty()) {
      std::string sub = "{\"requests\":[";
      for (size_t j = 0; j < group.slots.size(); ++j) {
        if (j > 0) sub += ',';
        sub += slot_bodies[group.slots[j]];
      }
      sub += "]}";
      last = ForwardWithFailover(group.session_key, request.path,
                                 forward_headers, &sub, trace);
    }
    if (last.ok) {
      auto sub_doc = ParseJson(last.response.body);
      const JsonValue* results =
          sub_doc.ok() ? sub_doc->Find("results") : nullptr;
      if (results != nullptr &&
          results->type() == JsonValue::Type::kArray &&
          results->AsArray().size() == group.slots.size()) {
        forwarded_ok_->Increment();
        for (size_t j = 0; j < group.slots.size(); ++j) {
          // Per-arm accounting per slot (no per-slot engine header or
          // latency on the batch hop; fallback detection is single-path
          // only).
          ab_requests_[slot_arms[group.slots[j]]]->Increment();
          merged[group.slots[j]] = SerializeJson(results->AsArray()[j]);
        }
        continue;
      }
      last.ok = false;
      last.error = Status::Internal("backend returned a malformed batch");
    }
    // The sub-batch failed: its slots degrade (or error) individually.
    for (size_t slot : group.slots) {
      if (fallback_ != nullptr) {
        merged[slot] = DegradedEntryJson(item_text_of(slots[slot]));
      } else {
        merged[slot] = error_entry(503, last.error.ToString());
      }
    }
    if (fallback_ == nullptr) failed_->Increment();
  }

  Span serialize_span(trace, TraceStage::kSerialize);
  std::string body = "{\"results\":[";
  for (size_t i = 0; i < merged.size(); ++i) {
    if (i > 0) body += ',';
    body += merged[i];
  }
  body += "]}";
  return HttpResponse::Json(std::move(body));
}

// --- A/B experiment layer ---------------------------------------------------

bool ClusterGateway::AbAnnBucket(const std::string& session_key) const {
  if (config_.ab_ann_percent == 0) return false;
  if (config_.ab_ann_percent >= 100) return true;
  // Pure function of (key, salt): sticky across requests and across
  // gateway restarts, with no per-session assignment state to replicate.
  const uint64_t bucket = Mix64(Fnv1a(session_key) ^ config_.ab_salt) % 100;
  return bucket < config_.ab_ann_percent;
}

const char* ClusterGateway::AbArmOf(const std::string& session_key) const {
  return AbAnnBucket(session_key) ? "ann" : "vmis";
}

void ClusterGateway::AbObserveClick(const std::string& session_key,
                                    const std::string& item_text) {
  uint32_t item = 0;
  const auto parsed = std::from_chars(
      item_text.data(), item_text.data() + item_text.size(), item);
  if (parsed.ec != std::errc() ||
      parsed.ptr != item_text.data() + item_text.size()) {
    return;
  }
  std::lock_guard<std::mutex> lock(ab_mutex_);
  auto it = ab_sessions_.find(session_key);
  if (it == ab_sessions_.end()) return;
  for (ItemId shown : it->second.shown) {
    if (shown == item) {
      // Credit the arm that PRODUCED the shown list, not the arm serving
      // this click — the click is the previous recommendation's reward.
      ab_engagements_[it->second.arm]->Increment();
      return;
    }
  }
}

void ClusterGateway::AbObserveResponse(const std::string& session_key, int arm,
                                       const std::string& body) {
  auto doc = ParseJson(body);
  if (!doc.ok()) return;
  const JsonValue* items = doc->Find("items");
  if (items == nullptr || items->type() != JsonValue::Type::kArray) return;
  std::vector<ItemId> shown;
  shown.reserve(items->AsArray().size());
  for (const JsonValue& value : items->AsArray()) {
    if (value.type() == JsonValue::Type::kNumber) {
      shown.push_back(static_cast<ItemId>(value.AsInt()));
    }
  }
  std::lock_guard<std::mutex> lock(ab_mutex_);
  auto it = ab_sessions_.find(session_key);
  if (it == ab_sessions_.end()) {
    // Bounded memory: over capacity, new sessions are served but not
    // quality-tracked (existing sessions keep updating in place).
    if (ab_sessions_.size() >= config_.ab_engagement_capacity) return;
    it = ab_sessions_.emplace(session_key, AbEngagement{}).first;
  }
  it->second.arm = arm;
  it->second.shown = std::move(shown);
  ab_impressions_[arm]->Increment();
}

void ClusterGateway::AbCountForward(int arm, uint64_t latency_micros,
                                    const std::string& served_engine) {
  ab_requests_[arm]->Increment();
  ab_latency_micros_[arm]->Record(latency_micros);
  // The pod stamps what actually served; an ANN-arm request answered by
  // VMIS is the dead-arm safety valve firing, which the experiment
  // read-out must show (an "" engine means the header was absent).
  if (arm == 1 && served_engine == "vmis") ab_fallbacks_->Increment();
}

AbCounters ClusterGateway::ab_counters() const {
  AbCounters counters;
  for (int arm = 0; arm < 2; ++arm) {
    counters.requests[arm] = ab_requests_[arm]->value();
    counters.impressions[arm] = ab_impressions_[arm]->value();
    counters.engagements[arm] = ab_engagements_[arm]->value();
  }
  counters.fallbacks = ab_fallbacks_->value();
  return counters;
}

std::vector<ScoredItem> ClusterGateway::FallbackItems(
    const std::string& item_text) {
  EvolvingSession session;
  uint32_t item = 0;
  const auto parsed = std::from_chars(
      item_text.data(), item_text.data() + item_text.size(), item);
  if (parsed.ec == std::errc() &&
      parsed.ptr == item_text.data() + item_text.size()) {
    session.push_back(item);
  }
  std::lock_guard<std::mutex> lock(fallback_mutex_);
  return fallback_->RecommendNext(session, config_.fallback_items);
}

HttpResponse ClusterGateway::ServeDegraded(const std::string& item_text) {
  degraded_->Increment();
  const std::vector<ScoredItem> items = FallbackItems(item_text);
  JsonWriter writer;
  writer.BeginObject().Key("items").BeginArray();
  for (const ScoredItem& rec : items) {
    writer.Value(static_cast<uint64_t>(rec.item));
  }
  writer.EndArray().Key("scores").BeginArray();
  for (const ScoredItem& rec : items) {
    writer.Value(static_cast<double>(rec.score));
  }
  writer.EndArray().Key("degraded").Value(true).EndObject();
  return HttpResponse::Json(writer.str());
}

std::string ClusterGateway::DegradedEntryJson(const std::string& item_text) {
  degraded_->Increment();
  const std::vector<ScoredItem> items = FallbackItems(item_text);
  JsonWriter writer;
  writer.BeginObject().Key("items").BeginArray();
  for (const ScoredItem& rec : items) {
    writer.Value(static_cast<uint64_t>(rec.item));
  }
  writer.EndArray().Key("scores").BeginArray();
  for (const ScoredItem& rec : items) {
    writer.Value(static_cast<double>(rec.score));
  }
  writer.EndArray().Key("degraded").Value(true).EndObject();
  return writer.str();
}

// --- elastic-fleet control plane --------------------------------------------

HttpResponse ClusterGateway::WithEpochHeader(HttpResponse response) const {
  response.headers[repl::kRingEpochHeader] = std::to_string(ring_epoch());
  return response;
}

std::optional<HttpResponse> ClusterGateway::CheckEpoch(const JsonValue& doc,
                                                       Trace* trace) {
  const JsonValue* epoch = doc.Find("epoch");
  if (epoch == nullptr || epoch->type() != JsonValue::Type::kNumber) {
    return WithEpochHeader(ApiError(
        400, "mutation must carry the current ring \"epoch\"", trace->id()));
  }
  const uint64_t carried = static_cast<uint64_t>(epoch->AsInt());
  uint64_t current;
  {
    std::lock_guard<std::mutex> lock(membership_mutex_);
    current = ring_epoch_;
  }
  if (carried == current) return std::nullopt;
  stale_epoch_rejects_->Increment();
  JsonWriter writer;
  writer.BeginObject().Key("error").BeginObject();
  writer.Key("code").Value(ApiErrorCode(409));
  writer.Key("message").Value("stale ring epoch " + std::to_string(carried) +
                              " (current " + std::to_string(current) + ")");
  writer.Key("trace_id").Value(trace->id());
  writer.EndObject().Key("current_epoch").Value(current).EndObject();
  HttpResponse response = HttpResponse::Json(writer.str());
  response.status = 409;
  return WithEpochHeader(std::move(response));
}

StatusOr<HttpResponse> ClusterGateway::PostAdmin(uint16_t port,
                                                 const std::string& path,
                                                 const std::string& body) {
  // Fresh connection per call: hand-offs move real data, so these calls
  // need their own (much longer) deadline than the pooled forwarding
  // clients are configured with.
  HttpClientOptions options;
  options.connect_timeout_ms = 2000;
  options.io_timeout_ms = config_.admin_timeout_ms;
  HttpClient client(options);
  const Status connected = client.Connect(port);
  if (!connected.ok()) return connected;
  return client.Post(path, body);
}

Status ClusterGateway::PostAdminRetried(uint16_t port, const std::string& path,
                                        const std::string& body) {
  Status last = Status::Internal("no attempts made");
  const uint32_t attempts = std::max<uint32_t>(1, config_.admin_retry_attempts);
  for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    auto response = PostAdmin(port, path, body);
    if (!response.ok()) {
      last = response.status();
      continue;
    }
    if (response->status / 100 == 2) return Status::Ok();
    last = Status::Internal(path + " on port " + std::to_string(port) +
                            " returned " + std::to_string(response->status) +
                            ": " + response->body);
    // 4xx is a protocol disagreement, not a transient: retries can't fix
    // a malformed request, so abandon immediately.
    if (response->status / 100 == 4) break;
  }
  return last;
}

std::string ClusterGateway::HandoffBody(
    const std::vector<BackendEndpoint>& pending, uint64_t new_epoch) const {
  JsonWriter writer;
  writer.BeginObject()
      .Key("ring_epoch")
      .Value(new_epoch)
      .Key("virtual_nodes")
      .Value(static_cast<uint64_t>(config_.virtual_nodes))
      .Key("members")
      .BeginArray();
  for (const BackendEndpoint& member : pending) {
    writer.BeginObject()
        .Key("name")
        .Value(member.name)
        .Key("port")
        .Value(static_cast<uint64_t>(member.port))
        .EndObject();
  }
  writer.EndArray().EndObject();
  return writer.str();
}

Status ClusterGateway::PushReplicationWiring() {
  struct Wire {
    BackendEndpoint member;
    uint16_t successor_port = 0;
  };
  std::vector<Wire> wires;
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(membership_mutex_);
    epoch = ring_epoch_;
    std::map<std::string, uint16_t> ports;
    for (const auto& backend : backends_) {
      ports[backend->endpoint.name] = backend->endpoint.port;
    }
    for (const auto& backend : backends_) {
      Wire wire;
      wire.member = backend->endpoint;
      const std::string successor = ring_.SuccessorOf(backend->endpoint.name);
      // "" = single-node ring: peer_port 0 tells the pod to stop shipping.
      if (!successor.empty()) wire.successor_port = ports[successor];
      wires.push_back(std::move(wire));
    }
  }
  Status first_error = Status::Ok();
  for (const Wire& wire : wires) {
    JsonWriter writer;
    writer.BeginObject()
        .Key("peer_port")
        .Value(static_cast<uint64_t>(wire.successor_port))
        .Key("ring_epoch")
        .Value(epoch)
        .EndObject();
    auto response = PostAdmin(wire.member.port, repl::kPeerPath, writer.str());
    Status status = Status::Ok();
    if (!response.ok()) {
      status = response.status();
    } else if (response->status / 100 != 2) {
      status = Status::Internal("peer push to " + wire.member.name +
                                " returned " +
                                std::to_string(response->status));
    }
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

HttpResponse ClusterGateway::HandleClusterGet(Trace* trace) {
  (void)trace;
  std::vector<BackendEndpoint> members;
  std::map<std::string, std::string> successors;
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(membership_mutex_);
    epoch = ring_epoch_;
    for (const auto& backend : backends_) {
      members.push_back(backend->endpoint);
      successors[backend->endpoint.name] =
          ring_.SuccessorOf(backend->endpoint.name);
    }
  }
  const std::vector<BackendHealth> health = health_->Snapshot();
  JsonWriter writer;
  writer.BeginObject()
      .Key("ring_epoch")
      .Value(epoch)
      .Key("virtual_nodes")
      .Value(static_cast<uint64_t>(config_.virtual_nodes))
      .Key("replication_managed")
      .Value(config_.manage_replication)
      .Key("members")
      .BeginArray();
  for (const BackendEndpoint& member : members) {
    BackendHealth entry;
    for (const BackendHealth& candidate : health) {
      if (candidate.name == member.name) {
        entry = candidate;
        break;
      }
    }
    writer.BeginObject()
        .Key("name")
        .Value(member.name)
        .Key("port")
        .Value(static_cast<uint64_t>(member.port))
        .Key("healthy")
        .Value(entry.healthy)
        .Key("successor")
        .Value(successors[member.name])
        .Key("replica_lag_bytes")
        .Value(entry.replica_lag_bytes)
        .Key("replica_lag_seconds")
        .Value(entry.replica_lag_seconds)
        .Key("ring_epoch")
        .Value(entry.ring_epoch)
        .EndObject();
  }
  writer.EndArray().EndObject();
  return WithEpochHeader(HttpResponse::Json(writer.str()));
}

HttpResponse ClusterGateway::HandleClusterJoin(const HttpRequest& request,
                                               Trace* trace) {
  // admin_mutex_ serializes the whole mutation (epoch check -> hand-off
  // -> ring flip -> rewire): the epoch cannot move between the check and
  // the flip, so a stale client can never interleave a second change.
  std::lock_guard<std::mutex> admin_lock(admin_mutex_);
  auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    return ApiError(400, "malformed JSON body: " + doc.status().message(),
                    trace->id());
  }
  if (auto rejected = CheckEpoch(*doc, trace)) return *std::move(rejected);
  const JsonValue* name = doc->Find("name");
  const JsonValue* port = doc->Find("port");
  if (name == nullptr || name->type() != JsonValue::Type::kString ||
      name->AsString().empty() || port == nullptr ||
      port->type() != JsonValue::Type::kNumber) {
    return ApiError(400, "join needs \"name\" and \"port\"", trace->id());
  }
  BackendEndpoint joining;
  joining.name = name->AsString();
  joining.port = static_cast<uint16_t>(port->AsInt());
  {
    std::lock_guard<std::mutex> lock(membership_mutex_);
    if (ring_.Contains(joining.name)) {
      return WithEpochHeader(ApiError(
          409, "member \"" + joining.name + "\" is already in the ring",
          trace->id()));
    }
  }

  const std::vector<BackendEndpoint> donors = Members();
  std::vector<BackendEndpoint> pending = donors;
  pending.push_back(joining);
  const uint64_t new_epoch = ring_epoch() + 1;

  if (config_.manage_replication && !donors.empty()) {
    // Every current member donates the key ranges the joiner takes over:
    // snapshot + tail-chase + cutover runs on the donor BEFORE the ring
    // flips, so no click written during the transfer is lost.
    const std::string body = HandoffBody(pending, new_epoch);
    for (const BackendEndpoint& donor : donors) {
      const Status moved =
          PostAdminRetried(donor.port, repl::kHandoffPath, body);
      if (!moved.ok()) {
        LOG_WARNING << "gateway: join of " << joining.name
                    << " abandoned, hand-off on " << donor.name
                    << " failed: " << moved.ToString();
        return WithEpochHeader(ApiError(
            502, "hand-off on donor \"" + donor.name +
                     "\" failed: " + moved.ToString(),
            trace->id()));
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(membership_mutex_);
    AttachBackendLocked(joining);
    ring_epoch_ = new_epoch;
  }
  health_->AddBackend(joining);
  if (config_.manage_replication) {
    // Finish = donors delete their moved keys and adopt the new epoch.
    // The ring has flipped, so a finish failure only leaves redirects
    // armed longer than needed — never wrong routing.
    for (const BackendEndpoint& donor : donors) {
      const Status finished =
          PostAdminRetried(donor.port, repl::kHandoffFinishPath, "{}");
      if (!finished.ok()) {
        LOG_WARNING << "gateway: hand-off finish on " << donor.name
                    << " failed: " << finished.ToString();
      }
    }
    (void)PushReplicationWiring();
  }
  LOG_INFO << "gateway: " << joining.name << " joined the ring (epoch "
           << new_epoch << ", " << pending.size() << " members)";
  JsonWriter writer;
  writer.BeginObject()
      .Key("ring_epoch")
      .Value(new_epoch)
      .Key("joined")
      .Value(joining.name)
      .Key("members")
      .Value(static_cast<uint64_t>(pending.size()))
      .EndObject();
  return WithEpochHeader(HttpResponse::Json(writer.str()));
}

HttpResponse ClusterGateway::HandleClusterDrain(const HttpRequest& request,
                                                Trace* trace) {
  std::lock_guard<std::mutex> admin_lock(admin_mutex_);
  auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    return ApiError(400, "malformed JSON body: " + doc.status().message(),
                    trace->id());
  }
  if (auto rejected = CheckEpoch(*doc, trace)) return *std::move(rejected);
  const JsonValue* name = doc->Find("name");
  if (name == nullptr || name->type() != JsonValue::Type::kString ||
      name->AsString().empty()) {
    return ApiError(400, "drain needs \"name\"", trace->id());
  }
  const std::string draining = name->AsString();

  const std::vector<BackendEndpoint> members = Members();
  BackendEndpoint drainee;
  std::vector<BackendEndpoint> pending;
  for (const BackendEndpoint& member : members) {
    if (member.name == draining) {
      drainee = member;
    } else {
      pending.push_back(member);
    }
  }
  if (drainee.name.empty()) {
    return WithEpochHeader(ApiError(
        404, "member \"" + draining + "\" is not in the ring", trace->id()));
  }
  if (pending.empty()) {
    return WithEpochHeader(ApiError(
        409, "cannot drain the last member of the ring", trace->id()));
  }
  const uint64_t new_epoch = ring_epoch() + 1;

  if (config_.manage_replication) {
    // Only the drainee donates: removing one node hands its ranges to
    // the survivors and moves nobody else's keys.
    const Status moved = PostAdminRetried(drainee.port, repl::kHandoffPath,
                                          HandoffBody(pending, new_epoch));
    if (!moved.ok()) {
      LOG_WARNING << "gateway: drain of " << draining
                  << " abandoned: " << moved.ToString();
      return WithEpochHeader(ApiError(
          502, "hand-off on \"" + draining + "\" failed: " + moved.ToString(),
          trace->id()));
    }
  }

  {
    std::lock_guard<std::mutex> lock(membership_mutex_);
    ring_.RemoveNode(draining);
    for (auto it = backends_.begin(); it != backends_.end(); ++it) {
      if ((*it)->endpoint.name == draining) {
        // Park, don't destroy: in-flight forwards and hedge losers may
        // still hold this Backend*.
        retired_backends_.push_back(std::move(*it));
        backends_.erase(it);
        break;
      }
    }
    ring_epoch_ = new_epoch;
  }
  health_->RemoveBackend(draining);
  if (config_.manage_replication) {
    const Status finished =
        PostAdminRetried(drainee.port, repl::kHandoffFinishPath, "{}");
    if (!finished.ok()) {
      LOG_WARNING << "gateway: hand-off finish on " << draining
                  << " failed: " << finished.ToString();
    }
    (void)PushReplicationWiring();
  }
  LOG_INFO << "gateway: " << draining << " drained from the ring (epoch "
           << new_epoch << ", " << pending.size() << " members)";
  JsonWriter writer;
  writer.BeginObject()
      .Key("ring_epoch")
      .Value(new_epoch)
      .Key("drained")
      .Value(draining)
      .Key("members")
      .Value(static_cast<uint64_t>(pending.size()))
      .EndObject();
  return WithEpochHeader(HttpResponse::Json(writer.str()));
}

HttpResponse ClusterGateway::HandleClusterRemove(const HttpRequest& request,
                                                 Trace* trace) {
  std::lock_guard<std::mutex> admin_lock(admin_mutex_);
  auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    return ApiError(400, "malformed JSON body: " + doc.status().message(),
                    trace->id());
  }
  if (auto rejected = CheckEpoch(*doc, trace)) return *std::move(rejected);
  const JsonValue* name = doc->Find("name");
  if (name == nullptr || name->type() != JsonValue::Type::kString ||
      name->AsString().empty()) {
    return ApiError(400, "remove needs \"name\"", trace->id());
  }
  const std::string dead = name->AsString();

  const std::vector<BackendEndpoint> members = Members();
  BackendEndpoint victim;
  std::vector<BackendEndpoint> survivors;
  for (const BackendEndpoint& member : members) {
    if (member.name == dead) {
      victim = member;
    } else {
      survivors.push_back(member);
    }
  }
  if (victim.name.empty()) {
    return WithEpochHeader(ApiError(
        404, "member \"" + dead + "\" is not in the ring", trace->id()));
  }
  if (survivors.empty()) {
    return WithEpochHeader(ApiError(
        409, "cannot remove the last member of the ring", trace->id()));
  }
  const uint64_t new_epoch = ring_epoch() + 1;

  BackendEndpoint successor;
  if (config_.manage_replication) {
    // The dead pod's ring successor holds its replica. Promote it (merge
    // the shadow table into its live store), then let it hand off: the
    // ring flip scatters the dead pod's ranges across ALL survivors, so
    // the successor pushes every adopted session to its new owner.
    std::string successor_name;
    {
      std::lock_guard<std::mutex> lock(membership_mutex_);
      successor_name = ring_.SuccessorOf(dead);
    }
    for (const BackendEndpoint& member : survivors) {
      if (member.name == successor_name) successor = member;
    }
    if (successor.name.empty()) {
      return WithEpochHeader(ApiError(
          502, "no ring successor found for \"" + dead + "\"", trace->id()));
    }
    if (!health_->IsHealthy(successor.name)) {
      return WithEpochHeader(ApiError(
          502, "replica holder \"" + successor.name +
                   "\" is unhealthy; cannot promote",
          trace->id()));
    }
    JsonWriter promote;
    promote.BeginObject().Key("donor").Value(dead).EndObject();
    const Status promoted = PostAdminRetried(
        successor.port, repl::kPromotePath, promote.str());
    if (!promoted.ok()) {
      LOG_WARNING << "gateway: remove of " << dead
                  << " abandoned, promotion on " << successor.name
                  << " failed: " << promoted.ToString();
      return WithEpochHeader(ApiError(
          502, "promotion on \"" + successor.name +
                   "\" failed: " + promoted.ToString(),
          trace->id()));
    }
    const Status moved = PostAdminRetried(successor.port, repl::kHandoffPath,
                                          HandoffBody(survivors, new_epoch));
    if (!moved.ok()) {
      LOG_WARNING << "gateway: remove of " << dead
                  << " abandoned, hand-off on " << successor.name
                  << " failed: " << moved.ToString();
      return WithEpochHeader(ApiError(
          502, "hand-off on \"" + successor.name +
                   "\" failed: " + moved.ToString(),
          trace->id()));
    }
  }

  {
    std::lock_guard<std::mutex> lock(membership_mutex_);
    ring_.RemoveNode(dead);
    for (auto it = backends_.begin(); it != backends_.end(); ++it) {
      if ((*it)->endpoint.name == dead) {
        retired_backends_.push_back(std::move(*it));
        backends_.erase(it);
        break;
      }
    }
    ring_epoch_ = new_epoch;
  }
  health_->RemoveBackend(dead);
  if (config_.manage_replication) {
    const Status finished =
        PostAdminRetried(successor.port, repl::kHandoffFinishPath, "{}");
    if (!finished.ok()) {
      LOG_WARNING << "gateway: hand-off finish on " << successor.name
                  << " failed: " << finished.ToString();
    }
    (void)PushReplicationWiring();
  }
  LOG_INFO << "gateway: " << dead << " removed from the ring (epoch "
           << new_epoch << ", " << survivors.size() << " members)";
  JsonWriter writer;
  writer.BeginObject()
      .Key("ring_epoch")
      .Value(new_epoch)
      .Key("removed")
      .Value(dead)
      .Key("members")
      .Value(static_cast<uint64_t>(survivors.size()))
      .EndObject();
  return WithEpochHeader(HttpResponse::Json(writer.str()));
}

HttpResponse ClusterGateway::HandleHealthz() {
  JsonWriter writer;
  writer.BeginObject()
      .Key("status")
      .Value("ok")
      .Key("backends")
      .Value(static_cast<uint64_t>(health_->NumBackends()))
      .Key("healthy_backends")
      .Value(static_cast<uint64_t>(health_->NumHealthy()))
      .Key("ring_epoch")
      .Value(ring_epoch())
      .EndObject();
  return HttpResponse::Json(writer.str());
}

GatewayCounters ClusterGateway::counters() const {
  GatewayCounters counters;
  counters.forwarded_ok = forwarded_ok_->value();
  counters.degraded = degraded_->value();
  counters.failed = failed_->value();
  counters.retries = retries_->value();
  counters.hedges = hedges_->value();
  counters.hedge_wins = hedge_wins_->value();
  return counters;
}

std::vector<BackendCounters> ClusterGateway::backend_counters() const {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  std::vector<BackendCounters> out;
  out.reserve(backends_.size());
  for (const auto& backend : backends_) {
    BackendCounters counters;
    counters.name = backend->endpoint.name;
    counters.requests = backend->requests->value();
    counters.errors = backend->errors->value();
    out.push_back(std::move(counters));
  }
  return out;
}

HttpResponse ClusterGateway::HandleStats() {
  return HttpResponse::Json(StatsJson(registry_));
}

}  // namespace serenade
