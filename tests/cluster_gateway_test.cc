#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/popularity.h"
#include "cluster/gateway.h"
#include "cluster/hash_ring.h"
#include "cluster/health.h"
#include "common/logging.h"
#include "core/session_index.h"
#include "data/synthetic.h"
#include "index/snapshot.h"
#include "obs/trace.h"
#include "serving/json.h"
#include "serving/server.h"

namespace serenade {
namespace {

// --- consistent-hash ring ---------------------------------------------------

TEST(HashRingTest, StableAndDistinctReplicas) {
  HashRing ring;
  for (int i = 0; i < 5; ++i) ring.AddNode("pod-" + std::to_string(i));
  EXPECT_EQ(ring.num_nodes(), 5u);
  for (const std::string key : {"alpha", "beta", "gamma"}) {
    const std::string owner = ring.NodeFor(key);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(ring.NodeFor(key), owner);
    const auto replicas = ring.ReplicasFor(key, 5);
    ASSERT_EQ(replicas.size(), 5u);
    EXPECT_EQ(replicas[0], owner);
    std::map<std::string, int> seen;
    for (const auto& node : replicas) ++seen[node];
    EXPECT_EQ(seen.size(), 5u);  // all distinct
  }
}

TEST(HashRingTest, AddNodeIsIdempotentAndRemoveUnknownIsNoop) {
  HashRing ring;
  ring.AddNode("a");
  ring.AddNode("a");
  EXPECT_EQ(ring.num_nodes(), 1u);
  ring.RemoveNode("zzz");
  EXPECT_EQ(ring.num_nodes(), 1u);
  EXPECT_EQ(ring.NodeFor("any-key"), "a");
}

TEST(HashRingTest, ReasonablyBalanced) {
  constexpr size_t kNodes = 4, kKeys = 40000;
  HashRing ring;
  for (size_t i = 0; i < kNodes; ++i) ring.AddNode("pod-" + std::to_string(i));
  std::map<std::string, size_t> counts;
  for (size_t i = 0; i < kKeys; ++i) {
    ++counts[ring.NodeFor("session-" + std::to_string(i))];
  }
  for (const auto& [node, count] : counts) {
    // Within 2x of the fair share in both directions.
    EXPECT_GT(count, kKeys / kNodes / 2) << node;
    EXPECT_LT(count, kKeys / kNodes * 2) << node;
  }
}

// Acceptance criterion (b): removing one of N pods remaps strictly less
// than 2/N of the keys, and only keys owned by the removed pod move.
TEST(HashRingTest, RemovalRemapsOnlyTheRemovedNodesKeys) {
  constexpr size_t kNodes = 5, kKeys = 10000;
  HashRing ring;
  for (size_t i = 0; i < kNodes; ++i) ring.AddNode("pod-" + std::to_string(i));

  std::vector<std::string> before(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    before[i] = ring.NodeFor("session-" + std::to_string(i));
  }

  const std::string removed = "pod-2";
  ring.RemoveNode(removed);

  size_t moved = 0;
  for (size_t i = 0; i < kKeys; ++i) {
    const std::string after = ring.NodeFor("session-" + std::to_string(i));
    if (after != before[i]) {
      ++moved;
      // Consistent hashing: survivors never lose keys to each other.
      EXPECT_EQ(before[i], removed);
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(static_cast<double>(moved) / kKeys, 2.0 / kNodes);
}

// --- health checker ---------------------------------------------------------

HttpHandler PodHandler(const std::string& pod_name,
                       std::atomic<uint64_t>* recommends) {
  return [pod_name, recommends](const HttpRequest& request) -> HttpResponse {
    if (request.path == "/v1/healthz") {
      return HttpResponse::Json("{\"status\":\"ok\"}");
    }
    if (request.path == "/v1/recommend") {
      recommends->fetch_add(1);
      return HttpResponse::Json("{\"items\":[1,2],\"scores\":[2.0,1.0],"
                                "\"pod\":\"" + pod_name + "\"}");
    }
    return ApiError(404, "unknown path");
  };
}

TEST(HealthCheckerTest, EjectsAndReadmits) {
  std::atomic<uint64_t> unused{0};
  auto server = std::make_unique<HttpServer>(PodHandler("h", &unused));
  ASSERT_TRUE(server->Start(0).ok());
  const uint16_t port = server->port();

  HealthCheckerConfig config;
  config.failures_to_eject = 2;
  config.successes_to_readmit = 2;
  config.probe_timeout_ms = 200;
  HealthChecker checker({BackendEndpoint{"h", port}}, config);

  checker.ProbeAllOnce();
  EXPECT_TRUE(checker.IsHealthy("h"));
  EXPECT_FALSE(checker.IsHealthy("unknown"));

  server->Stop();
  server.reset();
  checker.ProbeAllOnce();
  EXPECT_TRUE(checker.IsHealthy("h"));  // one failure: not ejected yet
  checker.ProbeAllOnce();
  EXPECT_FALSE(checker.IsHealthy("h"));  // second failure: ejected
  EXPECT_EQ(checker.NumHealthy(), 0u);

  // Pod comes back on the same port: readmitted after two successes.
  server = std::make_unique<HttpServer>(PodHandler("h", &unused));
  ASSERT_TRUE(server->Start(port).ok());
  checker.ProbeAllOnce();
  EXPECT_FALSE(checker.IsHealthy("h"));
  checker.ProbeAllOnce();
  EXPECT_TRUE(checker.IsHealthy("h"));

  const auto snapshot = checker.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].ejections_total, 1u);
  EXPECT_GE(snapshot[0].probes_total, 5u);
  server->Stop();
}

// --- gateway over fake pods -------------------------------------------------

// Three fake pods that answer /healthz and /recommend (tagging responses
// with their name), so routing behaviour is observable without the full
// VMIS-kNN stack.
class GatewayTest : public testing::Test {
 protected:
  static constexpr size_t kPods = 3;

  void StartPods() {
    for (size_t i = 0; i < kPods; ++i) {
      pods_.push_back(std::make_unique<HttpServer>(
          PodHandler("pod-" + std::to_string(i), &recommends_[i])));
      ASSERT_TRUE(pods_.back()->Start(0).ok());
      backends_.push_back(BackendEndpoint{"pod-" + std::to_string(i),
                                          pods_.back()->port()});
    }
  }

  std::unique_ptr<Recommender> MakeFallback() {
    SyntheticConfig config;
    config.num_items = 50;
    config.num_sessions = 500;
    fallback_train_ = GenerateDataset(config);
    return std::make_unique<PopularityRecommender>(fallback_train_);
  }

  GatewayConfig FastConfig() {
    GatewayConfig config;
    config.forward_timeout_ms = 500;
    config.max_attempts = 3;
    config.retry_backoff_ms = 1;
    config.health.probe_interval_ms = 30;
    config.health.probe_timeout_ms = 100;
    config.health.failures_to_eject = 2;
    config.health.successes_to_readmit = 1;
    return config;
  }

  Dataset fallback_train_;
  std::atomic<uint64_t> recommends_[kPods] = {};
  std::vector<std::unique_ptr<HttpServer>> pods_;
  std::vector<BackendEndpoint> backends_;
};

// Acceptance criterion (a): all requests of one session land on the same
// pod, and that pod is the ring owner.
TEST_F(GatewayTest, SessionStickinessAcrossRequests) {
  StartPods();
  ClusterGateway gateway(backends_, FastConfig(), MakeFallback());
  ASSERT_TRUE(gateway.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect(gateway.port()).ok());
  const std::string owner = gateway.OwnerOf("sticky-session");
  for (int i = 0; i < 20; ++i) {
    auto response = client.Get(
        "/v1/recommend?session_id=sticky-session&item_id=" + std::to_string(i));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200);
    auto doc = ParseJson(response->body);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->Find("pod")->AsString(), owner);
  }
  // Exactly one pod saw the traffic.
  size_t pods_hit = 0;
  for (size_t i = 0; i < kPods; ++i) {
    if (recommends_[i].load() > 0) ++pods_hit;
  }
  EXPECT_EQ(pods_hit, 1u);
  gateway.Stop();
}

TEST_F(GatewayTest, DifferentSessionsSpreadOverTheFleet) {
  StartPods();
  ClusterGateway gateway(backends_, FastConfig(), MakeFallback());
  ASSERT_TRUE(gateway.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect(gateway.port()).ok());
  for (int i = 0; i < 60; ++i) {
    auto response = client.Get("/v1/recommend?session_id=spread-" +
                               std::to_string(i) + "&item_id=1");
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status, 200);
  }
  size_t pods_hit = 0;
  for (size_t i = 0; i < kPods; ++i) {
    if (recommends_[i].load() > 0) ++pods_hit;
  }
  EXPECT_GE(pods_hit, 2u);  // 60 sessions cannot all hash to one pod
  gateway.Stop();
}

TEST_F(GatewayTest, MissingSessionIdRejected) {
  StartPods();
  ClusterGateway gateway(backends_, FastConfig(), MakeFallback());
  ASSERT_TRUE(gateway.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect(gateway.port()).ok());
  EXPECT_EQ(client.Get("/v1/recommend?item_id=1")->status, 400);
  EXPECT_EQ(client.Get("/nope")->status, 404);
  gateway.Stop();
}

// Acceptance criterion (c): killing a backend mid-load yields zero
// client-visible 5xx — requests fail over to ring successors (or degrade).
TEST_F(GatewayTest, KillingBackendMidLoadYieldsNoClientVisible5xx) {
  StartPods();
  ClusterGateway gateway(backends_, FastConfig(), MakeFallback());
  ASSERT_TRUE(gateway.Start().ok());

  constexpr int kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> five_xx{0}, transport_errors{0}, requests{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClientOptions options;
      options.connect_timeout_ms = 3000;
      options.io_timeout_ms = 3000;
      HttpClient client(options);
      if (!client.Connect(gateway.port()).ok()) {
        transport_errors.fetch_add(1);
        return;
      }
      int i = 0;
      while (!stop.load()) {
        const std::string session =
            "load-" + std::to_string(c) + "-" + std::to_string(i++ % 40);
        auto response =
            client.Get("/v1/recommend?session_id=" + session + "&item_id=7");
        requests.fetch_add(1);
        if (!response.ok()) {
          transport_errors.fetch_add(1);
        } else if (response->status >= 500) {
          five_xx.fetch_add(1);
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  pods_[0]->Stop();  // kill one pod mid-load
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  for (auto& thread : clients) thread.join();

  EXPECT_GT(requests.load(), 50u);
  EXPECT_EQ(five_xx.load(), 0u);
  EXPECT_EQ(transport_errors.load(), 0u);
  // The dead pod was ejected by probes/passive signals.
  EXPECT_FALSE(gateway.health().IsHealthy("pod-0"));
  gateway.Stop();
}

TEST_F(GatewayTest, AllBackendsDownServesDegradedPopularity) {
  StartPods();
  ClusterGateway gateway(backends_, FastConfig(), MakeFallback());
  ASSERT_TRUE(gateway.Start().ok());
  for (auto& pod : pods_) pod->Stop();
  // Let the health checker notice (2 failures at a 30ms interval).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  HttpClient client;
  ASSERT_TRUE(client.Connect(gateway.port()).ok());
  auto response = client.Get("/v1/recommend?session_id=down&item_id=3");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  auto doc = ParseJson(response->body);
  ASSERT_TRUE(doc.ok()) << response->body;
  ASSERT_NE(doc->Find("degraded"), nullptr);
  EXPECT_TRUE(doc->Find("degraded")->AsBool());
  const JsonValue* items = doc->Find("items");
  ASSERT_NE(items, nullptr);
  EXPECT_GT(items->AsArray().size(), 0u);
  EXPECT_EQ(items->AsArray().size(), doc->Find("scores")->AsArray().size());
  EXPECT_GE(gateway.counters().degraded, 1u);
  gateway.Stop();
}

TEST_F(GatewayTest, NoFallbackAndDeadFleetYields503) {
  StartPods();
  ClusterGateway gateway(backends_, FastConfig(), nullptr);
  ASSERT_TRUE(gateway.Start().ok());
  for (auto& pod : pods_) pod->Stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  HttpClient client;
  ASSERT_TRUE(client.Connect(gateway.port()).ok());
  auto response = client.Get("/v1/recommend?session_id=x&item_id=1");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 503);
  gateway.Stop();
}

// Acceptance criterion (d): /metrics reports per-backend counters and
// forwarding-latency quantiles; /stats mirrors them as JSON.
TEST_F(GatewayTest, MetricsReportPerBackendCountersAndLatencyQuantiles) {
  StartPods();
  ClusterGateway gateway(backends_, FastConfig(), MakeFallback());
  ASSERT_TRUE(gateway.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect(gateway.port()).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Get("/v1/recommend?session_id=metrics-" +
                           std::to_string(i) + "&item_id=1")
                    .ok());
  }

  auto metrics = client.Get("/v1/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->content_type.find("text/plain"), std::string::npos);
  const std::string& body = metrics->body;
  EXPECT_NE(body.find("# TYPE gateway_requests_total counter"),
            std::string::npos);
  for (size_t i = 0; i < kPods; ++i) {
    const std::string label = "{backend=\"pod-" + std::to_string(i) + "\"}";
    EXPECT_NE(body.find("gateway_backend_requests_total" + label),
              std::string::npos);
    EXPECT_NE(body.find("gateway_backend_errors_total" + label),
              std::string::npos);
    EXPECT_NE(body.find("gateway_backend_healthy" + label),
              std::string::npos);
  }
  EXPECT_NE(
      body.find("gateway_forward_latency_microseconds{quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(body.find("gateway_forward_latency_microseconds_count"),
            std::string::npos);

  auto stats = client.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto doc = ParseJson(stats->body);
  ASSERT_TRUE(doc.ok()) << stats->body;
  EXPECT_GE(doc->Find("forwarded_ok")->AsInt(), 10);
  const JsonValue* per_backend = doc->Find("backend_requests");
  ASSERT_NE(per_backend, nullptr) << stats->body;
  EXPECT_EQ(per_backend->AsObject().size(), kPods);
  uint64_t backend_requests = 0;
  for (const auto& [name, requests] : per_backend->AsObject()) {
    backend_requests += static_cast<uint64_t>(requests.AsNumber());
  }
  EXPECT_GE(backend_requests, 10u);

  auto health = client.Get("/v1/healthz");
  ASSERT_TRUE(health.ok());
  auto health_doc = ParseJson(health->body);
  ASSERT_TRUE(health_doc.ok());
  EXPECT_EQ(health_doc->Find("healthy_backends")->AsInt(), 3);
  gateway.Stop();
}

TEST_F(GatewayTest, HedgedRequestBeatsSlowPrimary) {
  // pod-slow stalls /recommend for 300ms; the other pods answer fast.
  std::atomic<uint64_t> slow_hits{0};
  auto slow_handler = [&](const HttpRequest& request) -> HttpResponse {
    if (request.path == "/v1/healthz") {
      return HttpResponse::Json("{\"status\":\"ok\"}");
    }
    slow_hits.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return HttpResponse::Json("{\"items\":[],\"scores\":[],\"pod\":\"slow\"}");
  };
  pods_.push_back(std::make_unique<HttpServer>(slow_handler));
  ASSERT_TRUE(pods_.back()->Start(0).ok());
  backends_.push_back(BackendEndpoint{"pod-slow", pods_.back()->port()});
  pods_.push_back(
      std::make_unique<HttpServer>(PodHandler("pod-fast", &recommends_[0])));
  ASSERT_TRUE(pods_.back()->Start(0).ok());
  backends_.push_back(BackendEndpoint{"pod-fast", pods_.back()->port()});

  GatewayConfig config = FastConfig();
  config.hedge_delay_ms = 20;
  ClusterGateway gateway(backends_, config, nullptr);
  ASSERT_TRUE(gateway.Start().ok());

  // Find a session key owned by the slow pod so the hedge must win.
  std::string slow_session;
  for (int i = 0; i < 1000; ++i) {
    const std::string candidate = "hedge-" + std::to_string(i);
    if (gateway.OwnerOf(candidate) == "pod-slow") {
      slow_session = candidate;
      break;
    }
  }
  ASSERT_FALSE(slow_session.empty());

  HttpClient client;
  ASSERT_TRUE(client.Connect(gateway.port()).ok());
  auto response =
      client.Get("/v1/recommend?session_id=" + slow_session + "&item_id=1");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  auto doc = ParseJson(response->body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("pod")->AsString(), "pod-fast");
  const GatewayCounters totals = gateway.counters();
  EXPECT_GE(totals.hedges, 1u);
  EXPECT_GE(totals.hedge_wins, 1u);
  gateway.Stop();
}

// --- gateway over real Serenade pods ----------------------------------------

TEST(GatewayEndToEndTest, RealPodsKeepSessionStateThroughGateway) {
  SyntheticConfig data_config;
  data_config.seed = 7;
  data_config.num_items = 200;
  data_config.num_sessions = 2000;
  const Dataset train = GenerateDataset(data_config);
  auto index = std::make_shared<SessionIndex>(SessionIndex::Build(train, 500));
  ItemCatalog catalog;
  catalog.available.assign(index->num_items(), true);
  catalog.adult.assign(index->num_items(), false);

  std::vector<std::unique_ptr<SerenadeServer>> pods;
  std::vector<BackendEndpoint> backends;
  for (size_t i = 0; i < 3; ++i) {
    ServiceConfig service_config;
    service_config.knn.m =
        std::min<size_t>(500, index->max_sessions_per_item());
    service_config.knn.k = std::min<size_t>(100, service_config.knn.m);
    auto service = SerenadeService::Create(index, catalog, service_config);
    ASSERT_TRUE(service.ok());
    pods.push_back(std::make_unique<SerenadeServer>(std::move(service).value(),
                                                    ServerConfig{}));
    ASSERT_TRUE(pods.back()->Start().ok());
    backends.push_back(
        BackendEndpoint{"pod-" + std::to_string(i), pods.back()->port()});
  }

  GatewayConfig config;
  config.retry_backoff_ms = 1;
  ClusterGateway gateway(backends, config,
                         std::make_unique<PopularityRecommender>(train));
  ASSERT_TRUE(gateway.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect(gateway.port()).ok());
  for (ItemId item : {3u, 4u, 5u}) {
    auto response = client.Get("/v1/recommend?session_id=web-1&item_id=" +
                               std::to_string(item));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status, 200) << response->body;
    auto doc = ParseJson(response->body);
    ASSERT_TRUE(doc.ok()) << response->body;
    EXPECT_EQ(doc->Find("items")->AsArray().size(),
              doc->Find("scores")->AsArray().size());
  }

  // The sticky pod — and only that pod — accumulated the session.
  const std::string owner = gateway.OwnerOf("web-1");
  size_t pods_with_session = 0;
  for (size_t i = 0; i < pods.size(); ++i) {
    auto session = pods[i]->service().GetSession("web-1");
    if (session.ok() && session->size() == 3) {
      ++pods_with_session;
      EXPECT_EQ(backends[i].name, owner);
    }
  }
  EXPECT_EQ(pods_with_session, 1u);

  // The startup probe round already captured each pod's index version, so
  // the gateway's /v1/stats reports it per backend.
  auto stats = client.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto stats_doc = ParseJson(stats->body);
  ASSERT_TRUE(stats_doc.ok()) << stats->body;
  const JsonValue* versions = stats_doc->Find("backend_index_version");
  ASSERT_NE(versions, nullptr) << stats->body;
  EXPECT_EQ(versions->AsObject().size(), backends.size());
  for (const auto& [name, version] : versions->AsObject()) {
    EXPECT_EQ(version.AsInt(), 1) << name;
  }

  // Hot-swap one pod to a new snapshot: after the next probe round the
  // gateway observes a mixed-version fleet (a rolling rollout mid-flight).
  ASSERT_TRUE(pods[0]
                  ->service()
                  .index_manager()
                  .Publish(std::make_shared<const SessionIndex>(
                               SessionIndex::Build(train, 500)),
                           IndexManifest{})
                  .ok());
  gateway.health().ProbeAllOnce();
  stats = client.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  stats_doc = ParseJson(stats->body);
  ASSERT_TRUE(stats_doc.ok()) << stats->body;
  size_t on_v2 = 0;
  versions = stats_doc->Find("backend_index_version");
  ASSERT_NE(versions, nullptr) << stats->body;
  for (const auto& [name, entry] : versions->AsObject()) {
    const int64_t version = entry.AsInt();
    if (name == "pod-0") {
      EXPECT_EQ(version, 2);
      ++on_v2;
    } else {
      EXPECT_EQ(version, 1);
    }
  }
  EXPECT_EQ(on_v2, 1u);
  auto metrics = client.Get("/v1/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find(
                "gateway_backend_index_version{backend=\"pod-0\"} 2"),
            std::string::npos)
      << metrics->body;

  gateway.Stop();
  for (auto& pod : pods) pod->Stop();
}

// --- trace-context propagation ----------------------------------------------

// A request traced through the gateway carries ONE id: the gateway mints
// it, stamps it on the proxied request, the pod adopts it, and both
// tiers' slow-request log lines plus the client-visible response header
// agree on it.
TEST(GatewayTracePropagationTest, GatewayAndPodShareOneTraceId) {
  SyntheticConfig data_config;
  data_config.seed = 11;
  data_config.num_items = 100;
  data_config.num_sessions = 1000;
  const Dataset train = GenerateDataset(data_config);
  auto index = std::make_shared<SessionIndex>(SessionIndex::Build(train, 500));
  ItemCatalog catalog;
  catalog.available.assign(index->num_items(), true);
  catalog.adult.assign(index->num_items(), false);

  // Capture every log line the process emits (gateway + pod tiers).
  std::mutex log_mutex;
  std::vector<std::string> log_lines;
  SetLogSink([&](LogLevel, const std::string& line) {
    std::lock_guard<std::mutex> lock(log_mutex);
    log_lines.push_back(line);
  });

  ServiceConfig service_config;
  service_config.knn.m = std::min<size_t>(500, index->max_sessions_per_item());
  service_config.knn.k = std::min<size_t>(100, service_config.knn.m);
  auto service = SerenadeService::Create(index, catalog, service_config);
  ASSERT_TRUE(service.ok());
  ServerConfig pod_config;
  pod_config.trace.slow_request_micros = 1;  // every request is "slow"
  SerenadeServer pod(std::move(service).value(), pod_config);
  ASSERT_TRUE(pod.Start().ok());

  GatewayConfig gateway_config;
  gateway_config.retry_backoff_ms = 1;
  gateway_config.trace.slow_request_micros = 1;
  ClusterGateway gateway({BackendEndpoint{"pod-0", pod.port()}},
                         gateway_config, nullptr);
  ASSERT_TRUE(gateway.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect(gateway.port()).ok());
  auto response = client.Get("/v1/recommend?session_id=traced&item_id=3");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 200) << response->body;

  // The gateway-minted id reaches the client on the response.
  const std::string trace_id = response->Header("X-Serenade-Trace-Id");
  ASSERT_TRUE(IsValidTraceId(trace_id)) << "'" << trace_id << "'";

  // Both tiers logged a slow-request line keyed by the SAME id.
  SetLogSink({});
  std::vector<std::string> lines;
  {
    std::lock_guard<std::mutex> lock(log_mutex);
    lines = log_lines;
  }
  bool pod_logged = false, gateway_logged = false;
  for (const std::string& line : lines) {
    if (line.find("trace_id=" + trace_id) == std::string::npos) continue;
    if (line.find("tier=pod") != std::string::npos) pod_logged = true;
    if (line.find("tier=gateway") != std::string::npos) gateway_logged = true;
  }
  EXPECT_TRUE(pod_logged) << "no pod slow-request line with the gateway's id";
  EXPECT_TRUE(gateway_logged) << "no gateway slow-request line";

  // A caller-supplied id (e.g. an edge proxy) is adopted, not replaced.
  auto traced = client.Get("/v1/recommend?session_id=traced&item_id=4",
                           {{"X-Serenade-Trace-Id", "feedc0de12345678"}});
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(traced->Header("X-Serenade-Trace-Id"), "feedc0de12345678");

  // A malformed inbound id is replaced with a freshly minted one.
  auto malformed = client.Get("/v1/recommend?session_id=traced&item_id=5",
                              {{"X-Serenade-Trace-Id", "not hex!"}});
  ASSERT_TRUE(malformed.ok());
  EXPECT_TRUE(IsValidTraceId(malformed->Header("X-Serenade-Trace-Id")));
  EXPECT_NE(malformed->Header("X-Serenade-Trace-Id"), "not hex!");

  // Stage timings crossed the tiers: the gateway attributes forwarding
  // time, the pod attributes knn time; both surface on /metrics.
  auto gateway_metrics = client.Get("/v1/metrics");
  ASSERT_TRUE(gateway_metrics.ok());
  EXPECT_NE(gateway_metrics->body.find(
                "gateway_stage_duration_microseconds{stage=\"forward\""),
            std::string::npos)
      << gateway_metrics->body;
  EXPECT_NE(gateway_metrics->body.find("gateway_slow_requests_total"),
            std::string::npos);

  HttpClient pod_client;
  ASSERT_TRUE(pod_client.Connect(pod.port()).ok());
  auto pod_metrics = pod_client.Get("/v1/metrics");
  ASSERT_TRUE(pod_metrics.ok());
  EXPECT_NE(pod_metrics->body.find(
                "serenade_stage_duration_microseconds{stage=\"knn_retrieve\""),
            std::string::npos)
      << pod_metrics->body;

  gateway.Stop();
  pod.Stop();
}

// --- versioned /v1 API + batch scatter-gather --------------------------------

// Real pods behind the gateway: the /v1 surface end to end, including the
// batch endpoint's scatter-gather by ring owner.
class GatewayV1Test : public testing::Test {
 protected:
  void StartFleet(size_t num_pods) {
    SyntheticConfig data_config;
    data_config.seed = 21;
    data_config.num_items = 200;
    data_config.num_sessions = 2000;
    train_ = GenerateDataset(data_config);
    index_ =
        std::make_shared<SessionIndex>(SessionIndex::Build(train_, 500));
    ItemCatalog catalog;
    catalog.available.assign(index_->num_items(), true);
    catalog.adult.assign(index_->num_items(), false);

    for (size_t i = 0; i < num_pods; ++i) {
      ServiceConfig service_config;
      service_config.knn.m =
          std::min<size_t>(500, index_->max_sessions_per_item());
      service_config.knn.k = std::min<size_t>(100, service_config.knn.m);
      auto service = SerenadeService::Create(index_, catalog, service_config);
      ASSERT_TRUE(service.ok());
      pods_.push_back(std::make_unique<SerenadeServer>(
          std::move(service).value(), ServerConfig{}));
      ASSERT_TRUE(pods_.back()->Start().ok());
      backends_.push_back(
          BackendEndpoint{"pod-" + std::to_string(i), pods_.back()->port()});
    }
    GatewayConfig config;
    config.retry_backoff_ms = 1;
    gateway_ = std::make_unique<ClusterGateway>(
        backends_, config, std::make_unique<PopularityRecommender>(train_));
    ASSERT_TRUE(gateway_->Start().ok());
    ASSERT_TRUE(client_.Connect(gateway_->port()).ok());
  }

  void TearDown() override {
    if (gateway_) gateway_->Stop();
    for (auto& pod : pods_) pod->Stop();
  }

  Dataset train_;
  std::shared_ptr<SessionIndex> index_;
  std::vector<std::unique_ptr<SerenadeServer>> pods_;
  std::vector<BackendEndpoint> backends_;
  std::unique_ptr<ClusterGateway> gateway_;
  HttpClient client_;
};

TEST_F(GatewayV1Test, BatchScatterGathersAcrossTheFleet) {
  StartFleet(3);
  // Six slots over three sessions, interleaved: each session's two clicks
  // must apply in batch order on that session's owner pod, and the merged
  // response must preserve the client's slot order.
  const std::string body =
      "{\"requests\":["
      "{\"session_id\":\"alpha\",\"item_id\":3},"
      "{\"session_id\":\"beta\",\"item_id\":4},"
      "{\"session_id\":\"gamma\",\"item_id\":5},"
      "{\"session_id\":\"alpha\",\"item_id\":6},"
      "{\"session_id\":\"beta\",\"item_id\":7},"
      "{\"session_id\":\"gamma\",\"item_id\":8}"
      "]}";
  auto response = client_.Post("/v1/recommend:batch", body);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 200) << response->body;
  auto doc = ParseJson(response->body);
  ASSERT_TRUE(doc.ok()) << response->body;
  const JsonValue* results = doc->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->AsArray().size(), 6u);
  for (const JsonValue& slot : results->AsArray()) {
    ASSERT_NE(slot.Find("items"), nullptr) << response->body;
    EXPECT_EQ(slot.Find("items")->AsArray().size(),
              slot.Find("scores")->AsArray().size());
  }

  // Each session landed (whole) on its ring owner, clicks in order.
  const std::map<std::string, EvolvingSession> expected = {
      {"alpha", {3, 6}}, {"beta", {4, 7}}, {"gamma", {5, 8}}};
  for (const auto& [key, want] : expected) {
    const std::string owner = gateway_->OwnerOf(key);
    size_t pods_with_session = 0;
    for (size_t i = 0; i < pods_.size(); ++i) {
      auto session = pods_[i]->service().GetSession(key);
      if (!session.ok()) continue;
      ++pods_with_session;
      EXPECT_EQ(backends_[i].name, owner);
      EXPECT_EQ(*session, want);
    }
    EXPECT_EQ(pods_with_session, 1u) << key;
  }
}

TEST_F(GatewayV1Test, PostRecommendForwardsBySessionKey) {
  StartFleet(3);
  auto response = client_.Post(
      "/v1/recommend", "{\"session_id\":\"poster\",\"item_id\":9}");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto doc = ParseJson(response->body);
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc->Find("items"), nullptr);

  // Body without a session key is rejected at the gateway, not forwarded.
  auto missing = client_.Post("/v1/recommend", "{\"item_id\":9}");
  EXPECT_EQ(missing->status, 400);
  EXPECT_NE(missing->body.find("\"code\":\"bad_request\""),
            std::string::npos);

  // Wrong method on a known path: 405 with Allow.
  auto wrong = client_.Post("/v1/healthz", "{}");
  EXPECT_EQ(wrong->status, 405);
  EXPECT_EQ(wrong->Header("Allow"), "GET");
}

TEST_F(GatewayV1Test, OversizedBatchRejectedBeforeForwarding) {
  StartFleet(1);
  std::string body = "{\"requests\":[";
  for (int i = 0; i < 200; ++i) {  // default max_batch_items = 128
    if (i > 0) body += ',';
    body += "{\"session_id\":\"s" + std::to_string(i) + "\",\"item_id\":1}";
  }
  body += "]}";
  auto response = client_.Post("/v1/recommend:batch", body);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 413);
  EXPECT_NE(response->body.find("\"code\":\"payload_too_large\""),
            std::string::npos);
}

TEST(GatewayV1DegradedTest, DeadFleetServesDegradedBatchEntries) {
  // A gateway whose only backend never existed: every batch slot must
  // come back as a degraded fallback entry, never a 5xx.
  SyntheticConfig data_config;
  data_config.num_items = 50;
  data_config.num_sessions = 500;
  const Dataset train = GenerateDataset(data_config);

  GatewayConfig config;
  config.max_attempts = 1;
  config.retry_backoff_ms = 1;
  config.forward_timeout_ms = 100;
  config.health.probe_interval_ms = 30;
  config.health.probe_timeout_ms = 50;
  config.health.failures_to_eject = 1;
  ClusterGateway gateway({BackendEndpoint{"ghost", 1}}, config,
                         std::make_unique<PopularityRecommender>(train));
  ASSERT_TRUE(gateway.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect(gateway.port()).ok());
  auto response = client.Post(
      "/v1/recommend:batch",
      "{\"requests\":[{\"session_id\":\"a\",\"item_id\":1},"
      "{\"session_id\":\"b\",\"item_id\":2}]}");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto doc = ParseJson(response->body);
  ASSERT_TRUE(doc.ok()) << response->body;
  const auto& slots = doc->Find("results")->AsArray();
  ASSERT_EQ(slots.size(), 2u);
  for (const JsonValue& slot : slots) {
    ASSERT_NE(slot.Find("degraded"), nullptr) << response->body;
    EXPECT_TRUE(slot.Find("degraded")->AsBool());
    EXPECT_FALSE(slot.Find("items")->AsArray().empty());
  }
  EXPECT_GE(gateway.counters().degraded, 2u);
  gateway.Stop();
}

}  // namespace
}  // namespace serenade
