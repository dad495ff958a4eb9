// CLI: the cluster gateway — the fleet-routing front door of Figure 1.
//
// Two modes:
//   * Spawn: --pods N starts N in-process Serenade pods on ephemeral
//     ports (synthetic index) plus the gateway in front of them. Good
//     for demos and failover experiments on one machine.
//   * Attach: --backends 8081,8082,... fronts already-running
//     serenade_server pods. Entries may carry an explicit ring name as
//     name=port (e.g. --backends pod-0=8081,pod-1=8082) — required with
//     --manage-replication, where each name must equal the matching
//     pod's --pod-name so donor and gateway agree on ring ownership.
//
//   serenade_gateway [--pods 3 | --backends 8081,8082] [--port 8080]
//       [--forward-timeout 1000] [--max-attempts 3] [--hedge-delay 0]
//       [--probe-interval 250] [--no-fallback] [--max-batch-items 128]
//       [--items 5000] [--sessions 20000]
//       [--slow-request-us 0] [--slow-sample-every 1]
//       [--max-connections 10000] [--idle-timeout-ms 60000]
//       [--request-deadline-ms 0] [--reactor-threads <CPUs>]
//       [--manage-replication]
//       [--ab-ann-percent 0] [--ab-salt 0]
//
// Serves the versioned /v1 API (see API.md): GET/POST /v1/recommend
// (forwarded by session_id), POST /v1/recommend:batch (scatter-gathered
// by each slot's ring owner), /v1/healthz, /v1/stats, /v1/metrics, and
// the cluster control plane (GET /v1/admin/cluster, POST
// /v1/admin/cluster/join|drain|remove with epoch fencing).
// --manage-replication makes membership changes drive the replication
// data plane (DESIGN.md §12): hand-offs on join/drain, replica
// promotion on remove, shipper rewiring after every change — the
// attached pods must run with --pod-name/--wal. Runs until
// SIGINT/SIGTERM.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/popularity.h"
#include "cluster/gateway.h"
#include "core/session_index.h"
#include "data/synthetic.h"
#include "flags.h"
#include "serving/server.h"

using namespace serenade;

namespace {
std::atomic<bool> g_stop{false};
void HandleSignal(int) { g_stop.store(true); }

// Each comma-separated entry is "port" or "name=port"; a bare port gets
// the default "127.0.0.1:<port>" ring name.
std::vector<BackendEndpoint> ParseBackendList(const std::string& text) {
  std::vector<BackendEndpoint> backends;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    std::string token = text.substr(start, end - start);
    if (!token.empty()) {
      BackendEndpoint backend;
      const size_t eq = token.find('=');
      if (eq != std::string::npos) {
        backend.name = token.substr(0, eq);
        token = token.substr(eq + 1);
      }
      backend.port =
          static_cast<uint16_t>(std::strtoul(token.c_str(), nullptr, 10));
      if (backend.name.empty()) {
        backend.name = "127.0.0.1:" + std::to_string(backend.port);
      }
      backends.push_back(std::move(backend));
    }
    start = end + 1;
  }
  return backends;
}
}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  const size_t num_pods = flags.GetInt("pods", 0);
  const std::string backend_list = flags.GetString("backends");
  if (num_pods == 0 && backend_list.empty()) {
    std::fprintf(stderr,
                 "usage: serenade_gateway (--pods N | --backends P1,P2,...) "
                 "[--port P] [--forward-timeout MS] [--max-attempts N] "
                 "[--hedge-delay MS] [--probe-interval MS] [--no-fallback]\n");
    return 2;
  }

  // The synthetic dataset powers both the in-process pods (index) and
  // the gateway's degraded-mode popularity fallback.
  SyntheticConfig data_config;
  data_config.num_items = flags.GetInt("items", 5000);
  data_config.num_sessions = flags.GetInt("sessions", 20000);
  const Dataset train = GenerateDataset(data_config);

  // Shared slow-request policy: both the gateway and any spawned pods log
  // requests over the threshold, joined by the propagated trace id.
  TraceConfig trace_config;
  trace_config.slow_request_micros = flags.GetInt("slow-request-us", 0);
  trace_config.sample_every_n =
      std::max<uint64_t>(1, flags.GetInt("slow-sample-every", 1));

  std::vector<std::unique_ptr<SerenadeServer>> pods;
  std::vector<BackendEndpoint> backends;

  if (num_pods > 0) {
    auto index = std::make_shared<SessionIndex>(SessionIndex::Build(train, 500));
    ItemCatalog catalog;
    catalog.available.assign(index->num_items(), true);
    catalog.adult.assign(index->num_items(), false);
    for (size_t i = 0; i < num_pods; ++i) {
      ServiceConfig service_config;
      service_config.knn.m =
          std::min<size_t>(500, index->max_sessions_per_item());
      service_config.knn.k = std::min<size_t>(100, service_config.knn.m);
      auto service = SerenadeService::Create(index, catalog, service_config);
      if (!service.ok()) {
        std::fprintf(stderr, "pod %zu: %s\n", i,
                     service.status().ToString().c_str());
        return 1;
      }
      ServerConfig server_config;
      server_config.janitor_interval_ms = 5000;
      server_config.trace = trace_config;
      auto pod = std::make_unique<SerenadeServer>(std::move(service).value(),
                                                  server_config);
      if (Status status = pod->Start(); !status.ok()) {
        std::fprintf(stderr, "pod %zu: %s\n", i, status.ToString().c_str());
        return 1;
      }
      backends.push_back(
          BackendEndpoint{"pod-" + std::to_string(i), pod->port()});
      std::printf("spawned pod-%zu on 127.0.0.1:%u\n", i, pod->port());
      pods.push_back(std::move(pod));
    }
  } else {
    backends = ParseBackendList(backend_list);
  }

  GatewayConfig config;
  config.port = static_cast<uint16_t>(flags.GetInt("port", 8080));
  config.forward_timeout_ms = flags.GetInt("forward-timeout", 1000);
  config.max_attempts = static_cast<uint32_t>(flags.GetInt("max-attempts", 3));
  config.hedge_delay_ms = flags.GetInt("hedge-delay", 0);
  config.health.probe_interval_ms = flags.GetInt("probe-interval", 250);
  config.max_batch_items =
      std::max<uint64_t>(1, flags.GetInt("max-batch-items", 128));
  config.trace = trace_config;
  // Reactor front-door tuning (DESIGN.md §10).
  config.http.max_connections =
      std::max<uint64_t>(1, flags.GetInt("max-connections", 10000));
  config.http.idle_timeout_ms = flags.GetInt("idle-timeout-ms", 60000);
  config.http.request_deadline_ms = flags.GetInt("request-deadline-ms", 0);
  config.http.reactor_threads = std::max<uint64_t>(
      1, flags.GetInt("reactor-threads", config.http.reactor_threads));
  // Elastic fleet data plane (DESIGN.md §12): membership changes run
  // hand-offs / promotion on the pods and rewire their shipping peers.
  config.manage_replication = flags.GetBool("manage-replication", false);
  // Retrieval A/B split (DESIGN.md §13): this share of sessions is
  // sticky-bucketed onto engine=ann (the pods need --embeddings, or the
  // arm degrades to VMIS and counts into gateway_ab_fallbacks_total).
  config.ab_ann_percent =
      static_cast<uint32_t>(std::min<uint64_t>(100, flags.GetInt("ab-ann-percent", 0)));
  config.ab_salt = flags.GetInt("ab-salt", 0);

  std::unique_ptr<Recommender> fallback;
  if (!flags.GetBool("no-fallback", false)) {
    fallback = std::make_unique<PopularityRecommender>(train);
  }

  ClusterGateway gateway(backends, config, std::move(fallback));
  if (Status status = gateway.Start(); !status.ok()) {
    std::fprintf(stderr, "gateway: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf(
      "gateway on 127.0.0.1:%u fronting %zu backend(s) "
      "(timeout=%llums, attempts=%u, hedge=%llums)\n",
      gateway.port(), backends.size(),
      static_cast<unsigned long long>(config.forward_timeout_ms),
      config.max_attempts,
      static_cast<unsigned long long>(config.hedge_delay_ms));

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  const GatewayCounters totals = gateway.counters();
  std::printf(
      "shutting down: %llu requests (%llu forwarded, %llu degraded, "
      "%llu failed, %llu retries)\n",
      static_cast<unsigned long long>(gateway.requests_served()),
      static_cast<unsigned long long>(totals.forwarded_ok),
      static_cast<unsigned long long>(totals.degraded),
      static_cast<unsigned long long>(totals.failed),
      static_cast<unsigned long long>(totals.retries));
  gateway.Stop();
  for (auto& pod : pods) pod->Stop();
  return 0;
}
