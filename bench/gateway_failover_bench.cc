// Gateway failover benchmark: measures client-visible latency and error
// rates through the ClusterGateway while one backend pod of three is
// killed mid-load — the fleet-tier counterpart of the paper's Figure 3(b)
// load test. The interesting numbers are the p99/p99.5 of the "after
// kill" window (failover + retry cost) and the 5xx count, which must be
// zero: requests either fail over to a ring successor or degrade to the
// popularity fallback.
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/popularity.h"
#include "bench_common.h"
#include "cluster/gateway.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/session_index.h"
#include "data/synthetic.h"
#include "serving/server.h"

using namespace serenade;

namespace {

struct WorkerResult {
  Histogram before_kill;
  Histogram after_kill;
  uint64_t server_errors = 0;  // client-visible 5xx
  uint64_t transport_errors = 0;
  uint64_t requests = 0;
};

}  // namespace

int main() {
  const double scale = bench::ScaleFromEnv();
  bench::PrintHeader("gateway_failover_bench", "Figure 1 / Section 4.2",
                     "p99 through the cluster gateway while one of three "
                     "backend pods is killed mid-load");

  SyntheticConfig data_config;
  data_config.num_items = static_cast<size_t>(2000 * scale);
  data_config.num_sessions = static_cast<size_t>(10000 * scale);
  const Dataset train = GenerateDataset(data_config);
  auto index = std::make_shared<SessionIndex>(SessionIndex::Build(train, 500));
  ItemCatalog catalog;
  catalog.available.assign(index->num_items(), true);
  catalog.adult.assign(index->num_items(), false);

  constexpr size_t kPods = 3;
  std::vector<std::unique_ptr<SerenadeServer>> pods;
  std::vector<BackendEndpoint> backends;
  for (size_t i = 0; i < kPods; ++i) {
    ServiceConfig service_config;
    service_config.knn.m = std::min<size_t>(500, index->max_sessions_per_item());
    service_config.knn.k = std::min<size_t>(100, service_config.knn.m);
    auto service = SerenadeService::Create(index, catalog, service_config);
    if (!service.ok()) {
      std::fprintf(stderr, "pod: %s\n", service.status().ToString().c_str());
      return 1;
    }
    auto pod = std::make_unique<SerenadeServer>(std::move(service).value(),
                                                ServerConfig{});
    if (!pod->Start().ok()) return 1;
    backends.push_back(BackendEndpoint{"pod-" + std::to_string(i), pod->port()});
    pods.push_back(std::move(pod));
  }

  GatewayConfig config;
  config.forward_timeout_ms = 250;
  config.max_attempts = 3;
  config.retry_backoff_ms = 1;
  config.health.probe_interval_ms = 50;
  config.health.probe_timeout_ms = 100;
  ClusterGateway gateway(backends, config,
                         std::make_unique<PopularityRecommender>(train));
  if (!gateway.Start().ok()) {
    std::fprintf(stderr, "gateway failed to start\n");
    return 1;
  }

  constexpr int kClients = 8;
  const int seconds_per_phase = std::max(1, static_cast<int>(2 * scale));
  std::atomic<int> phase{0};  // 0 = warm, 1 = all pods up, 2 = one pod down
  std::atomic<bool> stop{false};
  std::vector<WorkerResult> results(kClients);
  std::vector<std::thread> clients;

  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + c);
      HttpClientOptions options;
      options.connect_timeout_ms = 2000;
      options.io_timeout_ms = 2000;
      HttpClient client(options);
      if (!client.Connect(gateway.port()).ok()) return;
      WorkerResult& out = results[c];
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string session =
            "bench-" + std::to_string(c) + "-" + std::to_string(rng.Below(500));
        const std::string target = "/v1/recommend?session_id=" + session +
                                   "&item_id=" +
                                   std::to_string(rng.Below(train.num_items()));
        Stopwatch stopwatch;
        auto response = client.Get(target);
        const uint64_t micros = stopwatch.ElapsedMicros();
        const int current_phase = phase.load(std::memory_order_relaxed);
        ++out.requests;
        if (!response.ok()) {
          ++out.transport_errors;
          continue;
        }
        if (response->status >= 500) ++out.server_errors;
        if (current_phase == 1) out.before_kill.Record(micros);
        if (current_phase == 2) out.after_kill.Record(micros);
      }
    });
  }

  // Warm-up, then measure with the full fleet, then kill pod-0 and keep
  // measuring through ejection + failover.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  phase.store(1);
  std::this_thread::sleep_for(std::chrono::seconds(seconds_per_phase));
  phase.store(0);
  std::printf("killing pod-0 (port %u)...\n", pods[0]->port());
  pods[0]->Stop();
  phase.store(2);
  std::this_thread::sleep_for(std::chrono::seconds(seconds_per_phase));
  stop.store(true);
  for (auto& thread : clients) thread.join();

  WorkerResult total;
  for (const WorkerResult& result : results) {
    total.before_kill.Merge(result.before_kill);
    total.after_kill.Merge(result.after_kill);
    total.server_errors += result.server_errors;
    total.transport_errors += result.transport_errors;
    total.requests += result.requests;
  }

  bench::PrintSection("client-visible latency (micros)");
  std::printf("all pods up : %s\n", total.before_kill.Summary().c_str());
  std::printf("one pod down: %s\n", total.after_kill.Summary().c_str());

  bench::PrintSection("availability");
  const GatewayCounters totals = gateway.counters();
  std::printf("requests=%llu 5xx=%llu transport_errors=%llu\n",
              static_cast<unsigned long long>(total.requests),
              static_cast<unsigned long long>(total.server_errors),
              static_cast<unsigned long long>(total.transport_errors));
  std::printf("gateway: forwarded=%llu degraded=%llu failed=%llu retries=%llu\n",
              static_cast<unsigned long long>(totals.forwarded_ok),
              static_cast<unsigned long long>(totals.degraded),
              static_cast<unsigned long long>(totals.failed),
              static_cast<unsigned long long>(totals.retries));
  for (const BackendCounters& backend : gateway.backend_counters()) {
    std::printf("  %-8s requests=%llu errors=%llu\n", backend.name.c_str(),
                static_cast<unsigned long long>(backend.requests),
                static_cast<unsigned long long>(backend.errors));
  }
  std::printf("\nexpectation: zero 5xx — requests fail over to ring "
              "successors or degrade to popularity.\n");

  gateway.Stop();
  for (auto& pod : pods) pod->Stop();
  return total.server_errors == 0 ? 0 : 1;
}
