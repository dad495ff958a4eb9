// Hot-swap latency benchmark: does an index rollout cost the client
// anything? One serving pod under steady closed-loop /recommend load,
// measured in two phases of equal length:
//   phase A  steady state — no swaps
//   phase B  a POST /v1/admin/index/reload every 500 ms, alternating
//            between two full-size index artifacts
// The RCU snapshot design predicts phase B's p99 stays within noise of
// phase A (the swap is a pointer store; in-flight requests keep their
// pinned snapshot), and zero requests may fail during rollouts.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/histogram.h"
#include "data/synthetic.h"
#include "index/snapshot.h"
#include "serving/server.h"

using namespace serenade;

namespace {

struct PhaseResult {
  Histogram latency_micros;   // client-observed request latency
  uint64_t requests = 0;
  uint64_t failures = 0;
  uint64_t swaps = 0;
};

// Closed-loop load from `threads` keep-alive connections for `seconds`,
// optionally swapping the index every `swap_interval_ms`.
PhaseResult RunPhase(uint16_t port, double seconds, size_t threads,
                     size_t num_items, const std::string& path_a,
                     const std::string& path_b, uint64_t swap_interval_ms) {
  PhaseResult result;
  ShardedHistogram latencies;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> failures{0};

  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      HttpClient client;
      if (!client.Connect(port).ok()) {
        failures.fetch_add(1);
        return;
      }
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string target =
            "/v1/recommend?session_id=bench-" + std::to_string(t) +
            "&item_id=" + std::to_string((t * 131 + i++) % num_items);
        const auto start = std::chrono::steady_clock::now();
        auto response = client.Get(target);
        const auto micros =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (!response.ok() || response->status != 200) {
          failures.fetch_add(1, std::memory_order_relaxed);
        } else {
          latencies.Record(static_cast<uint64_t>(micros));
        }
        requests.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  HttpClient admin;
  const bool swapping = swap_interval_ms > 0 && admin.Connect(port).ok();
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000));
  bool use_b = true;
  while (std::chrono::steady_clock::now() < deadline) {
    if (swapping) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(swap_interval_ms));
      const std::string& target = use_b ? path_b : path_a;
      use_b = !use_b;
      auto response = admin.Post("/v1/admin/index/reload?path=" + target, "");
      if (response.ok() && response->status == 200) {
        ++result.swaps;
      } else {
        std::fprintf(stderr, "reload failed: %s\n",
                     response.ok() ? response->body.c_str()
                                   : response.status().ToString().c_str());
      }
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  stop.store(true);
  for (std::thread& worker : workers) worker.join();

  result.latency_micros = latencies.Merged();
  result.requests = requests.load();
  result.failures = failures.load();
  return result;
}

void PrintPhase(const char* name, const PhaseResult& result, double seconds) {
  std::printf(
      "%-18s %8llu req (%6.0f rps)  %3llu swaps  %llu failures  "
      "p50=%6llu us  p90=%6llu us  p99=%6llu us  p99.9=%7llu us\n",
      name, static_cast<unsigned long long>(result.requests),
      static_cast<double>(result.requests) / seconds,
      static_cast<unsigned long long>(result.swaps),
      static_cast<unsigned long long>(result.failures),
      static_cast<unsigned long long>(result.latency_micros.Percentile(0.50)),
      static_cast<unsigned long long>(result.latency_micros.Percentile(0.90)),
      static_cast<unsigned long long>(result.latency_micros.Percentile(0.99)),
      static_cast<unsigned long long>(
          result.latency_micros.Percentile(0.999)));
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Index hot-swap", "Section 3 (index replication / rollout)",
      "p99 under periodic /v1/admin/index/reload vs steady state on one "
      "pod.");
  const double scale = bench::ScaleFromEnv();

  // Two full-size artifacts to alternate between, as a nightly rollout
  // would (same corpus shape, different seeds).
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/serenade_swap_bench";
  std::filesystem::create_directories(dir);
  const std::string path_a = dir + "/rollout_a.index";
  const std::string path_b = dir + "/rollout_b.index";
  SyntheticConfig data_config;
  data_config.num_items = static_cast<size_t>(10000 * scale);
  data_config.num_sessions = static_cast<size_t>(40000 * scale);
  data_config.num_days = 30;
  uint64_t version = 1;
  for (const std::string& path : {path_a, path_b}) {
    data_config.seed = 0x5a50 + version;
    const Dataset dataset = GenerateDataset(data_config);
    IndexManifest manifest;
    manifest.version = version++;
    manifest.build_id = "swap-bench";
    manifest.source = "synthetic";
    auto written = WriteIndexWithManifest(
        path, SessionIndex::Build(dataset, 500), manifest);
    if (!written.ok()) {
      std::fprintf(stderr, "build %s: %s\n", path.c_str(),
                   written.status().ToString().c_str());
      return 1;
    }
    std::printf("artifact %s: %.1f MB, %llu postings\n", path.c_str(),
                static_cast<double>(written->index_bytes) / 1e6,
                static_cast<unsigned long long>(written->num_postings));
  }

  auto manager = IndexManager::CreateFromFile(path_a);
  if (!manager.ok()) {
    std::fprintf(stderr, "load: %s\n", manager.status().ToString().c_str());
    return 1;
  }
  ServiceConfig service_config;
  service_config.knn.m = 500;
  service_config.knn.k = 100;
  auto service = SerenadeService::Create(
      std::move(manager).value(),
      GenerateCatalog(data_config.num_items, 5), service_config);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  SerenadeServer server(std::move(service).value(), ServerConfig{});
  if (!server.Start().ok()) return 1;

  // CI smoke runs shrink the measured phases via SERENADE_BENCH_SECONDS.
  const double phase_seconds = bench::SecondsFromEnv(10.0);
  const size_t threads = 6;
  std::printf("\npod on port %u; %zu closed-loop connections, %.1fs per "
              "phase\n", server.port(), threads, phase_seconds);

  // Warmup fills the recommender pool and the session store.
  RunPhase(server.port(), std::min(2.0, phase_seconds), threads,
           data_config.num_items, path_a, path_b, 0);

  bench::PrintSection("measured");
  const PhaseResult steady = RunPhase(server.port(), phase_seconds, threads,
                                      data_config.num_items, path_a, path_b,
                                      /*swap_interval_ms=*/0);
  PrintPhase("steady state", steady, phase_seconds);
  const PhaseResult swapping = RunPhase(server.port(), phase_seconds, threads,
                                        data_config.num_items, path_a, path_b,
                                        /*swap_interval_ms=*/500);
  PrintPhase("swap every 500ms", swapping, phase_seconds);
  server.Stop();

  const double steady_p99 = steady.latency_micros.Percentile(0.99);
  const double swap_p99 = swapping.latency_micros.Percentile(0.99);
  const double ratio = steady_p99 > 0 ? swap_p99 / steady_p99 : 0.0;
  std::printf(
      "\nshape check (hot swap is a pointer store; rollouts must not move "
      "the tail):\n  p99 steady=%.0fus vs swapping=%.0fus (ratio %.2fx), "
      "%llu swaps, %llu failed requests -> %s\n",
      steady_p99, swap_p99, ratio,
      static_cast<unsigned long long>(swapping.swaps),
      static_cast<unsigned long long>(swapping.failures),
      (swapping.failures == 0 && ratio < 1.5) ? "REPRODUCED"
                                              : "see numbers above");

  // Machine-readable results for the CI bench-smoke artifact.
  bench::JsonResultWriter json("index_swap");
  json.Add("phase_seconds", phase_seconds);
  json.Add("steady_requests", static_cast<double>(steady.requests));
  json.Add("steady_p50_us",
           static_cast<double>(steady.latency_micros.Percentile(0.50)));
  json.Add("steady_p99_us", steady_p99);
  json.Add("swapping_requests", static_cast<double>(swapping.requests));
  json.Add("swapping_p50_us",
           static_cast<double>(swapping.latency_micros.Percentile(0.50)));
  json.Add("swapping_p99_us", swap_p99);
  json.Add("swaps", static_cast<double>(swapping.swaps));
  json.Add("failures", static_cast<double>(swapping.failures));
  json.Add("p99_ratio", ratio);
  const bool json_ok = json.WriteTo(bench::JsonPathFromEnv());

  std::filesystem::remove_all(dir);
  return json_ok ? 0 : 1;
}
