// Client-side batching benchmark: throughput of the /v1 recommendation API
// with and without request batching, at several client concurrency
// levels (the ISSUE's acceptance bar is the concurrency-16 level).
//
// Per concurrency level, two phases over one shared synthetic index:
//   * serial    — one GET /v1/recommend per HTTP call: the pre-batching
//                 baseline, paying per-request HTTP framing, store
//                 round trip, and snapshot pin.
//   * batched   — 16-request POST /v1/recommend:batch calls: one HTTP
//                 round trip, one store MultiGet/MultiPut, and one
//                 snapshot pin amortised across the batch. Each client
//                 batch executes inline as one service batch; the pod
//                 never coalesces requests across connections.
//
// A final phase measures the executor's single-request path vs. a direct
// service call (no HTTP): what the executor layer costs over the plain
// path. The acceptance bar is within 5%.
//
// Acceptance: batched throughput >= 1.5x serial at concurrency 16.
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/histogram.h"
#include "common/stopwatch.h"
#include "core/session_index.h"
#include "data/synthetic.h"
#include "serving/batch_executor.h"
#include "serving/server.h"

using namespace serenade;

namespace {

constexpr size_t kClientBatch = 16;
constexpr size_t kConcurrencyLevels[] = {4, 16};
constexpr size_t kAcceptanceConcurrency = 16;

struct LoadResult {
  uint64_t requests = 0;  // recommendations produced
  uint64_t errors = 0;
  double seconds = 0;
  Histogram latency;  // per HTTP call, micros

  double Rps() const { return seconds > 0 ? requests / seconds : 0; }
};

std::unique_ptr<SerenadeService> MakeService(
    const std::shared_ptr<SessionIndex>& index, const ItemCatalog& catalog) {
  ServiceConfig config;
  config.knn.m = std::min<size_t>(500, index->max_sessions_per_item());
  config.knn.k = std::min<size_t>(100, config.knn.m);
  auto service = SerenadeService::Create(index, catalog, config);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n", service.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(service).value();
}

// Drives `server` from `concurrency` threads for `seconds`. When
// `batch_size` is 1 each thread issues single GETs; otherwise it POSTs
// client-side batches of that many requests.
LoadResult DriveLoad(SerenadeServer& server, size_t concurrency,
                     size_t batch_size, size_t num_items, double seconds) {
  std::atomic<bool> stop{false};
  std::vector<LoadResult> per_thread(concurrency);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < concurrency; ++t) {
    threads.emplace_back([&, t] {
      LoadResult& result = per_thread[t];
      HttpClient client;
      if (!client.Connect(server.port()).ok()) {
        result.errors = 1;
        return;
      }
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Stopwatch call;
        if (batch_size <= 1) {
          const std::string target =
              "/v1/recommend?session_id=bench-" + std::to_string(t) +
              "&item_id=" + std::to_string(1 + (t * 31 + i) % num_items);
          auto response = client.Get(target);
          if (!response.ok() || response->status != 200) {
            ++result.errors;
          } else {
            ++result.requests;
          }
        } else {
          std::string body = "{\"requests\":[";
          for (size_t j = 0; j < batch_size; ++j) {
            if (j > 0) body += ',';
            // Spread the batch over several sessions like concurrent
            // frontends would; duplicates exercise in-batch chaining.
            body += "{\"session_id\":\"bench-" + std::to_string(t) + "-" +
                    std::to_string(j % 4) + "\",\"item_id\":" +
                    std::to_string(1 + (t * 31 + i + j) % num_items) + "}";
          }
          body += "]}";
          auto response = client.Post("/v1/recommend:batch", body);
          if (!response.ok() || response->status != 200) {
            result.errors += batch_size;
          } else {
            result.requests += batch_size;
          }
        }
        result.latency.Record(call.ElapsedMicros());
        ++i;
      }
    });
  }

  Stopwatch wall;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<uint64_t>(seconds * 1000)));
  stop.store(true);
  for (auto& thread : threads) thread.join();

  LoadResult total;
  total.seconds = wall.ElapsedMicros() / 1e6;
  for (const LoadResult& result : per_thread) {
    total.requests += result.requests;
    total.errors += result.errors;
    total.latency.Merge(result.latency);
  }
  return total;
}

void PrintLoad(const char* label, const LoadResult& result) {
  std::printf("  %s: %llu requests in %.2fs -> %.0f req/s (%llu errors)\n",
              label, static_cast<unsigned long long>(result.requests),
              result.seconds, result.Rps(),
              static_cast<unsigned long long>(result.errors));
  std::printf("    per-call latency p50=%lluus p99=%lluus\n",
              static_cast<unsigned long long>(result.latency.Percentile(0.5)),
              static_cast<unsigned long long>(result.latency.Percentile(0.99)));
}

}  // namespace

int main() {
  const double scale = bench::ScaleFromEnv();
  const double seconds = bench::SecondsFromEnv(5.0);
  bench::PrintHeader(
      "recommend_batch_bench", "Section 4 (serving latency/throughput)",
      "client-batched /v1 API vs the serial request path");

  SyntheticConfig data_config;
  data_config.num_items = static_cast<size_t>(2000 * scale);
  data_config.num_sessions = static_cast<size_t>(10000 * scale);
  const Dataset train = GenerateDataset(data_config);
  auto index = std::make_shared<SessionIndex>(SessionIndex::Build(train, 500));
  ItemCatalog catalog;
  catalog.available.assign(index->num_items(), true);
  catalog.adult.assign(index->num_items(), false);
  const size_t num_items = std::max<size_t>(1, index->num_items() - 1);

  bench::JsonResultWriter json("recommend_batch_bench");
  double acceptance_speedup = 0;
  uint64_t total_errors = 0;

  for (const size_t concurrency : kConcurrencyLevels) {
    bench::PrintSection(
        ("concurrency " + std::to_string(concurrency)).c_str());

    LoadResult serial;
    {
      SerenadeServer server(MakeService(index, catalog), ServerConfig{});
      if (!server.Start().ok()) return 1;
      serial = DriveLoad(server, concurrency, 1, num_items, seconds);
      server.Stop();
    }
    PrintLoad("serial (1 request per HTTP call)", serial);

    LoadResult batched;
    {
      SerenadeServer server(MakeService(index, catalog), ServerConfig{});
      if (!server.Start().ok()) return 1;
      batched = DriveLoad(server, concurrency, kClientBatch, num_items,
                          seconds);
      server.Stop();
    }
    PrintLoad("batched (16-request :batch calls)", batched);

    const double speedup = serial.Rps() > 0 ? batched.Rps() / serial.Rps() : 0;
    std::printf("  throughput speedup over serial: %.2fx\n", speedup);
    if (concurrency == kAcceptanceConcurrency) {
      acceptance_speedup = speedup;
      std::printf("  (acceptance level: target >= 1.5x)\n");
    }
    total_errors += serial.errors + batched.errors;

    const std::string suffix = "_c" + std::to_string(concurrency);
    json.Add("serial_rps" + suffix, serial.Rps());
    json.Add("serial_p99_us" + suffix,
             static_cast<double>(serial.latency.Percentile(0.99)));
    json.Add("batched_rps" + suffix, batched.Rps());
    json.Add("batched_call_p99_us" + suffix,
             static_cast<double>(batched.latency.Percentile(0.99)));
    json.Add("speedup_x" + suffix, speedup);
  }

  // --- pass-through overhead: executor vs direct service -------------------
  bench::PrintSection("pass-through overhead (no HTTP)");
  double direct_us = 0, passthrough_us = 0;
  {
    auto service = MakeService(index, catalog);
    BatchExecutor executor(service.get());
    const size_t iterations =
        std::max<size_t>(2000, static_cast<size_t>(20000 * scale));

    // Alternate the two paths within one loop — and which goes first
    // each iteration — so cache warmth for the (shared) queried item is
    // split evenly; distinct sessions keep the store workload identical.
    uint64_t direct_total = 0, pass_total = 0;
    for (size_t i = 0; i < iterations; ++i) {
      const std::string suffix = std::to_string(i % 64);
      const ItemId item = static_cast<ItemId>(1 + i % num_items);
      const RecommendRequest direct_request{"direct-" + suffix, item, true};
      const RecommendRequest pass_request{"pass-" + suffix, item, true};
      auto run_direct = [&] {
        Stopwatch watch;
        (void)service->HandleUpdateAndRecommend(direct_request);
        direct_total += watch.ElapsedMicros();
      };
      auto run_pass = [&] {
        Stopwatch watch;
        (void)executor.Execute(pass_request);
        pass_total += watch.ElapsedMicros();
      };
      if (i % 2 == 0) {
        run_direct();
        run_pass();
      } else {
        run_pass();
        run_direct();
      }
    }
    direct_us = static_cast<double>(direct_total) / iterations;
    passthrough_us = static_cast<double>(pass_total) / iterations;
  }
  const double overhead_pct =
      direct_us > 0 ? (passthrough_us / direct_us - 1.0) * 100.0 : 0;
  std::printf(
      "  direct %.2fus/req, executor pass-through %.2fus/req -> %+.2f%% "
      "(target within 5%%)\n",
      direct_us, passthrough_us, overhead_pct);

  json.Add("speedup_x", acceptance_speedup);
  json.Add("errors", static_cast<double>(total_errors));
  json.Add("passthrough_overhead_pct", overhead_pct);
  if (!json.WriteTo(bench::JsonPathFromEnv())) return 1;
  return 0;
}
