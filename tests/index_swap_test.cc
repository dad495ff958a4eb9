// Swap-under-load: concurrent /recommend traffic while the index is
// hot-swapped must see zero failures, and the published version must be
// observable across /healthz, /stats, and /metrics. Run under ASan and
// TSan by tools/run_sanitized_tests.sh — the point of the RCU snapshot
// design is that a stale scratch recommender can never score against a
// freed index.
#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "index/snapshot.h"
#include "serving/json.h"
#include "serving/server.h"
#include "serving/service.h"

namespace serenade {
namespace {

Dataset MakeDataset(uint64_t seed) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_items = 200;
  config.num_sessions = 1500;
  config.num_days = 4;
  return GenerateDataset(config);
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Service-level swap storm: request threads hammer the facade while the
// main thread publishes fresh snapshots. Exercises the pool version
// tagging and snapshot pinning directly, without socket noise.
TEST(IndexSwapTest, ConcurrentRequestsSurviveRepeatedPublishes) {
  const Dataset train = MakeDataset(21);
  auto manager = IndexManager::CreateFromIndex(
      std::make_shared<const SessionIndex>(SessionIndex::Build(train, 500)));

  ServiceConfig config;
  config.knn.m = 500;
  config.knn.k = 100;
  config.max_pooled_recommenders = 4;  // force pool churn under load
  auto created = SerenadeService::Create(
      manager, GenerateCatalog(train.num_items(), 5), config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto service = std::move(created).value();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const RecommendRequest request{
            "swap-worker-" + std::to_string(t),
            static_cast<ItemId>((t * 31 + i++) % 200), true};
        if (!service->HandleUpdateAndRecommend(request).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        requests.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Publish a stream of fresh snapshots while traffic is in flight.
  for (uint64_t swap = 0; swap < 8; ++swap) {
    const Dataset fresh = MakeDataset(100 + swap);
    ASSERT_TRUE(manager
                    ->Publish(std::make_shared<const SessionIndex>(
                                  SessionIndex::Build(fresh, 500)),
                              IndexManifest{})
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  stop.store(true);
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(requests.load(), 0u);
  EXPECT_EQ(manager->current_version(), 9u);  // boot v1 + 8 publishes
  EXPECT_LE(service->PooledRecommenders(), 4u);
}

// HTTP-level hot swap: a running SerenadeServer switches to a newly built
// index file via POST /v1/admin/index/reload with zero failed requests
// under concurrent load, and the version change is visible on every
// observability surface.
TEST(IndexSwapTest, AdminReloadUnderLoadIsZeroDowntime) {
  const Dataset train_a = MakeDataset(31);
  const Dataset train_b = MakeDataset(32);
  const std::string path_a = TempPath("live_a.index");
  const std::string path_b = TempPath("live_b.index");
  IndexManifest manifest_a;
  manifest_a.version = 1;
  manifest_a.build_id = "build-a";
  IndexManifest manifest_b;
  manifest_b.version = 2;
  manifest_b.build_id = "build-b";
  ASSERT_TRUE(WriteIndexWithManifest(path_a,
                                     SessionIndex::Build(train_a, 500),
                                     manifest_a)
                  .ok());
  ASSERT_TRUE(WriteIndexWithManifest(path_b,
                                     SessionIndex::Build(train_b, 500),
                                     manifest_b)
                  .ok());

  auto manager = IndexManager::CreateFromFile(path_a);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  ServiceConfig config;
  config.knn.m = 500;
  config.knn.k = 100;
  auto service = SerenadeService::Create(
      std::move(manager).value(), GenerateCatalog(train_a.num_items(), 5),
      config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  SerenadeServer server(std::move(service).value(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  HttpClient admin;
  ASSERT_TRUE(admin.Connect(server.port()).ok());

  // Baseline: version 1 everywhere.
  auto health = admin.Get("/v1/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(ParseJson(health->body)->Find("index_version")->AsInt(), 1);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client;
      if (!client.Connect(server.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto response =
            client.Get("/v1/recommend?session_id=load-" + std::to_string(t) +
                       "&item_id=" + std::to_string((t * 17 + i++) % 200));
        if (!response.ok() || response->status != 200) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        requests.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Alternate hot swaps A -> B -> A -> … while the load runs. Every swap
  // must succeed and none may fail a client request.
  std::string last_body;
  for (int swap = 0; swap < 6; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const std::string& target = (swap % 2 == 0) ? path_b : path_a;
    auto response = admin.Post("/v1/admin/index/reload?path=" + target, "");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200) << response->body;
    last_body = response->body;
  }
  stop.store(true);
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(requests.load(), 100u);

  // Final state: the last swap targeted path_a (manifest version 1); the
  // reload response reported it and every surface agrees.
  auto reload_doc = ParseJson(last_body);
  ASSERT_TRUE(reload_doc.ok());
  EXPECT_EQ(reload_doc->Find("index_version")->AsInt(), 1);
  EXPECT_EQ(reload_doc->Find("index_source")->AsString(), path_a);

  health = admin.Get("/v1/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(ParseJson(health->body)->Find("index_version")->AsInt(), 1);

  auto stats = admin.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto stats_doc = ParseJson(stats->body);
  ASSERT_TRUE(stats_doc.ok());
  EXPECT_EQ(stats_doc->Find("index_version")->AsInt(), 1);
  EXPECT_EQ(stats_doc->Find("index_build_id")->AsString(), "build-a");
  EXPECT_EQ(stats_doc->Find("index_reloads")->AsInt(), 6);
  EXPECT_EQ(stats_doc->Find("index_reload_failures")->AsInt(), 0);

  auto metrics = admin.Get("/v1/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("serenade_index_version 1"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("serenade_index_reloads_total 6"),
            std::string::npos);

  // A failed rollout (bad path) is rejected, counted, and the published
  // snapshot stays put.
  auto bad = admin.Post(
      "/v1/admin/index/reload?path=" + TempPath("missing.index"), "");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 404);
  stats = admin.Get("/v1/stats");
  stats_doc = ParseJson(stats->body);
  ASSERT_TRUE(stats_doc.ok());
  EXPECT_EQ(stats_doc->Find("index_version")->AsInt(), 1);
  EXPECT_EQ(stats_doc->Find("index_reload_failures")->AsInt(), 1);

  server.Stop();
  std::filesystem::remove(path_a);
  std::filesystem::remove(ManifestPathFor(path_a));
  std::filesystem::remove(path_b);
  std::filesystem::remove(ManifestPathFor(path_b));
}

// A client-side :batch call holds exactly one snapshot pin per batch
// instead of one per request; hot swaps under batched load must stay
// zero-downtime all the same, and batch slots may never mix snapshots
// mid-batch (the pin is taken once and shared).
TEST(IndexSwapTest, BatchedTrafficSurvivesHotSwaps) {
  const Dataset train_a = MakeDataset(41);
  const Dataset train_b = MakeDataset(42);
  const std::string path_a = TempPath("batched_a.index");
  const std::string path_b = TempPath("batched_b.index");
  ASSERT_TRUE(WriteIndexWithManifest(path_a,
                                     SessionIndex::Build(train_a, 500),
                                     IndexManifest{})
                  .ok());
  ASSERT_TRUE(WriteIndexWithManifest(path_b,
                                     SessionIndex::Build(train_b, 500),
                                     IndexManifest{})
                  .ok());

  auto manager = IndexManager::CreateFromFile(path_a);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  ServiceConfig config;
  config.knn.m = 500;
  config.knn.k = 100;
  auto service = SerenadeService::Create(
      std::move(manager).value(), GenerateCatalog(train_a.num_items(), 5),
      config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  SerenadeServer server(std::move(service).value(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client;
      if (!client.Connect(server.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Alternate single requests and client-side batches so both
        // executor entry points run concurrently with the swaps.
        if (i % 2 == 0) {
          auto response = client.Get(
              "/v1/recommend?session_id=single-" + std::to_string(t) +
              "&item_id=" + std::to_string((t * 13 + i) % 200));
          if (!response.ok() || response->status != 200) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          requests.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::string body = "{\"requests\":[";
          for (int j = 0; j < 4; ++j) {
            if (j > 0) body += ',';
            body += "{\"session_id\":\"batch-" + std::to_string(t) +
                    "\",\"item_id\":" +
                    std::to_string(1 + (t * 29 + i + j) % 200) + "}";
          }
          body += "]}";
          auto response = client.Post("/v1/recommend:batch", body);
          if (!response.ok() || response->status != 200) {
            failures.fetch_add(1, std::memory_order_relaxed);
          } else {
            auto doc = ParseJson(response->body);
            if (!doc.ok()) {
              failures.fetch_add(1, std::memory_order_relaxed);
            } else {
              for (const JsonValue& slot : doc->Find("results")->AsArray()) {
                if (slot.Find("items") == nullptr) {
                  failures.fetch_add(1, std::memory_order_relaxed);
                }
              }
            }
          }
          requests.fetch_add(4, std::memory_order_relaxed);
        }
        ++i;
      }
    });
  }

  HttpClient admin;
  ASSERT_TRUE(admin.Connect(server.port()).ok());
  for (int swap = 0; swap < 6; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const std::string& target = (swap % 2 == 0) ? path_b : path_a;
    auto response = admin.Post("/v1/admin/index/reload?path=" + target, "");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200) << response->body;
  }
  stop.store(true);
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(requests.load(), 100u);
  EXPECT_GT(server.executor().batches_executed(), 0u);

  server.Stop();
  std::filesystem::remove(path_a);
  std::filesystem::remove(ManifestPathFor(path_a));
  std::filesystem::remove(path_b);
  std::filesystem::remove(ManifestPathFor(path_b));
}

}  // namespace
}  // namespace serenade
