// Full-pipeline integration tests: offline build -> binary index file ->
// serving over HTTP -> evaluation, plus the incremental-maintenance path
// serving fresh sessions and the TTL janitor actually evicting state.
#include <atomic>
#include <filesystem>
#include <thread>

#include <gtest/gtest.h>

#include "benchutil/load_generator.h"
#include "benchutil/workload.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "index/index_builder.h"
#include "index/index_format.h"
#include "serving/json.h"
#include "serving/server.h"

namespace serenade {
namespace {

TEST(IntegrationTest, OfflinePipelineToServingToEvaluation) {
  // 1. Offline: generate history, build in parallel, write + reload file.
  SyntheticConfig config;
  config.seed = 1001;
  config.num_items = 1500;
  config.num_sessions = 10000;
  config.num_days = 8;
  Dataset dataset = GenerateDataset(config);
  TrainTestSplit split = SplitLastDays(dataset, 1);

  IndexBuilderOptions builder_options;
  builder_options.max_sessions_per_item = 300;
  builder_options.num_threads = 2;
  SessionIndex built = BuildIndexParallel(split.train, builder_options);

  const std::string path = testing::TempDir() + "/integration.index";
  ASSERT_TRUE(WriteIndexFile(path, built).ok());
  auto loaded = ReadIndexFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto index = std::make_shared<SessionIndex>(std::move(loaded).value());

  // 2. Offline evaluation through the library API (sanity floor).
  KnnConfig knn_config;
  knn_config.m = 300;
  knn_config.k = 100;
  VmisKnn model(index.get(), knn_config);
  EvalOptions eval_options;
  eval_options.max_sessions = 200;
  const EvalResult offline = EvaluateRecommender(model, split.test,
                                                 eval_options);
  EXPECT_GT(offline.metrics.Mrr(), 0.05);

  // 3. Serving: run the test sessions through a real HTTP server and
  //    check that the next item is recommended at the same rate as the
  //    offline HitRate (same model behind both paths).
  ServiceConfig service_config;
  service_config.knn = knn_config;
  service_config.rules.filter_unavailable = false;
  service_config.rules.filter_adult = false;
  service_config.rules.max_items = 20;
  ItemCatalog catalog;
  catalog.available.assign(split.train.num_items(), true);
  catalog.adult.assign(split.train.num_items(), false);
  auto service = SerenadeService::Create(index, catalog, service_config);
  ASSERT_TRUE(service.ok());
  SerenadeServer server(std::move(service).value(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  size_t events = 0, hits = 0, served_sessions = 0;
  for (const SessionData& session : split.test.sessions()) {
    if (served_sessions++ >= 150) break;
    const std::string key = "it-" + std::to_string(session.id);
    for (size_t i = 0; i + 1 < session.items.size(); ++i) {
      auto response = client.Get("/v1/recommend?session_id=" + key +
                                 "&item_id=" +
                                 std::to_string(session.items[i]));
      ASSERT_TRUE(response.ok());
      ASSERT_EQ(response->status, 200);
      auto doc = ParseJson(response->body);
      ASSERT_TRUE(doc.ok());
      ++events;
      for (const JsonValue& value : doc->Find("items")->AsArray()) {
        if (static_cast<ItemId>(value.AsInt()) == session.items[i + 1]) {
          ++hits;
          break;
        }
      }
    }
  }
  ASSERT_GT(events, 100u);
  const double served_hit_rate = static_cast<double>(hits) / events;
  // Offline evaluation cut at @20 as well; rates must be close (the
  // serving path evaluated a subset of sessions).
  EXPECT_NEAR(served_hit_rate, offline.metrics.HitRate(), 0.12);
  server.Stop();
}

TEST(IntegrationTest, JanitorEvictsIdleSessions) {
  SyntheticConfig config;
  config.seed = 1002;
  config.num_items = 200;
  config.num_sessions = 1000;
  config.num_days = 3;
  Dataset train = GenerateDataset(config);
  auto index = std::make_shared<SessionIndex>(SessionIndex::Build(train, 100));

  // Manual clock so TTL expiry is deterministic (atomic: the janitor
  // thread reads it while the test advances it).
  std::atomic<uint64_t> now{1000};
  ServiceConfig service_config;
  service_config.knn.m = 100;
  service_config.knn.k = 50;
  service_config.store.ttl_seconds = 60;
  service_config.store.clock = [&now] { return now.load(); };
  ItemCatalog catalog;
  catalog.available.assign(train.num_items(), true);
  catalog.adult.assign(train.num_items(), false);
  auto service = SerenadeService::Create(index, catalog, service_config);
  ASSERT_TRUE(service.ok());

  ServerConfig server_config;
  server_config.janitor_interval_ms = 30;
  SerenadeServer server(std::move(service).value(), server_config);
  ASSERT_TRUE(server.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Get("/v1/recommend?session_id=idle&item_id=3").ok());
  EXPECT_EQ(server.service().StoreStats().live_entries, 1u);

  now += 120;  // session is now idle past the TTL
  // Wait for a janitor pass.
  for (int i = 0; i < 100 && server.service().StoreStats().live_entries > 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.service().StoreStats().live_entries, 0u);
  server.Stop();
}

TEST(IntegrationTest, UpdatableIndexServesBrandNewItems) {
  // A brand-new item enters the catalog after the nightly build; merged in
  // by a streamed index delta it becomes recommendable without a rebuild.
  SyntheticConfig config;
  config.seed = 1003;
  config.num_items = 300;
  config.num_sessions = 2000;
  config.num_days = 4;
  Dataset train = GenerateDataset(config);

  const SessionIndex base = SessionIndex::Build(train, 200);
  const ItemId new_item = static_cast<ItemId>(train.num_items() + 1);
  // Several fresh sessions pair the new item with item 5.
  IndexDelta delta;
  delta.base_version = 1;
  delta.delta_version = 2;
  for (int i = 0; i < 30; ++i) {
    delta.sessions.push_back(DeltaSession{
        {5, new_item}, train.max_timestamp() + 100 + i, /*observed=*/0});
  }
  auto index = ApplyDeltaToIndex(base, delta);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  KnnConfig knn_config;
  knn_config.m = 200;
  knn_config.k = 50;
  VmisKnn model(&*index, knn_config);
  const auto recs = model.RecommendNext({5}, 20);
  bool found = false;
  for (const ScoredItem& rec : recs) found |= rec.item == new_item;
  EXPECT_TRUE(found) << "freshly ingested item must be recommendable";
}

TEST(IntegrationTest, LoadGeneratorAgainstTwoStickyPods) {
  // Sticky routing: every visitor's requests land on one pod, and the two
  // pods together serve everything without error.
  SyntheticConfig config;
  config.seed = 1004;
  config.num_items = 500;
  config.num_sessions = 3000;
  config.num_days = 4;
  Dataset train = GenerateDataset(config);
  auto index = std::make_shared<SessionIndex>(SessionIndex::Build(train, 200));
  ItemCatalog catalog;
  catalog.available.assign(train.num_items(), true);
  catalog.adult.assign(train.num_items(), false);

  ServiceConfig service_config;
  service_config.knn.m = 200;
  service_config.knn.k = 100;

  std::vector<std::unique_ptr<SerenadeServer>> servers;
  std::vector<uint16_t> ports;
  for (int pod = 0; pod < 2; ++pod) {
    auto service = SerenadeService::Create(index, catalog, service_config);
    ASSERT_TRUE(service.ok());
    servers.push_back(std::make_unique<SerenadeServer>(
        std::move(service).value(), ServerConfig{}));
    ASSERT_TRUE(servers.back()->Start().ok());
    ports.push_back(servers.back()->port());
  }

  WorkloadOptions workload_options;
  workload_options.duration_seconds = 1.0;
  const auto events =
      BuildWorkload(train, RateProfile::Constant(300), workload_options);
  LoadGeneratorOptions load_options;
  load_options.connections_per_server = 3;
  const LoadResult result = RunLoad(events, ports, load_options);

  EXPECT_EQ(result.total_errors, 0u);
  EXPECT_EQ(result.total_requests, events.size());
  const uint64_t served =
      servers[0]->requests_served() + servers[1]->requests_served();
  EXPECT_EQ(served, events.size());
  for (auto& server : servers) server->Stop();
}

}  // namespace
}  // namespace serenade
