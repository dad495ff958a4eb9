// /v1/stats is a JSON view of the same MetricsRegistry that renders
// /v1/metrics. For each exporting component — pod, gateway, index
// builder, and a pod with replication attached — this drives some
// traffic, stops the component so nothing moves, renders both formats
// from its registry in-process, and checks that:
//   * every counter and gauge sample of the exposition appears under its
//     derived stats key (and label value) with the same value,
//   * no two families derive the same key, and no family collides with
//     an identity string field.
#include <cstdint>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "data/click_log.h"
#include "freshness/builder_server.h"
#include "obs/metrics.h"
#include "serving/http.h"
#include "serving/json.h"
#include "testing/sim_cluster.h"

namespace serenade {
namespace {

Dataset SmallTrainingSet() {
  std::vector<Click> clicks;
  Timestamp now = 1;
  for (SessionId s = 0; s < 40; ++s) {
    for (size_t i = 0; i < 5; ++i) {
      clicks.push_back(
          Click{s, static_cast<ItemId>(1 + (s * 3 + i * 7) % 30), now++});
    }
  }
  return Dataset::FromClicks(std::move(clicks), /*min_session_length=*/2);
}

SimClusterConfig TwoPodConfig() {
  SimClusterConfig config;
  config.num_pods = 2;
  config.train = SmallTrainingSet();
  config.knn.m = 50;
  config.knn.k = 10;
  config.gateway.health.probe_interval_ms = 20;
  return config;
}

// GET /v1/stats over HTTP, parsed.
JsonValue FetchStats(uint16_t port) {
  HttpClient client;
  EXPECT_TRUE(client.Connect(port).ok());
  auto response = client.Get("/v1/stats");
  EXPECT_TRUE(response.ok());
  if (!response.ok()) return JsonValue::Null();
  EXPECT_EQ(response->status, 200);
  auto doc = ParseJson(response->body);
  EXPECT_TRUE(doc.ok()) << response->body;
  return doc.ok() ? *doc : JsonValue::Null();
}

// Sends single and batched recommends through `port` (a pod or the
// gateway), all answered 200.
void DriveTraffic(uint16_t port) {
  HttpClient client;
  ASSERT_TRUE(client.Connect(port).ok());
  for (int i = 0; i < 6; ++i) {
    auto response = client.Get("/v1/recommend?session_id=s" +
                               std::to_string(i % 3) + "&item_id=" +
                               std::to_string(1 + i));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status, 200) << response->body;
  }
  auto batch = client.Post(
      "/v1/recommend:batch",
      "{\"requests\":[{\"session_id\":\"b1\",\"item_id\":4},"
      "{\"session_id\":\"b2\",\"item_id\":5,\"engine\":\"ann\"}]}");
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->status, 200) << batch->body;
}

// Renders both formats from `registry` and checks that they agree.
// `identity_keys` are the string fields the component appends to its
// stats view; `*stats` receives the parsed registry view.
void ExpectStatsMatchMetrics(const MetricsRegistry& registry,
                             const std::set<std::string>& identity_keys,
                             JsonValue* stats) {
  const std::string exposition = registry.RenderPrometheus();
  auto doc = ParseJson(StatsJson(registry));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  *stats = *doc;

  std::set<std::string> keys;
  std::set<std::string> keys_with_samples;
  bool exported = false;  // the current family is a counter or gauge
  size_t samples = 0;
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name, type;
      fields >> name >> type;
      exported = type == "counter" || type == "gauge";
      if (exported) {
        const std::string key = MetricsRegistry::StatsKey(name);
        EXPECT_TRUE(keys.insert(key).second)
            << "two families derive the stats key " << key;
        EXPECT_EQ(identity_keys.count(key), 0u)
            << "family " << name << " collides with an identity field";
      }
      continue;
    }
    if (line.empty() || line[0] == '#' || !exported) continue;

    // name[{label="value"}] sample
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    const uint64_t value = std::stoull(line.substr(space + 1));
    const size_t brace = series.find('{');
    const std::string key =
        MetricsRegistry::StatsKey(series.substr(0, brace));
    keys_with_samples.insert(key);
    const JsonValue* field = doc->Find(key);
    ASSERT_NE(field, nullptr) << "no stats key for " << line;
    if (brace != std::string::npos) {
      const size_t open = series.find("=\"", brace);
      const std::string label =
          series.substr(open + 2, series.size() - open - 4);  // drops "}
      ASSERT_EQ(field->type(), JsonValue::Type::kObject) << line;
      field = field->Find(label);
      ASSERT_NE(field, nullptr) << "no stats entry for " << line;
    }
    ASSERT_EQ(field->type(), JsonValue::Type::kNumber) << line;
    EXPECT_EQ(static_cast<uint64_t>(field->AsNumber()), value) << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
  // Every stats field is one exported family; nothing else rides along.
  EXPECT_EQ(doc->AsObject().size(), keys_with_samples.size());
}

uint64_t NumberAt(const JsonValue& doc, const std::string& key) {
  const JsonValue* field = doc.Find(key);
  EXPECT_NE(field, nullptr) << key;
  if (field == nullptr) return 0;
  EXPECT_EQ(field->type(), JsonValue::Type::kNumber) << key;
  return static_cast<uint64_t>(field->AsNumber());
}

TEST(StatsViewTest, PodStatsMatchMetrics) {
  auto cluster = SimCluster::Start(TwoPodConfig());
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  SerenadeServer& pod = *(*cluster)->pod(0);
  DriveTraffic(pod.port());
  // The served view carries the identity strings next to the registry.
  const JsonValue served = FetchStats(pod.port());
  for (const char* identity : {"index_source", "index_build_id"}) {
    ASSERT_NE(served.Find(identity), nullptr) << identity;
    EXPECT_EQ(served.Find(identity)->type(), JsonValue::Type::kString);
  }
  pod.Stop();

  JsonValue doc;
  ExpectStatsMatchMetrics(pod.metrics(), {"index_source", "index_build_id"},
                          &doc);
  if (HasFatalFailure()) return;
  EXPECT_GE(NumberAt(doc, "requests"), 7u);
  EXPECT_EQ(NumberAt(doc, "batches"), 1u);
  EXPECT_EQ(NumberAt(doc, "batch_requests"), 2u);
  EXPECT_GT(NumberAt(doc, "index_items"), 0u);
  EXPECT_EQ(NumberAt(doc, "index_base_version"), 1u);
  EXPECT_EQ(NumberAt(doc, "ann_fallbacks"), 1u);
  ASSERT_NE(doc.Find("engine_requests"), nullptr);
  EXPECT_EQ(NumberAt(*doc.Find("engine_requests"), "vmis"), 8u);
}

TEST(StatsViewTest, GatewayStatsMatchMetrics) {
  auto cluster = SimCluster::Start(TwoPodConfig());
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_TRUE((*cluster)->AwaitHealthy(2, 5000));
  ClusterGateway& gateway = (*cluster)->gateway();
  DriveTraffic(gateway.port());
  gateway.Stop();

  JsonValue doc;
  ExpectStatsMatchMetrics(gateway.metrics(), {}, &doc);
  if (HasFatalFailure()) return;
  // The keep-alive read-out the benchmark ledger parses stays top-level.
  EXPECT_GT(NumberAt(doc, "client_acquires"), 0u);
  EXPECT_GT(NumberAt(doc, "client_reuses"), 0u);
  EXPECT_GE(NumberAt(doc, "forwarded_ok"), 7u);
  // Per-backend families render as objects keyed by backend name.
  for (const char* family :
       {"backend_requests", "backend_healthy", "backend_port",
        "backend_index_version", "backend_probe_connects"}) {
    const JsonValue* per_backend = doc.Find(family);
    ASSERT_NE(per_backend, nullptr) << family;
    EXPECT_EQ(per_backend->AsObject().size(), 2u) << family;
  }
  EXPECT_EQ(NumberAt(*doc.Find("backend_port"), "pod-0"),
            (*cluster)->pod_port(0));
}

TEST(StatsViewTest, BuilderStatsMatchMetrics) {
  IndexBuilderConfig config;
  config.builder.base_version = 3;
  config.builder.seal_idle_ms = 100;
  IndexBuilderServer builder(config);
  // Clicks stamped an hour ahead keep the wall-clock freshness gauge at
  // 0, so the two renders cannot straddle a second boundary.
  const uint64_t observed = NowUnixMs() + 3'600'000;
  builder.builder().Ingest("u1", 1, observed);
  builder.builder().Ingest("u1", 2, observed + 10);
  builder.builder().Ingest("u2", 3, observed + 20);
  builder.builder().Ingest("u2", 4, observed + 30);
  auto version = builder.CompactNow(observed + 1000);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  ASSERT_TRUE(builder.Start().ok());
  const JsonValue served = FetchStats(builder.port());
  ASSERT_NE(served.Find("role"), nullptr);
  EXPECT_EQ(served.Find("role")->AsString(), "index-builder");
  builder.Stop();

  JsonValue doc;
  ExpectStatsMatchMetrics(builder.metrics(), {"role"}, &doc);
  if (HasFatalFailure()) return;
  EXPECT_EQ(NumberAt(doc, "builder_clicks_ingested"), 4u);
  EXPECT_EQ(NumberAt(doc, "builder_sealed_sessions"), 2u);
  EXPECT_EQ(NumberAt(doc, "builder_base_version"), 3u);
  EXPECT_EQ(NumberAt(doc, "builder_delta_version"), *version);
  EXPECT_EQ(NumberAt(doc, "builder_watermark_unix_ms"), observed + 30);
}

TEST(StatsViewTest, ReplicatedPodStatsMatchMetrics) {
  const std::string work_dir = testing::TempDir() + "/stats_view_repl";
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);
  SimClusterConfig config = TwoPodConfig();
  config.work_dir = work_dir;
  config.store.sync_every_write = true;
  config.replication.enabled = true;
  config.replication.pod.ship_interval_ms = 5;
  auto cluster = SimCluster::Start(std::move(config));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  SerenadeServer& pod = *(*cluster)->pod(0);
  PodReplication& repl = *(*cluster)->pod_repl(0);
  DriveTraffic(pod.port());
  // Ship every WAL byte so the lag gauges are 0, not a wall-clock age.
  pod.Stop();
  ASSERT_TRUE(repl.shipper().FlushNow().ok());
  repl.Stop();
  ASSERT_EQ(repl.shipper().lag_bytes(), 0u);

  JsonValue doc;
  ExpectStatsMatchMetrics(pod.metrics(), {"index_source", "index_build_id"},
                          &doc);
  if (HasFatalFailure()) return;
  EXPECT_EQ(NumberAt(doc, "repl_peer_port"), (*cluster)->pod_port(1));
  EXPECT_GT(NumberAt(doc, "repl_bytes_shipped"), 0u);
  EXPECT_GT(NumberAt(doc, "repl_batches_shipped"), 0u);
  EXPECT_EQ(NumberAt(doc, "replica_lag_milliseconds"), 0u);
  EXPECT_EQ(NumberAt(doc, "ring_epoch"), 1u);
}

}  // namespace
}  // namespace serenade
