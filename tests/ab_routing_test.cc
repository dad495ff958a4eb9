// Live A/B experimentation over the real gateway (cluster/gateway.h +
// testing/sim_cluster.h): sessions are hash-bucketed into retrieval arms,
// the bucket is stamped onto forwarded traffic, pods answer with
// X-Serenade-Engine, and the per-arm read-out adds up. Invariants:
//   * buckets are sticky: the same session key always gets the same arm,
//     and the served engine matches ClusterGateway::AbArmOf,
//   * per-arm request counters sum to the total forwarded count, and an
//     honest 50% split exercises both arms,
//   * a client-specified engine overrides the bucket,
//   * engagement tracking credits the arm whose recommendation the next
//     click landed on,
//   * batch slots are stamped and counted per arm like single requests,
//   * a dead ANN arm (pods without embeddings) degrades every ANN-bucket
//     request to VMIS — zero failed requests, fallbacks counted at both
//     tiers.
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/click_log.h"
#include "serving/http.h"
#include "serving/json.h"
#include "serving/server.h"
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

SimClusterConfig AbConfig(uint32_t ann_percent, bool pods_have_embeddings) {
  SimClusterConfig config;
  config.num_pods = 2;
  config.train = SmallTrainingSet();
  config.knn.m = 50;
  config.knn.k = 10;
  config.gateway.health.probe_interval_ms = 20;
  config.gateway.health.probe_timeout_ms = 250;
  config.gateway.forward_timeout_ms = 2000;
  config.ab.enabled = true;
  config.ab.ann_percent = ann_percent;
  config.ab.salt = 42;
  config.ab.pods_have_embeddings = pods_have_embeddings;
  config.ab.train.dim = 8;
  config.ab.train.epochs = 1;
  config.ab.train.window = 2;
  return config;
}

class GatewayClient {
 public:
  explicit GatewayClient(uint16_t port) : client_(MakeOptions()) {
    EXPECT_TRUE(client_.Connect(port).ok());
  }

  HttpResponse Get(const std::string& target) {
    auto response = client_.Get(target);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? std::move(response).value() : HttpResponse{};
  }

  HttpResponse Post(const std::string& target, const std::string& body) {
    auto response = client_.Post(target, body);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? std::move(response).value() : HttpResponse{};
  }

 private:
  static HttpClientOptions MakeOptions() {
    HttpClientOptions options;
    options.connect_timeout_ms = 2000;
    options.io_timeout_ms = 10000;
    return options;
  }

  HttpClient client_;
};

TEST(AbRoutingTest, StickyBucketsSplitTrafficAndCountersSum) {
  auto cluster = SimCluster::Start(AbConfig(50, /*pods_have_embeddings=*/true));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_TRUE((*cluster)->AwaitHealthy(2, 5000));
  GatewayClient client((*cluster)->gateway().port());

  const size_t kSessions = 30;
  const size_t kClicksPerSession = 3;
  std::set<std::string> arms_seen;
  size_t requests_sent = 0;
  for (size_t s = 0; s < kSessions; ++s) {
    const std::string key = "ab-session-" + std::to_string(s);
    const std::string expected = (*cluster)->gateway().AbArmOf(key);
    for (size_t click = 0; click < kClicksPerSession; ++click) {
      const ItemId item = static_cast<ItemId>(1 + (s + click * 7) % 30);
      HttpResponse response = client.Get("/v1/recommend?session_id=" + key +
                                         "&item_id=" + std::to_string(item));
      ASSERT_EQ(response.status, 200) << response.body;
      ++requests_sent;
      // Sticky: every click of this session serves its assigned arm.
      EXPECT_EQ(response.Header(kEngineHeader), expected)
          << "session " << key << " click " << click;
    }
    arms_seen.insert(expected);
  }
  // A 50% split over 30 sessions must actually exercise both arms.
  EXPECT_EQ(arms_seen.size(), 2u);

  const AbCounters ab = (*cluster)->gateway().ab_counters();
  const GatewayCounters totals = (*cluster)->gateway().counters();
  EXPECT_EQ(ab.requests[0] + ab.requests[1], requests_sent)
      << "per-arm counters must sum to the total";
  EXPECT_EQ(totals.forwarded_ok, requests_sent);
  EXPECT_GT(ab.requests[0], 0u);
  EXPECT_GT(ab.requests[1], 0u);
  EXPECT_EQ(ab.fallbacks, 0u) << "both arms were live";
  EXPECT_EQ(totals.failed, 0u);
  EXPECT_EQ(ab.impressions[0] + ab.impressions[1], requests_sent);

  // The /v1/stats surface exposes the same read-out.
  HttpResponse stats = client.Get("/v1/stats");
  ASSERT_EQ(stats.status, 200);
  auto doc = ParseJson(stats.body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* arms = doc->Find("ab_requests");
  ASSERT_NE(arms, nullptr) << stats.body;
  EXPECT_EQ(static_cast<uint64_t>(arms->Find("vmis")->AsInt()) +
                static_cast<uint64_t>(arms->Find("ann")->AsInt()),
            requests_sent);
}

TEST(AbRoutingTest, ClientEngineOverridesBucketAndEngagementIsCredited) {
  auto cluster = SimCluster::Start(AbConfig(100, /*pods_have_embeddings=*/true));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_TRUE((*cluster)->AwaitHealthy(2, 5000));
  GatewayClient client((*cluster)->gateway().port());

  // 100% ANN bucket, but the client's explicit engine wins.
  HttpResponse forced = client.Get(
      "/v1/recommend?session_id=override&item_id=3&engine=vmis");
  ASSERT_EQ(forced.status, 200);
  EXPECT_EQ(forced.Header(kEngineHeader), "vmis");

  // Engagement: click an item the gateway just recommended to the same
  // session; the tracker must credit the ANN arm that produced it.
  HttpResponse first = client.Get("/v1/recommend?session_id=eng&item_id=5");
  ASSERT_EQ(first.status, 200);
  EXPECT_EQ(first.Header(kEngineHeader), "ann");
  auto doc = ParseJson(first.body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* items = doc->Find("items");
  ASSERT_NE(items, nullptr);
  ASSERT_FALSE(items->AsArray().empty()) << first.body;
  const int64_t shown = items->AsArray()[0].AsInt();

  const AbCounters before = (*cluster)->gateway().ab_counters();
  HttpResponse second = client.Get("/v1/recommend?session_id=eng&item_id=" +
                                   std::to_string(shown));
  ASSERT_EQ(second.status, 200);
  const AbCounters after = (*cluster)->gateway().ab_counters();
  EXPECT_EQ(after.engagements[1], before.engagements[1] + 1)
      << "the click landed on a shown item; the ANN arm gets the credit";
}

TEST(AbRoutingTest, BatchSlotsAreStampedAndCountedPerArm) {
  auto cluster = SimCluster::Start(AbConfig(50, /*pods_have_embeddings=*/true));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_TRUE((*cluster)->AwaitHealthy(2, 5000));
  GatewayClient client((*cluster)->gateway().port());

  std::string body = "{\"requests\":[";
  size_t expected_arm_counts[2] = {0, 0};
  const size_t kSlots = 12;
  for (size_t i = 0; i < kSlots; ++i) {
    const std::string key = "batch-" + std::to_string(i);
    if (i > 0) body += ',';
    body += "{\"session_id\":\"" + key + "\",\"item_id\":" +
            std::to_string(1 + i % 30) + "}";
    const bool ann =
        std::string((*cluster)->gateway().AbArmOf(key)) == "ann";
    ++expected_arm_counts[ann ? 1 : 0];
  }
  body += "]}";

  HttpResponse response = client.Post("/v1/recommend:batch", body);
  ASSERT_EQ(response.status, 200) << response.body;
  auto doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->Find("results")->AsArray().size(), kSlots);
  for (const JsonValue& slot : doc->Find("results")->AsArray()) {
    EXPECT_EQ(slot.Find("error"), nullptr) << SerializeJson(slot);
  }

  const AbCounters ab = (*cluster)->gateway().ab_counters();
  EXPECT_EQ(ab.requests[0], expected_arm_counts[0]);
  EXPECT_EQ(ab.requests[1], expected_arm_counts[1]);
}

TEST(AbRoutingTest, DeadAnnArmDegradesToVmisWithoutFailedRequests) {
  // Pods carry no embedding artifact: every session is bucketed ANN, and
  // every request must still be answered — by VMIS, counted as fallback.
  auto cluster =
      SimCluster::Start(AbConfig(100, /*pods_have_embeddings=*/false));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_TRUE((*cluster)->AwaitHealthy(2, 5000));
  GatewayClient client((*cluster)->gateway().port());

  const size_t kRequests = 20;
  for (size_t i = 0; i < kRequests; ++i) {
    const std::string key = "dead-" + std::to_string(i);
    HttpResponse response = client.Get("/v1/recommend?session_id=" + key +
                                       "&item_id=" +
                                       std::to_string(1 + i % 30));
    ASSERT_EQ(response.status, 200)
        << "a dead ANN arm must never fail user traffic: " << response.body;
    EXPECT_EQ(response.Header(kEngineHeader), "vmis");
  }

  const AbCounters ab = (*cluster)->gateway().ab_counters();
  const GatewayCounters totals = (*cluster)->gateway().counters();
  EXPECT_EQ(totals.failed, 0u);
  EXPECT_EQ(totals.forwarded_ok, kRequests);
  EXPECT_EQ(ab.requests[1], kRequests) << "assigned arm stays ANN";
  EXPECT_EQ(ab.fallbacks, kRequests)
      << "every ANN-arm request was served by VMIS and must be counted";

  // The pod-side safety valve counted too.
  uint64_t pod_fallbacks = 0;
  for (size_t i = 0; i < (*cluster)->num_pods(); ++i) {
    pod_fallbacks += (*cluster)->pod(i)->service().ann_fallbacks_total();
  }
  EXPECT_EQ(pod_fallbacks, kRequests);
}

}  // namespace
}  // namespace serenade
