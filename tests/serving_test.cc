#include <atomic>
#include <filesystem>
#include <set>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "serving/business_rules.h"
#include "serving/json.h"
#include "serving/router.h"
#include "serving/server.h"
#include "serving/service.h"
#include "data/synthetic.h"

namespace serenade {
namespace {

// --- business rules ---------------------------------------------------------

ItemCatalog SmallCatalog() {
  ItemCatalog catalog;
  catalog.available = {true, false, true, true, true};
  catalog.adult = {false, false, true, false, false};
  return catalog;
}

std::vector<ScoredItem> Candidates() {
  return {{0, 5.0f}, {1, 4.0f}, {2, 3.0f}, {3, 2.0f}, {4, 1.0f}, {99, 0.5f}};
}

TEST(BusinessRulesTest, FiltersUnavailableAndAdult) {
  const auto filtered =
      ApplyBusinessRules(Candidates(), SmallCatalog(), BusinessRulesConfig{});
  std::set<ItemId> items;
  for (const ScoredItem& item : filtered) items.insert(item.item);
  EXPECT_EQ(items, (std::set<ItemId>{0, 3, 4}));
}

TEST(BusinessRulesTest, OutOfCatalogDropped) {
  const auto filtered =
      ApplyBusinessRules(Candidates(), SmallCatalog(), BusinessRulesConfig{});
  for (const ScoredItem& item : filtered) EXPECT_LT(item.item, 5u);
}

TEST(BusinessRulesTest, RespectsMaxItemsAndOrder) {
  BusinessRulesConfig config;
  config.max_items = 2;
  const auto filtered =
      ApplyBusinessRules(Candidates(), SmallCatalog(), config);
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0].item, 0u);
  EXPECT_EQ(filtered[1].item, 3u);
}

TEST(BusinessRulesTest, FiltersCanBeDisabled) {
  BusinessRulesConfig config;
  config.filter_unavailable = false;
  config.filter_adult = false;
  const auto filtered =
      ApplyBusinessRules(Candidates(), SmallCatalog(), config);
  ASSERT_EQ(filtered.size(), 5u);  // only the out-of-catalog item dropped
}

// --- session codec ----------------------------------------------------------

TEST(SessionCodecTest, RoundTrip) {
  const EvolvingSession session = {1, 22, 333, 4444};
  EXPECT_EQ(DecodeSession(EncodeSession(session)), session);
  EXPECT_EQ(EncodeSession({}), "");
  EXPECT_TRUE(DecodeSession("").empty());
}

TEST(SessionCodecTest, MalformedTokensSkipped) {
  EXPECT_EQ(DecodeSession("1,x,3"), (EvolvingSession{1, 3}));
  EXPECT_EQ(DecodeSession(",,5"), (EvolvingSession{5}));
}

TEST(SessionCodecTest, EmptyAndSeparatorOnlyInputs) {
  EXPECT_TRUE(DecodeSession("").empty());
  EXPECT_TRUE(DecodeSession(",").empty());
  EXPECT_TRUE(DecodeSession(",,,").empty());
}

TEST(SessionCodecTest, StrayCommasAroundValidTokens) {
  EXPECT_EQ(DecodeSession("7,"), (EvolvingSession{7}));    // trailing
  EXPECT_EQ(DecodeSession(",7"), (EvolvingSession{7}));    // leading
  EXPECT_EQ(DecodeSession("7,,8"), (EvolvingSession{7, 8}));  // double
}

TEST(SessionCodecTest, OverflowTokenDropped) {
  // 99999999999 exceeds uint32_t; it must be skipped, not wrapped, so a
  // corrupt store entry cannot alias a real item id.
  EXPECT_TRUE(DecodeSession("99999999999").empty());
  EXPECT_EQ(DecodeSession("1,99999999999,2"), (EvolvingSession{1, 2}));
  EXPECT_EQ(DecodeSession("4294967295"),
            (EvolvingSession{4294967295u}));  // uint32_t max still fits
}

TEST(SessionCodecTest, MaxLengthStoredSessionRoundTrips) {
  EvolvingSession session(ServiceConfig{}.max_stored_session_length);
  for (size_t i = 0; i < session.size(); ++i) {
    session[i] = static_cast<ItemId>(i * 2654435761u);  // spread digits
  }
  EXPECT_EQ(DecodeSession(EncodeSession(session)), session);
}

// --- router -----------------------------------------------------------------

TEST(RouterTest, StableAssignment) {
  StickySessionRouter router(4);
  for (const std::string key : {"user-a", "user-b", "x"}) {
    const size_t first = router.ServerFor(key);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(router.ServerFor(key), first);
    EXPECT_LT(first, 4u);
  }
}

TEST(RouterTest, ReasonablyBalanced) {
  StickySessionRouter router(4);
  std::vector<size_t> counts(4, 0);
  for (int i = 0; i < 40000; ++i) {
    ++counts[router.ServerFor("session-" + std::to_string(i))];
  }
  for (size_t count : counts) {
    EXPECT_GT(count, 9000u);
    EXPECT_LT(count, 11000u);
  }
}

// --- service ----------------------------------------------------------------

class ServiceTest : public testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig data_config;
    data_config.seed = 99;
    data_config.num_items = 300;
    data_config.num_sessions = 3000;
    data_config.num_days = 5;
    train_ = GenerateDataset(data_config);
    index_ = std::make_shared<SessionIndex>(SessionIndex::Build(train_, 500));
    catalog_ = GenerateCatalog(train_.num_items(), 5);

    ServiceConfig config;
    config.knn.m = 500;
    config.knn.k = 100;
    auto service = SerenadeService::Create(index_, catalog_, config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(service).value();
  }

  Dataset train_;
  std::shared_ptr<SessionIndex> index_;
  ItemCatalog catalog_;
  std::unique_ptr<SerenadeService> service_;
};

TEST_F(ServiceTest, UpdateAccumulatesSessionState) {
  for (ItemId item : {5u, 6u, 7u}) {
    auto result = service_->HandleUpdateAndRecommend(
        RecommendRequest{"visitor-1", item, true});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  auto session = service_->GetSession("visitor-1");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(*session, (EvolvingSession{5, 6, 7}));
}

TEST_F(ServiceTest, RecommendationsRespectBusinessRules) {
  auto result = service_->HandleUpdateAndRecommend(
      RecommendRequest{"visitor-2", 1, true});
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->size(), 21u);
  for (const ScoredItem& item : *result) {
    ASSERT_LT(item.item, catalog_.num_items());
    EXPECT_TRUE(catalog_.available[item.item]);
    EXPECT_FALSE(catalog_.adult[item.item]);
  }
}

TEST_F(ServiceTest, DepersonalisedUsesOnlyCurrentItem) {
  // Build up history, then issue a no-consent request for a fresh item;
  // the result must equal a fresh session seeing only that item.
  for (ItemId item : {10u, 11u, 12u}) {
    ASSERT_TRUE(service_
                    ->HandleUpdateAndRecommend(
                        RecommendRequest{"consenting", item, true})
                    .ok());
  }
  auto depersonalised = service_->HandleUpdateAndRecommend(
      RecommendRequest{"consenting", 42, false});
  auto fresh = service_->HandleUpdateAndRecommend(
      RecommendRequest{"brand-new-visitor", 42, true});
  ASSERT_TRUE(depersonalised.ok());
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(depersonalised->size(), fresh->size());
  for (size_t i = 0; i < fresh->size(); ++i) {
    EXPECT_EQ((*depersonalised)[i].item, (*fresh)[i].item);
  }
}

TEST_F(ServiceTest, InvalidRequestsRejected) {
  EXPECT_FALSE(
      service_->HandleUpdateAndRecommend(RecommendRequest{"", 1, true}).ok());
  EXPECT_FALSE(service_
                   ->HandleUpdateAndRecommend(
                       RecommendRequest{"x", kInvalidItem, true})
                   .ok());
}

TEST_F(ServiceTest, RejectsMLargerThanIndex) {
  ServiceConfig config;
  config.knn.m = 10000;  // index built with 500
  config.knn.k = 100;
  auto service = SerenadeService::Create(index_, catalog_, config);
  EXPECT_FALSE(service.ok());
}

TEST_F(ServiceTest, RejectsSessionLengthBeyondStoredPosition) {
  ServiceConfig config;
  config.knn.m = 500;
  config.knn.k = 100;
  config.knn.max_session_length = kMaxVmisSessionLength + 1;
  auto service = SerenadeService::Create(index_, catalog_, config);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServiceTest, StoredSessionLengthCapped) {
  ServiceConfig config;
  config.knn.m = 500;
  config.knn.k = 100;
  config.max_stored_session_length = 5;
  auto service = SerenadeService::Create(index_, catalog_, config);
  ASSERT_TRUE(service.ok());
  for (ItemId item = 0; item < 20; ++item) {
    ASSERT_TRUE((*service)
                    ->HandleUpdateAndRecommend(
                        RecommendRequest{"chatty", item, true})
                    .ok());
  }
  auto session = (*service)->GetSession("chatty");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(*session, (EvolvingSession{15, 16, 17, 18, 19}));
}

TEST_F(ServiceTest, SessionsSurviveServiceRestartWithWal) {
  // The paper deliberately accepts session loss on pod failure; the store
  // nevertheless supports WAL durability, which this test exercises
  // through the service facade (restart -> evolving session intact).
  const std::string wal_path = testing::TempDir() + "/service_sessions.wal";
  std::filesystem::remove(wal_path);

  ServiceConfig config;
  config.knn.m = 500;
  config.knn.k = 100;
  config.store.wal_path = wal_path;
  {
    auto service = SerenadeService::Create(index_, catalog_, config);
    ASSERT_TRUE(service.ok());
    for (ItemId item : {8u, 9u, 10u}) {
      ASSERT_TRUE((*service)
                      ->HandleUpdateAndRecommend(
                          RecommendRequest{"durable", item, true})
                      .ok());
    }
  }  // service (and store) destroyed: flushes the WAL

  auto restarted = SerenadeService::Create(index_, catalog_, config);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  auto session = (*restarted)->GetSession("durable");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(*session, (EvolvingSession{8, 9, 10}));

  // The restored session keeps evolving seamlessly.
  ASSERT_TRUE((*restarted)
                  ->HandleUpdateAndRecommend(
                      RecommendRequest{"durable", 11, true})
                  .ok());
  EXPECT_EQ(*(*restarted)->GetSession("durable"),
            (EvolvingSession{8, 9, 10, 11}));
  std::filesystem::remove(wal_path);
}

// --- end-to-end over HTTP ----------------------------------------------------

TEST_F(ServiceTest, EndToEndOverHttp) {
  ServiceConfig config;
  config.knn.m = 500;
  config.knn.k = 100;
  auto service = SerenadeService::Create(index_, catalog_, config);
  ASSERT_TRUE(service.ok());
  SerenadeServer server(std::move(service).value(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  // Health check.
  auto health = client.Get("/v1/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);

  // Three clicks in one session; responses must be valid JSON with <= 21
  // items and matching scores arrays.
  for (ItemId item : {3u, 4u, 5u}) {
    auto response = client.Get("/v1/recommend?session_id=web-1&item_id=" +
                               std::to_string(item));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status, 200) << response->body;
    auto doc = ParseJson(response->body);
    ASSERT_TRUE(doc.ok()) << response->body;
    const JsonValue* items = doc->Find("items");
    const JsonValue* scores = doc->Find("scores");
    ASSERT_NE(items, nullptr);
    ASSERT_NE(scores, nullptr);
    EXPECT_LE(items->AsArray().size(), 21u);
    EXPECT_EQ(items->AsArray().size(), scores->AsArray().size());
  }

  // The server kept session state across requests.
  EXPECT_EQ(server.service().GetSession("web-1")->size(), 3u);

  // Bad requests.
  EXPECT_EQ(client.Get("/v1/recommend")->status, 400);
  EXPECT_EQ(client.Get("/v1/recommend?session_id=x&item_id=abc")->status, 400);
  EXPECT_EQ(client.Get("/nope")->status, 404);

  // Stats endpoint reports traffic.
  auto stats = client.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto stats_doc = ParseJson(stats->body);
  ASSERT_TRUE(stats_doc.ok());
  EXPECT_GE(stats_doc->Find("requests")->AsInt(), 7);

  server.Stop();
}

TEST_F(ServiceTest, MetricsEndpointExposesPrometheusFormat) {
  ServiceConfig config;
  config.knn.m = 500;
  config.knn.k = 100;
  auto service = SerenadeService::Create(index_, catalog_, config);
  ASSERT_TRUE(service.ok());
  SerenadeServer server(std::move(service).value(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Get("/v1/recommend?session_id=m&item_id=3").ok());
  }
  auto metrics = client.Get("/v1/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->content_type.find("text/plain"), std::string::npos);
  // Prometheus exposition basics: TYPE lines, counters and the latency
  // summary with quantile labels.
  EXPECT_NE(metrics->body.find("# TYPE serenade_requests_total counter"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("serenade_store_writes_total 5"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("serenade_live_sessions 1"),
            std::string::npos);
  EXPECT_NE(metrics->body.find(
                "serenade_recommend_latency_microseconds{quantile=\"0.9\"}"),
            std::string::npos);
  EXPECT_NE(metrics->body.find(
                "serenade_recommend_latency_microseconds_count 5"),
            std::string::npos);
  // Per-stage latency attribution: every pod stage that ran surfaces as
  // a labeled member of the stage-duration family.
  EXPECT_NE(metrics->body.find("# TYPE serenade_stage_duration_microseconds "
                               "summary"),
            std::string::npos);
  for (const char* stage :
       {"parse", "store_put", "snapshot_pin", "knn_retrieve", "rank",
        "serialize"}) {
    EXPECT_NE(
        metrics->body.find("serenade_stage_duration_microseconds_count{stage"
                           "=\"" +
                           std::string(stage) + "\"} 5"),
        std::string::npos)
        << "missing stage " << stage << " in:\n"
        << metrics->body;
  }
  server.Stop();
}

TEST_F(ServiceTest, RecommendEchoesTraceId) {
  ServiceConfig config;
  config.knn.m = 500;
  config.knn.k = 100;
  auto service = SerenadeService::Create(index_, catalog_, config);
  ASSERT_TRUE(service.ok());
  SerenadeServer server(std::move(service).value(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  // No inbound id: the pod mints one and echoes it.
  auto minted = client.Get("/v1/recommend?session_id=t&item_id=3");
  ASSERT_TRUE(minted.ok());
  EXPECT_TRUE(IsValidTraceId(minted->Header("X-Serenade-Trace-Id")))
      << "'" << minted->Header("X-Serenade-Trace-Id") << "'";

  // Inbound id (as stamped by the gateway): adopted verbatim.
  auto adopted = client.Get("/v1/recommend?session_id=t&item_id=4",
                            {{"X-Serenade-Trace-Id", "abad1dea00000001"}});
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted->Header("X-Serenade-Trace-Id"), "abad1dea00000001");
  server.Stop();
}

TEST_F(ServiceTest, ConsentFlagOverHttp) {
  ServiceConfig config;
  config.knn.m = 500;
  config.knn.k = 100;
  auto service = SerenadeService::Create(index_, catalog_, config);
  ASSERT_TRUE(service.ok());
  SerenadeServer server(std::move(service).value(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto response =
      client.Get("/v1/recommend?session_id=p&item_id=7&consent=false");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  server.Stop();
}

// --- versioned /v1 API -------------------------------------------------------

class V1ApiTest : public ServiceTest {
 protected:
  void StartServer(ServerConfig server_config = {}) {
    ServiceConfig config;
    config.knn.m = 500;
    config.knn.k = 100;
    auto service = SerenadeService::Create(index_, catalog_, config);
    ASSERT_TRUE(service.ok());
    server_ = std::make_unique<SerenadeServer>(std::move(service).value(),
                                               server_config);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect(server_->port()).ok());
  }
  void TearDown() override {
    if (server_) server_->Stop();
  }

  std::unique_ptr<SerenadeServer> server_;
  HttpClient client_;
};

TEST_F(V1ApiTest, PostRecommendMatchesGet) {
  StartServer();
  auto get = client_.Get("/v1/recommend?session_id=g&item_id=9");
  auto post = client_.Post("/v1/recommend",
                           "{\"session_id\":\"p\",\"item_id\":9}");
  ASSERT_TRUE(get.ok());
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->status, 200);
  EXPECT_EQ(post->body, get->body);
}

TEST_F(V1ApiTest, ErrorEnvelopeShapes) {
  StartServer();
  // 400: missing parameter on the GET form.
  auto missing = client_.Get("/v1/recommend?item_id=3");
  EXPECT_EQ(missing->status, 400);
  EXPECT_NE(missing->body.find("\"code\":\"bad_request\""),
            std::string::npos);
  // Every envelope from a routed request carries the echoed trace id.
  auto doc = ParseJson(missing->body);
  ASSERT_TRUE(doc.ok()) << missing->body;
  const JsonValue* error = doc->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("trace_id")->AsString(),
            missing->Header("X-Serenade-Trace-Id"));

  // 400: malformed JSON body.
  auto garbage = client_.Post("/v1/recommend", "{not json");
  EXPECT_EQ(garbage->status, 400);
  EXPECT_NE(garbage->body.find("\"error\""), std::string::npos);

  // 404: unknown route.
  auto unknown = client_.Get("/v2/recommend");
  EXPECT_EQ(unknown->status, 404);
  EXPECT_NE(unknown->body.find("\"code\":\"not_found\""), std::string::npos);

  // 405: wrong method, with Allow.
  auto wrong = client_.Post("/v1/healthz", "{}");
  EXPECT_EQ(wrong->status, 405);
  EXPECT_EQ(wrong->Header("Allow"), "GET");
}

TEST_F(V1ApiTest, BatchEndpointPreservesOrderAndIsolatesFailures) {
  StartServer();
  const std::string body =
      "{\"requests\":["
      "{\"session_id\":\"b1\",\"item_id\":3},"
      "{\"item_id\":4},"  // missing session_id -> per-slot error
      "{\"session_id\":\"b2\",\"item_id\":\"x\"},"  // bad item -> error
      "{\"session_id\":\"b3\",\"item_id\":5}"
      "]}";
  auto response = client_.Post("/v1/recommend:batch", body);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto doc = ParseJson(response->body);
  ASSERT_TRUE(doc.ok()) << response->body;
  const JsonValue* results = doc->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->AsArray().size(), 4u);

  const auto& slots = results->AsArray();
  EXPECT_NE(slots[0].Find("items"), nullptr);
  ASSERT_NE(slots[1].Find("error"), nullptr);
  EXPECT_EQ(slots[1].Find("error")->Find("code")->AsString(), "bad_request");
  ASSERT_NE(slots[2].Find("error"), nullptr);
  EXPECT_NE(slots[3].Find("items"), nullptr);

  // The good slots updated their sessions; the bad ones created none.
  EXPECT_TRUE(server_->service().GetSession("b1").ok());
  EXPECT_TRUE(server_->service().GetSession("b3").ok());
  EXPECT_FALSE(server_->service().GetSession("b2").ok());
}

// One :batch call attributes its store, pin, kNN and rank time: each
// stage series gains exactly one sample (per-slot kNN and rank spans
// accumulate into the call's one sample).
TEST_F(V1ApiTest, BatchCallRecordsEveryStage) {
  StartServer();
  auto response = client_.Post(
      "/v1/recommend:batch",
      "{\"requests\":[{\"session_id\":\"s1\",\"item_id\":3},"
      "{\"session_id\":\"s2\",\"item_id\":4},"
      "{\"session_id\":\"s1\",\"item_id\":5}]}");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  const std::string metrics = server_->metrics().RenderPrometheus();
  for (const char* stage : {"parse", "store_get", "store_put", "snapshot_pin",
                            "knn_retrieve", "rank", "serialize"}) {
    EXPECT_NE(metrics.find("serenade_stage_duration_microseconds_count{stage"
                           "=\"" + std::string(stage) + "\"} 1"),
              std::string::npos)
        << "stage " << stage << " in:\n" << metrics;
  }
}

TEST_F(V1ApiTest, OversizedBatchGets413) {
  ServerConfig server_config;
  server_config.max_batch_items = 2;
  StartServer(server_config);
  const std::string body =
      "{\"requests\":["
      "{\"session_id\":\"a\",\"item_id\":1},"
      "{\"session_id\":\"b\",\"item_id\":2},"
      "{\"session_id\":\"c\",\"item_id\":3}"
      "]}";
  auto response = client_.Post("/v1/recommend:batch", body);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 413);
  EXPECT_NE(response->body.find("\"code\":\"payload_too_large\""),
            std::string::npos);
}

TEST_F(V1ApiTest, MicroBatchingServerServesConcurrentLoad) {
  // The default server under concurrent single-click load: every request
  // runs inline on its connection, so each session's clicks land in the
  // order its client sent them.
  StartServer();

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 10;
  auto item_for = [](size_t t, size_t i) {
    return static_cast<ItemId>(1 + (t * kPerThread + i) % 200);
  };
  std::atomic<size_t> errors{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client;
      if (!client.Connect(server_->port()).ok()) {
        errors.fetch_add(kPerThread);
        return;
      }
      for (size_t i = 0; i < kPerThread; ++i) {
        auto response =
            client.Get("/v1/recommend?session_id=load-" + std::to_string(t) +
                       "&item_id=" + std::to_string(item_for(t, i)));
        if (!response.ok() || response->status != 200) errors.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0u);

  for (size_t t = 0; t < kThreads; ++t) {
    EvolvingSession sent;
    for (size_t i = 0; i < kPerThread; ++i) sent.push_back(item_for(t, i));
    auto session = server_->service().GetSession("load-" + std::to_string(t));
    ASSERT_TRUE(session.ok()) << "session " << t;
    EXPECT_EQ(*session, sent) << "session " << t;
  }

  // No queue stage on /v1/metrics, and the batch and shed families are
  // exactly the client-batch counters plus the reactor's connection shed.
  auto metrics = client_.Get("/v1/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->body.find("stage=\"queue_wait\""), std::string::npos);
  std::set<std::string> families;
  std::istringstream lines(metrics->body);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("# TYPE serenade_batch", 0) != 0 &&
        line.rfind("# TYPE serenade_shed", 0) != 0) {
      continue;
    }
    families.insert(line.substr(7, line.find(' ', 7) - 7));
  }
  EXPECT_EQ(families,
            (std::set<std::string>{"serenade_batch_requests_total",
                                   "serenade_batch_size",
                                   "serenade_batches_total",
                                   "serenade_shed_connections_total"}));
}

}  // namespace
}  // namespace serenade
