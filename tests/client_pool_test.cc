// Unit tests for HttpClientPool: the bounded keep-alive shelf the
// gateway (and health prober) park pod connections on between requests.
#include "serving/client_pool.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serving/http.h"

namespace serenade {
namespace {

HttpResponse OkHandler(const HttpRequest&) {
  HttpResponse response;
  response.body = "ok";
  response.content_type = "text/plain";
  return response;
}

class ClientPoolTest : public testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<HttpServer>(OkHandler);
    ASSERT_TRUE(server_->Start(0).ok());
  }
  void TearDown() override { server_->Stop(); }
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ClientPoolTest, ReleaseThenAcquireReusesConnection) {
  HttpClientPool pool(HttpClientPoolConfig{});
  auto first = pool.Acquire(server_->port());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE((*first)->Get("/a").ok());
  pool.Release(server_->port(), std::move(*first), /*reusable=*/true);
  EXPECT_EQ(pool.IdleCount(server_->port()), 1u);

  auto second = pool.Acquire(server_->port());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE((*second)->Get("/b").ok());
  EXPECT_EQ(pool.IdleCount(server_->port()), 0u);
  EXPECT_EQ(pool.reuses_total(), 1u);
  EXPECT_EQ(pool.acquires_total(), 2u);
  // One TCP connection served both requests.
  EXPECT_LE(server_->stats().accepted, 1u);
}

TEST_F(ClientPoolTest, NonReusableReleaseDiscards) {
  HttpClientPool pool(HttpClientPoolConfig{});
  auto client = pool.Acquire(server_->port());
  ASSERT_TRUE(client.ok());
  pool.Release(server_->port(), std::move(*client), /*reusable=*/false);
  EXPECT_EQ(pool.IdleCount(server_->port()), 0u);
  EXPECT_EQ(pool.discards_total(), 1u);
}

TEST_F(ClientPoolTest, ShelfIsBoundedPerEndpoint) {
  HttpClientPoolConfig config;
  config.max_idle_per_endpoint = 2;
  HttpClientPool pool(config);
  std::vector<std::unique_ptr<HttpClient>> clients;
  for (int i = 0; i < 4; ++i) {
    auto client = pool.Acquire(server_->port());
    ASSERT_TRUE(client.ok());
    clients.push_back(std::move(*client));
  }
  for (auto& client : clients) {
    pool.Release(server_->port(), std::move(client), /*reusable=*/true);
  }
  EXPECT_EQ(pool.IdleCount(server_->port()), 2u);  // overflow dropped
  EXPECT_EQ(pool.discards_total(), 2u);
}

TEST_F(ClientPoolTest, EndpointsDoNotShareShelves) {
  HttpServer other(OkHandler);
  ASSERT_TRUE(other.Start(0).ok());
  HttpClientPool pool(HttpClientPoolConfig{});
  auto a = pool.Acquire(server_->port());
  auto b = pool.Acquire(other.port());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  pool.Release(server_->port(), std::move(*a), /*reusable=*/true);
  pool.Release(other.port(), std::move(*b), /*reusable=*/true);
  EXPECT_EQ(pool.IdleCount(server_->port()), 1u);
  EXPECT_EQ(pool.IdleCount(other.port()), 1u);
  other.Stop();
}

TEST_F(ClientPoolTest, AcquireFailsWhenNothingListens) {
  uint16_t dead_port = 0;
  {
    HttpServer ephemeral(OkHandler);
    ASSERT_TRUE(ephemeral.Start(0).ok());
    dead_port = ephemeral.port();
    ephemeral.Stop();
  }
  HttpClientPoolConfig config;
  config.client.connect_timeout_ms = 200;
  HttpClientPool pool(config);
  auto client = pool.Acquire(dead_port);
  EXPECT_FALSE(client.ok());
}

TEST_F(ClientPoolTest, ConcurrentAcquireReleaseKeepsInvariants) {
  HttpClientPoolConfig config;
  config.max_idle_per_endpoint = 4;
  HttpClientPool pool(config);
  constexpr int kThreads = 4, kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        auto client = pool.Acquire(server_->port());
        if (!client.ok() || !(*client)->Get("/c").ok()) {
          failures.fetch_add(1);
          continue;
        }
        pool.Release(server_->port(), std::move(*client), /*reusable=*/true);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(pool.IdleCount(server_->port()), 4u);
  EXPECT_EQ(pool.acquires_total(),
            static_cast<uint64_t>(kThreads * kRounds));
}

}  // namespace
}  // namespace serenade
