// Integration tests for the epoll reactor behind HttpServer: behaviors a
// well-behaved HttpClient cannot exercise — slowloris peers, pipelined
// requests, partial-write backpressure, admission-cap shedding, deadline
// enforcement, draining shutdown, connection placement across reactors,
// and the admin offload. Most tests speak raw TCP.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serving/http.h"
#include "testing/fault_injection.h"

namespace serenade {
namespace {

HttpResponse EchoHandler(const HttpRequest& request) {
  HttpResponse response;
  response.body = request.method + " " + request.path + " q=" +
                  request.Param("q", "<none>");
  response.content_type = "text/plain";
  return response;
}

// Raw loopback socket with a bounded recv timeout so a regressed server
// hangs the assertion, not the suite.
int RawConnect(uint16_t port, int recv_timeout_ms = 3000,
               int rcvbuf_bytes = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf_bytes > 0) {
    // Must land before connect: the window scale is negotiated in the
    // handshake, and a tiny receive buffer is what forces the server
    // into partial writes.
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  timeval timeout{};
  timeout.tv_sec = recv_timeout_ms / 1000;
  timeout.tv_usec = (recv_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads until the peer closes or the socket's recv timeout fires.
std::string RecvUntilClose(int fd) {
  std::string received;
  char chunk[16384];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    received.append(chunk, static_cast<size_t>(n));
  }
  return received;
}

// Reads until `received` contains at least `want` occurrences of `marker`.
bool RecvUntilCount(int fd, const std::string& marker, size_t want,
                    std::string* received) {
  char chunk[16384];
  while (true) {
    size_t seen = 0, at = 0;
    while ((at = received->find(marker, at)) != std::string::npos) {
      ++seen;
      at += marker.size();
    }
    if (seen >= want) return true;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    received->append(chunk, static_cast<size_t>(n));
  }
}

TEST(ReactorTest, SlowlorisPeerIsExpiredByIdleTimeout) {
  HttpServerOptions options;
  options.idle_timeout_ms = 150;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  // Trickle a partial request line and then stall — the idle deadline is
  // pinned at admission, not refreshed per byte, so this must expire.
  ASSERT_TRUE(SendAll(fd, "GET /slow HTT"));
  const std::string leftovers = RecvUntilClose(fd);
  ::close(fd);
  // No response: the server closed an incomplete request.
  EXPECT_TRUE(leftovers.empty()) << leftovers;
  EXPECT_GE(server.stats().idle_timeouts, 1u);
  EXPECT_EQ(server.stats().open_connections, 0u);
  server.Stop();
}

TEST(ReactorTest, PartialWriteResumesUntilLargeBodyDelivered) {
  // ~3 MB answer (beneath the 4 MB client/body cap) against a socket with
  // a deliberately tiny receive buffer: the first send() cannot take the
  // whole body, so delivery must ride EPOLLOUT resumption.
  const size_t kBodyBytes = 3u << 20;
  std::string big(kBodyBytes, 'x');
  for (size_t i = 0; i < big.size(); i += 4096) big[i] = 'A' + (i / 4096) % 26;
  HttpServer server(
      [&big](const HttpRequest&) {
        HttpResponse response;
        response.body = big;
        response.content_type = "text/plain";
        return response;
      });
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = RawConnect(server.port(), /*recv_timeout_ms=*/5000,
                            /*rcvbuf_bytes=*/4096);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "GET /big HTTP/1.1\r\nHost: x\r\n\r\n"));
  // Give the server time to hit EAGAIN and park on EPOLLOUT before the
  // client starts draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::string received;
  char chunk[16384];
  while (true) {
    const size_t header_end = received.find("\r\n\r\n");
    if (header_end != std::string::npos &&
        received.size() >= header_end + 4 + kBodyBytes) {
      break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "connection ended after " << received.size()
                    << " bytes";
    received.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t header_end = received.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos);
  EXPECT_EQ(received.substr(header_end + 4), big);
  server.Stop();
}

TEST(ReactorTest, PipelinedRequestsAnsweredInOrder) {
  HttpServer server(EchoHandler);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  // Three requests in one segment; HTTP/1.1 requires in-order responses.
  ASSERT_TRUE(SendAll(fd,
                      "GET /p?q=0 HTTP/1.1\r\nHost: x\r\n\r\n"
                      "GET /p?q=1 HTTP/1.1\r\nHost: x\r\n\r\n"
                      "GET /p?q=2 HTTP/1.1\r\nHost: x\r\n\r\n"));
  std::string received;
  ASSERT_TRUE(RecvUntilCount(fd, "GET /p q=", 3, &received)) << received;
  ::close(fd);
  const size_t first = received.find("GET /p q=0");
  const size_t second = received.find("GET /p q=1");
  const size_t third = received.find("GET /p q=2");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  ASSERT_NE(third, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_LT(second, third);
  EXPECT_EQ(server.requests_served(), 3u);
  server.Stop();
}

TEST(ReactorTest, ConnectionCapShedsWith503AndRetryAfter) {
  HttpServerOptions options;
  options.max_connections = 2;
  options.retry_after_seconds = 7;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start(0).ok());

  // Fill the cap with two admitted connections (a round trip each proves
  // admission, not just a queued accept).
  HttpClient first, second;
  ASSERT_TRUE(first.Connect(server.port()).ok());
  ASSERT_TRUE(first.Get("/a").ok());
  ASSERT_TRUE(second.Connect(server.port()).ok());
  ASSERT_TRUE(second.Get("/b").ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  const std::string shed = RecvUntilClose(fd);  // shed without a request
  ::close(fd);
  EXPECT_NE(shed.find("503"), std::string::npos) << shed;
  EXPECT_NE(shed.find("Retry-After: 7"), std::string::npos) << shed;
  EXPECT_NE(shed.find("Connection: close"), std::string::npos) << shed;
  EXPECT_GE(server.stats().shed, 1u);
  EXPECT_EQ(server.stats().open_connections, 2u);

  // Capacity returns when an admitted connection leaves.
  first.Close();
  const auto wait_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  bool admitted = false;
  while (std::chrono::steady_clock::now() < wait_deadline) {
    HttpClient third;  // a shed attempt poisons the connection: dial fresh
    if (third.Connect(server.port()).ok()) {
      auto response = third.Get("/c");
      if (response.ok() && response->status == 200) {  // 503 = still shed
        admitted = true;
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(admitted);
  server.Stop();
}

TEST(ReactorTest, RequestDeadlineClosesOverdueRequest) {
  HttpServerOptions options;
  options.request_deadline_ms = 50;
  HttpServer server(
      [](const HttpRequest&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        HttpResponse response;
        response.body = "late";
        return response;
      },
      options);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n"));
  const std::string received = RecvUntilClose(fd);
  ::close(fd);
  // The handler runs on the reactor, so the deadline is checked when it
  // returns: the overdue request is closed with no response.
  EXPECT_TRUE(received.empty()) << received;
  EXPECT_GE(server.stats().deadline_timeouts, 1u);
  server.Stop();
  EXPECT_EQ(server.stats().open_connections, 0u);
}

TEST(ReactorTest, StopDrainsInFlightRequest) {
  std::atomic<bool> entered{false};
  HttpServer server([&entered](const HttpRequest&) {
    entered.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    HttpResponse response;
    response.body = "drained";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t port = server.port();

  StatusOr<HttpResponse> result = Status::Internal("not run");
  std::thread requester([&] {
    HttpClient client;
    if (!client.Connect(port).ok()) return;
    result = client.Get("/inflight");
  });
  while (!entered.load()) std::this_thread::sleep_for(
      std::chrono::milliseconds(5));
  server.Stop();  // must wait for the dispatched request, then close
  requester.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, 200);
  EXPECT_EQ(result->body, "drained");
  EXPECT_EQ(server.stats().open_connections, 0u);

  // Fully stopped: nothing is listening any more.
  HttpClient late(HttpClientOptions{.connect_timeout_ms = 200});
  EXPECT_FALSE(late.Connect(port).ok());
}

TEST(ReactorTest, MultiReactorServesConcurrentClients) {
  HttpServerOptions options;
  options.reactor_threads = 2;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start(0).ok());

  constexpr int kClients = 8, kRequests = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      HttpClient client;
      if (!client.Connect(server.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        auto response = client.Get("/m?q=" + std::to_string(c * 100 + i));
        if (!response.ok() ||
            response->body !=
                "GET /m q=" + std::to_string(c * 100 + i)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.requests_served(),
            static_cast<uint64_t>(kClients * kRequests));
  server.Stop();
}

TEST(ReactorTest, ConnectionsSpreadEvenlyAcrossReactors) {
  HttpServerOptions options;
  options.reactor_threads = 4;
  // Each request is answered with the id of the thread that ran it — the
  // reactor that owns its connection.
  HttpServer server(
      [](const HttpRequest&) {
        std::ostringstream thread_id;
        thread_id << std::this_thread::get_id();
        HttpResponse response;
        response.body = thread_id.str();
        response.content_type = "text/plain";
        return response;
      },
      options);
  ASSERT_TRUE(server.Start(0).ok());

  // All eight stay open, so each placement sees the ones before it.
  constexpr int kConnections = 8;
  std::vector<std::unique_ptr<HttpClient>> clients;
  for (int i = 0; i < kConnections; ++i) {
    clients.push_back(std::make_unique<HttpClient>());
    ASSERT_TRUE(clients.back()->Connect(server.port()).ok());
  }
  std::map<std::string, int> connections_per_thread;
  for (auto& client : clients) {
    auto first = client->Get("/who");
    auto second = client->Get("/who");
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(first->body, second->body) << "a connection changed threads";
    ++connections_per_thread[first->body];
  }
  EXPECT_EQ(connections_per_thread.size(), 4u);
  for (const auto& [thread, connections] : connections_per_thread) {
    EXPECT_EQ(connections, 2) << "thread " << thread;
  }
  server.Stop();
}

TEST(ReactorTest, BlockedAdminRequestDoesNotDelayDataPlane) {
  // One reactor: a data-plane request can only be answered while the
  // admin request is stuck if the admin handler is off the event loop.
  HttpServerOptions options;
  options.reactor_threads = 1;
  std::promise<void> admin_entered;
  std::promise<void> release_admin;
  std::shared_future<void> released = release_admin.get_future().share();
  HttpServer server(
      [&admin_entered, released](const HttpRequest& request) {
        HttpResponse response;
        response.content_type = "text/plain";
        if (request.path.rfind(kAdminPathPrefix, 0) == 0) {
          admin_entered.set_value();
          released.wait();
          response.body = "admin done";
        } else {
          response.body = "data";
        }
        return response;
      },
      options);
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t port = server.port();

  StatusOr<HttpResponse> admin = Status::Internal("not run");
  std::thread admin_caller([&admin, port] {
    HttpClient client;
    if (client.Connect(port).ok()) admin = client.Post("/v1/admin/slow", "{}");
  });
  admin_entered.get_future().wait();

  // The recv timeout only bounds a regression; the order of events is
  // what the test checks.
  HttpClient client(HttpClientOptions{.io_timeout_ms = 5000});
  ASSERT_TRUE(client.Connect(port).ok());
  auto data = client.Get("/v1/recommend");
  release_admin.set_value();
  admin_caller.join();

  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->body, "data");
  ASSERT_TRUE(admin.ok()) << admin.status().ToString();
  EXPECT_EQ(admin->body, "admin done");
  server.Stop();
}

TEST(ReactorTest, ThousandPipelinedRequestsInOneSendAnsweredInOrder) {
  HttpServer server(EchoHandler);
  ASSERT_TRUE(server.Start(0).ok());

  constexpr int kRequests = 1000;
  std::string pipeline;
  for (int i = 0; i < kRequests; ++i) {
    pipeline +=
        "GET /p?q=" + std::to_string(i) + " HTTP/1.1\r\nHost: x\r\n\r\n";
  }
  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, pipeline.data(), pipeline.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(pipeline.size()));
  const std::string marker = "GET /p q=";
  std::string received;
  ASSERT_TRUE(RecvUntilCount(fd, marker, kRequests, &received));
  ::close(fd);
  size_t at = 0;
  for (int i = 0; i < kRequests; ++i) {
    at = received.find(marker, at);
    ASSERT_NE(at, std::string::npos) << "response " << i;
    at += marker.size();
    ASSERT_EQ(std::atoi(received.c_str() + at), i) << "response " << i;
  }
  EXPECT_EQ(server.requests_served(), static_cast<uint64_t>(kRequests));
  server.Stop();
}

TEST(ReactorFaultTest, AcceptOverloadFaultShedsLikeTheCap) {
  ScopedFaultInjector injector(0xfeed);
  injector->Arm(FaultSite::kHttpAcceptOverload,
                FaultRule{/*probability=*/1.0, /*budget=*/1, 0});
  HttpServer server(EchoHandler);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  const std::string shed = RecvUntilClose(fd);
  ::close(fd);
  EXPECT_NE(shed.find("503"), std::string::npos) << shed;
  EXPECT_EQ(injector->fires(FaultSite::kHttpAcceptOverload), 1u);

  // Budget spent: the next connection is served normally.
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  EXPECT_TRUE(client.Get("/after").ok());
  server.Stop();
}

TEST(ReactorFaultTest, CloseMidWriteIsSurvivedByClientReconnect) {
  ScopedFaultInjector injector(0xbeef);
  injector->Arm(FaultSite::kHttpServerCloseMidWrite,
                FaultRule{/*probability=*/1.0, /*budget=*/1, 0});
  HttpServer server([](const HttpRequest&) {
    HttpResponse response;
    response.body = std::string(100 * 1024, 'y');
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  // First attempt is cut mid-response; the client's stale-connection
  // retry dials again and the (budget-exhausted) server answers in full.
  auto response = client.Get("/flaky");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body.size(), 100u * 1024);
  EXPECT_EQ(injector->fires(FaultSite::kHttpServerCloseMidWrite), 1u);
  server.Stop();
}

TEST(ReactorFaultTest, StallReadRecoversOnNextLoopPass) {
  ScopedFaultInjector injector(0xcafe);
  injector->Arm(FaultSite::kHttpServerStallRead,
                FaultRule{/*probability=*/1.0, /*budget=*/2, 0});
  HttpServer server(EchoHandler);
  ASSERT_TRUE(server.Start(0).ok());

  // Level-triggered readiness re-reports the buffered request after the
  // stalled passes, so the request is merely delayed, never lost.
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto response = client.Get("/stalled?q=1");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "GET /stalled q=1");
  EXPECT_GE(injector->fires(FaultSite::kHttpServerStallRead), 1u);
  server.Stop();
}

}  // namespace
}  // namespace serenade
