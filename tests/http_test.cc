#include "serving/http.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include <gtest/gtest.h>

#include "serving/json.h"

namespace serenade {
namespace {

HttpResponse EchoHandler(const HttpRequest& request) {
  HttpResponse response;
  response.body = request.method + " " + request.path + " q=" +
                  request.Param("q", "<none>") + " body=" + request.body;
  response.content_type = "text/plain";
  return response;
}

class HttpTest : public testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<HttpServer>(EchoHandler);
    ASSERT_TRUE(server_->Start(0).ok());
  }
  void TearDown() override { server_->Stop(); }
  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpTest, SimpleGet) {
  HttpClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  auto response = client.Get("/hello?q=world");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, "GET /hello q=world body=");
}

TEST_F(HttpTest, UrlDecoding) {
  HttpClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  auto response = client.Get("/path?q=a%2Cb+c");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body, "GET /path q=a,b c body=");
}

TEST_F(HttpTest, KeepAliveReusesConnection) {
  HttpClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  for (int i = 0; i < 50; ++i) {
    auto response = client.Get("/r?q=" + std::to_string(i));
    ASSERT_TRUE(response.ok()) << "request " << i;
    EXPECT_EQ(response->body, "GET /r q=" + std::to_string(i) + " body=");
  }
  EXPECT_EQ(server_->requests_served(), 50u);
}

TEST_F(HttpTest, ConcurrentClients) {
  constexpr int kClients = 8, kRequests = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      HttpClient client;
      if (!client.Connect(server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        auto response = client.Get("/c?q=" + std::to_string(c * 1000 + i));
        if (!response.ok() ||
            response->body !=
                "GET /c q=" + std::to_string(c * 1000 + i) + " body=") {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_->requests_served(),
            static_cast<uint64_t>(kClients * kRequests));
}

TEST_F(HttpTest, MultipleSequentialConnections) {
  for (int i = 0; i < 5; ++i) {
    HttpClient client;
    ASSERT_TRUE(client.Connect(server_->port()).ok());
    auto response = client.Get("/seq");
    ASSERT_TRUE(response.ok());
    client.Close();
  }
}

TEST_F(HttpTest, PostBodyRoundTrip) {
  HttpClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  auto response = client.Post("/submit?q=1", "{\"payload\":42}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "POST /submit q=1 body={\"payload\":42}");
}

TEST_F(HttpTest, PostEmptyBody) {
  HttpClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  auto response = client.Post("/submit", "");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body, "POST /submit q=<none> body=");
}

TEST_F(HttpTest, InterleavedGetAndPostOnOneConnection) {
  HttpClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  for (int i = 0; i < 10; ++i) {
    auto get = client.Get("/g");
    ASSERT_TRUE(get.ok());
    auto post = client.Post("/p", "b" + std::to_string(i));
    ASSERT_TRUE(post.ok());
    EXPECT_EQ(post->body, "POST /p q=<none> body=b" + std::to_string(i));
  }
}

TEST(UrlDecodeTest, Basics) {
  EXPECT_EQ(UrlDecode("a%20b"), "a b");
  EXPECT_EQ(UrlDecode("a+b"), "a b");
  EXPECT_EQ(UrlDecode("%2F%3f"), "/?");
  EXPECT_EQ(UrlDecode("plain"), "plain");
  EXPECT_EQ(UrlDecode("bad%zz"), "bad%zz");  // invalid escapes pass through
  EXPECT_EQ(UrlDecode("%"), "%");            // trailing percent
}

TEST(HttpServerTest, StopIsIdempotentAndRestartable) {
  HttpServer server(EchoHandler);
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t first_port = server.port();
  EXPECT_GT(first_port, 0);
  server.Stop();
  server.Stop();  // no crash
}

TEST(HttpServerTest, HandlerExceptionYields500) {
  HttpServer server([](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("boom");
  });
  ASSERT_TRUE(server.Start(0).ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto response = client.Get("/explode");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 500);
  // The same envelope every other error carries.
  auto doc = ParseJson(response->body);
  ASSERT_TRUE(doc.ok()) << response->body;
  const JsonValue* error = doc->Find("error");
  ASSERT_NE(error, nullptr) << response->body;
  ASSERT_NE(error->Find("code"), nullptr) << response->body;
  EXPECT_EQ(error->Find("code")->AsString(), "internal");
  server.Stop();
}

// Every status the serving tiers send goes out with its reason phrase.
TEST(HttpServerTest, StatusLinesCarryReasonPhrases) {
  HttpServer server([](const HttpRequest& request) {
    HttpResponse response;
    response.status = std::stoi(request.Param("status"));
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  const std::pair<int, const char*> kStatusLines[] = {
      {200, "HTTP/1.1 200 OK"},
      {204, "HTTP/1.1 204 No Content"},
      {307, "HTTP/1.1 307 Temporary Redirect"},
      {400, "HTTP/1.1 400 Bad Request"},
      {404, "HTTP/1.1 404 Not Found"},
      {405, "HTTP/1.1 405 Method Not Allowed"},
      {409, "HTTP/1.1 409 Conflict"},
      {413, "HTTP/1.1 413 Payload Too Large"},
      {429, "HTTP/1.1 429 Too Many Requests"},
      {500, "HTTP/1.1 500 Internal Server Error"},
      {502, "HTTP/1.1 502 Bad Gateway"},
      {503, "HTTP/1.1 503 Service Unavailable"},
      {504, "HTTP/1.1 504 Gateway Timeout"},
  };
  for (const auto& [status, line] : kStatusLines) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                        sizeof(address)),
              0);
    const std::string request = "GET /s?status=" + std::to_string(status) +
                                " HTTP/1.1\r\nConnection: close\r\n\r\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char chunk[1024];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      response.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(response.substr(0, response.find("\r\n")), line);
  }
  server.Stop();
}

// --- client failure paths ---------------------------------------------------

// A raw TCP listener that feeds each accepted connection to a scripted
// session — for serving deliberately broken HTTP that HttpServer would
// never produce.
class RawServer {
 public:
  explicit RawServer(std::function<void(int fd)> session)
      : session_(std::move(session)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const int enable = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
                 sizeof(enable));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
               sizeof(address)) != 0 ||
        ::listen(listen_fd_, 8) != 0) {
      std::abort();  // test infrastructure failure, not a test outcome
    }
    socklen_t length = sizeof(address);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address), &length);
    port_ = ntohs(address.sin_port);
    acceptor_ = std::thread([this] {
      while (true) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;  // listener closed
        session_(fd);
        ::close(fd);
      }
    });
  }

  ~RawServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (acceptor_.joinable()) acceptor_.join();
  }

  uint16_t port() const { return port_; }

 private:
  std::function<void(int)> session_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
};

// Reads until the request's blank line so the peer is not reset before it
// finishes sending.
void DrainRequest(int fd) {
  std::string seen;
  char c;
  while (seen.find("\r\n\r\n") == std::string::npos &&
         ::recv(fd, &c, 1, 0) == 1) {
    seen.push_back(c);
  }
}

TEST(HttpClientFailureTest, ConnectionRefused) {
  // Grab an ephemeral port, then close the listener so nothing is there.
  uint16_t dead_port = 0;
  {
    HttpServer server(EchoHandler);
    ASSERT_TRUE(server.Start(0).ok());
    dead_port = server.port();
    server.Stop();
  }
  HttpClient client(HttpClientOptions{.connect_timeout_ms = 500});
  const Status status = client.Connect(dead_port);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST(HttpClientFailureTest, ReadTimeoutSurfacesAsDeadlineExceeded) {
  RawServer server([](int fd) {
    DrainRequest(fd);
    // Never answer; the client's SO_RCVTIMEO must fire.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  });
  HttpClient client(
      HttpClientOptions{.connect_timeout_ms = 500, .io_timeout_ms = 50});
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto response = client.Get("/slow");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(HttpClientFailureTest, MidBodyConnectionReset) {
  RawServer server([](int fd) {
    DrainRequest(fd);
    const char kPartial[] =
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
        "Content-Length: 1000\r\n\r\nonly-a-few-bytes";
    ::send(fd, kPartial, sizeof(kPartial) - 1, MSG_NOSIGNAL);
    // close() without the remaining 984 bytes: mid-body reset.
  });
  HttpClient client(
      HttpClientOptions{.connect_timeout_ms = 500, .io_timeout_ms = 500});
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto response = client.Get("/truncated");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kIoError);
}

TEST(HttpClientFailureTest, TruncatedHeaders) {
  RawServer server([](int fd) {
    DrainRequest(fd);
    const char kHalfHeader[] = "HTTP/1.1 200 OK\r\nContent-Le";
    ::send(fd, kHalfHeader, sizeof(kHalfHeader) - 1, MSG_NOSIGNAL);
  });
  HttpClient client(
      HttpClientOptions{.connect_timeout_ms = 500, .io_timeout_ms = 500});
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto response = client.Get("/half");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kIoError);
}

TEST(HttpClientFailureTest, OversizedResponseRejected) {
  RawServer server([](int fd) {
    DrainRequest(fd);
    const char kHuge[] =
        "HTTP/1.1 200 OK\r\nContent-Length: 104857600\r\n\r\n";
    ::send(fd, kHuge, sizeof(kHuge) - 1, MSG_NOSIGNAL);
  });
  HttpClient client(
      HttpClientOptions{.connect_timeout_ms = 500, .io_timeout_ms = 500});
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto response = client.Get("/huge");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCorruption);
}

TEST(HttpClientFailureTest, GarbageStatusLine) {
  RawServer server([](int fd) {
    DrainRequest(fd);
    const char kGarbage[] = "NONSENSE NOISE\r\n\r\n";
    ::send(fd, kGarbage, sizeof(kGarbage) - 1, MSG_NOSIGNAL);
  });
  HttpClient client(
      HttpClientOptions{.connect_timeout_ms = 500, .io_timeout_ms = 500});
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto response = client.Get("/garbage");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCorruption);
}

TEST(HttpServerTest, MalformedRequestRejected) {
  HttpServer server(EchoHandler);
  ASSERT_TRUE(server.Start(0).ok());
  // Raw socket speaking garbage.
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  // The client API only sends valid requests, so craft a malformed one by
  // using Get with a path that yields a bad request line (embedded space).
  auto response = client.Get("/a b");  // "GET /a b HTTP/1.1" -> 3+ spaces
  // Server either parses leniently (rfind splits off version) or rejects;
  // in both cases it must respond rather than hang.
  ASSERT_TRUE(response.ok());
  server.Stop();
}

// --- router + error envelope -------------------------------------------------

void SetupTestRouter(Router& router) {
  router.Handle("GET", "/v1/thing", [](const HttpRequest&, Trace*) {
    return HttpResponse::Json("{\"ok\":true}");
  });
  router.Handle("POST", "/v1/thing", [](const HttpRequest& request, Trace*) {
    return HttpResponse::Json("{\"echo\":\"" + request.body + "\"}");
  });
}

HttpRequest MakeRequest(const std::string& method, const std::string& path) {
  HttpRequest request;
  request.method = method;
  request.path = path;
  return request;
}

TEST(RouterDispatchTest, DispatchesByMethodAndPath) {
  Router router;
  SetupTestRouter(router);
  Trace trace;
  auto get = router.Dispatch(MakeRequest("GET", "/v1/thing"), &trace);
  EXPECT_EQ(get.status, 200);
  EXPECT_EQ(get.body, "{\"ok\":true}");

  HttpRequest post = MakeRequest("POST", "/v1/thing");
  post.body = "hi";
  EXPECT_EQ(router.Dispatch(post, &trace).body, "{\"echo\":\"hi\"}");
}

TEST(RouterDispatchTest, UnknownPathIs404Envelope) {
  Router router;
  SetupTestRouter(router);
  Trace trace("feedc0de00000001");
  auto response = router.Dispatch(MakeRequest("GET", "/nope"), &trace);
  EXPECT_EQ(response.status, 404);
  // The unified envelope: {"error":{"code","message","trace_id"}}.
  EXPECT_NE(response.body.find("\"error\""), std::string::npos);
  EXPECT_NE(response.body.find("\"code\":\"not_found\""), std::string::npos);
  EXPECT_NE(response.body.find("\"trace_id\":\"feedc0de00000001\""),
            std::string::npos);
}

TEST(RouterDispatchTest, WrongMethodIs405WithAllow) {
  Router router;
  SetupTestRouter(router);
  Trace trace;
  auto response = router.Dispatch(MakeRequest("DELETE", "/v1/thing"), &trace);
  EXPECT_EQ(response.status, 405);
  EXPECT_NE(response.body.find("\"code\":\"method_not_allowed\""),
            std::string::npos);
  // The Allow header lists every registered method for the path.
  EXPECT_EQ(response.headers.at("Allow"), "GET, POST");
}

TEST(ApiErrorTest, EnvelopeShape) {
  auto with_trace = ApiError(413, "too big", "abad1dea00000001");
  EXPECT_EQ(with_trace.status, 413);
  EXPECT_EQ(with_trace.body,
            "{\"error\":{\"code\":\"payload_too_large\",\"message\":"
            "\"too big\",\"trace_id\":\"abad1dea00000001\"}}");
  // Without a trace id the field is omitted, not empty.
  auto without = ApiError(400, "bad \"quoted\" input");
  EXPECT_EQ(without.body,
            "{\"error\":{\"code\":\"bad_request\",\"message\":"
            "\"bad \\\"quoted\\\" input\"}}");
}

TEST(ApiErrorTest, StatusMapping) {
  EXPECT_EQ(HttpStatusForStatus(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(HttpStatusForStatus(Status::NotFound("x")), 404);
  EXPECT_EQ(HttpStatusForStatus(Status::Unavailable("x")), 503);
  EXPECT_EQ(HttpStatusForStatus(Status::DeadlineExceeded("x")), 504);
  EXPECT_EQ(HttpStatusForStatus(Status::Internal("x")), 500);
}

TEST(HttpServerTest, OversizedBodyGets413Envelope) {
  HttpServer server(EchoHandler);
  ASSERT_TRUE(server.Start(0).ok());

  // The server rejects on the declared Content-Length without draining
  // the body (and then closes), so a well-behaved HttpClient mid-upload
  // would see a reset — speak raw TCP and send only the headers.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  const std::string request =
      "POST /echo HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
      std::to_string(kMaxBodyBytes + 1) + "\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));

  std::string response;
  char chunk[1024];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("413"), std::string::npos) << response;
  EXPECT_NE(response.find("\"code\":\"payload_too_large\""),
            std::string::npos)
      << response;
  // Fail-fast rejection poisons the framing (the body is never drained),
  // so the server must refuse to keep the connection alive.
  EXPECT_NE(response.find("Connection: close"), std::string::npos) << response;
  server.Stop();
}

}  // namespace
}  // namespace serenade
