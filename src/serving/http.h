// Minimal HTTP/1.1 server and client over POSIX sockets — the stand-in
// for the Actix web framework the paper's Rust implementation uses. Like
// Actix, the server runs one epoll event loop per core and serves each
// request on the loop that owns its connection: connection count is
// decoupled from thread count, so thousands of idle keep-alive
// connections cost file descriptors, not stacks. The client supports
// keep-alive request pipelining for the load generator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"

namespace serenade {

class MetricHistogram;

/// Largest accepted request body; beyond it the server replies 413 with
/// the API error envelope and closes the connection.
inline constexpr size_t kMaxBodyBytes = 4 * 1024 * 1024;

/// A parsed HTTP request.
struct HttpRequest {
  std::string method;                           // "GET", "POST", ...
  std::string path;                             // "/v1/recommend"
  std::map<std::string, std::string> query;     // decoded query params
  std::map<std::string, std::string> headers;   // lower-cased names
  std::string body;
  /// Time the server spent reading + parsing this request off the wire
  /// (the `parse` stage of a request trace).
  uint64_t parse_micros = 0;

  /// Query parameter lookup with default.
  std::string Param(const std::string& key,
                    const std::string& fallback = "") const;

  /// Header lookup (name is matched lower-cased) with default.
  std::string Header(const std::string& name,
                     const std::string& fallback = "") const;
};

/// A response to serialise.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  /// Extra response headers (e.g. X-Serenade-Trace-Id). Content-Type,
  /// Content-Length, and Connection are managed by the server and are
  /// skipped here if present.
  std::map<std::string, std::string> headers;
  std::string body;

  /// Header lookup (name is matched lower-cased) with default.
  std::string Header(const std::string& name,
                     const std::string& fallback = "") const;

  static HttpResponse Json(std::string body);
  static HttpResponse Text(std::string body, std::string content_type);
};

/// Request handler, invoked concurrently from several threads. A request
/// runs on the reactor thread that owns its connection, so a handler
/// blocks that loop's other connections while it runs; the exception is
/// any path under kAdminPathPrefix, which runs on a small offload pool
/// because admin calls (reloads, hand-offs, membership changes) can
/// block for seconds. A handler that throws is answered with a 500 error
/// envelope.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Requests whose path starts with this prefix are handled off the event
/// loop (see HttpHandler).
inline constexpr char kAdminPathPrefix[] = "/v1/admin/";

/// The number of CPUs this process may run on (its sched_getaffinity
/// mask), at least 1 — the default reactor count.
size_t UsableCpuCount();

/// Builds the unified API error envelope shared by both serving tiers:
///   {"error":{"code":"not_found","message":"...","trace_id":"..."}}
/// `code` is derived from the HTTP status; the message is JSON-escaped.
/// An empty trace id omits the field (offline tools, malformed requests
/// rejected before a trace exists).
HttpResponse ApiError(int status, const std::string& message,
                      const std::string& trace_id = "");

/// The stable machine-readable code string for an HTTP error status
/// ("bad_request", "not_found", "method_not_allowed", "payload_too_large",
/// "conflict", "too_many_requests", "unavailable", "internal").
const char* ApiErrorCode(int status);

/// Maps a Status code onto the HTTP status the API surfaces for it
/// (kInvalidArgument=400, kNotFound/kIoError=404, kCorruption=409,
/// kResourceExhausted=429, kUnavailable=503, kDeadlineExceeded=504,
/// anything else 500).
int HttpStatusForStatus(const Status& status);

/// Method+path dispatch table shared by the pod server and the cluster
/// gateway (the /v1 API surface). Routes are registered once at startup
/// (Handle is not thread-safe) and dispatched concurrently from
/// connection threads. Dispatch returns:
///   * the handler's response for a registered method+path,
///   * 405 with an `Allow` header when the path exists but the method
///     does not,
///   * 404 for unknown paths,
/// both errors as the unified JSON envelope.
class Router {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&, Trace*)>;

  /// Registers `handler` for `method` (upper-case) on `path`.
  void Handle(std::string method, std::string path, Handler handler);

  /// Dispatches one request; `trace` is forwarded to the handler (may be
  /// null).
  HttpResponse Dispatch(const HttpRequest& request, Trace* trace) const;

 private:
  std::map<std::string, std::map<std::string, Handler>> routes_;
};

/// Tuning for the reactor server. The defaults suit the in-repo tests
/// and benchmarks; the serving tools expose each knob as a flag.
struct HttpServerOptions {
  /// Open-connection ceiling. At the cap new connections are accepted,
  /// answered with a 503 envelope carrying `Retry-After`, and closed
  /// (graceful shed — the client sees a parseable response, not a RST).
  size_t max_connections = 10000;
  /// A connection with no in-flight request that stays silent this long
  /// is closed. Deliberately NOT refreshed per byte once a request has
  /// started, so slowloris clients trickling one header byte at a time
  /// still hit it. 0 disables.
  uint64_t idle_timeout_ms = 60000;
  /// Wall-clock budget for one request, measured from its first byte
  /// through body read, dispatch, and response write; an overdue request
  /// is closed unanswered and counted as a deadline timeout (the response
  /// can no longer be trusted to arrive in time). The timer wheel enforces
  /// it while the request is read or written and while an admin request
  /// runs off the loop; an inline handler cannot be interrupted, so its
  /// request is checked when the handler returns. 0 disables.
  uint64_t request_deadline_ms = 0;
  /// Event-loop threads, one per usable CPU by default. Each runs its own
  /// epoll instance and timer wheel and serves the connections it owns;
  /// the loop that accepts a connection hands it to the loop with the
  /// fewest open connections.
  size_t reactor_threads = UsableCpuCount();
  /// Retry-After seconds stamped on connection-cap 503 sheds.
  int retry_after_seconds = 1;
  /// Stop() grace period for in-flight requests: idle connections close
  /// immediately, busy ones get this long to finish their response.
  uint64_t drain_timeout_ms = 5000;
};

/// Monotonic server counters (a consistent-enough snapshot; each field
/// is individually atomic).
struct HttpServerStats {
  uint64_t accepted = 0;            ///< connections admitted
  uint64_t shed = 0;                ///< connections refused with 503 (or EMFILE)
  uint64_t idle_timeouts = 0;       ///< closed by the idle timer
  uint64_t deadline_timeouts = 0;   ///< closed by the request deadline
  uint64_t open_connections = 0;    ///< currently open (gauge)
  uint64_t loop_iterations = 0;     ///< reactor loop wakeups
  uint64_t requests_served = 0;     ///< handler invocations completed
};

namespace detail {
class ReactorCore;
struct ServerCounters;
}  // namespace detail

/// Event-driven HTTP server: N reactor threads multiplex nonblocking
/// connections through per-connection state machines (read-headers →
/// read-body → dispatch → write-response, with partial-write resume and
/// pipelined keep-alive). Handlers run inline on the owning reactor
/// (admin paths on an offload pool), and a hashed timer wheel enforces
/// idle/deadline timeouts. See DESIGN.md §10.
class HttpServer {
 public:
  explicit HttpServer(HttpHandler handler, HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds to 127.0.0.1:port (port 0 = ephemeral) and starts serving.
  Status Start(uint16_t port = 0);

  /// Graceful shutdown: stops accepting, closes idle connections, drains
  /// in-flight requests (bounded by drain_timeout_ms), joins the reactor
  /// and admin-pool threads. Idempotent; Start() may be called again after.
  void Stop();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  uint64_t requests_served() const;

  /// Snapshot of the reactor counters (survives Stop()).
  HttpServerStats stats() const;

  const HttpServerOptions& options() const { return options_; }

  /// Optional event-loop lag histogram (microseconds spent processing one
  /// epoll batch). Call before Start(); the histogram must outlive the
  /// server.
  void set_loop_lag_histogram(MetricHistogram* histogram) {
    loop_lag_ = histogram;
  }

 private:
  HttpHandler handler_;
  HttpServerOptions options_;
  uint16_t port_ = 0;
  MetricHistogram* loop_lag_ = nullptr;
  // Counters live outside the core so stats()/requests_served() keep
  // answering after Stop() tears the reactor down.
  std::shared_ptr<detail::ServerCounters> counters_;
  std::unique_ptr<detail::ReactorCore> core_;
};

/// Deadlines for HttpClient operations; 0 means "wait forever" (the
/// historical behaviour, still used by trusted in-process tests).
struct HttpClientOptions {
  uint64_t connect_timeout_ms = 0;  ///< non-blocking connect deadline
  uint64_t io_timeout_ms = 0;       ///< per-recv/send deadline (SO_*TIMEO)
};

/// Blocking HTTP/1.1 client with keep-alive: one instance per connection.
/// With deadlines configured, a stalled peer surfaces as a distinct
/// kDeadlineExceeded status instead of blocking the caller forever.
class HttpClient {
 public:
  HttpClient() = default;
  explicit HttpClient(HttpClientOptions options) : options_(options) {}
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to 127.0.0.1:port. Honours connect_timeout_ms.
  Status Connect(uint16_t port);

  /// Sends a GET and reads the full response. Reconnects once on a stale
  /// keep-alive connection (but never retries after a timeout: the peer
  /// is slow, not stale, and a retry would double the wait).
  /// `extra_headers` are appended verbatim to the request (used by the
  /// gateway to stamp X-Serenade-Trace-Id on proxied requests).
  StatusOr<HttpResponse> Get(
      const std::string& path_and_query,
      const std::map<std::string, std::string>& extra_headers = {});

  /// Sends a POST with the given body (Content-Type: application/json).
  /// `extra_headers` as in Get().
  StatusOr<HttpResponse> Post(
      const std::string& path_and_query, const std::string& body,
      const std::map<std::string, std::string>& extra_headers = {});

  void Close();

  const HttpClientOptions& options() const { return options_; }

 private:
  StatusOr<HttpResponse> RoundTrip(const std::string& request_text);

  HttpClientOptions options_;
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// Percent-decodes a URL component ("%2C" -> ",", "+" -> " ").
std::string UrlDecode(const std::string& text);

}  // namespace serenade
