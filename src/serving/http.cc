#include "serving/http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <unordered_map>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "serving/json.h"
#include "testing/fault_injection.h"

namespace serenade {

namespace {

constexpr size_t kMaxHeaderBytes = 64 * 1024;

enum class ReadResult { kOk, kClosed, kTimeout };

// Reads until the terminator appears in the buffer, the peer closes, or
// the socket's receive timeout elapses (so server threads can re-check
// their stop flag while a keep-alive connection idles).
ReadResult ReadUntil(int fd, std::string* buffer, const char* terminator) {
  char chunk[4096];
  while (buffer->find(terminator) == std::string::npos) {
    if (buffer->size() > kMaxHeaderBytes) return ReadResult::kClosed;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) return ReadResult::kClosed;
    if (n < 0) {
      return (errno == EAGAIN || errno == EWOULDBLOCK) ? ReadResult::kTimeout
                                                       : ReadResult::kClosed;
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }
  return ReadResult::kOk;
}

ReadResult ReadExact(int fd, std::string* buffer, size_t total) {
  char chunk[4096];
  while (buffer->size() < total) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) return ReadResult::kClosed;
    if (n < 0) {
      return (errno == EAGAIN || errno == EWOULDBLOCK) ? ReadResult::kTimeout
                                                       : ReadResult::kClosed;
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }
  return ReadResult::kOk;
}

bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 307: return "Temporary Redirect";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

void ParseQuery(const std::string& query,
                std::map<std::string, std::string>* out) {
  size_t start = 0;
  while (start < query.size()) {
    size_t end = query.find('&', start);
    if (end == std::string::npos) end = query.size();
    const std::string pair = query.substr(start, end - start);
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      (*out)[UrlDecode(pair)] = "";
    } else {
      (*out)[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
    }
    start = end + 1;
  }
}

// Outcome of parsing the header block at the front of a connection's
// input buffer (no socket IO — the reactor owns all reads).
enum class ParseHeadResult {
  kNeedMore,   // no \r\n\r\n yet; keep reading
  kMalformed,  // unparseable request line / bad version → 400
  kOversized,  // declared Content-Length over kMaxBodyBytes → 413,
               // decided from the headers alone (fail fast, the body is
               // never buffered)
  kOk,
};

// Parses one request head from `buffer`. On kOk fills everything except
// the body and reports the header block size (`*header_bytes`, includes
// the blank line) and the declared body length so the caller can wait
// for exactly `*header_bytes + *body_length` buffered bytes.
ParseHeadResult ParseRequestHead(const std::string& buffer,
                                 HttpRequest* request, bool* keep_alive,
                                 size_t* header_bytes, size_t* body_length) {
  const size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string::npos) return ParseHeadResult::kNeedMore;
  const std::string head = buffer.substr(0, header_end);

  // Request line.
  const size_t line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) return ParseHeadResult::kMalformed;
  request->method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = request_line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return ParseHeadResult::kMalformed;
  }

  const size_t question = target.find('?');
  if (question == std::string::npos) {
    request->path = UrlDecode(target);
  } else {
    request->path = UrlDecode(target.substr(0, question));
    ParseQuery(target.substr(question + 1), &request->query);
  }

  // Headers.
  size_t cursor = line_end == std::string::npos ? head.size() : line_end + 2;
  while (cursor < head.size()) {
    size_t eol = head.find("\r\n", cursor);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(cursor, eol - cursor);
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = ToLower(line.substr(0, colon));
      size_t value_start = colon + 1;
      while (value_start < line.size() && line[value_start] == ' ') {
        ++value_start;
      }
      request->headers[name] = line.substr(value_start);
    }
    cursor = eol + 2;
  }

  *keep_alive = version == "HTTP/1.1";
  auto connection = request->headers.find("connection");
  if (connection != request->headers.end()) {
    const std::string value = ToLower(connection->second);
    if (value == "close") *keep_alive = false;
    if (value == "keep-alive") *keep_alive = true;
  }

  *header_bytes = header_end + 4;
  *body_length = 0;
  auto content_length = request->headers.find("content-length");
  if (content_length != request->headers.end()) {
    *body_length = static_cast<size_t>(
        std::strtoull(content_length->second.c_str(), nullptr, 10));
    if (*body_length > kMaxBodyBytes) return ParseHeadResult::kOversized;
  }
  return ParseHeadResult::kOk;
}

// Response headers the server owns; application-set duplicates (e.g. a
// proxied backend's parsed Content-Length) are dropped.
bool IsManagedHeader(const std::string& lower_name) {
  return lower_name == "content-type" || lower_name == "content-length" ||
         lower_name == "connection";
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    StatusText(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : response.headers) {
    if (IsManagedHeader(ToLower(name))) continue;
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  out += response.body;
  return out;
}

}  // namespace

std::string UrlDecode(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '+') {
      out.push_back(' ');
    } else if (text[i] == '%' && i + 2 < text.size()) {
      auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      const int hi = hex(text[i + 1]), lo = hex(text[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back('%');
      }
    } else {
      out.push_back(text[i]);
    }
  }
  return out;
}

std::string HttpRequest::Param(const std::string& key,
                               const std::string& fallback) const {
  auto it = query.find(key);
  return it == query.end() ? fallback : it->second;
}

// Server-parsed maps hold lower-cased names, application-set maps may
// hold canonical casing; a case-insensitive scan serves both (header
// maps are tiny).
static std::string FindHeader(
    const std::map<std::string, std::string>& headers,
                       const std::string& name, const std::string& fallback) {
  const std::string lower = ToLower(name);
  for (const auto& [key, value] : headers) {
    if (ToLower(key) == lower) return value;
  }
  return fallback;
}

std::string HttpRequest::Header(const std::string& name,
                                const std::string& fallback) const {
  return FindHeader(headers, name, fallback);
}

std::string HttpResponse::Header(const std::string& name,
                                 const std::string& fallback) const {
  return FindHeader(headers, name, fallback);
}

HttpResponse HttpResponse::Json(std::string body) {
  HttpResponse response;
  response.body = std::move(body);
  return response;
}

HttpResponse HttpResponse::Text(std::string body, std::string content_type) {
  HttpResponse response;
  response.content_type = std::move(content_type);
  response.body = std::move(body);
  return response;
}

const char* ApiErrorCode(int status) {
  switch (status) {
    case 400: return "bad_request";
    case 404: return "not_found";
    case 405: return "method_not_allowed";
    case 409: return "conflict";
    case 413: return "payload_too_large";
    case 429: return "too_many_requests";
    case 503: return "unavailable";
    case 504: return "deadline_exceeded";
    default: return "internal";
  }
}

int HttpStatusForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kNotFound:
    case StatusCode::kIoError: return 404;
    case StatusCode::kCorruption: return 409;
    case StatusCode::kResourceExhausted: return 429;
    case StatusCode::kUnavailable: return 503;
    case StatusCode::kDeadlineExceeded: return 504;
    default: return 500;
  }
}

HttpResponse ApiError(int status, const std::string& message,
                      const std::string& trace_id) {
  JsonWriter writer;
  writer.BeginObject().Key("error").BeginObject();
  writer.Key("code").Value(ApiErrorCode(status));
  writer.Key("message").Value(message);
  if (!trace_id.empty()) writer.Key("trace_id").Value(trace_id);
  writer.EndObject().EndObject();
  HttpResponse response;
  response.status = status;
  response.body = writer.str();
  return response;
}

// --- router ------------------------------------------------------------------

void Router::Handle(std::string method, std::string path, Handler handler) {
  routes_[std::move(path)][std::move(method)] = std::move(handler);
}

HttpResponse Router::Dispatch(const HttpRequest& request,
                              Trace* trace) const {
  const std::string trace_id = trace == nullptr ? "" : trace->id();

  auto route = routes_.find(request.path);
  if (route == routes_.end()) {
    return ApiError(404, "unknown path: " + request.path, trace_id);
  }
  auto method = route->second.find(request.method);
  if (method == route->second.end()) {
    HttpResponse response =
        ApiError(405, "method " + request.method + " not allowed for " +
                          request.path, trace_id);
    std::string allow;
    for (const auto& [name, handler] : route->second) {
      if (!allow.empty()) allow += ", ";
      allow += name;
    }
    response.headers["Allow"] = allow;
    return response;
  }
  return method->second(request, trace);
}

// --- server ------------------------------------------------------------------
//
// Epoll reactor (DESIGN.md §10), one event loop per usable CPU. Each
// reactor thread owns an epoll instance, an eventfd wakeup, a hashed timer
// wheel, and the table of the connections it serves. Whichever reactor
// the kernel wakes for the shared listener (EPOLLEXCLUSIVE) accepts, and
// hands each new connection to the reactor with the fewest open
// connections, through that reactor's inbox and wakeup — so a reactor
// busy in a handler neither stalls accepts nor skews the spread. A
// request runs inline on the reactor that owns its connection, which also
// writes the response. Requests under kAdminPathPrefix run on an offload
// pool instead and post their responses back through the owner's inbox as
// (fd, connection-id) validated completions, so a connection closed (or
// recycled) mid-dispatch can never receive another request's response.

size_t UsableCpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max<size_t>(1, static_cast<size_t>(CPU_COUNT(&set)));
  }
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

namespace detail {

// Timer wheel granularity: deadlines are rounded to kTickMs, which is
// far below any meaningful idle/request timeout.
constexpr uint64_t kTickMs = 20;
constexpr size_t kWheelSlots = 512;

// epoll_event user-data tags for the two non-connection fds. Real
// connections carry their Connection* — always a heap address, never 1/2.
constexpr uint64_t kListenerTag = 1;
constexpr uint64_t kWakeTag = 2;

uint64_t SteadyMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t SteadyUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool IsAdminPath(const std::string& path) {
  return path.rfind(kAdminPathPrefix, 0) == 0;
}

// Monotonic counters shared by every reactor. Owned by HttpServer via
// shared_ptr so stats() keeps answering after Stop() tears the core down.
struct ServerCounters {
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> idle_timeouts{0};
  std::atomic<uint64_t> deadline_timeouts{0};
  std::atomic<uint64_t> open{0};
  std::atomic<uint64_t> loop_iterations{0};
  std::atomic<uint64_t> requests{0};
};

enum class ConnState : uint8_t { kReadHeader, kReadBody, kDispatch, kWrite };

// One nonblocking connection. Owned and mutated exclusively by its
// reactor thread; the admin pool only ever sees the (fd, id) pair.
struct Connection {
  int fd = -1;
  uint64_t id = 0;  // generation token validated on admin completion
  ConnState state = ConnState::kReadHeader;
  std::string in;   // unconsumed inbound bytes
  std::string out;  // serialized response not yet written
  size_t out_offset = 0;
  bool close_after_write = false;
  bool peer_eof = false;
  uint32_t epoll_events = EPOLLIN;  // currently armed interest

  HttpRequest request;  // request being assembled
  bool keep_alive = false;
  size_t header_bytes = 0;
  size_t body_length = 0;
  uint64_t request_start_us = 0;  // first byte of the current request

  // Timer-wheel linkage (one pending deadline per connection).
  uint64_t deadline_ms = 0;
  bool deadline_is_idle = true;
  bool in_wheel = false;
  size_t wheel_slot = 0;
  std::list<Connection*>::iterator wheel_it;
};

class ReactorCore;

class Reactor {
 public:
  explicit Reactor(ReactorCore* core) : core_(core) {}
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  Status Init(bool shared_listener);
  void Run();
  void Wake();
  // Hands a connection another reactor accepted to this one.
  void Adopt(int fd);
  void PostCompletion(uint64_t id, int fd, HttpResponse response);

 private:
  friend class ReactorCore;  // Place() reads and counts load_

  void HandleTicks(uint64_t now_ms);
  void HandleAccept();
  void Admit(int fd);
  void Shed(int fd);
  void DropAdopted(int fd);
  void ApplyInbox();
  // The Handle*/Serve*/Dispatch/*Write/*Response chain returns false when
  // it closed the connection (the caller must not touch it again).
  bool HandleReadable(Connection* c);
  bool ServeBuffered(Connection* c);
  bool Dispatch(Connection* c);
  void Offload(Connection* c);
  bool QueueResponse(Connection* c, const HttpResponse& response,
                     bool keep_alive);
  bool ContinueWrite(Connection* c);
  bool FinishResponse(Connection* c);
  void StartRequestTimer(Connection* c);
  void Schedule(Connection* c, uint64_t deadline_ms, bool idle);
  void Unschedule(Connection* c);
  void ExpireConnection(Connection* c);
  void CloseConnection(Connection* c);
  void UpdateInterest(Connection* c, uint32_t events);
  void CloseIdleConnections();
  void ForceCloseAll();

  ReactorCore* core_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint64_t next_conn_id_ = 1;
  uint64_t last_tick_ = 0;
  uint64_t drain_deadline_ms_ = 0;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::list<Connection*> wheel_[kWheelSlots];
  // Open connections owned by this reactor or on their way to it.
  std::atomic<size_t> load_{0};

  // Inbox filled from other threads: connections handed over by the
  // acceptor and responses of offloaded admin requests.
  std::mutex inbox_mutex_;
  struct Completion {
    uint64_t id;
    int fd;
    HttpResponse response;
  };
  std::vector<int> adopted_;
  std::vector<Completion> completions_;
};

// Owns the listener, the reactor threads, and the admin offload pool.
// Built on Start() and destroyed on Stop(), so a stopped server can be
// restarted.
class ReactorCore {
 public:
  ReactorCore(const HttpHandler* handler, const HttpServerOptions& options,
              ServerCounters* counters, MetricHistogram* loop_lag)
      : handler_(handler),
        options_(options),
        counters_(counters),
        loop_lag_(loop_lag) {}
  ~ReactorCore() { Shutdown(); }

  Status Start(uint16_t port);
  void Shutdown();

  uint16_t port() const { return port_; }
  int listen_fd() const { return listen_fd_.load(std::memory_order_acquire); }
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

  // Picks the reactor with the fewest open connections and counts the
  // new one against it. Serialised, so that concurrent accepts on two
  // reactors cannot both pick the same one.
  Reactor* Place();
  // Runs the handler; an exception becomes a 500 error envelope.
  HttpResponse Invoke(const HttpRequest& request) const;
  // The pool admin requests run on, started by the first one — today's
  // serving processes rarely see any, and an idle pool is threads for
  // nothing.
  ThreadPool& admin_pool();

  const HttpHandler* handler_;
  const HttpServerOptions options_;
  ServerCounters* counters_;
  MetricHistogram* loop_lag_;

 private:
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::vector<std::thread> threads_;
  std::mutex place_mutex_;
  std::once_flag admin_once_;
  std::unique_ptr<ThreadPool> admin_pool_;
};

Reactor::~Reactor() {
  ForceCloseAll();
  // A connection handed over after this loop's last inbox pass was never
  // admitted.
  for (int fd : adopted_) DropAdopted(fd);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status Reactor::Init(bool shared_listener) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::IoError("epoll_create1() failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Status::IoError("eventfd() failed");
  epoll_event wake{};
  wake.events = EPOLLIN;
  wake.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake) != 0) {
    return Status::IoError("epoll_ctl(wake) failed");
  }
  epoll_event listener{};
  // EPOLLEXCLUSIVE stops the thundering herd when several reactors share
  // the listener, and skips a reactor that is busy in a handler; with
  // one reactor it is pointless (and EPOLL_CTL_MOD on an exclusive fd is
  // an error), so plain EPOLLIN suffices.
  listener.events = EPOLLIN | (shared_listener ? EPOLLEXCLUSIVE : 0u);
  listener.data.u64 = kListenerTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, core_->listen_fd(), &listener) !=
      0) {
    return Status::IoError("epoll_ctl(listener) failed");
  }
  return Status::Ok();
}

void Reactor::Wake() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Reactor::Adopt(int fd) {
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    adopted_.push_back(fd);
  }
  Wake();
}

void Reactor::PostCompletion(uint64_t id, int fd, HttpResponse response) {
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    completions_.push_back(Completion{id, fd, std::move(response)});
  }
  Wake();
}

void Reactor::Run() {
  std::vector<epoll_event> events(128);
  while (true) {
    const uint64_t now_ms = SteadyMs();
    HandleTicks(now_ms);
    ApplyInbox();
    if (core_->stopping()) {
      if (drain_deadline_ms_ == 0) {
        drain_deadline_ms_ = now_ms + core_->options_.drain_timeout_ms;
        CloseIdleConnections();
      }
      if (conns_.empty() || now_ms >= drain_deadline_ms_) break;
    }
    // With no connection there is no deadline to tick: sleep until the
    // listener, a handed-over connection, or Stop() wakes the loop.
    const int timeout_ms = conns_.empty() && !core_->stopping()
                               ? -1
                               : static_cast<int>(kTickMs);
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    const uint64_t batch_start_us = SteadyUs();
    for (int i = 0; i < n; ++i) {
      const epoll_event& event = events[i];
      if (event.data.u64 == kListenerTag) {
        HandleAccept();
        continue;
      }
      if (event.data.u64 == kWakeTag) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      Connection* c = static_cast<Connection*>(event.data.ptr);
      if (event.events & (EPOLLHUP | EPOLLERR)) {
        // Both directions are gone; any buffered request could not be
        // answered anyway.
        CloseConnection(c);
        continue;
      }
      if (event.events & EPOLLIN) {
        HandleReadable(c);
      } else if ((event.events & EPOLLOUT) && ContinueWrite(c) &&
                 c->state == ConnState::kReadHeader) {
        ServeBuffered(c);  // requests pipelined behind the parked write
      }
    }
    ApplyInbox();
    core_->counters_->loop_iterations.fetch_add(1, std::memory_order_relaxed);
    if (n > 0 && core_->loop_lag_ != nullptr) {
      core_->loop_lag_->Record(SteadyUs() - batch_start_us);
    }
  }
  ForceCloseAll();
}

void Reactor::HandleTicks(uint64_t now_ms) {
  const uint64_t tick = now_ms / kTickMs;
  if (last_tick_ == 0) {
    last_tick_ = tick;
    return;
  }
  if (tick <= last_tick_) return;
  uint64_t steps = tick - last_tick_;
  last_tick_ = tick;
  // A gap longer than one rotation would revisit slots; one full sweep
  // already inspects every pending deadline.
  steps = std::min<uint64_t>(steps, kWheelSlots);
  for (uint64_t i = 0; i < steps; ++i) {
    auto& slot = wheel_[(tick - i) % kWheelSlots];
    for (auto it = slot.begin(); it != slot.end();) {
      Connection* c = *it;
      if (c->deadline_ms <= now_ms) {
        // A deadline further than one rotation out parks in its slot
        // until a later visit (lazy re-check instead of a rounds field).
        it = slot.erase(it);
        c->in_wheel = false;
        ExpireConnection(c);
      } else {
        ++it;
      }
    }
  }
}

void Reactor::HandleAccept() {
  while (true) {
    const int listen_fd = core_->listen_fd();
    if (listen_fd < 0) return;
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Descriptor exhaustion: there is no fd to answer on, so the
        // shed is silent; the backlog drains when capacity returns.
        core_->counters_->shed.fetch_add(1, std::memory_order_relaxed);
        LOG_WARNING << "accept failed: out of file descriptors";
      }
      return;  // EAGAIN, or the listener was closed by Stop()
    }
    SERENADE_FAULT_POINT(FaultSite::kHttpAcceptOverload, {
      // Simulated fd pressure — shed exactly like the connection cap.
      Shed(fd);
      continue;
    });
    if (core_->counters_->open.load(std::memory_order_relaxed) >=
            core_->options_.max_connections ||
        core_->stopping()) {
      Shed(fd);
      continue;
    }
    // Count the connection now, so the cap and the next placement see it
    // before its owner gets round to admitting it.
    core_->counters_->open.fetch_add(1, std::memory_order_relaxed);
    Reactor* owner = core_->Place();
    if (owner == this) {
      Admit(fd);
    } else {
      owner->Adopt(fd);
    }
  }
}

void Reactor::Admit(int fd) {
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  auto owned = std::make_unique<Connection>();
  Connection* c = owned.get();
  c->fd = fd;
  c->id = next_conn_id_++;
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.ptr = c;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
    DropAdopted(fd);
    return;
  }
  conns_[fd] = std::move(owned);
  core_->counters_->accepted.fetch_add(1, std::memory_order_relaxed);
  if (core_->options_.idle_timeout_ms > 0) {
    Schedule(c, SteadyMs() + core_->options_.idle_timeout_ms, /*idle=*/true);
  }
}

void Reactor::Shed(int fd) {
  core_->counters_->shed.fetch_add(1, std::memory_order_relaxed);
  HttpResponse response = ApiError(503, "connection limit reached");
  response.headers["Retry-After"] =
      std::to_string(core_->options_.retry_after_seconds);
  const std::string bytes = SerializeResponse(response, /*keep_alive=*/false);
  // Best effort: the envelope is far below a fresh socket's send buffer,
  // so a single send either takes it whole or the peer is already gone.
  [[maybe_unused]] const ssize_t n =
      ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  ::close(fd);
}

// Closes a handed-over connection that never made it into conns_.
void Reactor::DropAdopted(int fd) {
  ::close(fd);
  core_->counters_->open.fetch_sub(1, std::memory_order_relaxed);
  load_.fetch_sub(1, std::memory_order_relaxed);
}

void Reactor::ApplyInbox() {
  std::vector<int> adopted;
  std::vector<Completion> completions;
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    adopted.swap(adopted_);
    completions.swap(completions_);
  }
  for (int fd : adopted) {
    if (core_->stopping()) {
      DropAdopted(fd);
    } else {
      Admit(fd);
    }
  }
  for (Completion& done : completions) {
    auto it = conns_.find(done.fd);
    if (it == conns_.end()) continue;
    Connection* c = it->second.get();
    // The id check rejects completions for a connection that was closed
    // mid-dispatch and whose fd the kernel already recycled.
    if (c->id != done.id || c->state != ConnState::kDispatch) continue;
    if (QueueResponse(c, done.response, c->keep_alive) &&
        c->state == ConnState::kReadHeader) {
      ServeBuffered(c);  // requests pipelined behind the admin call
    }
  }
}

bool Reactor::HandleReadable(Connection* c) {
  SERENADE_FAULT_POINT(FaultSite::kHttpServerStallRead, {
    // Simulated reactor stall: skip this readiness round. Level-triggered
    // epoll re-reports the buffered bytes on the next iteration.
    return true;
  });
  char chunk[16384];
  while (true) {
    const ssize_t n = ::recv(c->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      c->in.append(chunk, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(chunk)) break;  // likely drained
      continue;
    }
    if (n == 0) {
      c->peer_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(c);
    return false;
  }
  return ServeBuffered(c);
}

// Serves the complete requests buffered on `c` one after another — a loop,
// so a deep pipeline cannot deepen the stack. Stops when the buffer holds
// no complete request, a response write is parked on EPOLLOUT, or an admin
// request went to the offload pool.
bool Reactor::ServeBuffered(Connection* c) {
  while (c->state == ConnState::kReadHeader ||
         c->state == ConnState::kReadBody) {
    if (c->state == ConnState::kReadHeader) {
      if (c->request_start_us == 0 && !c->in.empty()) StartRequestTimer(c);
      switch (ParseRequestHead(c->in, &c->request, &c->keep_alive,
                               &c->header_bytes, &c->body_length)) {
        case ParseHeadResult::kNeedMore:
          if (c->in.size() > kMaxHeaderBytes) {
            return QueueResponse(c, ApiError(400, "malformed request"),
                                 /*keep_alive=*/false);
          }
          if (c->peer_eof) {
            CloseConnection(c);
            return false;
          }
          return true;
        case ParseHeadResult::kMalformed:
          return QueueResponse(c, ApiError(400, "malformed request"),
                               /*keep_alive=*/false);
        case ParseHeadResult::kOversized:
          // Fail fast: the declared length alone condemns the request;
          // the body is never buffered and the connection closes after
          // the 413 (it is unusable with the unread payload in flight).
          return QueueResponse(
              c,
              ApiError(413, "request body exceeds the " +
                                std::to_string(kMaxBodyBytes) + "-byte limit"),
              /*keep_alive=*/false);
        case ParseHeadResult::kOk:
          c->state = ConnState::kReadBody;
          break;
      }
    }
    const size_t total = c->header_bytes + c->body_length;
    if (c->in.size() < total) {
      if (c->peer_eof) {
        CloseConnection(c);
        return false;
      }
      return true;
    }
    c->request.body = c->in.substr(c->header_bytes, c->body_length);
    c->in.erase(0, total);
    if (!Dispatch(c)) return false;
  }
  return true;
}

bool Reactor::Dispatch(Connection* c) {
  c->state = ConnState::kDispatch;
  c->request.parse_micros = SteadyUs() - c->request_start_us;
  if (IsAdminPath(c->request.path)) {
    Offload(c);
    return true;
  }
  const HttpResponse response = core_->Invoke(c->request);
  c->request = HttpRequest{};
  const uint64_t deadline_ms = core_->options_.request_deadline_ms;
  if (deadline_ms > 0 &&
      SteadyUs() - c->request_start_us >= deadline_ms * 1000) {
    // The wheel cannot fire while a handler holds this thread, so an
    // overdue request is caught here and closed unanswered.
    core_->counters_->deadline_timeouts.fetch_add(1,
                                                  std::memory_order_relaxed);
    CloseConnection(c);
    return false;
  }
  return QueueResponse(c, response, c->keep_alive);
}

void Reactor::Offload(Connection* c) {
  // Drop read interest while the pool runs the handler: level-triggered
  // epoll would otherwise spin on buffered pipelined bytes. EPOLLHUP/ERR
  // are still delivered on a zero mask, so a dying peer frees its slot.
  UpdateInterest(c, 0);
  // Admin calls can run for seconds: only a request deadline may cut
  // them short, never the idle timer.
  if (core_->options_.request_deadline_ms == 0) Unschedule(c);
  HttpRequest request = std::move(c->request);
  c->request = HttpRequest{};
  core_->admin_pool().Schedule(
      [this, id = c->id, fd = c->fd, request = std::move(request)] {
        PostCompletion(id, fd, core_->Invoke(request));
      });
}

bool Reactor::QueueResponse(Connection* c, const HttpResponse& response,
                            bool keep_alive) {
  c->out = SerializeResponse(response, keep_alive);
  c->out_offset = 0;
  c->close_after_write = !keep_alive;
  c->state = ConnState::kWrite;
  // A response in flight must not stall forever on a non-reading peer:
  // bound the write with the idle timeout unless a request deadline is
  // already ticking.
  if (core_->options_.request_deadline_ms == 0 &&
      core_->options_.idle_timeout_ms > 0) {
    Schedule(c, SteadyMs() + core_->options_.idle_timeout_ms, /*idle=*/true);
  }
  return ContinueWrite(c);
}

bool Reactor::ContinueWrite(Connection* c) {
  if (c->state != ConnState::kWrite) return true;
  SERENADE_FAULT_POINT(FaultSite::kHttpServerCloseMidWrite, {
    // Crash mid-response: flush a strict prefix, then slam the door.
    const size_t remaining = c->out.size() - c->out_offset;
    const size_t prefix =
        remaining == 0 ? 0
                       : static_cast<size_t>(serenade_fi->RandBelow(remaining));
    if (prefix > 0) {
      [[maybe_unused]] const ssize_t n =
          ::send(c->fd, c->out.data() + c->out_offset, prefix, MSG_NOSIGNAL);
    }
    CloseConnection(c);
    return false;
  });
  while (c->out_offset < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_offset,
                             c->out.size() - c->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full: resume from out_offset on EPOLLOUT.
      UpdateInterest(c, EPOLLOUT);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(c);
    return false;
  }
  return FinishResponse(c);
}

// Returns the connection to kReadHeader; the caller serves whatever is
// already buffered behind the response.
bool Reactor::FinishResponse(Connection* c) {
  c->out.clear();
  c->out.shrink_to_fit();  // a large response must not pin idle memory
  c->out_offset = 0;
  if (c->close_after_write || core_->stopping()) {
    CloseConnection(c);
    return false;
  }
  c->state = ConnState::kReadHeader;
  c->request_start_us = 0;
  UpdateInterest(c, EPOLLIN);
  if (core_->options_.idle_timeout_ms > 0) {
    Schedule(c, SteadyMs() + core_->options_.idle_timeout_ms, /*idle=*/true);
  } else {
    Unschedule(c);
  }
  return true;
}

void Reactor::StartRequestTimer(Connection* c) {
  c->request_start_us = SteadyUs();
  if (core_->options_.request_deadline_ms > 0) {
    Schedule(c, SteadyMs() + core_->options_.request_deadline_ms,
             /*idle=*/false);
  }
  // With no request deadline the idle deadline set on admission (or the
  // previous FinishResponse) deliberately keeps ticking un-refreshed, so
  // a slowloris peer trickling header bytes still expires.
}

void Reactor::Schedule(Connection* c, uint64_t deadline_ms, bool idle) {
  Unschedule(c);
  c->deadline_ms = deadline_ms;
  c->deadline_is_idle = idle;
  // Round UP to the next tick boundary: the sweep visits a slot at
  // now >= tick * kTickMs, so rounding down would visit while the
  // deadline is still (sub-tick) in the future and re-park the entry for
  // a full wheel rotation.
  const size_t slot =
      static_cast<size_t>(deadline_ms / kTickMs + 1) % kWheelSlots;
  wheel_[slot].push_front(c);
  c->wheel_slot = slot;
  c->wheel_it = wheel_[slot].begin();
  c->in_wheel = true;
}

void Reactor::Unschedule(Connection* c) {
  if (!c->in_wheel) return;
  wheel_[c->wheel_slot].erase(c->wheel_it);
  c->in_wheel = false;
}

void Reactor::ExpireConnection(Connection* c) {
  auto& counter = c->deadline_is_idle ? core_->counters_->idle_timeouts
                                      : core_->counters_->deadline_timeouts;
  counter.fetch_add(1, std::memory_order_relaxed);
  CloseConnection(c);
}

void Reactor::CloseConnection(Connection* c) {
  Unschedule(c);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
  // Gauge drops before the peer can observe the FIN, so "saw the close"
  // implies "no longer counted" for external observers.
  core_->counters_->open.fetch_sub(1, std::memory_order_relaxed);
  load_.fetch_sub(1, std::memory_order_relaxed);
  ::close(c->fd);
  conns_.erase(c->fd);  // frees c
}

void Reactor::UpdateInterest(Connection* c, uint32_t events) {
  if (c->epoll_events == events) return;
  epoll_event event{};
  event.events = events;
  event.data.ptr = c;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &event);
  c->epoll_events = events;
}

void Reactor::CloseIdleConnections() {
  std::vector<Connection*> idle;
  for (auto& [fd, conn] : conns_) {
    if (conn->state == ConnState::kReadHeader && conn->request_start_us == 0) {
      idle.push_back(conn.get());
    }
  }
  for (Connection* c : idle) CloseConnection(c);
}

void Reactor::ForceCloseAll() {
  while (!conns_.empty()) CloseConnection(conns_.begin()->second.get());
}

Reactor* ReactorCore::Place() {
  std::lock_guard<std::mutex> lock(place_mutex_);
  Reactor* best = reactors_.front().get();
  for (const auto& reactor : reactors_) {
    if (reactor->load_.load(std::memory_order_relaxed) <
        best->load_.load(std::memory_order_relaxed)) {
      best = reactor.get();
    }
  }
  best->load_.fetch_add(1, std::memory_order_relaxed);
  return best;
}

HttpResponse ReactorCore::Invoke(const HttpRequest& request) const {
  HttpResponse response;
  try {
    response = (*handler_)(request);
  } catch (const std::exception& e) {
    LOG_ERROR << "handler threw: " << e.what();
    response = ApiError(500, "internal error");
  }
  counters_->requests.fetch_add(1, std::memory_order_relaxed);
  return response;
}

ThreadPool& ReactorCore::admin_pool() {
  std::call_once(admin_once_, [this] {
    admin_pool_ = std::make_unique<ThreadPool>(
        std::max<size_t>(4, std::thread::hardware_concurrency()));
  });
  return *admin_pool_;
}

Status ReactorCore::Start(uint16_t port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
      0) {
    ::close(fd);
    return Status::IoError("bind() failed for port " + std::to_string(port));
  }
  if (::listen(fd, 512) != 0) {
    ::close(fd);
    return Status::IoError("listen() failed");
  }
  socklen_t length = sizeof(address);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &length);
  port_ = ntohs(address.sin_port);
  listen_fd_.store(fd, std::memory_order_release);

  const size_t reactor_count = std::max<size_t>(1, options_.reactor_threads);
  for (size_t i = 0; i < reactor_count; ++i) {
    auto reactor = std::make_unique<Reactor>(this);
    const Status status = reactor->Init(reactor_count > 1);
    if (!status.ok()) {
      Shutdown();
      return status;
    }
    reactors_.push_back(std::move(reactor));
  }
  for (auto& reactor : reactors_) {
    threads_.emplace_back([r = reactor.get()] { r->Run(); });
  }
  return Status::Ok();
}

void ReactorCore::Shutdown() {
  stopping_.store(true, std::memory_order_release);
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
  for (auto& reactor : reactors_) reactor->Wake();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  // The pool drains queued admin handlers; their completions post into
  // still-live reactor objects (harmless — the loops have exited) and
  // must happen before the reactors and their eventfds are destroyed.
  admin_pool_.reset();
  reactors_.clear();
}

}  // namespace detail

HttpServer::HttpServer(HttpHandler handler, HttpServerOptions options)
    : handler_(std::move(handler)),
      options_(options),
      counters_(std::make_shared<detail::ServerCounters>()) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start(uint16_t port) {
  if (core_ != nullptr) return Status::InvalidArgument("server already started");
  auto core = std::make_unique<detail::ReactorCore>(&handler_, options_,
                                                    counters_.get(), loop_lag_);
  SERENADE_RETURN_IF_ERROR(core->Start(port));
  port_ = core->port();
  core_ = std::move(core);
  return Status::Ok();
}

void HttpServer::Stop() {
  if (core_ == nullptr) return;
  core_->Shutdown();
  core_.reset();
}

uint64_t HttpServer::requests_served() const {
  return counters_->requests.load(std::memory_order_relaxed);
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats stats;
  stats.accepted = counters_->accepted.load(std::memory_order_relaxed);
  stats.shed = counters_->shed.load(std::memory_order_relaxed);
  stats.idle_timeouts =
      counters_->idle_timeouts.load(std::memory_order_relaxed);
  stats.deadline_timeouts =
      counters_->deadline_timeouts.load(std::memory_order_relaxed);
  stats.open_connections = counters_->open.load(std::memory_order_relaxed);
  stats.loop_iterations =
      counters_->loop_iterations.load(std::memory_order_relaxed);
  stats.requests_served = counters_->requests.load(std::memory_order_relaxed);
  return stats;
}

// --- client ------------------------------------------------------------------

HttpClient::~HttpClient() { Close(); }

Status HttpClient::Connect(uint16_t port) {
  Close();
  SERENADE_FAULT_POINT(FaultSite::kHttpConnect, {
    return Status::Unavailable("injected: connect refused by port " +
                               std::to_string(port));
  });
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::IoError("socket() failed");
  const int enable = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);

  if (options_.connect_timeout_ms > 0) {
    // Non-blocking connect bounded by poll(), so an unresponsive peer
    // (e.g. a SYN-dropping backend) cannot stall the caller.
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    const int rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                             sizeof(address));
    if (rc != 0) {
      if (errno != EINPROGRESS) {
        Close();
        return Status::Unavailable("connect() failed to port " +
                                   std::to_string(port));
      }
      pollfd pending{fd_, POLLOUT, 0};
      const int ready =
          ::poll(&pending, 1, static_cast<int>(options_.connect_timeout_ms));
      if (ready == 0) {
        Close();
        return Status::DeadlineExceeded("connect timed out to port " +
                                        std::to_string(port));
      }
      int error = 0;
      socklen_t length = sizeof(error);
      if (ready < 0 ||
          ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &error, &length) != 0 ||
          error != 0) {
        Close();
        return Status::Unavailable("connect() failed to port " +
                                   std::to_string(port));
      }
    }
    ::fcntl(fd_, F_SETFL, flags);
  } else if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                       sizeof(address)) != 0) {
    Close();
    return Status::Unavailable("connect() failed to port " +
                               std::to_string(port));
  }

  if (options_.io_timeout_ms > 0) {
    timeval timeout{
        static_cast<time_t>(options_.io_timeout_ms / 1000),
        static_cast<suseconds_t>((options_.io_timeout_ms % 1000) * 1000)};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  }
  port_ = port;
  return Status::Ok();
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<HttpResponse> HttpClient::RoundTrip(const std::string& request_text) {
  if (fd_ < 0) return Status::Unavailable("not connected");
  SERENADE_FAULT_DELAY(FaultSite::kHttpLatency);
  SERENADE_FAULT_POINT(FaultSite::kHttpSend,
                       { return Status::IoError("injected: send failed"); });
  if (!WriteAll(fd_, request_text)) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded("send timed out");
    }
    return Status::IoError("send failed");
  }

  std::string buffer;
  SERENADE_FAULT_POINT(FaultSite::kHttpRecv, {
    return Status::IoError("injected: connection reset mid-response");
  });
  switch (ReadUntil(fd_, &buffer, "\r\n\r\n")) {
    case ReadResult::kOk:
      break;
    case ReadResult::kTimeout:
      return Status::DeadlineExceeded("read timed out waiting for headers");
    case ReadResult::kClosed:
      return Status::IoError("connection closed while reading headers");
  }
  const size_t header_end = buffer.find("\r\n\r\n");
  const std::string head = buffer.substr(0, header_end);

  HttpResponse response;
  const size_t status_start = head.find(' ');
  if (status_start == std::string::npos || head.compare(0, 5, "HTTP/") != 0) {
    return Status::Corruption("bad status line");
  }
  response.status = std::atoi(head.c_str() + status_start + 1);

  // Parse every response header (lower-cased names) so callers can read
  // application headers such as the echoed X-Serenade-Trace-Id.
  size_t cursor = head.find("\r\n");
  cursor = cursor == std::string::npos ? head.size() : cursor + 2;
  while (cursor < head.size()) {
    size_t eol = head.find("\r\n", cursor);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(cursor, eol - cursor);
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = ToLower(line.substr(0, colon));
      size_t value_start = colon + 1;
      while (value_start < line.size() && line[value_start] == ' ') {
        ++value_start;
      }
      response.headers[name] = line.substr(value_start);
    }
    cursor = eol + 2;
  }

  size_t body_length = 0;
  auto content_length = response.headers.find("content-length");
  if (content_length != response.headers.end()) {
    body_length = static_cast<size_t>(
        std::strtoull(content_length->second.c_str(), nullptr, 10));
    if (body_length > kMaxBodyBytes) {
      return Status::Corruption("response body of " +
                                std::to_string(body_length) +
                                " bytes exceeds the client limit");
    }
  }
  auto content_type = response.headers.find("content-type");
  if (content_type != response.headers.end()) {
    response.content_type = content_type->second;
  }
  const size_t total = header_end + 4 + body_length;
  if (buffer.size() < total) {
    switch (ReadExact(fd_, &buffer, total)) {
      case ReadResult::kOk:
        break;
      case ReadResult::kTimeout:
        return Status::DeadlineExceeded("read timed out mid-body");
      case ReadResult::kClosed:
        return Status::IoError("connection closed while reading body");
    }
  }
  response.body = buffer.substr(header_end + 4, body_length);
  // Models a middlebox or crashing peer that delivered the status line
  // and headers but cut the body short: status stays 200, body shrinks
  // to a strict prefix. Callers must not trust status alone.
  SERENADE_FAULT_POINT(FaultSite::kHttpTruncateBody, {
    response.body.resize(
        static_cast<size_t>(serenade_fi->RandBelow(response.body.size())));
  });
  return response;
}

StatusOr<HttpResponse> HttpClient::Get(
    const std::string& path_and_query,
    const std::map<std::string, std::string>& extra_headers) {
  std::string request_text = "GET " + path_and_query +
                             " HTTP/1.1\r\nHost: localhost\r\n"
                             "Connection: keep-alive\r\n";
  for (const auto& [name, value] : extra_headers) {
    request_text += name + ": " + value + "\r\n";
  }
  request_text += "\r\n";
  auto response = RoundTrip(request_text);
  if (!response.ok() && fd_ >= 0 &&
      response.status().code() != StatusCode::kDeadlineExceeded) {
    // Stale keep-alive connection: reconnect once and retry.
    SERENADE_RETURN_IF_ERROR(Connect(port_));
    return RoundTrip(request_text);
  }
  return response;
}

StatusOr<HttpResponse> HttpClient::Post(
    const std::string& path_and_query, const std::string& body,
    const std::map<std::string, std::string>& extra_headers) {
  std::string request_text =
      "POST " + path_and_query +
      " HTTP/1.1\r\nHost: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: " + std::to_string(body.size()) +
      "\r\nConnection: keep-alive\r\n";
  for (const auto& [name, value] : extra_headers) {
    request_text += name + ": " + value + "\r\n";
  }
  request_text += "\r\n" + body;
  auto response = RoundTrip(request_text);
  if (!response.ok() && fd_ >= 0 &&
      response.status().code() != StatusCode::kDeadlineExceeded) {
    SERENADE_RETURN_IF_ERROR(Connect(port_));
    return RoundTrip(request_text);
  }
  return response;
}

}  // namespace serenade
