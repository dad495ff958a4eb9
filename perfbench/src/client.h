// The benchmark's own HTTP load client. It shares no code with the
// program under test: a plain-socket HTTP/1.1 keep-alive client with two
// modes.
//
// Open loop (RunOpenLoop): every call has a due time on a seeded
// schedule and is written to its connection at that time whether or not
// earlier calls on the connection have been answered (HTTP pipelining;
// the server answers a connection's requests in order). Latency is
// measured from the due time, so a stall also counts against every call
// that fell due behind it, and the generator's own lateness (send time
// minus due time) is recorded per call.
//
// Closed loop (RunClosedLoop): each connection keeps a fixed number of
// calls in flight and sends the next one when an answer arrives; with one
// in flight, latency is the call's round trip.
//
// Each connection is served by one thread; callers keep the connection
// count at or below the number of cores.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// One scheduled request: its offset from the phase start, its
/// connection, and its complete wire bytes.
struct Call {
  int64_t due_ns = 0;
  uint32_t conn = 0;
  std::string wire;
};

/// What happened to one request. Times are absolute monotonic ns; 0
/// means "never" (not sent / not answered before the drain deadline).
struct Outcome {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  int status = 0;
  uint64_t body_hash = 0;
  /// The body carried "degraded":true (gateway fallback, not a real
  /// recommendation).
  bool degraded = false;

  bool answered() const { return done_ns != 0; }
};

/// FNV-1a over the response body: responses are compared against the
/// reference byte for byte through this digest.
uint64_t HashBody(const char* data, size_t size);
inline uint64_t HashBody(const std::string& body) {
  return HashBody(body.data(), body.size());
}

/// One keep-alive connection to 127.0.0.1 plus its receive buffer.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(uint16_t port, bool nonblocking);
  int fd() const { return fd_; }
  /// Reads what the socket has (a blocking socket: one read, waiting for
  /// at least one byte). False on EOF or a hard error.
  bool Receive();
  /// Pops one complete response off the buffer into `out` (status, body
  /// digest, degraded flag). False when none is complete yet.
  bool PopResponse(Outcome* out);
  /// Writes `data` completely (blocking socket).
  bool SendAll(const std::string& data);
  /// Blocking request/response; fills `out` including its times. False
  /// when the connection failed before an answer arrived.
  bool RoundTrip(const std::string& wire, Outcome* out);

 private:
  int fd_ = -1;
  bool nonblocking_ = false;
  std::string in_;
  size_t consumed_ = 0;
};

/// Runs `calls` against 127.0.0.1:`port` over `num_conns` connections.
/// Calls must be sorted by due_ns within each connection. The phase
/// starts at `start_ns` (absolute); the client gives up on unanswered
/// calls `drain_ns` after the last due time. outcomes[i] belongs to
/// calls[i].
std::vector<Outcome> RunOpenLoop(uint16_t port, const std::vector<Call>& calls,
                                 size_t num_conns, int64_t start_ns,
                                 int64_t drain_ns);

/// Closed loop: connection c sends make_call(c, j) for j = 0, 1, ...,
/// keeping `depth` calls in flight (1 = wait for each answer before the
/// next send), until `max_calls` calls or until the absolute deadline
/// `until_ns` (0 = none) passes. Returns per-connection outcomes in send
/// order (due_ns = sent_ns).
std::vector<std::vector<Outcome>> RunClosedLoop(
    uint16_t port, size_t num_conns,
    const std::function<std::string(size_t conn, size_t j)>& make_call,
    size_t max_calls, int64_t until_ns, size_t depth = 1);

/// Wire bytes of a GET request (HTTP/1.1 keep-alive). `trace_id`, when
/// non-empty, is sent as X-Serenade-Trace-Id.
std::string GetWire(const std::string& target, const std::string& trace_id);

/// Wire bytes of a POST request with a JSON body (`trace_id` as in
/// GetWire).
std::string PostWire(const std::string& target, const std::string& body,
                     const std::string& trace_id = "");

}  // namespace perfbench
