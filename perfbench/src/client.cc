#include "client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <string_view>
#include <thread>

#include "common.h"

namespace perfbench {
namespace {

constexpr std::string_view kDegradedMarker = "\"degraded\":true";

void OpenLoopConnection(uint16_t port, const std::vector<Call>& calls,
                        const std::vector<size_t>& mine, int64_t start_ns,
                        int64_t drain_ns, std::vector<Outcome>* outcomes) {
  // Default timer slack (50 us) would show up as generator lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  for (size_t i : mine) (*outcomes)[i].due_ns = start_ns + calls[i].due_ns;
  if (mine.empty()) return;
  Connection conn;
  if (!conn.Open(port, /*nonblocking=*/true)) return;
  const int64_t deadline =
      start_ns + calls[mine.back()].due_ns + drain_ns;
  std::string out;
  size_t out_off = 0;
  size_t next = 0;  // next call (index into `mine`) to write
  size_t head = 0;  // oldest unanswered call
  while (head < mine.size()) {
    int64_t now = NowNs();
    while (next < mine.size() && (*outcomes)[mine[next]].due_ns <= now) {
      out += calls[mine[next]].wire;
      (*outcomes)[mine[next]].sent_ns = now;
      ++next;
    }
    if (out_off < out.size()) {
      const ssize_t n = ::send(conn.fd(), out.data() + out_off,
                               out.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) out_off += static_cast<size_t>(n);
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return;
      }
      if (out_off == out.size()) {
        out.clear();
        out_off = 0;
      }
    }
    if (now >= deadline) return;
    const int64_t wake =
        next < mine.size() ? std::min((*outcomes)[mine[next]].due_ns, deadline)
                           : deadline;
    if (head == next && out.empty()) {
      // Nothing in flight: sleep to the next due time.
      SleepUntilNs(wake);
      continue;
    }
    const short events = POLLIN | (out.empty() ? 0 : POLLOUT);
    pollfd pfd{conn.fd(), events, 0};
    const int64_t wait = std::max<int64_t>(0, wake - now);
    timespec timeout{static_cast<time_t>(wait / 1000000000LL),
                     static_cast<long>(wait % 1000000000LL)};
    const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
    if (ready <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      continue;
    }
    const bool alive = conn.Receive();
    now = NowNs();
    Outcome parsed;
    while (head < next && conn.PopResponse(&parsed)) {
      Outcome& o = (*outcomes)[mine[head]];
      o.status = parsed.status;
      o.body_hash = parsed.body_hash;
      o.degraded = parsed.degraded;
      o.done_ns = now;
      ++head;
    }
    if (!alive) return;
  }
}

}  // namespace

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::Open(uint16_t port, bool nonblocking) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  nonblocking_ = nonblocking;
  if (nonblocking) {
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  return true;
}

bool Connection::Receive() {
  char chunk[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      in_.append(chunk, static_cast<size_t>(n));
      if (!nonblocking_ || static_cast<size_t>(n) < sizeof(chunk)) {
        return true;
      }
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

bool Connection::PopResponse(Outcome* out) {
  const size_t head_end = in_.find("\r\n\r\n", consumed_);
  if (head_end == std::string::npos) return false;
  const std::string_view head(in_.data() + consumed_, head_end - consumed_);
  size_t length = 0;
  // Header names are case-insensitive.
  for (size_t pos = 0; pos < head.size();) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    constexpr std::string_view kName = "content-length:";
    if (line.size() > kName.size() &&
        strncasecmp(line.data(), kName.data(), kName.size()) == 0) {
      length = std::strtoull(std::string(line.substr(kName.size())).c_str(),
                             nullptr, 10);
    }
    pos = eol + 2;
  }
  const size_t body_start = head_end + 4;
  if (in_.size() < body_start + length) return false;
  // "HTTP/1.1 200 OK": the status code is at offset 9.
  out->status =
      head.size() >= 12 ? std::atoi(std::string(head.substr(9, 3)).c_str()) : 0;
  const std::string_view body(in_.data() + body_start, length);
  out->body_hash = HashBody(body.data(), body.size());
  out->degraded = body.find(kDegradedMarker) != std::string_view::npos;
  consumed_ = body_start + length;
  if (consumed_ == in_.size()) {
    in_.clear();
    consumed_ = 0;
  }
  return true;
}

bool Connection::SendAll(const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Connection::RoundTrip(const std::string& wire, Outcome* out) {
  out->due_ns = out->sent_ns = NowNs();
  if (!SendAll(wire)) return false;
  while (!PopResponse(out)) {
    if (!Receive()) return false;
  }
  out->done_ns = NowNs();
  return true;
}

uint64_t HashBody(const char* data, size_t size) {
  uint64_t hash = 1469598103934665603ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::vector<Outcome> RunOpenLoop(uint16_t port, const std::vector<Call>& calls,
                                 size_t num_conns, int64_t start_ns,
                                 int64_t drain_ns) {
  std::vector<Outcome> outcomes(calls.size());
  std::vector<std::vector<size_t>> per_conn(num_conns);
  for (size_t i = 0; i < calls.size(); ++i) {
    per_conn[calls[i].conn % num_conns].push_back(i);
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < num_conns; ++c) {
    threads.emplace_back(OpenLoopConnection, port, std::cref(calls),
                         std::cref(per_conn[c]), start_ns, drain_ns,
                         &outcomes);
  }
  for (std::thread& t : threads) t.join();
  return outcomes;
}

std::vector<std::vector<Outcome>> RunClosedLoop(
    uint16_t port, size_t num_conns,
    const std::function<std::string(size_t conn, size_t j)>& make_call,
    size_t max_calls, int64_t until_ns, size_t depth) {
  std::vector<std::vector<Outcome>> results(num_conns);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < num_conns; ++c) {
    threads.emplace_back([&, c] {
      Connection conn;
      if (!conn.Open(port, /*nonblocking=*/false)) return;
      std::vector<Outcome>& mine = results[c];
      // Writes call j = mine.size(); false once the loop should stop.
      auto send_next = [&] {
        if (mine.size() >= max_calls) return false;
        if (until_ns != 0 && NowNs() >= until_ns) return false;
        const std::string wire = make_call(c, mine.size());
        Outcome o;
        o.due_ns = o.sent_ns = NowNs();
        mine.push_back(o);
        return conn.SendAll(wire);
      };
      size_t answered = 0;
      for (size_t i = 0; i < depth && send_next(); ++i) {
      }
      while (answered < mine.size()) {
        Outcome parsed;
        while (!conn.PopResponse(&parsed)) {
          if (!conn.Receive()) return;
        }
        Outcome& o = mine[answered++];
        o.status = parsed.status;
        o.body_hash = parsed.body_hash;
        o.degraded = parsed.degraded;
        o.done_ns = NowNs();
        send_next();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return results;
}

std::string GetWire(const std::string& target, const std::string& trace_id) {
  std::string wire = "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!trace_id.empty()) wire += "X-Serenade-Trace-Id: " + trace_id + "\r\n";
  return wire + "\r\n";
}

std::string PostWire(const std::string& target, const std::string& body,
                     const std::string& trace_id) {
  std::string wire = "POST " + target +
                     " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     "Content-Type: application/json\r\n";
  if (!trace_id.empty()) wire += "X-Serenade-Trace-Id: " + trace_id + "\r\n";
  return wire + "Content-Length: " + std::to_string(body.size()) +
         "\r\n\r\n" + body;
}

}  // namespace perfbench
