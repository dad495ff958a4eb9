// Bounded keep-alive connection pool for HttpClient: the gateway (and
// any other fan-out caller) checks a connected client out per request
// and returns it afterwards, so the per-request TCP connect collapses to
// a map lookup once the pool is warm. Endpoints are loopback ports (the
// in-repo cluster abstraction); each endpoint keeps at most
// max_idle_per_endpoint parked connections.
//
// Contract: callers release with reusable=false after any transport
// error (close-on-error) — a connection that failed mid-exchange may
// hold half a response and would corrupt the next request on it.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "serving/http.h"

namespace serenade {

struct HttpClientPoolConfig {
  /// Idle connections parked per endpoint; beyond it a released client
  /// is discarded (closed).
  size_t max_idle_per_endpoint = 8;
  /// Timeouts applied to every pooled connection.
  HttpClientOptions client;
};

/// Thread-safe. Acquire() pops an idle pooled connection when one exists
/// and dials a fresh one otherwise; Release() parks it for the next
/// caller (bounded) or closes it.
class HttpClientPool {
 public:
  explicit HttpClientPool(HttpClientPoolConfig config)
      : config_(config) {}

  HttpClientPool(const HttpClientPool&) = delete;
  HttpClientPool& operator=(const HttpClientPool&) = delete;

  /// A connected client for `port` — pooled if available, freshly dialed
  /// otherwise. Connection failures surface as the Connect() status.
  StatusOr<std::unique_ptr<HttpClient>> Acquire(uint16_t port);

  /// Returns a client after use. reusable=false (transport error, or a
  /// response carrying `Connection: close`) closes it instead of parking.
  void Release(uint16_t port, std::unique_ptr<HttpClient> client,
               bool reusable);

  /// Idle connections currently parked for `port`.
  size_t IdleCount(uint16_t port) const;

  uint64_t acquires_total() const {
    return acquires_.load(std::memory_order_relaxed);
  }
  uint64_t reuses_total() const {
    return reuses_.load(std::memory_order_relaxed);
  }
  uint64_t discards_total() const {
    return discards_.load(std::memory_order_relaxed);
  }

 private:
  const HttpClientPoolConfig config_;
  mutable std::mutex mutex_;
  std::map<uint16_t, std::vector<std::unique_ptr<HttpClient>>> idle_;
  std::atomic<uint64_t> acquires_{0};
  std::atomic<uint64_t> reuses_{0};
  std::atomic<uint64_t> discards_{0};
};

}  // namespace serenade
