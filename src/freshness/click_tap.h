// Serving-path click tap: streams accepted session events from a pod to
// the index-builder role over the existing HTTP client, with bounded
// buffering and drop-counting under backpressure (DESIGN.md §9).
//
// The tap is strictly off the request path: Observe() stamps the click,
// appends to a bounded in-memory buffer, and returns; a single flusher
// thread batches pending clicks into POST /v1/ingest calls. When the
// buffer is full the click is dropped and counted — recommendation
// latency is never held hostage to builder availability. A 429 from the
// builder (load shedding) honours its Retry-After header before the next
// ship attempt.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/types.h"
#include "serving/http.h"

namespace serenade {

struct ClickTapConfig {
  uint16_t builder_port = 0;       ///< index-builder ingest endpoint
  size_t max_buffer = 4096;        ///< pending clicks before drops start
  size_t max_batch = 256;          ///< clicks per ingest POST
  uint64_t flush_interval_ms = 50; ///< flusher wakeup cadence
  uint64_t io_timeout_ms = 1000;   ///< HTTP connect/io deadline
};

class ClickTap {
 public:
  explicit ClickTap(ClickTapConfig config);
  ~ClickTap();

  ClickTap(const ClickTap&) = delete;
  ClickTap& operator=(const ClickTap&) = delete;

  /// Starts the flusher thread. Idempotent.
  Status Start();

  /// Drains what it can with one final flush attempt, then stops.
  void Stop();

  /// Buffers one click, stamped NowUnixMs(). Never blocks on the network;
  /// drops (and counts) when the buffer is full.
  void Observe(const std::string& session_key, ItemId item);

  /// Explicit-stamp overload for deterministic tests and benches.
  void Observe(const std::string& session_key, ItemId item,
               uint64_t observed_unix_ms);

  /// Synchronously ships every buffered click (tests and shutdown). The
  /// error of the first failing batch is returned; remaining clicks stay
  /// buffered.
  Status FlushNow();

  // --- counters (relaxed; exported via the pod's /v1/metrics) ---
  uint64_t clicks_observed() const {
    return observed_.load(std::memory_order_relaxed);
  }
  uint64_t clicks_shipped() const {
    return shipped_.load(std::memory_order_relaxed);
  }
  /// Dropped at Observe() because the buffer was full (backpressure).
  uint64_t clicks_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  uint64_t ship_failures() const {
    return ship_failures_.load(std::memory_order_relaxed);
  }
  /// 429 responses honoured with a Retry-After backoff.
  uint64_t backoffs() const {
    return backoffs_.load(std::memory_order_relaxed);
  }
  size_t buffered() const;

 private:
  struct PendingClick {
    std::string session_key;
    ItemId item = 0;
    uint64_t observed_unix_ms = 0;
  };

  void FlusherLoop();
  /// Pops up to max_batch clicks and ships them; re-queues on failure if
  /// the buffer still has room. Returns kOk when the buffer was empty.
  /// Takes ship_mutex_, then mutex_.
  Status ShipOneBatch();

  const ClickTapConfig config_;

  mutable std::mutex mutex_;  // guards buffer_ + backoff deadline
  std::condition_variable cv_;
  std::deque<PendingClick> buffer_;
  uint64_t backoff_until_ms_ = 0;  // NowUnixMs horizon from Retry-After
  bool stopping_ = false;
  std::thread flusher_;

  // Held across a whole ShipOneBatch (pop, send, requeue): serialises the
  // HTTP client, and lets FlushNow wait out a batch already popped.
  std::mutex ship_mutex_;
  HttpClient client_;

  std::atomic<uint64_t> observed_{0};
  std::atomic<uint64_t> shipped_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> ship_failures_{0};
  std::atomic<uint64_t> backoffs_{0};
};

}  // namespace serenade
