#include "freshness/click_tap.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <vector>

#include "common/stopwatch.h"
#include "serving/json.h"

namespace serenade {

namespace {

// Retry-After is advisory; cap it so a misbehaving builder cannot stall
// the tap for minutes (drops are preferable to unbounded lag).
constexpr uint64_t kMaxBackoffMs = 10'000;

uint64_t ParseRetryAfterMs(const HttpResponse& response) {
  const std::string header = response.Header("retry-after", "1");
  uint64_t seconds = 1;
  std::from_chars(header.data(), header.data() + header.size(), seconds);
  return std::min(seconds * 1000, kMaxBackoffMs);
}

}  // namespace

ClickTap::ClickTap(ClickTapConfig config)
    : config_(config),
      client_(HttpClientOptions{config.io_timeout_ms, config.io_timeout_ms}) {}

ClickTap::~ClickTap() { Stop(); }

Status ClickTap::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (flusher_.joinable()) return Status::Ok();
  stopping_ = false;
  flusher_ = std::thread([this] { FlusherLoop(); });
  return Status::Ok();
}

void ClickTap::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && !flusher_.joinable()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

void ClickTap::Observe(const std::string& session_key, ItemId item) {
  Observe(session_key, item, NowUnixMs());
}

void ClickTap::Observe(const std::string& session_key, ItemId item,
                       uint64_t observed_unix_ms) {
  observed_.fetch_add(1, std::memory_order_relaxed);
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (buffer_.size() >= config_.max_buffer) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    buffer_.push_back(PendingClick{session_key, item, observed_unix_ms});
    notify = buffer_.size() >= config_.max_batch;
  }
  if (notify) cv_.notify_one();
}

size_t ClickTap::buffered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffer_.size();
}

Status ClickTap::FlushNow() {
  while (true) {
    {
      // Under ship_mutex_ no batch is in flight, so an empty buffer means
      // every click observed so far has been acked.
      std::lock_guard<std::mutex> ship_lock(ship_mutex_);
      std::lock_guard<std::mutex> lock(mutex_);
      if (buffer_.empty()) return Status::Ok();
    }
    SERENADE_RETURN_IF_ERROR(ShipOneBatch());
  }
}

Status ClickTap::ShipOneBatch() {
  std::lock_guard<std::mutex> ship_lock(ship_mutex_);
  std::vector<PendingClick> batch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (buffer_.empty()) return Status::Ok();
    if (backoff_until_ms_ > NowUnixMs()) {
      return Status::Unavailable("builder Retry-After backoff in effect");
    }
    const size_t take = std::min(config_.max_batch, buffer_.size());
    batch.assign(buffer_.begin(),
                 buffer_.begin() + static_cast<ptrdiff_t>(take));
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(take));
  }

  JsonWriter json;
  json.BeginObject().Key("clicks").BeginArray();
  for (const PendingClick& click : batch) {
    json.BeginObject()
        .Key("session_id")
        .Value(click.session_key)
        .Key("item_id")
        .Value(static_cast<uint64_t>(click.item))
        .Key("observed_unix_ms")
        .Value(click.observed_unix_ms)
        .EndObject();
  }
  json.EndArray().EndObject();

  StatusOr<HttpResponse> response = Status::Internal("unsent");
  if (Status connect = client_.Connect(config_.builder_port);
      !connect.ok()) {
    response = connect;
  } else {
    response = client_.Post("/v1/ingest", json.str());
  }

  Status result = Status::Ok();
  if (response.ok() && response->status == 200) {
    shipped_.fetch_add(batch.size(), std::memory_order_relaxed);
    return Status::Ok();
  }
  if (response.ok() && response->status == 429) {
    // The builder is shedding load: honour its Retry-After before the
    // next attempt, keep the clicks buffered.
    backoffs_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t backoff = ParseRetryAfterMs(*response);
    std::lock_guard<std::mutex> lock(mutex_);
    backoff_until_ms_ = NowUnixMs() + backoff;
    result = Status::Unavailable("builder shed the ingest batch (429)");
  } else {
    ship_failures_.fetch_add(1, std::memory_order_relaxed);
    client_.Close();  // force a clean reconnect next attempt
    result = response.ok() ? Status::Unavailable(
                                 "builder ingest returned HTTP " +
                                 std::to_string(response->status))
                           : response.status();
  }

  // Requeue at the front (preserving order) as far as capacity allows;
  // the rest is dropped and counted, same as at Observe().
  std::lock_guard<std::mutex> lock(mutex_);
  size_t room = config_.max_buffer > buffer_.size()
                    ? config_.max_buffer - buffer_.size()
                    : 0;
  const size_t keep = std::min(room, batch.size());
  dropped_.fetch_add(batch.size() - keep, std::memory_order_relaxed);
  for (size_t i = keep; i-- > 0;) {
    buffer_.push_front(std::move(batch[i]));
  }
  return result;
}

void ClickTap::FlusherLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, std::chrono::milliseconds(config_.flush_interval_ms),
                   [&] {
                     return stopping_ || buffer_.size() >= config_.max_batch;
                   });
      if (stopping_) break;
      if (buffer_.empty()) continue;
    }
    // Drain until empty or the first failure (backoff/unavailable); the
    // wait above paces retries.
    while (ShipOneBatch().ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (buffer_.empty()) break;
    }
  }
  // Best-effort final drain so short-lived tests and clean shutdowns do
  // not strand observed clicks.
  FlushNow();
}

}  // namespace serenade
