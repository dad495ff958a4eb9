#include "serving/client_pool.h"

namespace serenade {

StatusOr<std::unique_ptr<HttpClient>> HttpClientPool::Acquire(uint16_t port) {
  acquires_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = idle_.find(port);
    if (it != idle_.end() && !it->second.empty()) {
      std::unique_ptr<HttpClient> client = std::move(it->second.back());
      it->second.pop_back();
      reuses_.fetch_add(1, std::memory_order_relaxed);
      return client;
    }
  }
  auto client = std::make_unique<HttpClient>(config_.client);
  SERENADE_RETURN_IF_ERROR(client->Connect(port));
  return client;
}

void HttpClientPool::Release(uint16_t port, std::unique_ptr<HttpClient> client,
                             bool reusable) {
  if (client == nullptr) return;
  if (reusable) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::unique_ptr<HttpClient>>& parked = idle_[port];
    if (parked.size() < config_.max_idle_per_endpoint) {
      parked.push_back(std::move(client));
      return;
    }
  }
  // Fell through: error path or a full shelf — drop the connection.
  discards_.fetch_add(1, std::memory_order_relaxed);
}

size_t HttpClientPool::IdleCount(uint16_t port) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = idle_.find(port);
  return it == idle_.end() ? 0 : it->second.size();
}

}  // namespace serenade
