#include "testing/fault_injection.h"

#include <cassert>
#include <chrono>
#include <thread>

namespace serenade {

std::atomic<FaultInjector*> FaultInjector::active_{nullptr};

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kHttpConnect:
      return "http_connect";
    case FaultSite::kHttpSend:
      return "http_send";
    case FaultSite::kHttpRecv:
      return "http_recv";
    case FaultSite::kHttpLatency:
      return "http_latency";
    case FaultSite::kHttpTruncateBody:
      return "http_truncate_body";
    case FaultSite::kWalAppendFail:
      return "wal_append_fail";
    case FaultSite::kWalTornWrite:
      return "wal_torn_write";
    case FaultSite::kWalSyncFail:
      return "wal_sync_fail";
    case FaultSite::kWalReplayShortRead:
      return "wal_replay_short_read";
    case FaultSite::kStoreMultiPut:
      return "store_multi_put";
    case FaultSite::kDeltaTruncate:
      return "delta_truncate";
    case FaultSite::kDeltaLineageMismatch:
      return "delta_lineage_mismatch";
    case FaultSite::kDeltaPublishCrash:
      return "delta_publish_crash";
    case FaultSite::kHttpAcceptOverload:
      return "http_accept_overload";
    case FaultSite::kHttpServerStallRead:
      return "http_server_stall_read";
    case FaultSite::kHttpServerCloseMidWrite:
      return "http_server_close_mid_write";
    case FaultSite::kReplShipTruncate:
      return "repl_ship_truncate";
    case FaultSite::kReplAckLost:
      return "repl_ack_lost";
    case FaultSite::kHandoffCutoverCrash:
      return "handoff_cutover_crash";
    case FaultSite::kEmbeddingLoadTruncate:
      return "load_embedding_truncate";
    case FaultSite::kNumSites:
      break;
  }
  return "unknown";
}

FaultInjector::FaultInjector(uint64_t seed) : seed_(seed), rng_(seed) {}

void FaultInjector::Arm(FaultSite site, FaultRule rule) {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_[static_cast<size_t>(site)] = SiteState{rule, 0, 0};
}

bool FaultInjector::ShouldFire(FaultSite site) {
  std::lock_guard<std::mutex> lock(mutex_);
  SiteState& state = sites_[static_cast<size_t>(site)];
  if (state.rule.probability <= 0.0) return false;
  ++state.rolls;
  if (state.fires >= state.rule.budget) return false;
  if (!rng_.Bernoulli(state.rule.probability)) return false;
  ++state.fires;
  return true;
}

uint64_t FaultInjector::LatencyMicros(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sites_[static_cast<size_t>(site)].rule.latency_micros;
}

uint64_t FaultInjector::RandBelow(uint64_t bound) {
  if (bound == 0) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return rng_.Below(bound);
}

uint64_t FaultInjector::fires(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sites_[static_cast<size_t>(site)].fires;
}

uint64_t FaultInjector::rolls(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sites_[static_cast<size_t>(site)].rolls;
}

ScopedFaultInjector::ScopedFaultInjector(uint64_t seed) : injector_(seed) {
  FaultInjector* expected = nullptr;
  const bool installed = FaultInjector::active_.compare_exchange_strong(
      expected, &injector_, std::memory_order_acq_rel);
  assert(installed && "nested ScopedFaultInjector");
  (void)installed;
}

ScopedFaultInjector::~ScopedFaultInjector() {
  FaultInjector::active_.store(nullptr, std::memory_order_release);
}

void FaultSleep(uint64_t micros) {
  if (micros == 0) return;
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

}  // namespace serenade
