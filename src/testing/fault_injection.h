// Seeded, deterministic fault injection for the serving stack. Production
// code is instrumented with named fault *sites* (SERENADE_FAULT_POINT and
// friends below); a test installs a FaultInjector with a seed and a
// per-site rule (probability, budget, latency), drives the system, and
// every failure decision replays bit-identically from the seed — a
// failing torture run reproduces from its printed seed alone.
//
// With the CMake option SERENADE_FAULT_INJECTION=OFF the hook macros
// compile to nothing, so production builds carry zero overhead. With the
// option ON (the default for this repository, whose binaries are test and
// bench harnesses) an unarmed process pays one relaxed atomic load per
// site — the injector pointer is null until a test installs one.
//
// Site registry (keep TESTING.md's table in sync):
//   kHttpConnect        HttpClient::Connect      connect refused
//   kHttpSend           HttpClient::RoundTrip    send fails mid-request
//   kHttpRecv           HttpClient::RoundTrip    read fails mid-response
//   kHttpLatency        HttpClient::RoundTrip    latency spike before send
//   kHttpTruncateBody   HttpClient::RoundTrip    response body truncated
//   kWalAppendFail      WalWriter::Append        write fails, nothing lands
//   kWalTornWrite       WalWriter::Append        record prefix lands, fails
//   kWalSyncFail        WalWriter::Sync          flush fails
//   kWalReplayShortRead ReplayWal                replay sees a short read
//   kStoreMultiPut      SessionStore::MultiPut   batched write fails
//   kDeltaTruncate      DeltaFetcher::PollOnce   delta bytes truncated in flight
//   kDeltaLineageMismatch  IndexBuilderServer::HandleDeltaLatest  wrong base version served
//   kDeltaPublishCrash  DeltaBuilder publish     builder dies mid-publish (torn file)
//   kHttpAcceptOverload      Reactor::HandleAccept   admission shed (503) as if at the cap
//   kHttpServerStallRead     Reactor::HandleReadable readable socket left undrained one pass
//   kHttpServerCloseMidWrite Reactor::ContinueWrite  response cut short, connection closed
//   kReplShipTruncate    WalShipper::ShipOnce     shipped batch truncated in flight
//   kReplAckLost         WalShipper::ShipOnce     replica applied, ack dropped
//   kHandoffCutoverCrash PodReplication hand-off  donor aborts mid-transfer (500)
//   kEmbeddingLoadTruncate EmbeddingManager::LoadSnapshot  artifact bytes truncated on read
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/rng.h"

namespace serenade {

enum class FaultSite : uint8_t {
  kHttpConnect = 0,
  kHttpSend,
  kHttpRecv,
  kHttpLatency,
  kHttpTruncateBody,
  kWalAppendFail,
  kWalTornWrite,
  kWalSyncFail,
  kWalReplayShortRead,
  kStoreMultiPut,
  kDeltaTruncate,
  kDeltaLineageMismatch,
  kDeltaPublishCrash,
  kHttpAcceptOverload,
  kHttpServerStallRead,
  kHttpServerCloseMidWrite,
  kReplShipTruncate,
  kReplAckLost,
  kHandoffCutoverCrash,
  kEmbeddingLoadTruncate,
  kNumSites,
};

inline constexpr size_t kNumFaultSites =
    static_cast<size_t>(FaultSite::kNumSites);

/// Stable site name for failure reports and the TESTING.md registry.
const char* FaultSiteName(FaultSite site);

/// When and how one site misbehaves. Sites default to never firing.
struct FaultRule {
  /// Chance that an armed site fires on one pass through it.
  double probability = 0.0;
  /// Total fires allowed before the site goes quiet (so a test can
  /// request e.g. "exactly one torn write, then clean IO").
  uint64_t budget = UINT64_MAX;
  /// Injected delay for latency sites, microseconds.
  uint64_t latency_micros = 0;
};

/// Deterministic fault oracle. All decisions draw from one seeded RNG
/// under a mutex, so a single-threaded test replays exactly; concurrent
/// tests stay seed-deterministic per interleaving (the usual caveat for
/// any concurrent property harness). Thread-safe.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed);

  /// Arms a site. Re-arming replaces the rule and resets its counters.
  void Arm(FaultSite site, FaultRule rule);

  /// Convenience: probability-only arming with unlimited budget.
  void Arm(FaultSite site, double probability) {
    Arm(site, FaultRule{probability, UINT64_MAX, 0});
  }

  void Disarm(FaultSite site) { Arm(site, FaultRule{}); }

  /// Rolls the dice for one pass through `site`. True = the site must
  /// misbehave. Counts rolls and fires, honours the budget.
  bool ShouldFire(FaultSite site);

  /// Injected delay for a latency site (0 when unarmed).
  uint64_t LatencyMicros(FaultSite site) const;

  /// Auxiliary deterministic randomness for hooks that need a magnitude,
  /// e.g. "truncate the body to RandBelow(len) bytes". Uniform [0, bound);
  /// bound 0 yields 0.
  uint64_t RandBelow(uint64_t bound);

  uint64_t fires(FaultSite site) const;
  uint64_t rolls(FaultSite site) const;
  uint64_t seed() const { return seed_; }

  /// The process-wide injector (null = faults disabled). Install/uninstall
  /// via ScopedFaultInjector; reads are one relaxed atomic load.
  static FaultInjector* Active() {
    return active_.load(std::memory_order_acquire);
  }

 private:
  friend class ScopedFaultInjector;

  struct SiteState {
    FaultRule rule;
    uint64_t rolls = 0;
    uint64_t fires = 0;
  };

  static std::atomic<FaultInjector*> active_;

  const uint64_t seed_;
  mutable std::mutex mutex_;
  Rng rng_;
  SiteState sites_[kNumFaultSites];
};

/// Installs an injector for the current scope and removes it on exit.
/// Nesting is a test bug and asserts.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(uint64_t seed);
  ~ScopedFaultInjector();

  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

  FaultInjector* operator->() { return &injector_; }
  FaultInjector& operator*() { return injector_; }

 private:
  FaultInjector injector_;
};

/// Sleeps for an injected latency spike; kept out of line so the hook
/// macro below stays cheap at the call site.
void FaultSleep(uint64_t micros);

}  // namespace serenade

// --- hook macros -------------------------------------------------------------
//
// SERENADE_FAULT_POINT(site, action...): runs `action` when the armed
// site fires. `action` is a statement list and may `return`:
//
//   SERENADE_FAULT_POINT(FaultSite::kHttpConnect, {
//     Close();
//     return Status::Unavailable("injected connect failure");
//   });
//
// Inside `action` the installed injector is in scope as `serenade_fi`,
// for hooks that need a deterministic magnitude:
//
//   SERENADE_FAULT_POINT(FaultSite::kHttpTruncateBody, {
//     body.resize(serenade_fi->RandBelow(body.size() + 1));
//   });
//
// SERENADE_FAULT_DELAY(site): sleeps the site's configured latency when
// it fires (latency spikes, not failures).
#if defined(SERENADE_FAULT_INJECTION)
#define SERENADE_FAULT_POINT(site, ...)                               \
  do {                                                                \
    if (::serenade::FaultInjector* serenade_fi =                      \
            ::serenade::FaultInjector::Active();                      \
        serenade_fi != nullptr && serenade_fi->ShouldFire(site)) {    \
      __VA_ARGS__                                                     \
    }                                                                 \
  } while (0)
#define SERENADE_FAULT_DELAY(site)                                    \
  do {                                                                \
    if (::serenade::FaultInjector* serenade_fi =                      \
            ::serenade::FaultInjector::Active();                      \
        serenade_fi != nullptr && serenade_fi->ShouldFire(site)) {    \
      ::serenade::FaultSleep(serenade_fi->LatencyMicros(site));       \
    }                                                                 \
  } while (0)
#else
#define SERENADE_FAULT_POINT(site, ...) \
  do {                                  \
  } while (0)
#define SERENADE_FAULT_DELAY(site) \
  do {                             \
  } while (0)
#endif
