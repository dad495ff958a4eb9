// Crash/recovery torture on the simulated cluster (testing/sim_cluster.h):
// a real ClusterGateway fronting real SerenadeServer pods over loopback,
// combined with the fault injector. The invariants under attack:
//   * the gateway keeps answering while a pod is down (failover) and
//     readmits it after restart,
//   * a restarted pod recovers every session its WAL acknowledged,
//   * a torn WAL write (crash mid-fwrite) fails the request and recovery
//     falls back to the acked prefix,
//   * sessions that expired before a crash stay dead after it,
//   * reported index versions never move backwards across a restart,
//   * the health prober refuses a truncated /v1/healthz body even though
//     the status line says 200 (regression: it used to trust the status
//     line alone).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/hash_ring.h"
#include "cluster/health.h"
#include "serving/json.h"
#include "data/click_log.h"
#include "serving/http.h"
#include "serving/server.h"
#include "serving/service.h"
#include "testing/fault_injection.h"
#include "testing/sim_cluster.h"

namespace serenade {
namespace {

Dataset SmallTrainingSet() {
  std::vector<Click> clicks;
  Timestamp now = 1;
  for (SessionId s = 0; s < 40; ++s) {
    for (size_t i = 0; i < 5; ++i) {
      clicks.push_back(
          Click{s, static_cast<ItemId>(1 + (s * 3 + i * 7) % 30), now++});
    }
  }
  return Dataset::FromClicks(std::move(clicks), /*min_session_length=*/2);
}

std::string FreshWorkDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

SimClusterConfig TortureConfig(const std::string& work_dir) {
  SimClusterConfig config;
  config.num_pods = 2;
  config.train = SmallTrainingSet();
  config.knn.m = 50;
  config.knn.k = 10;
  config.work_dir = work_dir;
  config.store.sync_every_write = true;
  config.gateway.health.probe_interval_ms = 20;
  config.gateway.health.probe_timeout_ms = 250;
  config.gateway.health.failures_to_eject = 2;
  config.gateway.health.successes_to_readmit = 2;
  config.gateway.forward_timeout_ms = 1000;
  return config;
}

// Polls the cluster's health checker for one backend's state.
bool AwaitBackendHealth(SimCluster& cluster, const std::string& name,
                        bool want_healthy, uint64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (cluster.health().IsHealthy(name) != want_healthy) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

StatusOr<int> SendClick(uint16_t port, const std::string& session,
                        ItemId item) {
  HttpClient client;
  SERENADE_RETURN_IF_ERROR(client.Connect(port));
  auto response = client.Get("/v1/recommend?session_id=" + session +
                             "&item_id=" + std::to_string(item));
  SERENADE_RETURN_IF_ERROR(response.status());
  return response->status;
}

TEST(SimClusterTest, GatewayFailsOverAndRestartedPodRecoversItsSessions) {
  auto cluster =
      SimCluster::Start(TortureConfig(FreshWorkDir("simcluster-failover")));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  SimCluster& sim = **cluster;
  ASSERT_TRUE(sim.AwaitHealthy(2, 5000));

  // Phase 1: traffic through the front door; every click must be acked.
  const std::vector<ItemId> clicks = {3, 4, 5};
  for (int u = 0; u < 10; ++u) {
    for (ItemId item : clicks) {
      auto status = SendClick(sim.gateway().port(),
                              "user-" + std::to_string(u), item);
      ASSERT_TRUE(status.ok()) << status.status().ToString();
      EXPECT_EQ(*status, 200);
    }
  }

  // Record which sessions pod 0 owns and what it acked for them.
  std::map<std::string, EvolvingSession> pod0_sessions;
  for (int u = 0; u < 10; ++u) {
    const std::string key = "user-" + std::to_string(u);
    auto session = sim.pod(0)->service().GetSession(key);
    if (session.ok()) pod0_sessions[key] = *session;
  }
  ASSERT_FALSE(pod0_sessions.empty())
      << "the ring routed every test session to pod 1; enlarge the user set";
  const uint64_t version_before = sim.health().IndexVersion(sim.pod_name(0));
  EXPECT_GT(version_before, 0u);

  // Phase 2: pod 0 goes down; the prober ejects it and the gateway fails
  // over — the client keeps seeing nothing but 200s.
  sim.KillPod(0);
  ASSERT_TRUE(AwaitBackendHealth(sim, sim.pod_name(0), false, 5000));
  for (int u = 0; u < 10; ++u) {
    auto status =
        SendClick(sim.gateway().port(), "user-" + std::to_string(u), 6);
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    EXPECT_EQ(*status, 200);
  }

  // Phase 3: restart on the original port; readmission plus recovery.
  ASSERT_TRUE(sim.RestartPod(0).ok());
  ASSERT_TRUE(AwaitBackendHealth(sim, sim.pod_name(0), true, 5000));
  for (const auto& [key, expected] : pod0_sessions) {
    auto recovered = sim.pod(0)->service().GetSession(key);
    ASSERT_TRUE(recovered.ok())
        << key << " lost across restart: " << recovered.status().ToString();
    EXPECT_EQ(*recovered, expected) << key;
  }
  // Index versions are monotone across the crash (same artifact here, so
  // equal; a rollback would trip this).
  EXPECT_GE(sim.health().IndexVersion(sim.pod_name(0)), version_before);

  // And the restarted pod serves traffic again.
  auto status = SendClick(sim.pod_port(0), "post-restart", 7);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, 200);
}

TEST(SimClusterTest, TornWalWriteFailsTheClickAndRecoveryKeepsAckedPrefix) {
  auto cluster =
      SimCluster::Start(TortureConfig(FreshWorkDir("simcluster-torn")));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  SimCluster& sim = **cluster;
  ASSERT_TRUE(sim.AwaitHealthy(2, 5000));

  // Five acked clicks straight at pod 0 (bypassing the gateway pins the
  // session to the pod whose WAL we are about to tear).
  const std::string key = "crash-session";
  for (ItemId item = 1; item <= 5; ++item) {
    auto status = SendClick(sim.pod_port(0), key, item);
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    ASSERT_EQ(*status, 200);
  }

  // The sixth click dies inside the WAL fwrite: a record prefix lands on
  // disk and the request must NOT be acknowledged.
  {
    ScopedFaultInjector injector(616);
    injector->Arm(FaultSite::kWalTornWrite, FaultRule{1.0, 1, 0});
    auto status = SendClick(sim.pod_port(0), key, 6);
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    EXPECT_NE(*status, 200);
    EXPECT_EQ(injector->fires(FaultSite::kWalTornWrite), 1u);
  }

  // Crash + restart: replay truncates the torn tail and recovers exactly
  // the acked prefix — clicks 1..5, never the unacked 6.
  sim.KillPod(0);
  ASSERT_TRUE(sim.RestartPod(0).ok());
  auto recovered = sim.pod(0)->service().GetSession(key);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, (EvolvingSession{1, 2, 3, 4, 5}));

  // The repaired WAL keeps accepting writes (regression for the
  // append-after-garbage bug).
  auto status = SendClick(sim.pod_port(0), key, 7);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, 200);
  auto extended = sim.pod(0)->service().GetSession(key);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(*extended, (EvolvingSession{1, 2, 3, 4, 5, 7}));
}

TEST(SimClusterTest, ExpiredSessionsStayDeadAcrossPodRestart) {
  auto clock = std::make_shared<std::atomic<uint64_t>>(1000);
  SimClusterConfig config =
      TortureConfig(FreshWorkDir("simcluster-expiry"));
  config.store.ttl_seconds = 60;
  config.store.clock = [clock] { return clock->load(); };
  auto cluster = SimCluster::Start(std::move(config));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  SimCluster& sim = **cluster;

  auto status = SendClick(sim.pod_port(0), "old-session", 2);
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(*status, 200);
  clock->fetch_add(120);  // the old session's TTL runs out
  status = SendClick(sim.pod_port(0), "new-session", 3);
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(*status, 200);

  sim.KillPod(0);
  ASSERT_TRUE(sim.RestartPod(0).ok());
  // Recovery replays both sessions from the WAL but must drop the one
  // whose TTL had already expired — a crash is not a resurrection.
  EXPECT_EQ(sim.pod(0)->service().GetSession("old-session").status().code(),
            StatusCode::kNotFound);
  auto fresh = sim.pod(0)->service().GetSession("new-session");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, (EvolvingSession{3}));
}

// Regression for the health-prober fix: a dying pod (or middlebox) that
// delivers "200 OK" and then cuts the body short used to be counted as
// healthy. The prober must demand a complete JSON document that itself
// says "ok".
TEST(SimClusterTest, HealthProberRejectsTruncatedHealthzBody) {
  Dataset train = SmallTrainingSet();
  auto index =
      std::make_shared<const SessionIndex>(SessionIndex::Build(train, 50));
  ItemCatalog catalog;
  catalog.available.assign(train.num_items(), true);
  catalog.adult.assign(train.num_items(), false);
  ServiceConfig service_config;
  service_config.knn.m = 50;
  service_config.knn.k = 10;
  auto service = SerenadeService::Create(index, catalog, service_config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  SerenadeServer pod(std::move(service).value(), ServerConfig{});
  ASSERT_TRUE(pod.Start().ok());

  HealthCheckerConfig config;
  config.failures_to_eject = 2;
  config.successes_to_readmit = 2;
  HealthChecker checker({BackendEndpoint{"pod", pod.port()}}, config);
  // No Start(): probes run synchronously so every transition is explicit.

  checker.ProbeAllOnce();
  ASSERT_TRUE(checker.IsHealthy("pod"));
  EXPECT_GT(checker.IndexVersion("pod"), 0u);

  {
    ScopedFaultInjector injector(200);
    injector->Arm(FaultSite::kHttpTruncateBody, 1.0);
    // Transport succeeds, the status line says 200, the body is a strict
    // prefix of the health document. Two such probes must eject the pod.
    checker.ProbeAllOnce();
    checker.ProbeAllOnce();
    EXPECT_FALSE(checker.IsHealthy("pod"));
  }

  // Intact bodies readmit it.
  checker.ProbeAllOnce();
  checker.ProbeAllOnce();
  EXPECT_TRUE(checker.IsHealthy("pod"));
  pod.Stop();
}

// --- elastic fleet: replication + /v1/admin/cluster control plane ----------

SimClusterConfig ElasticConfig(const std::string& work_dir) {
  SimClusterConfig config = TortureConfig(work_dir);
  config.replication.enabled = true;
  config.replication.pod.ship_interval_ms = 5;
  return config;
}

// Looks up the pod index owning `key` on the live ring; asserts the owner
// is a known, running pod.
size_t OwnerIndex(SimCluster& sim, const std::string& key) {
  const std::string owner = sim.gateway().OwnerOf(key);
  EXPECT_FALSE(owner.empty());
  for (size_t i = 0; i < sim.num_pods(); ++i) {
    if (sim.pod_name(i) == owner) {
      EXPECT_NE(sim.pod(i), nullptr) << owner << " owns " << key
                                     << " but is down";
      return i;
    }
  }
  ADD_FAILURE() << "ring owner " << owner << " is not a known pod";
  return 0;
}

TEST(SimClusterTest, RemoveDeadPodPromotesItsReplicaOnTheSuccessor) {
  auto cluster =
      SimCluster::Start(ElasticConfig(FreshWorkDir("simcluster-promote")));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  SimCluster& sim = **cluster;
  ASSERT_TRUE(sim.AwaitHealthy(2, 5000));

  std::map<std::string, EvolvingSession> expected;
  for (int u = 0; u < 15; ++u) {
    const std::string key = "rm-" + std::to_string(u);
    for (ItemId item : {3, 4, 5}) {
      auto status = SendClick(sim.gateway().port(), key, item);
      ASSERT_TRUE(status.ok()) << status.status().ToString();
      ASSERT_EQ(*status, 200);
    }
    expected[key] = EvolvingSession{3, 4, 5};
  }

  // Pod 0 dies for good. Its graceful shutdown flushed the WAL shipper,
  // so pod 1 holds a complete replica before the death is even noticed.
  sim.KillPod(0);
  ASSERT_TRUE(AwaitBackendHealth(sim, sim.pod_name(0), false, 5000));

  // The operator declares it dead: the gateway promotes the replica on
  // the ring successor, flips the ring, and bumps the epoch.
  ASSERT_TRUE(sim.RemovePodFromRing(0).ok());
  auto epoch = sim.FetchRingEpoch();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 2u);
  EXPECT_EQ(sim.pod_repl(1)->promotions_total(), 1u);

  // Every acknowledged click survives on the promoted survivor.
  for (const auto& [key, session] : expected) {
    EXPECT_EQ(sim.gateway().OwnerOf(key), sim.pod_name(1));
    auto recovered = sim.pod(1)->service().GetSession(key);
    ASSERT_TRUE(recovered.ok())
        << key << " lost across promotion: " << recovered.status().ToString();
    EXPECT_EQ(*recovered, session) << key;
  }

  // And the fleet keeps taking writes through the front door.
  auto status = SendClick(sim.gateway().port(), "rm-0", 6);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, 200);
}

TEST(SimClusterTest, StaleEpochMutationIsFencedWith409AndEnvelope) {
  auto cluster =
      SimCluster::Start(ElasticConfig(FreshWorkDir("simcluster-epoch")));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  SimCluster& sim = **cluster;
  ASSERT_TRUE(sim.AwaitHealthy(2, 5000));

  HttpClient client;
  ASSERT_TRUE(client.Connect(sim.gateway().port()).ok());

  // A mutation fenced with yesterday's epoch must bounce with the JSON
  // error envelope, the current epoch, and the epoch response header —
  // and must not touch the membership.
  auto stale = client.Post("/v1/admin/cluster/drain",
                           "{\"epoch\":999,\"name\":\"pod-1\"}");
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(stale->status, 409);
  EXPECT_EQ(stale->Header("X-Serenade-Ring-Epoch"), "1");
  auto doc = ParseJson(stale->body);
  ASSERT_TRUE(doc.ok()) << stale->body;
  const JsonValue* error = doc->Find("error");
  ASSERT_NE(error, nullptr) << stale->body;
  ASSERT_NE(error->Find("code"), nullptr);
  ASSERT_NE(error->Find("message"), nullptr);
  ASSERT_NE(error->Find("trace_id"), nullptr);
  const JsonValue* current = doc->Find("current_epoch");
  ASSERT_NE(current, nullptr) << stale->body;
  EXPECT_EQ(current->AsInt(), 1);

  // A mutation with no epoch at all is a 400 (the fence is mandatory).
  auto missing =
      client.Post("/v1/admin/cluster/drain", "{\"name\":\"pod-1\"}");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 400);

  // Nothing moved: same epoch, same two members.
  auto epoch = sim.FetchRingEpoch();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 1u);
  EXPECT_EQ(sim.gateway().Members().size(), 2u);
}

// Regression: the gateway used to resolve primary/secondary once per
// request, so a membership change between attempts sent the retry to a
// stale owner. Now every retry re-resolves against the live ring.
TEST(SimClusterTest, RetryReresolvesOwnershipAgainstTheLiveRing) {
  SimClusterConfig config =
      TortureConfig(FreshWorkDir("simcluster-reresolve"));
  // Keep the dead pod marked healthy: ejection would mask the stale-
  // resolution bug by removing it from the candidate chain anyway.
  config.gateway.health.probe_interval_ms = 1000;
  config.gateway.health.failures_to_eject = 1000;
  auto cluster = SimCluster::Start(std::move(config));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  SimCluster& sim = **cluster;

  // A key owned by pod-0 in the 2-ring whose ownership moves to the
  // brand-new pod-2 once it joins the 3-ring.
  HashRing two(128), three(128);
  for (const char* name : {"pod-0", "pod-1"}) two.AddNode(name);
  for (const char* name : {"pod-0", "pod-1", "pod-2"}) three.AddNode(name);
  std::string key;
  for (int i = 0; i < 500 && key.empty(); ++i) {
    const std::string candidate = "rr-" + std::to_string(i);
    if (two.NodeFor(candidate) == "pod-0" &&
        three.NodeFor(candidate) == "pod-2") {
      key = candidate;
    }
  }
  ASSERT_FALSE(key.empty()) << "no key moves pod-0 -> pod-2; widen search";

  // Pod 0 is dead but still marked healthy, so attempt 0 targets it and
  // fails on connect. Between attempts the hook joins pod-2 — the retry
  // must re-resolve and land on the NEW owner, not the stale secondary.
  sim.KillPod(0);
  std::atomic<bool> joined{false};
  StatusOr<size_t> added = Status::Internal("join never ran");
  sim.gateway().set_pre_retry_hook([&] {
    if (joined.exchange(true)) return;
    added = sim.AddPod();
  });

  auto status = SendClick(sim.gateway().port(), key, 5);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(*status, 200);
  ASSERT_TRUE(joined.load()) << "the forward never retried";
  ASSERT_TRUE(added.ok()) << added.status().ToString();

  // The click landed on the post-join owner (pod-2), nowhere else.
  EXPECT_EQ(sim.gateway().OwnerOf(key), "pod-2");
  auto on_new = sim.pod(*added)->service().GetSession(key);
  ASSERT_TRUE(on_new.ok()) << on_new.status().ToString();
  EXPECT_EQ(*on_new, (EvolvingSession{5}));
  EXPECT_EQ(sim.pod(1)->service().GetSession(key).status().code(),
            StatusCode::kNotFound)
      << "retry fell back to the pre-join secondary";
}

// The elastic torture round the control plane is judged by: seeded
// kill/join/drain/remove cycles under live traffic, with the invariant
// that every acknowledged click is always readable on the key's current
// ring owner.
TEST(SimClusterTest, ElasticTortureNeverLosesAckedClicks) {
  auto cluster =
      SimCluster::Start(ElasticConfig(FreshWorkDir("simcluster-elastic")));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  SimCluster& sim = **cluster;
  ASSERT_TRUE(sim.AwaitHealthy(2, 5000));

  std::mt19937 rng(20260807);
  std::vector<size_t> ring = {0, 1};  // pod indices currently in the ring
  std::map<std::string, EvolvingSession> acked;
  uint64_t epoch_bumps = 0;  // joins/drains/removes (restarts don't bump)

  auto verify_all = [&](const char* when) {
    for (const auto& [key, session] : acked) {
      const size_t owner = OwnerIndex(sim, key);
      auto recovered = sim.pod(owner)->service().GetSession(key);
      ASSERT_TRUE(recovered.ok())
          << key << " lost (" << when << "): "
          << recovered.status().ToString();
      ASSERT_EQ(*recovered, session) << key << " diverged (" << when << ")";
    }
  };

  const int kCycles = 100;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    // Traffic burst: five clicks at random sessions through the front
    // door; a 200 is an ack and joins the expected history.
    for (int c = 0; c < 5; ++c) {
      const std::string key =
          "t-" + std::to_string(rng() % 30);
      const ItemId item = static_cast<ItemId>(1 + rng() % 7);
      auto status = SendClick(sim.gateway().port(), key, item);
      ASSERT_TRUE(status.ok()) << status.status().ToString();
      if (*status == 200) acked[key].push_back(item);
    }

    // One seeded membership mutation per cycle. The fleet stays between
    // two and four members; the drained/removed pod is torn down, a
    // restarted pod recovers from its own WAL.
    enum { kJoin, kDrain, kRemove, kRestart };
    std::vector<int> moves;
    if (ring.size() < 4) moves.push_back(kJoin);
    if (ring.size() > 2) {
      moves.push_back(kDrain);
      moves.push_back(kRemove);
    }
    moves.push_back(kRestart);
    switch (moves[rng() % moves.size()]) {
      case kJoin: {
        auto added = sim.AddPod();
        ASSERT_TRUE(added.ok())
            << "cycle " << cycle << ": " << added.status().ToString();
        ring.push_back(*added);
        ++epoch_bumps;
        ASSERT_TRUE(AwaitBackendHealth(sim, sim.pod_name(*added), true, 5000));
        break;
      }
      case kDrain: {
        const size_t victim = ring[rng() % ring.size()];
        ASSERT_TRUE(sim.DrainPod(victim).ok()) << "cycle " << cycle;
        ++epoch_bumps;
        ring.erase(std::find(ring.begin(), ring.end(), victim));
        sim.KillPod(victim);
        break;
      }
      case kRemove: {
        const size_t victim = ring[rng() % ring.size()];
        sim.KillPod(victim);
        ASSERT_TRUE(
            AwaitBackendHealth(sim, sim.pod_name(victim), false, 5000));
        ASSERT_TRUE(sim.RemovePodFromRing(victim).ok())
            << "cycle " << cycle;
        ++epoch_bumps;
        ring.erase(std::find(ring.begin(), ring.end(), victim));
        break;
      }
      case kRestart: {
        const size_t victim = ring[rng() % ring.size()];
        sim.KillPod(victim);
        ASSERT_TRUE(sim.RestartPod(victim).ok()) << "cycle " << cycle;
        ASSERT_TRUE(
            AwaitBackendHealth(sim, sim.pod_name(victim), true, 5000));
        break;
      }
    }
    // Traffic only flows once the whole ring is routable again, so every
    // ack lands on the key's true owner.
    ASSERT_TRUE(sim.AwaitHealthy(ring.size(), 5000))
        << "cycle " << cycle << ": fleet never became whole again";

    if (cycle % 10 == 9) verify_all("mid-torture");
  }
  verify_all("final");

  // The epoch counted every membership mutation exactly once.
  auto epoch = sim.FetchRingEpoch();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 1u + epoch_bumps);
}

}  // namespace
}  // namespace serenade
