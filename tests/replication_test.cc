// Session replication and hand-off torture (src/replication): the WAL
// shipper, the replica hub, and the promotion/hand-off control plane.
// The invariants under attack:
//   * a replica's accepted byte stream is byte-identical to a prefix of
//     the donor's on-disk WAL — even with batches truncated in flight
//     (repl_ship_truncate) or acks lost after apply (repl_ack_lost),
//   * a torn batch is rejected wholesale (no partial apply) and a resend
//     at the wrong offset is answered with the real offset, never
//     double-applied,
//   * a restarted replica catches up from offset zero via the 409 rewind,
//   * promotion merges replica history with clicks the survivor accrued
//     during failover, and never resurrects an expired session,
//   * a donor that crashes mid-hand-off (handoff_cutover_crash) is
//     retried by the gateway until the join completes with every
//     acknowledged click intact.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/click_log.h"
#include "replication/pod_replication.h"
#include "replication/replica_hub.h"
#include "replication/replication_protocol.h"
#include "serving/http.h"
#include "serving/server.h"
#include "serving/service.h"
#include "store/wal.h"
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

SimClusterConfig ReplicationConfig(const std::string& work_dir) {
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
  config.replication.enabled = true;
  config.replication.pod.ship_interval_ms = 5;
  return config;
}

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

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

WalRecord PutRecord(const std::string& key, const std::string& value,
                    uint64_t timestamp) {
  WalRecord record;
  record.type = WalRecordType::kPut;
  record.key = key;
  record.value = value;
  record.timestamp = timestamp;
  return record;
}

// Asserts the replica on `replica_pod` holds a byte-identical copy of the
// donor pod's on-disk WAL (full parity: lag must be zero at call time).
void ExpectWalParity(SimCluster& sim, size_t donor_pod, size_t replica_pod) {
  const std::string wal = ReadFileBytes(sim.pod_wal_path(donor_pod));
  const std::string replica =
      sim.pod_repl(replica_pod)->hub().LogBytes(sim.pod_name(donor_pod));
  ASSERT_GT(wal.size(), 0u) << "donor " << donor_pod << " has an empty WAL";
  ASSERT_EQ(replica.size(), wal.size())
      << "replica of " << sim.pod_name(donor_pod) << " holds "
      << replica.size() << " bytes, donor WAL has " << wal.size();
  EXPECT_TRUE(replica == wal)
      << "replica byte stream diverges from donor WAL";
}

// ---------------------------------------------------------------------------
// MergeSessionValues: the promotion-time merge of replica history with
// clicks the survivor accrued during failover.

TEST(MergeSessionValuesTest, EmptySidesYieldTheOther) {
  EXPECT_EQ(MergeSessionValues("", "4,5"), "4,5");
  EXPECT_EQ(MergeSessionValues("1,2", ""), "1,2");
  EXPECT_EQ(MergeSessionValues("", ""), "");
}

TEST(MergeSessionValuesTest, TokenPrefixLetsTheLongerHistoryWin) {
  EXPECT_EQ(MergeSessionValues("1,2", "1,2"), "1,2");
  // Local extended the replica's history while serving failover traffic.
  EXPECT_EQ(MergeSessionValues("1,2", "1,2,3"), "1,2,3");
  // Replica is ahead (local restarted empty and saw a single click).
  EXPECT_EQ(MergeSessionValues("1,2,3", "1"), "1,2,3");
}

TEST(MergeSessionValuesTest, StringPrefixIsNotTokenPrefix) {
  // "1,2" is a character prefix of "1,22" but NOT a token prefix: item 2
  // and item 22 are different clicks, so the histories diverged.
  EXPECT_EQ(MergeSessionValues("1,2", "1,22"), "1,2,1,22");
}

TEST(MergeSessionValuesTest, DivergentHistoriesConcatenateReplicaFirst) {
  // Replica clicks are older; they precede the local suffix.
  EXPECT_EQ(MergeSessionValues("1,2", "7,8"), "1,2,7,8");
}

// ---------------------------------------------------------------------------
// ReplicaHub: batch application, byte parity, rejection semantics.

TEST(ReplicaHubTest, AppliesSequencedBatchesWithByteParity) {
  ReplicaHub hub;
  std::string batch1;
  EncodeWalRecord(PutRecord("alice", "1", 10), &batch1);
  EncodeWalRecord(PutRecord("bob", "2", 11), &batch1);
  std::string batch2;
  EncodeWalRecord(PutRecord("alice", "1,3", 12), &batch2);

  uint64_t acked = 0;
  auto first = hub.ApplyBatch("pod-x", 1, 0, /*reset=*/false, batch1, &acked);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, batch1.size());

  auto second = hub.ApplyBatch("pod-x", 2, batch1.size(), /*reset=*/false,
                               batch2, &acked);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*second, batch1.size() + batch2.size());

  // The accepted stream is verbatim: byte-identical to the donor's WAL
  // prefix it was cut from.
  EXPECT_EQ(hub.LogBytes("pod-x"), batch1 + batch2);

  const ReplicaDonorState state = hub.DonorState("pod-x");
  EXPECT_EQ(state.acked_offset, batch1.size() + batch2.size());
  EXPECT_EQ(state.last_seq, 2u);
  EXPECT_EQ(state.batches_applied, 2u);
  EXPECT_EQ(state.entries, 2u);

  // The shadow table holds the latest value per key with donor timestamps.
  bool found_alice = false;
  for (const auto& entry : hub.SnapshotDonor("pod-x")) {
    if (entry.key != "alice") continue;
    found_alice = true;
    EXPECT_EQ(entry.value, "1,3");
    EXPECT_EQ(entry.last_access, 12u);
  }
  EXPECT_TRUE(found_alice);
}

TEST(ReplicaHubTest, DeleteRecordsRemoveShadowEntries) {
  ReplicaHub hub;
  std::string batch;
  EncodeWalRecord(PutRecord("alice", "1", 10), &batch);
  WalRecord del;
  del.type = WalRecordType::kDelete;
  del.key = "alice";
  del.timestamp = 11;
  EncodeWalRecord(del, &batch);

  uint64_t acked = 0;
  auto applied = hub.ApplyBatch("pod-x", 1, 0, false, batch, &acked);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(hub.DonorState("pod-x").entries, 0u);
  // The delete still lives in the byte stream (parity over tombstones).
  EXPECT_EQ(hub.LogBytes("pod-x"), batch);
}

TEST(ReplicaHubTest, TornBatchIsRejectedWholesale) {
  ReplicaHub hub;
  std::string batch;
  EncodeWalRecord(PutRecord("alice", "1", 10), &batch);
  EncodeWalRecord(PutRecord("bob", "2", 11), &batch);

  // Truncate inside the second record: the whole batch must bounce —
  // applying the intact first record would desynchronise the offsets.
  std::string torn = batch.substr(0, batch.size() - 3);
  uint64_t acked = 0;
  auto rejected = hub.ApplyBatch("pod-x", 1, 0, false, torn, &acked);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(hub.DonorState("pod-x").acked_offset, 0u);
  EXPECT_EQ(hub.DonorState("pod-x").entries, 0u);
  EXPECT_TRUE(hub.LogBytes("pod-x").empty());
  EXPECT_GE(hub.batches_rejected_total(), 1u);

  // The shipper resends the intact bytes; now everything lands.
  auto applied = hub.ApplyBatch("pod-x", 1, 0, false, batch, &acked);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, batch.size());
  EXPECT_EQ(hub.LogBytes("pod-x"), batch);
}

TEST(ReplicaHubTest, OffsetMismatchAnswersWithRealOffsetAndNeverDoubleApplies) {
  ReplicaHub hub;
  std::string batch;
  EncodeWalRecord(PutRecord("alice", "1", 10), &batch);
  uint64_t acked = 0;
  ASSERT_TRUE(hub.ApplyBatch("pod-x", 1, 0, false, batch, &acked).ok());

  // A duplicate resend (the ack was lost in flight) starts at offset 0
  // again: rejected with the real offset, the stream is untouched.
  auto duplicate = hub.ApplyBatch("pod-x", 2, 0, false, batch, &acked);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(acked, batch.size());
  EXPECT_EQ(hub.LogBytes("pod-x"), batch);

  // A gap (shipper restarted ahead of the replica) is rejected the same
  // way; the shipper rewinds to the returned offset.
  auto gap = hub.ApplyBatch("pod-x", 3, batch.size() + 100, false, batch,
                            &acked);
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(acked, batch.size());
}

TEST(ReplicaHubTest, ResetDropsPriorDonorState) {
  ReplicaHub hub;
  std::string old_bytes;
  EncodeWalRecord(PutRecord("alice", "1", 10), &old_bytes);
  std::string new_bytes;
  EncodeWalRecord(PutRecord("carol", "5", 20), &new_bytes);

  uint64_t acked = 0;
  ASSERT_TRUE(hub.ApplyBatch("pod-x", 1, 0, false, old_bytes, &acked).ok());
  // The donor compacted its WAL: shipping restarts from offset zero with
  // the reset flag, and the stale stream is discarded.
  auto reset = hub.ApplyBatch("pod-x", 1, 0, /*reset=*/true, new_bytes,
                              &acked);
  ASSERT_TRUE(reset.ok()) << reset.status().ToString();
  EXPECT_EQ(*reset, new_bytes.size());
  EXPECT_EQ(hub.LogBytes("pod-x"), new_bytes);
  EXPECT_EQ(hub.DonorState("pod-x").entries, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end shipping over the simulated cluster.

TEST(ReplicationTest, ShipperMirrorsDonorWalOnRingSuccessor) {
  auto cluster =
      SimCluster::Start(ReplicationConfig(FreshWorkDir("repl-parity")));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  SimCluster& sim = **cluster;
  ASSERT_TRUE(sim.AwaitHealthy(2, 5000));

  for (int u = 0; u < 12; ++u) {
    for (ItemId item : {3, 4, 5}) {
      auto status =
          SendClick(sim.gateway().port(), "user-" + std::to_string(u), item);
      ASSERT_TRUE(status.ok()) << status.status().ToString();
      ASSERT_EQ(*status, 200);
    }
  }

  // Deterministic zero lag, then parity in both directions (with two
  // pods each is the other's ring successor).
  ASSERT_TRUE(sim.pod_repl(0)->shipper().FlushNow().ok());
  ASSERT_TRUE(sim.pod_repl(1)->shipper().FlushNow().ok());
  EXPECT_EQ(sim.pod_repl(0)->shipper().lag_bytes(), 0u);
  EXPECT_EQ(sim.pod_repl(1)->shipper().lag_bytes(), 0u);
  ExpectWalParity(sim, /*donor_pod=*/0, /*replica_pod=*/1);
  ExpectWalParity(sim, /*donor_pod=*/1, /*replica_pod=*/0);
}

TEST(ReplicationTest, ShippingFaultsNeverBreakByteParity) {
  auto cluster =
      SimCluster::Start(ReplicationConfig(FreshWorkDir("repl-faults")));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  SimCluster& sim = **cluster;
  ASSERT_TRUE(sim.AwaitHealthy(2, 5000));

  // Phase 1: batches truncated in flight. The receiver rejects the torn
  // tail wholesale (or acks the shorter prefix when the cut lands on a
  // record boundary); the resend keeps byte parity either way.
  {
    ScopedFaultInjector injector(909);
    injector->Arm(FaultSite::kReplShipTruncate, FaultRule{1.0, 3, 0});
    for (int u = 0; u < 10; ++u) {
      auto status = SendClick(sim.gateway().port(),
                              "faulty-" + std::to_string(u), 2);
      ASSERT_TRUE(status.ok()) << status.status().ToString();
      ASSERT_EQ(*status, 200);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (injector->fires(FaultSite::kReplShipTruncate) < 3) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "truncate budget never spent: "
          << injector->fires(FaultSite::kReplShipTruncate);
      (void)sim.pod_repl(0)->shipper().FlushNow();
      (void)sim.pod_repl(1)->shipper().FlushNow();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // Precondition for phase 2: each shipper has had a 200 ack and holds
  // no unshipped bytes. A shipper still announcing a reset would have its
  // resend accepted with 200 instead of rewound with 409. The direct
  // clicks give each pod's WAL something to ship, whatever the ring
  // routed above.
  for (size_t pod = 0; pod < 2; ++pod) {
    auto status = SendClick(sim.pod_port(pod),
                            "primed-" + std::to_string(pod), 4);
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    ASSERT_EQ(*status, 200);
  }
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    auto acked = [&](size_t pod) {
      const WalShipper& shipper = sim.pod_repl(pod)->shipper();
      return shipper.lag_bytes() == 0 && shipper.stats().batches_shipped >= 1;
    };
    while (true) {
      (void)sim.pod_repl(0)->shipper().FlushNow();
      (void)sim.pod_repl(1)->shipper().FlushNow();
      if (acked(0) && acked(1)) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "shippers never caught up after the truncation phase";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // Phase 2: the replica applies a batch but the ack is lost in flight.
  // The shipper's resend of already-applied bytes must be answered with
  // the real offset (409 rewind), never double-applied.
  {
    ScopedFaultInjector injector(910);
    injector->Arm(FaultSite::kReplAckLost, FaultRule{1.0, 3, 0});
    for (int u = 0; u < 10; ++u) {
      auto status = SendClick(sim.gateway().port(),
                              "faulty-" + std::to_string(u), 6);
      ASSERT_TRUE(status.ok()) << status.status().ToString();
      ASSERT_EQ(*status, 200);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (injector->fires(FaultSite::kReplAckLost) < 3) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "ack-lost budget never spent: "
          << injector->fires(FaultSite::kReplAckLost);
      (void)sim.pod_repl(0)->shipper().FlushNow();
      (void)sim.pod_repl(1)->shipper().FlushNow();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  ASSERT_TRUE(sim.pod_repl(0)->shipper().FlushNow().ok());
  ASSERT_TRUE(sim.pod_repl(1)->shipper().FlushNow().ok());
  // A lost ack means the donor resent bytes the replica already applied:
  // idempotency demands exact parity, not just convergence.
  ExpectWalParity(sim, 0, 1);
  ExpectWalParity(sim, 1, 0);

  const WalShipperStats stats0 = sim.pod_repl(0)->shipper().stats();
  const WalShipperStats stats1 = sim.pod_repl(1)->shipper().stats();
  EXPECT_GE(stats0.batches_rejected + stats1.batches_rejected, 1u)
      << "no truncated batch was ever rejected";
  EXPECT_GE(stats0.ship_errors + stats1.ship_errors, 1u)
      << "no lost ack was ever observed";
  EXPECT_GE(stats0.offset_rewinds + stats1.offset_rewinds, 1u)
      << "a lost ack must resynchronise via the 409 rewind";
}

TEST(ReplicationTest, RestartedReplicaCatchesUpViaWalReplay) {
  auto cluster =
      SimCluster::Start(ReplicationConfig(FreshWorkDir("repl-catchup")));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  SimCluster& sim = **cluster;
  ASSERT_TRUE(sim.AwaitHealthy(2, 5000));

  // Straight at pod 0 so its WAL is the stream under test.
  for (int u = 0; u < 8; ++u) {
    auto status =
        SendClick(sim.pod_port(0), "catch-" + std::to_string(u), 3);
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(*status, 200);
  }
  ASSERT_TRUE(sim.pod_repl(0)->shipper().FlushNow().ok());
  ExpectWalParity(sim, 0, 1);

  // The replica dies; the donor keeps acking clicks it can no longer ship.
  sim.KillPod(1);
  ASSERT_TRUE(AwaitBackendHealth(sim, sim.pod_name(1), false, 5000));
  for (int u = 0; u < 8; ++u) {
    auto status =
        SendClick(sim.pod_port(0), "catch-" + std::to_string(u), 4);
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(*status, 200);
  }

  // Reborn replica starts with an empty hub. The donor's shipper resends
  // from its old offset, gets the 409 rewind to zero, and re-ships the
  // whole WAL — catch-up is just replay.
  ASSERT_TRUE(sim.RestartPod(1).ok());
  ASSERT_TRUE(AwaitBackendHealth(sim, sim.pod_name(1), true, 5000));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!sim.pod_repl(0)->shipper().FlushNow().ok()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "shipper never reconnected to the restarted replica";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ExpectWalParity(sim, 0, 1);
  EXPECT_GE(sim.pod_repl(0)->shipper().stats().offset_rewinds, 1u);
}

// ---------------------------------------------------------------------------
// Promotion: the gateway merges a dead pod's replica into the successor.

TEST(ReplicationTest, PromotionMergesFailoverClicksAndSkipsExpired) {
  auto clock = std::make_shared<std::atomic<uint64_t>>(1000);
  SimClusterConfig config =
      ReplicationConfig(FreshWorkDir("repl-promote"));
  config.store.ttl_seconds = 60;
  config.store.clock = [clock] { return clock->load(); };
  auto cluster = SimCluster::Start(std::move(config));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  SimCluster& sim = **cluster;
  ASSERT_TRUE(sim.AwaitHealthy(2, 5000));

  // t=1000: a session that will be long expired by promotion time.
  ASSERT_EQ(*SendClick(sim.pod_port(0), "stale", 2), 200);
  clock->fetch_add(120);

  // t=1120: live history on pod 0 — two clicks for the shared session.
  ASSERT_EQ(*SendClick(sim.pod_port(0), "shared", 1), 200);
  ASSERT_EQ(*SendClick(sim.pod_port(0), "shared", 2), 200);
  ASSERT_EQ(*SendClick(sim.pod_port(0), "fresh", 5), 200);
  ASSERT_TRUE(sim.pod_repl(0)->shipper().FlushNow().ok());

  // Pod 1 serves failover traffic for the shared session and extends the
  // history the replica already holds.
  ASSERT_EQ(*SendClick(sim.pod_port(1), "shared", 1), 200);
  ASSERT_EQ(*SendClick(sim.pod_port(1), "shared", 2), 200);
  ASSERT_EQ(*SendClick(sim.pod_port(1), "shared", 3), 200);

  // t=1150: "stale" is 150s old (dead), "shared"/"fresh" are 30s old.
  clock->fetch_add(30);
  HttpClient client;
  ASSERT_TRUE(client.Connect(sim.pod_port(1)).ok());
  auto promoted = client.Post(repl::kPromotePath,
                              "{\"donor\":\"" + sim.pod_name(0) + "\"}");
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  ASSERT_EQ(promoted->status, 200) << promoted->body;

  // Replica "1,2" is a token prefix of local "1,2,3": the longer failover
  // history wins — no click lost, none duplicated.
  auto shared = sim.pod(1)->service().GetSession("shared");
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  EXPECT_EQ(*shared, (EvolvingSession{1, 2, 3}));

  // A session only the dead donor saw is restored with its timestamps.
  auto fresh = sim.pod(1)->service().GetSession("fresh");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(*fresh, (EvolvingSession{5}));

  // Promotion is not resurrection: the expired session stays dead.
  EXPECT_EQ(sim.pod(1)->service().GetSession("stale").status().code(),
            StatusCode::kNotFound);

  // The donor's replica state is consumed by the promotion.
  EXPECT_TRUE(sim.pod_repl(1)->hub().Donors().empty());
  EXPECT_EQ(sim.pod_repl(1)->promotions_total(), 1u);
}

// ---------------------------------------------------------------------------
// Hand-off: a donor that crashes mid-transfer is retried to completion.

TEST(ReplicationTest, HandoffCutoverCrashIsRetriedUntilJoinCompletes) {
  auto cluster =
      SimCluster::Start(ReplicationConfig(FreshWorkDir("repl-handoff")));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  SimCluster& sim = **cluster;
  ASSERT_TRUE(sim.AwaitHealthy(2, 5000));

  std::map<std::string, EvolvingSession> expected;
  for (int u = 0; u < 20; ++u) {
    const std::string key = "hand-" + std::to_string(u);
    for (ItemId item : {1, 2, 3}) {
      auto status = SendClick(sim.gateway().port(), key, item);
      ASSERT_TRUE(status.ok()) << status.status().ToString();
      ASSERT_EQ(*status, 200);
    }
    expected[key] = EvolvingSession{1, 2, 3};
  }

  uint64_t crash_fires = 0;
  size_t joined = 0;
  {
    ScopedFaultInjector injector(1337);
    // The donor 500s after pushing its first chunk — twice. The gateway's
    // retried hand-off must resume the same transfer idempotently.
    injector->Arm(FaultSite::kHandoffCutoverCrash, FaultRule{1.0, 2, 0});
    auto added = sim.AddPod();
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    joined = *added;
    crash_fires = injector->fires(FaultSite::kHandoffCutoverCrash);
  }
  EXPECT_EQ(crash_fires, 2u) << "the cutover crash never fired";
  ASSERT_TRUE(sim.AwaitHealthy(3, 5000));

  auto epoch = sim.FetchRingEpoch();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 2u);

  // Every acknowledged click must live on its (possibly new) ring owner,
  // and the ring must actually have moved some keys to the new pod.
  size_t moved_to_new_pod = 0;
  for (const auto& [key, session] : expected) {
    const std::string owner = sim.gateway().OwnerOf(key);
    ASSERT_FALSE(owner.empty());
    size_t owner_index = sim.num_pods();
    for (size_t i = 0; i < sim.num_pods(); ++i) {
      if (sim.pod_name(i) == owner) owner_index = i;
    }
    ASSERT_LT(owner_index, sim.num_pods()) << "unknown owner " << owner;
    if (owner_index == joined) ++moved_to_new_pod;
    auto recovered = sim.pod(owner_index)->service().GetSession(key);
    ASSERT_TRUE(recovered.ok())
        << key << " lost across the hand-off: "
        << recovered.status().ToString();
    EXPECT_EQ(*recovered, session) << key;
  }
  EXPECT_GT(moved_to_new_pod, 0u)
      << "the join moved no keys; the hand-off path went untested";

  // Post-join traffic extends the histories in place (no stranded state,
  // no duplicate replay from a stale donor copy).
  for (auto& [key, session] : expected) {
    auto status = SendClick(sim.gateway().port(), key, 4);
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    ASSERT_EQ(*status, 200);
    session.push_back(4);
  }
  for (const auto& [key, session] : expected) {
    const std::string owner = sim.gateway().OwnerOf(key);
    size_t owner_index = sim.num_pods();
    for (size_t i = 0; i < sim.num_pods(); ++i) {
      if (sim.pod_name(i) == owner) owner_index = i;
    }
    ASSERT_LT(owner_index, sim.num_pods());
    auto extended = sim.pod(owner_index)->service().GetSession(key);
    ASSERT_TRUE(extended.ok()) << key << ": " << extended.status().ToString();
    EXPECT_EQ(*extended, session) << key;
  }
}

}  // namespace
}  // namespace serenade
