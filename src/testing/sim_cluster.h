// In-process simulated cluster for crash/recovery torture: a real
// ClusterGateway fronting N real SerenadeServer pods over loopback HTTP,
// each pod with its own WAL-backed session store, all sharing one
// immutable session index. Tests combine it with a ScopedFaultInjector
// (testing/fault_injection.h) to kill pods mid-traffic, tear WAL writes,
// and then restart pods on their original ports and assert recovery
// invariants: no acknowledged write lost, no expired key resurrected,
// index versions monotone.
//
// Everything is plain in-process state — no subprocesses, no containers
// — so a torture round is milliseconds and reproduces from its seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/item2vec.h"
#include "cluster/gateway.h"
#include "common/status.h"
#include "core/embedding.h"
#include "core/hnsw.h"
#include "core/session_index.h"
#include "data/click_log.h"
#include "freshness/builder_server.h"
#include "freshness/click_tap.h"
#include "freshness/delta_fetcher.h"
#include "replication/pod_replication.h"
#include "serving/server.h"
#include "store/session_store.h"

namespace serenade {

/// Optional streaming-freshness role for the simulated cluster: one
/// in-process index-builder plus a click tap and delta fetcher per pod,
/// closing the click -> delta -> overlay loop end to end over loopback
/// HTTP. The builder's lineage (base version/CRC/max timestamp) is
/// derived from the shared in-memory index automatically.
struct SimFreshnessConfig {
  bool enabled = false;
  /// Sessionization knobs; base_version / base_crc32 / base_max_timestamp
  /// are overridden from the shared index at Start().
  DeltaBuilderConfig builder;
  /// Builder-side background compaction cadence (0 = tests drive
  /// builder()->CompactNow() explicitly).
  uint64_t compact_interval_ms = 0;
  /// Per-pod tap knobs; builder_port is overridden at Start().
  ClickTapConfig tap;
  /// Per-pod fetcher knobs; builder_port is overridden at Start().
  DeltaFetcherConfig fetch;
};

/// Optional A/B experiment role: item2vec embeddings are trained once
/// from the shared click history, each pod gets an EmbeddingManager
/// attached before Start() (unless pods_have_embeddings is off — the
/// dead-ANN-arm degradation drill), and the gateway buckets the
/// configured percent of sessions into the ANN retrieval arm.
struct SimAbConfig {
  bool enabled = false;
  /// Gateway bucket knobs (GatewayConfig::ab_ann_percent / ab_salt).
  uint32_t ann_percent = 50;
  uint64_t salt = 0;
  /// Off = pods carry no embedding artifact, so every ANN-arm request
  /// degrades to VMIS (counted, never failed).
  bool pods_have_embeddings = true;
  /// Trainer knobs; tests shrink dim/epochs for speed.
  Item2VecConfig train;
  /// Per-pod ANN graph knobs.
  HnswConfig hnsw;
};

/// Optional replication role: each pod gets a PodReplication agent
/// (WAL shipper to its ring successor + replica hub + hand-off routes),
/// and the gateway is switched to manage_replication so join/drain/
/// remove orchestrate the data motion.
struct SimReplicationConfig {
  bool enabled = false;
  /// Per-pod replication knobs; pod_name and virtual_nodes are
  /// overridden per pod / from the gateway config at Start(). Tests
  /// usually shorten ship_interval_ms.
  PodReplicationConfig pod;
};

struct SimClusterConfig {
  size_t num_pods = 2;
  /// Click history the shared index is built from.
  Dataset train;
  KnnConfig knn;
  /// Per-pod store options; wal_path is overridden per pod with
  /// "<work_dir>/pod<i>.wal" (leave work_dir empty for volatile pods).
  SessionStoreOptions store;
  /// Directory for pod WAL files; created by the test (TempDir).
  std::string work_dir;
  /// Gateway knobs; tests usually shorten health.probe_interval_ms.
  GatewayConfig gateway;
  size_t max_items = 21;
  /// Streaming freshness role (off by default; torture tests opt in).
  SimFreshnessConfig freshness;
  /// Session-replication role (off by default).
  SimReplicationConfig replication;
  /// A/B experiment role (off by default).
  SimAbConfig ab;
};

/// Owns the pods and the gateway; Stop order (gateway first) is handled
/// by the destructor.
class SimCluster {
 public:
  static StatusOr<std::unique_ptr<SimCluster>> Start(SimClusterConfig config);
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  ClusterGateway& gateway() { return *gateway_; }
  HealthChecker& health() { return gateway_->health(); }

  size_t num_pods() const { return pods_.size(); }
  /// Null while the pod is down (between KillPod and RestartPod).
  SerenadeServer* pod(size_t i) { return pods_[i].server.get(); }
  uint16_t pod_port(size_t i) const { return pods_[i].port; }
  const std::string& pod_wal_path(size_t i) const {
    return pods_[i].wal_path;
  }
  const std::string& pod_name(size_t i) const { return pods_[i].name; }

  /// Takes pod `i` off the air: in-flight batches drain, the WAL syncs,
  /// the replication agent flushes its final batch, the port stops
  /// answering. The prober ejects it within a few rounds.
  /// (A *crash* — torn WAL tail, lost unsynced writes — is modelled by
  /// arming kWalTornWrite/kWalSyncFail before the traffic, not by this.)
  void KillPod(size_t i);

  /// Rebuilds pod `i` from its WAL and rebinds its original port.
  Status RestartPod(size_t i);

  /// Starts a brand-new pod (fresh name, fresh WAL) and joins it to the
  /// live ring through the gateway's /v1/admin/cluster/join control
  /// plane (hand-offs run on the donors when replication is managed).
  /// Returns its pod index.
  StatusOr<size_t> AddPod();

  /// Drains pod `i` out of the ring via /v1/admin/cluster/drain (the pod
  /// stays up and hands its sessions to the survivors; the caller kills
  /// it afterwards if desired).
  Status DrainPod(size_t i);

  /// Declares pod `i` dead via /v1/admin/cluster/remove: the gateway
  /// promotes its replica on the ring successor first. Kill the pod
  /// before calling this.
  Status RemovePodFromRing(size_t i);

  /// Current ring epoch as reported by GET /v1/admin/cluster (exercises
  /// the HTTP surface rather than reading the gateway object).
  StatusOr<uint64_t> FetchRingEpoch();

  /// One epoch-fenced control-plane mutation against the gateway; body
  /// fields beyond "epoch" come from `extra` (e.g. "\"name\":\"pod-1\"").
  Status AdminMutate(const std::string& action, const std::string& extra);

  /// Polls the health checker until at least `min_healthy` pods are
  /// routable (true) or `timeout_ms` elapses (false).
  bool AwaitHealthy(size_t min_healthy, uint64_t timeout_ms);

  /// The index-builder role; null unless freshness.enabled.
  IndexBuilderServer* builder() { return builder_.get(); }
  /// Per-pod freshness plumbing; null while the pod is down or when the
  /// freshness role is disabled.
  ClickTap* pod_tap(size_t i) { return pods_[i].tap.get(); }
  DeltaFetcher* pod_fetcher(size_t i) { return pods_[i].fetcher.get(); }
  /// Per-pod replication agent; null while the pod is down or when the
  /// replication role is disabled.
  PodReplication* pod_repl(size_t i) { return pods_[i].repl.get(); }

 private:
  struct Pod {
    std::string name;
    std::string wal_path;
    uint16_t port = 0;  ///< assigned on first start, reused on restart
    std::unique_ptr<SerenadeServer> server;
    std::unique_ptr<ClickTap> tap;
    std::unique_ptr<DeltaFetcher> fetcher;
    std::unique_ptr<PodReplication> repl;
  };

  SimCluster() = default;

  Status StartPod(Pod& pod, uint16_t port);

  SimClusterConfig config_;
  std::shared_ptr<const SessionIndex> index_;
  /// Shared trained vectors the per-pod EmbeddingManagers boot from
  /// (empty unless the A/B role trains them at Start()).
  ItemEmbeddings embeddings_;
  std::vector<Pod> pods_;
  std::unique_ptr<IndexBuilderServer> builder_;
  std::unique_ptr<ClusterGateway> gateway_;
};

}  // namespace serenade
