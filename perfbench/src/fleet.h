// Workload inputs, the in-process fleets the workloads drive, request
// schedules, and the output checks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client.h"
#include "cluster/gateway.h"
#include "data/synthetic.h"
#include "serving/server.h"
#include "testing/sim_cluster.h"

namespace perfbench {

using serenade::ItemId;

/// The three traffic mixes (see BENCHMARK.json for why each exists).
enum class Mix { kFleetSingle, kPodBatch, kFleetChurn };

/// Everything a workload's shape is fixed by, apart from the seed.
struct WorkloadSpec {
  Mix mix = Mix::kFleetSingle;
  std::string name;
  size_t num_items = 0;     ///< catalog size of the synthetic click log
  size_t num_sessions = 0;  ///< sessions of the generated log (30 days)
  double reference_rps = 0;  ///< open-loop reference rate (0 = closed loop)
  size_t batch_slots = 0;    ///< slots per :batch call (closed loop)
};

WorkloadSpec SpecFor(const std::string& name);

/// The paper's production kNN settings (m = k = 500) and business rules.
serenade::ServiceConfig ProductionServiceConfig();

/// Seeded inputs from one generated click log: its first 29 days, which
/// the index is built from; the held-out sessions of its last day, which
/// requests are drawn from; and the catalog.
struct Inputs {
  serenade::Dataset train;
  std::vector<std::vector<ItemId>> streams;
  serenade::ItemCatalog catalog;
};
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// One request's logical content (what the reference replays).
struct Click {
  uint32_t session = 0;  ///< index into Schedule::keys
  ItemId item = 0;
};

/// A seeded open-loop schedule of single GET /v1/recommend calls.
struct Schedule {
  std::vector<std::string> keys;
  std::vector<Call> calls;
  std::vector<Click> clicks;  ///< parallel to calls
};

/// Poisson arrivals at `rps` for `seconds`; each arrival is the next click
/// of one of a fixed number of concurrently active sessions (finished
/// sessions are replaced by the next held-out stream under a fresh key).
/// Sessions are pinned to connections, so each session's clicks reach
/// the fleet in order. `trace` stamps a trace id on every call.
Schedule BuildOpenLoop(const Inputs& inputs, double rps, double seconds,
                       uint64_t seed, const std::string& key_prefix,
                       size_t num_conns, bool trace);

/// pod_batch's closed-loop plan: connection c owns `groups` groups of
/// `slots` session keys, and its j-th call posts the next click of every
/// key of group j % groups, so every key's clicks reach the pod in order.
struct BatchPlan {
  size_t num_conns = 0;
  size_t slots = 0;
  size_t groups = 0;
  std::vector<std::string> keys;                ///< conn-major, group-major
  std::vector<std::vector<ItemId>> key_streams;  ///< cycled per key

  BatchPlan(const Inputs& inputs, size_t num_conns, size_t slots,
            size_t groups, const std::string& key_prefix);
  Click SlotClick(size_t conn, size_t j, size_t s) const;
  /// {"requests":[{"session_id":..,"item_id":..},...]}
  std::string Body(size_t conn, size_t j) const;
};

/// A recommend request body: {"session_id":..,"item_id":..} for a single
/// call, {"requests":[<single bodies>...]} for a :batch call.
std::string RequestJson(
    const std::vector<std::pair<std::string, ItemId>>& slots, bool batch);

/// The body the pod answers a successful recommend with.
std::string RecommendationJson(const std::vector<serenade::ScoredItem>& items);

/// The fleet a workload drives. fleet_single: gateway + 2 WAL-backed pods
/// (page-cache mode). pod_batch: one volatile pod, no gateway.
/// fleet_churn: SimCluster with per-write WAL sync, WAL shipping to the
/// ring successor and the streaming-freshness loop.
class Fleet {
 public:
  static std::unique_ptr<Fleet> Start(const WorkloadSpec& spec,
                                      const Inputs& inputs,
                                      const std::string& work_dir);
  ~Fleet();

  /// Where the client connects: the gateway, or the pod for pod_batch.
  uint16_t front_port() const;
  serenade::ClusterGateway* gateway();  ///< null for pod_batch
  size_t num_pods() const;
  serenade::SerenadeServer* pod(size_t i);
  /// The pod a session key lives on.
  size_t OwnerOf(const std::string& key) const;
  std::shared_ptr<const serenade::SessionIndex> index() const {
    return index_;
  }
  const serenade::ServiceConfig& service_config() const { return config_; }
  const serenade::ItemCatalog& catalog() const { return catalog_; }
  serenade::SimCluster* sim() { return sim_.get(); }
  std::string wal_path(size_t pod) const;
  /// Options for a private store in the pods' WAL mode (its WAL, if any,
  /// lives in the fleet's work directory).
  const serenade::SessionStoreOptions& store_options() const {
    return config_.store;
  }

 private:
  Fleet() = default;

  std::string dir_;
  serenade::ServiceConfig config_;
  serenade::ItemCatalog catalog_;
  std::shared_ptr<const serenade::SessionIndex> index_;
  std::vector<std::unique_ptr<serenade::SerenadeServer>> pods_;
  std::vector<std::string> wal_paths_;
  std::unique_ptr<serenade::ClusterGateway> gateway_;
  std::unique_ptr<serenade::SimCluster> sim_;
};

/// Replays `schedule` into a fresh reference service (volatile store,
/// the fleet's index, catalog and config except knn.m = `m`) in each
/// connection's order and counts answered 200 calls whose body differs
/// from the reference body. Runs one thread per connection.
size_t CountMismatches(const Fleet& fleet, size_t m, const Schedule& schedule,
                       const std::vector<Outcome>& outcomes, size_t num_conns);

/// CountMismatches for pod_batch: outcomes[c][j] is call j of
/// connection c (warm-up and measured calls in one sequence).
size_t CountBatchMismatches(const Fleet& fleet, size_t m,
                            const BatchPlan& plan,
                            const std::vector<std::vector<Outcome>>& outcomes);

/// fleet_churn end-state check: every acked click of every session is in
/// its owner pod's stored session, in order, and each pod's WAL and
/// session table equal its replica on the ring successor byte for byte.
/// `drop_one` removes one acked click from the expectation first (the
/// negative self-check). Returns the number of violations.
size_t CountChurnViolations(
    Fleet& fleet, const std::vector<const Schedule*>& schedules,
    const std::vector<const std::vector<Outcome>*>& outcomes, bool drop_one);

}  // namespace perfbench
