#include "fleet.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/session_index.h"
#include "data/split.h"
#include "serving/json.h"
#include "serving/service.h"

namespace perfbench {

using serenade::ClusterGateway;
using serenade::SerenadeServer;
using serenade::SerenadeService;
using serenade::ServiceConfig;
using serenade::SessionIndex;

namespace {

[[noreturn]] void Fail(const std::string& what, const serenade::Status& s) {
  throw std::runtime_error(what + ": " + s.ToString());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::unique_ptr<SerenadeService> ReferenceService(const Fleet& fleet,
                                                  size_t m) {
  ServiceConfig config = fleet.service_config();
  config.store = serenade::SessionStoreOptions{};
  config.knn.m = m;
  config.knn.k = std::min(config.knn.k, m);
  auto service =
      SerenadeService::Create(fleet.index(), fleet.catalog(), config);
  if (!service.ok()) Fail("reference service", service.status());
  return std::move(service).value();
}

std::string RecommendOrEmpty(SerenadeService& service, const std::string& key,
                             ItemId item) {
  auto result = service.HandleUpdateAndRecommend(
      serenade::RecommendRequest{key, item});
  return result.ok() ? RecommendationJson(*result) : std::string();
}

// The gateway of both fleets. Every pod stays up for the whole run, so a
// pod that answers late is slow, not dead: a forward timeout or an
// ejection would move its sessions' clicks to a pod that does not own
// them, and a host stall of a second (a blocked WAL write on a busy
// disk) would then fail the output checks without any fault in the
// program. Long deadlines and no ejection keep each session on its
// owner; the stall still shows in the latencies.
serenade::GatewayConfig BenchGatewayConfig() {
  serenade::GatewayConfig config;
  config.forward_timeout_ms = 20000;
  config.health.probe_timeout_ms = 20000;
  config.health.failures_to_eject = 1000000;
  return config;
}

}  // namespace

WorkloadSpec SpecFor(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "fleet_single" || name == "fleet_churn") {
    spec.mix = name == "fleet_single" ? Mix::kFleetSingle : Mix::kFleetChurn;
    spec.num_items = 20000;
    spec.num_sessions = 80000;
    spec.reference_rps = 2000;
  } else if (name == "pod_batch") {
    spec.mix = Mix::kPodBatch;
    spec.num_items = 60000;
    spec.num_sessions = 320000;
    spec.batch_slots = 16;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (fleet_single, pod_batch, fleet_churn)");
  }
  return spec;
}

ServiceConfig ProductionServiceConfig() {
  ServiceConfig config;
  config.knn.m = 500;
  config.knn.k = 500;
  return config;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  serenade::SyntheticConfig log;
  log.seed = seed * 2 + 1;
  log.num_items = spec.num_items;
  log.num_sessions = spec.num_sessions;
  log.num_days = 30;
  // The paper's protocol: the last day is held out. Requests and history
  // then come from one generated log and share its item popularity (a
  // second generator run would draw its own popularity ranking, and the
  // work per request would hang on how the two rankings happen to meet).
  serenade::TrainTestSplit split =
      serenade::SplitLastDays(serenade::GenerateDataset(log), 1);

  Inputs inputs;
  inputs.train = std::move(split.train);
  for (const serenade::SessionData& session : split.test.sessions()) {
    inputs.streams.push_back(session.items);
  }
  inputs.catalog = serenade::GenerateCatalog(inputs.train.num_items(), seed);
  return inputs;
}

Schedule BuildOpenLoop(const Inputs& inputs, double rps, double seconds,
                       uint64_t seed, const std::string& key_prefix,
                       size_t num_conns, bool trace) {
  // Concurrently active sessions: each arrival is the next click of one
  // of them, so a session's clicks spread over a realistic interval.
  constexpr size_t kActive = 128;
  struct Active {
    uint32_t key = 0;
    size_t stream = 0;
    size_t pos = 0;
  };
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rps);
  Schedule schedule;
  size_t next_stream = rng() % inputs.streams.size();
  auto fresh = [&] {
    Active a;
    a.key = static_cast<uint32_t>(schedule.keys.size());
    a.stream = next_stream++ % inputs.streams.size();
    schedule.keys.push_back(key_prefix + "-" + std::to_string(a.key));
    return a;
  };
  std::vector<Active> active;
  for (size_t i = 0; i < kActive; ++i) active.push_back(fresh());

  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    Active& a = active[rng() % kActive];
    const ItemId item = inputs.streams[a.stream][a.pos++];
    Call call;
    call.due_ns = static_cast<int64_t>(t * 1e9);
    call.conn = static_cast<uint32_t>(a.key % num_conns);
    char trace_id[24] = "";
    if (trace) {
      std::snprintf(trace_id, sizeof(trace_id), "%016llx",
                    static_cast<unsigned long long>(
                        (seed << 24) ^ schedule.calls.size()));
    }
    call.wire = GetWire("/v1/recommend?session_id=" + schedule.keys[a.key] +
                            "&item_id=" + std::to_string(item),
                        trace_id);
    schedule.calls.push_back(std::move(call));
    schedule.clicks.push_back(Click{a.key, item});
    if (a.pos == inputs.streams[a.stream].size()) a = fresh();
  }
  return schedule;
}

BatchPlan::BatchPlan(const Inputs& inputs, size_t num_conns_in,
                     size_t slots_in, size_t groups_in,
                     const std::string& key_prefix)
    : num_conns(num_conns_in), slots(slots_in), groups(groups_in) {
  // Key k walks held-out sessions k, k + total, k + 2 * total, ... back
  // to back, so the keys together cover every held-out session once per
  // cycle: the cost of a run averages over the whole held-out log, not
  // over a sample of it whose mix changes with the seed. The long streams
  // also keep every session at or beyond the kNN's max_session_length
  // once warmed up.
  const size_t total = num_conns * groups * slots;
  key_streams.resize(total);
  for (size_t i = 0; i < std::max(total, inputs.streams.size()); ++i) {
    const auto& source = inputs.streams[i % inputs.streams.size()];
    std::vector<ItemId>& stream = key_streams[i % total];
    stream.insert(stream.end(), source.begin(), source.end());
  }
  for (size_t k = 0; k < total; ++k) {
    keys.push_back(key_prefix + "-" + std::to_string(k));
  }
}

Click BatchPlan::SlotClick(size_t conn, size_t j, size_t s) const {
  const size_t k = (conn * groups + j % groups) * slots + s;
  const std::vector<ItemId>& stream = key_streams[k];
  return Click{static_cast<uint32_t>(k),
               stream[(j / groups) % stream.size()]};
}

std::string BatchPlan::Body(size_t conn, size_t j) const {
  std::vector<std::pair<std::string, ItemId>> body;
  for (size_t s = 0; s < slots; ++s) {
    const Click click = SlotClick(conn, j, s);
    body.emplace_back(keys[click.session], click.item);
  }
  return RequestJson(body, /*batch=*/true);
}

std::string RequestJson(
    const std::vector<std::pair<std::string, ItemId>>& slots, bool batch) {
  serenade::JsonWriter writer;
  if (batch) writer.BeginObject().Key("requests").BeginArray();
  for (const auto& [key, item] : slots) {
    writer.BeginObject()
        .Key("session_id")
        .Value(key)
        .Key("item_id")
        .Value(static_cast<uint64_t>(item))
        .EndObject();
  }
  if (batch) writer.EndArray().EndObject();
  return writer.str();
}

std::string RecommendationJson(
    const std::vector<serenade::ScoredItem>& items) {
  serenade::JsonWriter writer;
  writer.BeginObject().Key("items").BeginArray();
  for (const serenade::ScoredItem& rec : items) {
    writer.Value(static_cast<uint64_t>(rec.item));
  }
  writer.EndArray().Key("scores").BeginArray();
  for (const serenade::ScoredItem& rec : items) {
    writer.Value(static_cast<double>(rec.score));
  }
  writer.EndArray().EndObject();
  return writer.str();
}

std::unique_ptr<Fleet> Fleet::Start(const WorkloadSpec& spec,
                                    const Inputs& inputs,
                                    const std::string& work_dir) {
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);
  auto fleet = std::unique_ptr<Fleet>(new Fleet());
  fleet->dir_ = work_dir;
  fleet->config_ = ProductionServiceConfig();

  if (spec.mix == Mix::kFleetChurn) {
    // SimCluster wires the churn roles; mirror the service config and
    // catalog it gives every pod so the layer replays match it.
    serenade::SimClusterConfig config;
    config.num_pods = 2;
    config.train = inputs.train;
    config.knn = fleet->config_.knn;
    config.store.sync_every_write = true;
    config.work_dir = work_dir;
    config.freshness.enabled = true;
    config.freshness.builder.seal_idle_ms = 300;
    config.freshness.compact_interval_ms = 1000;
    config.freshness.fetch.poll_interval_ms = 500;
    config.replication.enabled = true;
    config.gateway = BenchGatewayConfig();
    auto sim = serenade::SimCluster::Start(std::move(config));
    if (!sim.ok()) Fail("churn fleet", sim.status());
    fleet->sim_ = std::move(sim).value();
    fleet->config_.rules.filter_unavailable = false;
    fleet->config_.rules.filter_adult = false;
    fleet->config_.store.sync_every_write = true;
    fleet->config_.store.wal_path = work_dir + "/ledger.wal";
    const size_t num_items = inputs.train.num_items();
    fleet->catalog_.available.assign(num_items, true);
    fleet->catalog_.adult.assign(num_items, false);
    fleet->index_ =
        fleet->sim_->pod(0)->service().CurrentSnapshot()->index_ptr();
    return fleet;
  }

  fleet->catalog_ = inputs.catalog;
  fleet->index_ = std::make_shared<const SessionIndex>(
      SessionIndex::Build(inputs.train, fleet->config_.knn.m));
  const size_t num_pods = spec.mix == Mix::kFleetSingle ? 2 : 1;
  std::vector<serenade::BackendEndpoint> endpoints;
  for (size_t i = 0; i < num_pods; ++i) {
    ServiceConfig config = fleet->config_;
    if (spec.mix == Mix::kFleetSingle) {
      config.store.wal_path = work_dir + "/pod" + std::to_string(i) + ".wal";
    }
    fleet->wal_paths_.push_back(config.store.wal_path);
    auto service =
        SerenadeService::Create(fleet->index_, fleet->catalog_, config);
    if (!service.ok()) Fail("pod service", service.status());
    fleet->pods_.push_back(std::make_unique<SerenadeServer>(
        std::move(service).value(), serenade::ServerConfig{}));
    const serenade::Status started = fleet->pods_.back()->Start();
    if (!started.ok()) Fail("pod start", started);
    endpoints.push_back(serenade::BackendEndpoint{
        "pod-" + std::to_string(i), fleet->pods_.back()->port()});
  }
  // The store arm of the traced run replays in the pods' WAL mode.
  fleet->config_.store.wal_path =
      spec.mix == Mix::kFleetSingle ? work_dir + "/ledger.wal" : "";
  if (spec.mix == Mix::kFleetSingle) {
    fleet->gateway_ = std::make_unique<ClusterGateway>(
        std::move(endpoints), BenchGatewayConfig(), nullptr);
    const serenade::Status started = fleet->gateway_->Start();
    if (!started.ok()) Fail("gateway start", started);
  }
  return fleet;
}

Fleet::~Fleet() {
  if (gateway_ != nullptr) gateway_->Stop();
  for (auto& pod : pods_) pod->Stop();
  gateway_.reset();
  pods_.clear();
  sim_.reset();
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

uint16_t Fleet::front_port() const {
  if (gateway_ != nullptr) return gateway_->port();
  if (sim_ != nullptr) return sim_->gateway().port();
  return pods_[0]->port();
}

ClusterGateway* Fleet::gateway() {
  if (gateway_ != nullptr) return gateway_.get();
  if (sim_ != nullptr) return &sim_->gateway();
  return nullptr;
}

size_t Fleet::num_pods() const {
  return sim_ != nullptr ? sim_->num_pods() : pods_.size();
}

SerenadeServer* Fleet::pod(size_t i) {
  return sim_ != nullptr ? sim_->pod(i) : pods_[i].get();
}

size_t Fleet::OwnerOf(const std::string& key) const {
  const ClusterGateway* gw =
      gateway_ != nullptr ? gateway_.get()
                          : (sim_ != nullptr ? &sim_->gateway() : nullptr);
  if (gw == nullptr) return 0;
  const std::string owner = gw->OwnerOf(key);  // "pod-<i>"
  return static_cast<size_t>(std::stoul(owner.substr(owner.find('-') + 1)));
}

std::string Fleet::wal_path(size_t pod) const {
  return sim_ != nullptr ? sim_->pod_wal_path(pod) : wal_paths_[pod];
}

size_t CountMismatches(const Fleet& fleet, size_t m, const Schedule& schedule,
                       const std::vector<Outcome>& outcomes,
                       size_t num_conns) {
  auto reference = ReferenceService(fleet, m);
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < num_conns; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = 0; i < schedule.calls.size(); ++i) {
        if (schedule.calls[i].conn != c) continue;
        const Click& click = schedule.clicks[i];
        const std::string body = RecommendOrEmpty(
            *reference, schedule.keys[click.session], click.item);
        const Outcome& o = outcomes[i];
        if (o.status == 200 && !o.degraded && HashBody(body) != o.body_hash) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return mismatches.load();
}

size_t CountBatchMismatches(const Fleet& fleet, size_t m,
                            const BatchPlan& plan,
                            const std::vector<std::vector<Outcome>>& outcomes) {
  auto reference = ReferenceService(fleet, m);
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < outcomes.size(); ++c) {
    threads.emplace_back([&, c] {
      for (size_t j = 0; j < outcomes[c].size(); ++j) {
        std::string body = "{\"results\":[";
        for (size_t s = 0; s < plan.slots; ++s) {
          const Click click = plan.SlotClick(c, j, s);
          if (s > 0) body += ",";
          body += RecommendOrEmpty(*reference, plan.keys[click.session],
                                   click.item);
        }
        body += "]}";
        const Outcome& o = outcomes[c][j];
        if (o.status == 200 && HashBody(body) != o.body_hash) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return mismatches.load();
}

size_t CountChurnViolations(
    Fleet& fleet, const std::vector<const Schedule*>& schedules,
    const std::vector<const std::vector<Outcome>*>& outcomes, bool drop_one) {
  serenade::SimCluster& sim = *fleet.sim();
  size_t flush_failures = 0, log_diffs = 0, table_diffs = 0, no_replica = 0;
  size_t session_diffs = 0;

  // Replica parity first: reading sessions below refreshes their TTL.
  // The shipper keeps retrying after a transport error, so a flush that
  // fails (a replica call timed out on a stalled host) is tried again.
  for (size_t i = 0; i < sim.num_pods(); ++i) {
    sim.pod(i)->service().session_store().SyncWal();
    serenade::WalShipper& shipper = sim.pod_repl(i)->shipper();
    bool flushed = false;
    for (int attempt = 0; attempt < 5 && !flushed; ++attempt) {
      flushed = shipper.FlushNow().ok() && shipper.lag_bytes() == 0;
    }
    if (!flushed) ++flush_failures;
  }
  for (size_t i = 0; i < sim.num_pods(); ++i) {
    const std::string& donor = sim.pod_name(i);
    bool found = false;
    for (size_t j = 0; j < sim.num_pods(); ++j) {
      if (j == i) continue;
      serenade::ReplicaHub& hub = sim.pod_repl(j)->hub();
      const auto donors = hub.Donors();
      if (std::find(donors.begin(), donors.end(), donor) == donors.end()) {
        continue;
      }
      found = true;
      if (hub.LogBytes(donor) != ReadFile(sim.pod_wal_path(i))) ++log_diffs;
      std::map<std::string, std::string> owner_table, replica_table;
      serenade::SessionStore& owner = sim.pod(i)->service().session_store();
      for (const auto& e : owner.DumpEntries()) {
        owner_table[e.key] = e.value;
      }
      for (const auto& e : hub.SnapshotDonor(donor)) {
        replica_table[e.key] = e.value;
      }
      if (owner_table != replica_table) ++table_diffs;
    }
    if (!found) ++no_replica;
  }

  // Every acked click in the owner's stored session, in order. Sessions
  // with a failed call have no definite expectation (the failure itself
  // is already counted).
  std::map<std::string, std::vector<ItemId>> acked;
  std::map<std::string, bool> complete;
  for (size_t s = 0; s < schedules.size(); ++s) {
    const Schedule& schedule = *schedules[s];
    for (size_t i = 0; i < schedule.calls.size(); ++i) {
      const std::string& key = schedule.keys[schedule.clicks[i].session];
      const Outcome& o = (*outcomes[s])[i];
      complete.emplace(key, true);
      if (o.status == 200 && !o.degraded) {
        acked[key].push_back(schedule.clicks[i].item);
      } else {
        complete[key] = false;
      }
    }
  }
  if (drop_one) {
    for (auto& [key, items] : acked) {
      if (complete[key]) {
        items.pop_back();
        break;
      }
    }
  }
  const size_t kept = fleet.service_config().max_stored_session_length;
  for (auto& [key, items] : acked) {
    if (!complete[key]) continue;
    if (items.size() > kept) items.erase(items.begin(), items.end() - kept);
    auto stored = sim.pod(fleet.OwnerOf(key))->service().GetSession(key);
    if (!stored.ok() || *stored != items) ++session_diffs;
  }
  if (!drop_one) {
    std::printf("churn check: %zu shipper flush failures, %zu replica log "
                "diffs, %zu replica table diffs, %zu pods without replica, "
                "%zu sessions differing from their acked clicks\n",
                flush_failures, log_diffs, table_diffs, no_replica,
                session_diffs);
  }
  return flush_failures + log_diffs + table_diffs + no_replica + session_diffs;
}

}  // namespace perfbench
