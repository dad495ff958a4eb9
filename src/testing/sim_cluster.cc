#include "testing/sim_cluster.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "data/synthetic.h"
#include "index/embedding_store.h"
#include "serving/service.h"

namespace serenade {

StatusOr<std::unique_ptr<SimCluster>> SimCluster::Start(
    SimClusterConfig config) {
  if (config.num_pods == 0) {
    return Status::InvalidArgument("num_pods must be > 0");
  }
  auto cluster = std::unique_ptr<SimCluster>(new SimCluster());
  cluster->config_ = std::move(config);
  cluster->index_ = std::make_shared<const SessionIndex>(SessionIndex::Build(
      cluster->config_.train, cluster->config_.knn.m));

  if (cluster->config_.freshness.enabled) {
    // Lineage comes from the shared in-memory base the pods boot on:
    // CreateFromIndex publishes it as version 1 with no artifact CRC.
    IndexBuilderConfig builder_config;
    builder_config.builder = cluster->config_.freshness.builder;
    builder_config.builder.base_version = 1;
    builder_config.builder.base_crc32 = 0;
    Timestamp max_time = 0;
    for (SessionId s = 0;
         s < static_cast<SessionId>(cluster->index_->num_sessions()); ++s) {
      max_time = std::max(max_time, cluster->index_->SessionTimestamp(s));
    }
    builder_config.builder.base_max_timestamp = max_time;
    builder_config.compact_interval_ms =
        cluster->config_.freshness.compact_interval_ms;
    cluster->builder_ =
        std::make_unique<IndexBuilderServer>(builder_config);
    SERENADE_RETURN_IF_ERROR(cluster->builder_->Start());
  }

  if (cluster->config_.ab.enabled &&
      cluster->config_.ab.pods_have_embeddings) {
    // One training run feeds every pod: the experiment compares retrieval
    // families, so all ANN arms must serve identical vectors.
    auto trained = TrainItemEmbeddings(cluster->config_.train,
                                       cluster->config_.ab.train);
    SERENADE_RETURN_IF_ERROR(trained.status());
    cluster->embeddings_ = std::move(trained).value();
  }

  cluster->pods_.resize(cluster->config_.num_pods);
  std::vector<BackendEndpoint> endpoints;
  for (size_t i = 0; i < cluster->pods_.size(); ++i) {
    Pod& pod = cluster->pods_[i];
    pod.name = "pod-" + std::to_string(i);
    if (!cluster->config_.work_dir.empty()) {
      pod.wal_path =
          cluster->config_.work_dir + "/pod" + std::to_string(i) + ".wal";
    }
    SERENADE_RETURN_IF_ERROR(cluster->StartPod(pod, /*port=*/0));
    endpoints.push_back(BackendEndpoint{pod.name, pod.port});
  }

  GatewayConfig gateway_config = cluster->config_.gateway;
  if (cluster->config_.replication.enabled) {
    gateway_config.manage_replication = true;
  }
  if (cluster->config_.ab.enabled) {
    gateway_config.ab_ann_percent = cluster->config_.ab.ann_percent;
    gateway_config.ab_salt = cluster->config_.ab.salt;
  }
  cluster->config_.gateway = gateway_config;
  cluster->gateway_ = std::make_unique<ClusterGateway>(
      std::move(endpoints), gateway_config, /*fallback=*/nullptr);
  SERENADE_RETURN_IF_ERROR(cluster->gateway_->Start());
  return cluster;
}

SimCluster::~SimCluster() {
  if (gateway_ != nullptr) gateway_->Stop();
  for (Pod& pod : pods_) {
    if (pod.fetcher != nullptr) pod.fetcher->Stop();
    if (pod.tap != nullptr) pod.tap->Stop();
    if (pod.server != nullptr) pod.server->Stop();
    if (pod.repl != nullptr) pod.repl->Stop();
  }
  if (builder_ != nullptr) builder_->Stop();
}

Status SimCluster::StartPod(Pod& pod, uint16_t port) {
  // Full catalog: the torture harness asserts store/index invariants,
  // not merchandising rules.
  ItemCatalog catalog;
  catalog.available.assign(config_.train.num_items(), true);
  catalog.adult.assign(config_.train.num_items(), false);

  ServiceConfig service_config;
  service_config.knn = config_.knn;
  service_config.rules.filter_unavailable = false;
  service_config.rules.filter_adult = false;
  service_config.rules.max_items = config_.max_items;
  service_config.store = config_.store;
  service_config.store.wal_path = pod.wal_path;

  auto service =
      SerenadeService::Create(index_, catalog, service_config);
  SERENADE_RETURN_IF_ERROR(service.status());

  ServerConfig server_config;
  server_config.port = port;
  pod.server = std::make_unique<SerenadeServer>(std::move(service).value(),
                                                server_config);

  if (config_.ab.enabled && config_.ab.pods_have_embeddings) {
    // Attach before Start(): the ANN arm must be live before the first
    // bucketed request lands (each pod rebuilds its own HNSW graph from
    // the shared vectors, like pods loading the same artifact).
    auto manager =
        EmbeddingManager::CreateFromEmbeddings(embeddings_, config_.ab.hnsw);
    SERENADE_RETURN_IF_ERROR(manager.status());
    pod.server->service().AttachEmbeddings(std::move(manager).value());
  }

  if (config_.replication.enabled) {
    // Attach before Start(): the replication routes and write-divert
    // hooks must be registered before the first request can land.
    PodReplicationConfig repl_config = config_.replication.pod;
    repl_config.pod_name = pod.name;
    repl_config.virtual_nodes = config_.gateway.virtual_nodes;
    pod.repl =
        std::make_unique<PodReplication>(pod.server.get(), repl_config);
  }

  if (config_.freshness.enabled && builder_ != nullptr) {
    // Tap before Start(): the observer must be in place before the first
    // request can land.
    ClickTapConfig tap_config = config_.freshness.tap;
    tap_config.builder_port = builder_->port();
    pod.tap = std::make_unique<ClickTap>(tap_config);
    SERENADE_RETURN_IF_ERROR(pod.tap->Start());
    ClickTap* tap = pod.tap.get();
    pod.server->set_click_observer(
        [tap](const std::string& session_key, ItemId item) {
          tap->Observe(session_key, item);
        });
  }

  SERENADE_RETURN_IF_ERROR(pod.server->Start());
  pod.port = pod.server->port();

  if (config_.freshness.enabled && builder_ != nullptr) {
    DeltaFetcherConfig fetch_config = config_.freshness.fetch;
    fetch_config.builder_port = builder_->port();
    SerenadeServer* server = pod.server.get();
    pod.fetcher = std::make_unique<DeltaFetcher>(
        fetch_config, [server](const IndexDelta& delta) {
          return server->ApplyDelta(delta);
        });
    SERENADE_RETURN_IF_ERROR(pod.fetcher->Start());
  }
  if (pod.repl != nullptr) {
    SERENADE_RETURN_IF_ERROR(pod.repl->Start());
  }
  return Status::Ok();
}

void SimCluster::KillPod(size_t i) {
  Pod& pod = pods_[i];
  if (pod.server == nullptr) return;
  // Freshness plumbing first: the fetcher's apply callback and the tap's
  // click source both point into the server.
  if (pod.fetcher != nullptr) pod.fetcher->Stop();
  if (pod.tap != nullptr) pod.tap->Stop();
  pod.server->Stop();
  // After the server drained its writes: the shipper's Stop() flushes the
  // final WAL batch to the ring successor, so a graceful kill loses no
  // acknowledged click even before the gateway notices the death.
  if (pod.repl != nullptr) pod.repl->Stop();
  pod.fetcher.reset();
  pod.tap.reset();
  pod.repl.reset();  // references the server; destroy first
  pod.server.reset();  // destroys the service; the store syncs its WAL
}

Status SimCluster::RestartPod(size_t i) {
  Pod& pod = pods_[i];
  if (pod.server != nullptr) return Status::AlreadyExists(pod.name);
  // Rebind the original port (SO_REUSEADDR): the gateway's endpoint set
  // is fixed at construction, so recovery must come back where routing
  // expects it — exactly like a pod rescheduled onto the same service IP.
  const Status started = StartPod(pod, pod.port);
  if (started.ok() && config_.replication.enabled && gateway_ != nullptr) {
    // The reborn pod's shipper has no peer until the gateway re-pushes
    // the wiring (best-effort; still-dead members are skipped).
    (void)gateway_->PushReplicationWiring();
  }
  return started;
}

StatusOr<uint64_t> SimCluster::FetchRingEpoch() {
  HttpClientOptions options;
  options.connect_timeout_ms = 2000;
  options.io_timeout_ms = 10000;
  HttpClient client(options);
  SERENADE_RETURN_IF_ERROR(client.Connect(gateway_->port()));
  auto response = client.Get("/v1/admin/cluster");
  SERENADE_RETURN_IF_ERROR(response.status());
  if (response->status != 200) {
    return Status::Internal("GET /v1/admin/cluster returned " +
                            std::to_string(response->status));
  }
  auto doc = ParseJson(response->body);
  SERENADE_RETURN_IF_ERROR(doc.status());
  const JsonValue* epoch = doc->Find("ring_epoch");
  if (epoch == nullptr || epoch->type() != JsonValue::Type::kNumber) {
    return Status::Internal("cluster document lacks ring_epoch");
  }
  return static_cast<uint64_t>(epoch->AsInt());
}

Status SimCluster::AdminMutate(const std::string& action,
                               const std::string& extra) {
  auto epoch = FetchRingEpoch();
  SERENADE_RETURN_IF_ERROR(epoch.status());
  HttpClientOptions options;
  options.connect_timeout_ms = 2000;
  // Mutations move real data (hand-offs); give them a wide deadline.
  options.io_timeout_ms = 120000;
  HttpClient client(options);
  SERENADE_RETURN_IF_ERROR(client.Connect(gateway_->port()));
  const std::string body =
      "{\"epoch\":" + std::to_string(*epoch) + "," + extra + "}";
  auto response = client.Post("/v1/admin/cluster/" + action, body);
  SERENADE_RETURN_IF_ERROR(response.status());
  if (response->status / 100 != 2) {
    return Status::Internal("POST /v1/admin/cluster/" + action +
                            " returned " + std::to_string(response->status) +
                            ": " + response->body);
  }
  return Status::Ok();
}

StatusOr<size_t> SimCluster::AddPod() {
  Pod pod;
  const size_t index = pods_.size();
  pod.name = "pod-" + std::to_string(index);
  if (!config_.work_dir.empty()) {
    pod.wal_path =
        config_.work_dir + "/pod" + std::to_string(index) + ".wal";
  }
  SERENADE_RETURN_IF_ERROR(StartPod(pod, /*port=*/0));
  const Status joined = AdminMutate(
      "join", "\"name\":\"" + pod.name +
                  "\",\"port\":" + std::to_string(pod.port));
  if (!joined.ok()) {
    // Leave the fleet unchanged: tear the half-started pod back down.
    if (pod.fetcher != nullptr) pod.fetcher->Stop();
    if (pod.tap != nullptr) pod.tap->Stop();
    if (pod.server != nullptr) pod.server->Stop();
    if (pod.repl != nullptr) pod.repl->Stop();
    return joined;
  }
  pods_.push_back(std::move(pod));
  return index;
}

Status SimCluster::DrainPod(size_t i) {
  return AdminMutate("drain", "\"name\":\"" + pods_[i].name + "\"");
}

Status SimCluster::RemovePodFromRing(size_t i) {
  return AdminMutate("remove", "\"name\":\"" + pods_[i].name + "\"");
}

bool SimCluster::AwaitHealthy(size_t min_healthy, uint64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (health().NumHealthy() < min_healthy) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

}  // namespace serenade
