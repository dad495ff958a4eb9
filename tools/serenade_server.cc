// CLI: one Serenade serving pod.
//
//   serenade_server --index session.index [--port 8080] [--m 500]
//       [--k 100] [--ttl 1800] [--max-items 21] [--wal sessions.wal]
//       [--slow-request-us 0] [--slow-sample-every 1]
//       [--max-batch-items 128]
//       [--builder-port 0] [--delta-poll-ms 1000]
//       [--max-connections 10000] [--idle-timeout-ms 60000]
//       [--request-deadline-ms 0] [--reactor-threads <CPUs>]
//       [--pod-name NAME] [--virtual-nodes 128] [--ship-interval-ms 20]
//       [--embeddings items.emb]
//
// --embeddings loads the item2vec artifact from
// serenade_train_embeddings and turns on the second retrieval family
// (DESIGN.md §13): requests carrying engine=ann (query param, JSON
// field, or a gateway A/B bucket) serve HNSW neighbours of the folded
// session vector, hot-swappable via POST /v1/admin/embeddings/reload.
//
// --pod-name joins the elastic fleet data plane (DESIGN.md §12): the pod
// attaches the replication agent (WAL shipping to its ring successor,
// replica hub, hand-off control plane under /v1/admin) and announces
// itself under NAME — which must match the name the gateway's ring uses
// for this backend, and requires --wal (the WAL is the replication
// unit). Pair with a gateway running --manage-replication, which pushes
// each pod's shipping peer on every membership change.
//
// --builder-port joins the streaming freshness pipeline (DESIGN.md §9):
// accepted clicks stream to the serenade_index_builder at that port, and
// a background fetcher polls it for cumulative deltas, layering each
// over the pinned base snapshot (also reachable directly via POST
// /v1/admin/index/delta). 0 = pipeline off.
//
// Loads the binary index produced by serenade_build_index (honouring its
// `.manifest` sidecar) and serves the versioned /v1 API (see API.md):
//   GET  /v1/recommend?session_id=<key>&item_id=<id>[&consent=false]
//   POST /v1/recommend          (JSON body form of the same request)
//   POST /v1/recommend:batch    (order-preserving client-side batches)
//   GET  /v1/healthz            (reports the published index version)
//   GET  /v1/stats
//   GET  /v1/metrics
//   POST /v1/admin/index/reload[?path=other.index]  (zero-downtime swap)
// Only /v1 paths exist; anything else is a 404 error envelope.
//
// Every request runs inline on the HTTP worker thread that handles it;
// the pod never coalesces requests across connections. Clients amortise
// the store round trip and snapshot pin with POST /v1/recommend:batch (at
// most --max-batch-items slots per call).
// Runs until SIGINT/SIGTERM.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <thread>

#include "data/synthetic.h"
#include "flags.h"
#include "freshness/click_tap.h"
#include "freshness/delta_fetcher.h"
#include "index/embedding_store.h"
#include "index/snapshot.h"
#include "replication/pod_replication.h"
#include "serving/server.h"

using namespace serenade;

namespace {
std::atomic<bool> g_stop{false};
void HandleSignal(int) { g_stop.store(true); }
}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  const std::string index_path = flags.GetString("index");
  if (index_path.empty()) {
    std::fprintf(stderr,
                 "usage: serenade_server --index session.index [--port P] "
                 "[--m M] [--k K] [--ttl SECONDS] [--wal FILE]\n");
    return 2;
  }

  auto manager = IndexManager::CreateFromFile(index_path);
  if (!manager.ok()) {
    std::fprintf(stderr, "failed to load index: %s\n",
                 manager.status().ToString().c_str());
    return 1;
  }
  const auto boot = (*manager)->Current();
  std::printf(
      "loaded index version %llu (%s): %zu sessions, %zu items, %zu "
      "postings\n",
      static_cast<unsigned long long>(boot->version()),
      boot->manifest().build_id.empty() ? "no manifest"
                                        : boot->manifest().build_id.c_str(),
      boot->index().num_sessions(), boot->index().num_items(),
      boot->index().num_postings());

  ServiceConfig service_config;
  service_config.knn.m = std::min<size_t>(
      flags.GetInt("m", 500), boot->index().max_sessions_per_item());
  service_config.knn.k =
      std::min<size_t>(flags.GetInt("k", 100), service_config.knn.m);
  service_config.rules.max_items = flags.GetInt("max-items", 21);
  // "Other customers also viewed" slots usually hide already-seen items.
  service_config.knn.exclude_session_items =
      flags.GetBool("exclude-seen", false);
  service_config.store.ttl_seconds = flags.GetInt("ttl", 1800);
  service_config.store.wal_path = flags.GetString("wal");

  // Without a catalog feed every item is available and non-adult.
  ItemCatalog catalog;
  catalog.available.assign(boot->index().num_items(), true);
  catalog.adult.assign(boot->index().num_items(), false);

  auto service =
      SerenadeService::Create(std::move(manager).value(), catalog,
                              service_config);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n", service.status().ToString().c_str());
    return 1;
  }

  // Optional second retrieval family (DESIGN.md §13): the item2vec
  // artifact from serenade_train_embeddings, served as `engine=ann` and
  // hot-swappable via POST /v1/admin/embeddings/reload.
  const std::string embeddings_path = flags.GetString("embeddings");
  if (!embeddings_path.empty()) {
    auto embedding_manager = EmbeddingManager::CreateFromFile(embeddings_path);
    if (!embedding_manager.ok()) {
      std::fprintf(stderr, "failed to load embeddings: %s\n",
                   embedding_manager.status().ToString().c_str());
      return 1;
    }
    const auto snapshot = (*embedding_manager)->Current();
    std::printf("loaded embeddings version %llu: %zu items x %zu dims\n",
                static_cast<unsigned long long>(snapshot->version()),
                snapshot->embeddings().num_items, snapshot->embeddings().dim);
    (*service)->AttachEmbeddings(std::move(embedding_manager).value());
  }

  ServerConfig server_config;
  server_config.port = static_cast<uint16_t>(flags.GetInt("port", 8080));
  server_config.janitor_interval_ms = 5000;
  // Requests slower than this emit a structured slow_request log line
  // keyed by trace id (0 = disabled); sampling caps the log volume.
  server_config.trace.slow_request_micros = flags.GetInt("slow-request-us", 0);
  server_config.trace.sample_every_n =
      std::max<uint64_t>(1, flags.GetInt("slow-sample-every", 1));
  server_config.max_batch_items =
      std::max<uint64_t>(1, flags.GetInt("max-batch-items", 128));
  // Reactor front-door tuning (DESIGN.md §10).
  server_config.http.max_connections =
      std::max<uint64_t>(1, flags.GetInt("max-connections", 10000));
  server_config.http.idle_timeout_ms = flags.GetInt("idle-timeout-ms", 60000);
  server_config.http.request_deadline_ms =
      flags.GetInt("request-deadline-ms", 0);
  server_config.http.reactor_threads = std::max<uint64_t>(
      1, flags.GetInt("reactor-threads", server_config.http.reactor_threads));
  SerenadeServer server(std::move(service).value(), server_config);

  // Optional replication agent (DESIGN.md §12): must attach before
  // Start() so its routes and write-divert hooks are registered before
  // the first request can land.
  const std::string pod_name = flags.GetString("pod-name");
  std::unique_ptr<PodReplication> replication;
  if (!pod_name.empty()) {
    if (service_config.store.wal_path.empty()) {
      std::fprintf(stderr, "--pod-name requires --wal (the WAL is the "
                           "replication unit)\n");
      return 2;
    }
    PodReplicationConfig repl_config;
    repl_config.pod_name = pod_name;
    repl_config.virtual_nodes =
        std::max<uint64_t>(1, flags.GetInt("virtual-nodes", 128));
    repl_config.ship_interval_ms =
        std::max<uint64_t>(1, flags.GetInt("ship-interval-ms", 20));
    replication =
        std::make_unique<PodReplication>(&server, repl_config);
  }

  // Optional freshness-pipeline plumbing: tap accepted clicks out to the
  // index builder, poll it for cumulative deltas, apply them as overlays.
  const uint16_t builder_port =
      static_cast<uint16_t>(flags.GetInt("builder-port", 0));
  std::unique_ptr<ClickTap> tap;
  std::unique_ptr<DeltaFetcher> fetcher;
  if (builder_port != 0) {
    ClickTapConfig tap_config;
    tap_config.builder_port = builder_port;
    tap = std::make_unique<ClickTap>(tap_config);
    if (Status status = tap->Start(); !status.ok()) {
      std::fprintf(stderr, "click tap: %s\n", status.ToString().c_str());
      return 1;
    }
    server.set_click_observer(
        [&tap](const std::string& session_key, ItemId item) {
          tap->Observe(session_key, item);
        });
    DeltaFetcherConfig fetch_config;
    fetch_config.builder_port = builder_port;
    fetch_config.poll_interval_ms =
        std::max<uint64_t>(1, flags.GetInt("delta-poll-ms", 1000));
    fetcher = std::make_unique<DeltaFetcher>(
        fetch_config,
        [&server](const IndexDelta& delta) { return server.ApplyDelta(delta); });
  }

  if (Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "start: %s\n", status.ToString().c_str());
    return 1;
  }
  if (fetcher != nullptr) {
    if (Status status = fetcher->Start(); !status.ok()) {
      std::fprintf(stderr, "delta fetcher: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("freshness pipeline on: builder at 127.0.0.1:%u\n",
                builder_port);
  }
  if (replication != nullptr) {
    if (Status status = replication->Start(); !status.ok()) {
      std::fprintf(stderr, "replication: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("replication on: pod \"%s\" awaiting peer wiring from a "
                "--manage-replication gateway\n",
                pod_name.c_str());
  }
  std::printf(
      "serving on 127.0.0.1:%u (m=%zu, k=%zu, ttl=%llus); hot swap with "
      "curl -X POST 'http://127.0.0.1:%u/v1/admin/index/reload'\n",
      server.port(), service_config.knn.m, service_config.knn.k,
      static_cast<unsigned long long>(service_config.store.ttl_seconds),
      server.port());

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("shutting down after %llu requests\n",
              static_cast<unsigned long long>(server.requests_served()));
  if (fetcher != nullptr) fetcher->Stop();
  if (tap != nullptr) tap->Stop();
  server.Stop();
  // After the server drained its writes: the shipper's final flush
  // ships every acknowledged byte to the successor before exit.
  if (replication != nullptr) replication->Stop();
  return 0;
}
