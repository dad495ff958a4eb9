// Serving demo: the full Figure 1 pipeline in one process. Builds the
// index offline (parallel builder + binary index file), starts two
// stateful recommendation servers, routes requests with sticky sessions,
// and talks to them over HTTP exactly like the shop frontend would.
//
//   $ ./serving_demo
#include <cstdio>
#include <memory>

#include "data/synthetic.h"
#include "index/index_builder.h"
#include "index/index_format.h"
#include "serving/http.h"
#include "serving/json.h"
#include "serving/router.h"
#include "serving/server.h"

using namespace serenade;

int main() {
  // --- offline component (Figure 1, left): index generation ---
  SyntheticConfig data_config;
  data_config.seed = 11;
  data_config.num_items = 8000;
  data_config.num_sessions = 40000;
  data_config.num_days = 14;
  Dataset historical = GenerateDataset(data_config);

  IndexBuilderOptions builder_options;
  builder_options.max_sessions_per_item = 500;
  SessionIndex built = BuildIndexParallel(historical, builder_options);

  // Persist and reload — the replication path to the serving machines.
  const std::string index_path = "/tmp/serenade_demo.index";
  if (Status status = WriteIndexFile(index_path, built); !status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  auto loaded = ReadIndexFile(index_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  auto index = std::make_shared<SessionIndex>(std::move(loaded).value());
  std::printf("index replicated from %s (%zu postings)\n", index_path.c_str(),
              index->num_postings());

  // --- online component (Figure 1, right): two stateful serving pods ---
  const ItemCatalog catalog = GenerateCatalog(historical.num_items(), 3);
  ServiceConfig service_config;
  service_config.knn.m = 500;
  service_config.knn.k = 100;

  std::vector<std::unique_ptr<SerenadeServer>> servers;
  std::vector<uint16_t> ports;
  for (int pod = 0; pod < 2; ++pod) {
    auto service = SerenadeService::Create(index, catalog, service_config);
    if (!service.ok()) {
      std::fprintf(stderr, "service: %s\n",
                   service.status().ToString().c_str());
      return 1;
    }
    servers.push_back(std::make_unique<SerenadeServer>(
        std::move(service).value(), ServerConfig{}));
    if (Status status = servers.back()->Start(); !status.ok()) {
      std::fprintf(stderr, "start: %s\n", status.ToString().c_str());
      return 1;
    }
    ports.push_back(servers.back()->port());
    std::printf("serving pod %d listening on 127.0.0.1:%u\n", pod,
                servers.back()->port());
  }

  // --- the shop frontend: sticky-session routed requests ---
  StickySessionRouter router(ports.size());
  for (const std::string visitor : {"alice", "bob"}) {
    const size_t pod = router.ServerFor(visitor);
    HttpClient client;
    if (!client.Connect(ports[pod]).ok()) return 1;
    std::printf("\nvisitor %s -> pod %zu\n", visitor.c_str(), pod);
    for (ItemId item : {100u, 101u, 350u}) {
      auto response = client.Get("/v1/recommend?session_id=" + visitor +
                                 "&item_id=" + std::to_string(item));
      if (!response.ok() || response->status != 200) {
        std::fprintf(stderr, "request failed\n");
        return 1;
      }
      auto doc = ParseJson(response->body);
      const auto& items = doc->Find("items")->AsArray();
      std::printf("  clicked %-6u -> %zu recommendations:", item,
                  items.size());
      for (size_t i = 0; i < std::min<size_t>(items.size(), 5); ++i) {
        std::printf(" %lld", static_cast<long long>(items[i].AsInt()));
      }
      std::printf("%s\n", items.size() > 5 ? " ..." : "");
    }
  }

  for (auto& server : servers) {
    std::printf("pod on port %u served %llu requests\n", server->port(),
                static_cast<unsigned long long>(server->requests_served()));
    server->Stop();
  }
  return 0;
}
