// CLI: the streaming index-builder role of the freshness pipeline
// (DESIGN.md §9) — accepts the click stream tapped off serving pods,
// sessionizes it, and publishes cumulative versioned delta artifacts for
// the fleet to poll.
//
//   serenade_index_builder [--port 8090] [--base-version 1]
//       [--base-crc32 0] [--base-max-timestamp 0]
//       [--seal-idle-ms 30000] [--session-ttl-ms 0]
//       [--min-session-length 2] [--compact-interval-ms 1000]
//       [--publish-dir DIR]
//       [--max-connections 10000] [--idle-timeout-ms 60000]
//       [--request-deadline-ms 0] [--reactor-threads <CPUs>]
//
// --base-version / --base-crc32 / --base-max-timestamp name the full
// snapshot the deltas layer over (take them from the
// serenade_build_index manifest of the artifact the pods booted on);
// pods reject deltas whose lineage does not match their pinned base.
// With --publish-dir set, each published delta is also stamped to
// `<dir>/delta-v<version>.srndelta` plus a kind=delta manifest sidecar.
//
// Surface (see API.md):
//   POST /v1/ingest        click batches from pod taps
//   GET  /v1/delta/latest  newest cumulative delta (?after=V, 204 = none)
//   GET  /v1/healthz /v1/stats /v1/metrics
// Runs until SIGINT/SIGTERM.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <thread>

#include "flags.h"
#include "freshness/builder_server.h"

using namespace serenade;

namespace {
std::atomic<bool> g_stop{false};
void HandleSignal(int) { g_stop.store(true); }
}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);

  IndexBuilderConfig config;
  config.port = static_cast<uint16_t>(flags.GetInt("port", 8090));
  config.builder.base_version = flags.GetInt("base-version", 1);
  config.builder.base_crc32 =
      static_cast<uint32_t>(flags.GetInt("base-crc32", 0));
  config.builder.base_max_timestamp =
      static_cast<Timestamp>(flags.GetInt("base-max-timestamp", 0));
  config.builder.seal_idle_ms = flags.GetInt("seal-idle-ms", 30000);
  config.builder.session_ttl_ms = flags.GetInt("session-ttl-ms", 0);
  config.builder.min_session_length =
      flags.GetInt("min-session-length", 2);
  config.compact_interval_ms = flags.GetInt("compact-interval-ms", 1000);
  config.publish_dir = flags.GetString("publish-dir");
  // Reactor front-door tuning (DESIGN.md §10).
  config.http.max_connections =
      std::max<uint64_t>(1, flags.GetInt("max-connections", 10000));
  config.http.idle_timeout_ms = flags.GetInt("idle-timeout-ms", 60000);
  config.http.request_deadline_ms = flags.GetInt("request-deadline-ms", 0);
  config.http.reactor_threads = std::max<uint64_t>(
      1, flags.GetInt("reactor-threads", config.http.reactor_threads));

  IndexBuilderServer server(config);
  if (Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "start: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf(
      "index builder on 127.0.0.1:%u over base version %llu "
      "(seal idle %llums, compact every %llums%s%s)\n",
      server.port(),
      static_cast<unsigned long long>(config.builder.base_version),
      static_cast<unsigned long long>(config.builder.seal_idle_ms),
      static_cast<unsigned long long>(config.compact_interval_ms),
      config.publish_dir.empty() ? "" : ", publishing to ",
      config.publish_dir.c_str());

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf(
      "shutting down: %llu clicks ingested, %llu sessions sealed, delta "
      "version %llu\n",
      static_cast<unsigned long long>(server.builder().clicks_ingested()),
      static_cast<unsigned long long>(server.builder().sessions_sealed()),
      static_cast<unsigned long long>(server.published_version()));
  server.Stop();
  return 0;
}
