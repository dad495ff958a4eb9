// CLI: offline index generation (the nightly batch job of Figure 1).
//
//   serenade_build_index --clicks clicks.csv --output session.index
//       [--m 500] [--threads 0] [--version N] [--build-id ID]
//       [--synthetic-sessions N] [--seed S] [--force]
//
// Reads a click log CSV (session_id,item_id,timestamp), builds the
// session similarity index with the data-parallel builder, and writes the
// compressed binary index file plus a `<output>.manifest` sidecar
// stamping the rollout version, build id, corpus counts, and artifact
// CRC. Serving pods honour the manifest on load and on POST
// /v1/admin/index/reload hot swaps. When no --clicks file is given, generates a synthetic
// dataset instead (useful for demos).
//
// Rollout safety: when the output path already carries a manifest with a
// version >= the one being written, the tool refuses to clobber it (a
// stale pipeline run must not regress the fleet); --force overrides.
#include <cstdio>
#include <ctime>

#include "common/stopwatch.h"
#include "data/csv.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "flags.h"
#include "index/index_builder.h"
#include "index/snapshot.h"

using namespace serenade;

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  const std::string clicks_path = flags.GetString("clicks");
  const std::string output_path = flags.GetString("output", "session.index");
  const size_t m = flags.GetInt("m", 500);

  Dataset dataset;
  if (!clicks_path.empty()) {
    auto clicks = ReadClicksCsv(clicks_path);
    if (!clicks.ok()) {
      std::fprintf(stderr, "failed to read %s: %s\n", clicks_path.c_str(),
                   clicks.status().ToString().c_str());
      return 1;
    }
    dataset = Dataset::FromClicks(std::move(clicks).value());
  } else {
    SyntheticConfig config;
    config.seed = flags.GetInt("seed", 42);
    config.num_sessions = flags.GetInt("synthetic-sessions", 50000);
    config.num_items = flags.GetInt("synthetic-items",
                                    config.num_sessions / 4);
    config.num_days = flags.GetInt("synthetic-days", 30);
    std::printf("no --clicks given; generating synthetic data\n");
    dataset = GenerateDataset(config);
  }

  const DatasetStats stats = ComputeStats("input", dataset);
  std::printf("%s", FormatStatsTable({stats}).c_str());

  Stopwatch build_timer;
  IndexBuilderOptions options;
  options.max_sessions_per_item = m;
  options.num_threads = flags.GetInt("threads", 0);
  SessionIndex index = BuildIndexParallel(dataset, options);
  std::printf("built index in %.2fs: %zu postings, %.1f MB resident\n",
              build_timer.ElapsedSeconds(), index.num_postings(),
              static_cast<double>(index.MemoryBytes()) / 1e6);

  // Stamp the rollout manifest. Default version is the build wall-clock,
  // which is monotone across nightly runs; an explicit --version lets a
  // pipeline number its rollouts.
  const uint64_t now = static_cast<uint64_t>(std::time(nullptr));
  IndexManifest manifest;
  manifest.version = flags.GetInt("version", now);
  manifest.build_id =
      flags.GetString("build-id", "build-" + std::to_string(now));
  manifest.built_unix = now;
  manifest.source = clicks_path.empty() ? "synthetic" : clicks_path;

  if (!flags.GetBool("force", false)) {
    if (Status guard = CheckManifestOverwrite(output_path, manifest.version);
        !guard.ok()) {
      std::fprintf(stderr, "%s\n  pass --force to overwrite anyway\n",
                   guard.ToString().c_str());
      return 1;
    }
  }

  auto written = WriteIndexWithManifest(output_path, index, manifest);
  if (!written.ok()) {
    std::fprintf(stderr, "write failed: %s\n",
                 written.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "wrote %s (%llu bytes, crc32 %08x)\n"
      "wrote %s (kind %s, version %llu, build id %s)\n",
      output_path.c_str(),
      static_cast<unsigned long long>(written->index_bytes),
      written->index_crc32, ManifestPathFor(output_path).c_str(),
      written->kind.c_str(),
      static_cast<unsigned long long>(written->version),
      written->build_id.c_str());
  return 0;
}
