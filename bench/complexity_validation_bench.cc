// Experiment E13 (extension) — empirical validation of the complexity
// claims of Section 3: query time O(|s| * m * log m), independent of both
// the number of historical sessions |H| and the catalog size |I|; index
// space O(|I| * m).
//
// Three sweeps, each holding everything else fixed:
//   (a) latency vs m                  -> near-linear growth
//   (b) latency vs session length |s| -> near-linear growth
//   (c) latency vs |H| at fixed m     -> flat (the headline property)
//
// Medians are exact (sorted samples), not histogram bucket midpoints,
// whose ~1.6% resolution would round nearby sweep points onto the same
// value.
//
// With SERENADE_BENCH_JSON set, the (c) flatness ratio is written for the
// CI regression gate (tools/check_bench_regression.py).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/session_index.h"
#include "core/vmis_knn.h"
#include "data/split.h"
#include "data/synthetic.h"

using namespace serenade;

namespace {

Dataset MakeData(size_t sessions, size_t items, uint64_t seed = 0xc03) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_items = items;
  config.num_sessions = sessions;
  config.num_days = 14;
  return GenerateDataset(config);
}

// Times NeighborSessions (Algorithm 2's neighbour computation).
uint64_t MedianLatencyNanos(const SessionIndex& index, const KnnConfig& config,
                            const std::vector<EvolvingSession>& queries) {
  VmisKnn model(&index, config);
  std::vector<uint64_t> samples;
  samples.reserve(5 * queries.size());
  for (int rep = 0; rep < 5; ++rep) {
    for (const EvolvingSession& query : queries) {
      Stopwatch stopwatch;
      const size_t size = model.NeighborSessions(query).size();
      samples.push_back(stopwatch.ElapsedNanos());
      (void)size;
    }
  }
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2;
}

std::vector<EvolvingSession> QueriesOfLength(const Dataset& test,
                                             size_t length, size_t count) {
  std::vector<EvolvingSession> queries;
  for (const SessionData& session : test.sessions()) {
    if (queries.size() >= count) break;
    if (session.items.size() < length) continue;
    queries.emplace_back(session.items.begin(),
                         session.items.begin() + static_cast<ptrdiff_t>(length));
  }
  return queries;
}

}  // namespace

int main() {
  bench::PrintHeader("Experiment E13 (extension)", "Section 3 complexity",
                     "Empirical validation: O(|s| * m * log m), independent "
                     "of |H| and |I|.");
  const double scale = bench::ScaleFromEnv();
  bench::JsonResultWriter json("complexity_validation");

  // --- (a) latency vs m -------------------------------------------------
  {
    Dataset dataset = MakeData(static_cast<size_t>(60000 * scale),
                               static_cast<size_t>(8000 * scale));
    TrainTestSplit split = SplitLastDays(dataset, 1);
    SessionIndex index = SessionIndex::Build(split.train, 4000);
    const auto queries = QueriesOfLength(split.test, 4, 200);

    bench::PrintSection("(a) latency vs m (|s|=4, k=100)");
    std::printf("%8s %14s %10s\n", "m", "median ns", "vs m=125");
    uint64_t base = 0;
    for (size_t m : {125u, 250u, 500u, 1000u, 2000u, 4000u}) {
      KnnConfig config;
      config.m = m;
      config.k = 100;
      const uint64_t ns = MedianLatencyNanos(index, config, queries);
      if (base == 0) base = ns;
      std::printf("%8zu %14llu %9.1fx\n", m,
                  static_cast<unsigned long long>(ns),
                  static_cast<double>(ns) / base);
    }
    std::printf(
        "expected: ~linear in m while posting lists are longer than m; "
        "growth\nflattens once lists saturate (most items have fewer than "
        "m recent\nsessions), which only helps latency in production.\n");
  }

  // --- (b) latency vs session length ------------------------------------
  {
    Dataset dataset = MakeData(static_cast<size_t>(60000 * scale),
                               static_cast<size_t>(8000 * scale), 0xc04);
    TrainTestSplit split = SplitLastDays(dataset, 1);
    SessionIndex index = SessionIndex::Build(split.train, 500);

    bench::PrintSection("(b) latency vs session length (m=500, k=100)");
    std::printf("%8s %14s %10s\n", "|s|", "median ns", "vs |s|=1");
    uint64_t base = 0;
    for (size_t length : {1u, 2u, 4u, 8u}) {
      const auto queries = QueriesOfLength(split.test, length, 150);
      if (queries.size() < 30) continue;
      KnnConfig config;
      config.m = 500;
      config.k = 100;
      config.max_session_length = 10;
      const uint64_t ns = MedianLatencyNanos(index, config, queries);
      if (base == 0) base = ns;
      std::printf("%8zu %14llu %9.1fx\n", length,
                  static_cast<unsigned long long>(ns),
                  static_cast<double>(ns) / base);
    }
    std::printf("expected: ~2x per doubling of |s| (8x at |s|=8)\n");
  }

  // --- (c) latency vs |H| at fixed m ------------------------------------
  {
    // Small m + fixed catalog so the per-item posting lists saturate the
    // m-cap early: once saturated, more history cannot add query work
    // (that is the independence claim; below saturation, a bigger history
    // legitimately fills lists up to the cap).
    bench::PrintSection("(c) latency vs history size (m=100, k=50, |s|=4)");
    std::printf("%12s %14s %10s\n", "sessions", "median ns", "vs smallest");
    std::vector<std::pair<size_t, uint64_t>> measured;
    for (size_t sessions : {30000u, 120000u, 480000u}) {
      Dataset dataset = MakeData(static_cast<size_t>(sessions * scale),
                                 static_cast<size_t>(2000 * scale), 0xc05);
      TrainTestSplit split = SplitLastDays(dataset, 1);
      SessionIndex index = SessionIndex::Build(split.train, 100);
      const auto queries = QueriesOfLength(split.test, 4, 200);
      KnnConfig config;
      config.m = 100;
      config.k = 50;
      const uint64_t ns = MedianLatencyNanos(index, config, queries);
      measured.emplace_back(split.train.num_sessions(), ns);
      std::printf("%12zu %14llu %9.1fx\n", split.train.num_sessions(),
                  static_cast<unsigned long long>(ns),
                  static_cast<double>(ns) / measured.front().second);
    }
    const double last_step =
        static_cast<double>(measured.back().second) /
        static_cast<double>(measured[measured.size() - 2].second);
    std::printf(
        "expected: flattening toward 1.0x per step once posting lists "
        "saturate\nthe m-cap (last 4x history step: %.2fx latency) — query "
        "cost is bounded\nindependently of |H|, which is what lets "
        "VMIS-kNN search hundreds of\nmillions of clicks in "
        "microseconds.\n",
        last_step);
    json.Add("history_flatness_last_step", last_step);
  }

  if (!json.WriteTo(bench::JsonPathFromEnv())) return 1;
  return 0;
}
