// Experiment E13 (extension) — empirical validation of the complexity
// claims of Section 3: query time O(|s| * m * log m), independent of both
// the number of historical sessions |H| and the catalog size |I|; index
// space O(|I| * m).
//
// Three sweeps, each holding everything else fixed:
//   (a) latency vs m                  -> near-linear growth
//   (b) latency vs session length |s| -> near-linear growth
//   (c) latency vs |H| at fixed m     -> flat (the headline property)
//   (d) scalar vs SIMD kernel dispatch at m=500 (DESIGN.md §11): the
//       same engine, same queries, dispatch pinned per arm — plus
//       cache-resident per-kernel micro numbers for the two dispatched
//       scoring-pass kernels, where the vector win is not masked by
//       memory stalls. Results are bit-identical across arms; only time
//       differs.
//
// Medians are exact (sorted samples), not histogram bucket midpoints,
// whose ~1.6% resolution would round nearby arms onto the same value.
//
// With SERENADE_BENCH_JSON set, the (c) flatness ratio and the (d)
// scalar/SIMD numbers are written for the CI regression gate
// (tools/check_bench_regression.py).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/knn_kernels.h"
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

// Times NeighborSessions (Algorithm 2's neighbour computation), or with
// `full_query` the whole RecommendNext, whose scoring pass runs the
// dispatched kernels.
uint64_t MedianLatencyNanos(const SessionIndex& index, const KnnConfig& config,
                            const std::vector<EvolvingSession>& queries,
                            bool full_query = false) {
  VmisKnn model(&index, config);
  std::vector<uint64_t> samples;
  samples.reserve(5 * queries.size());
  for (int rep = 0; rep < 5; ++rep) {
    for (const EvolvingSession& query : queries) {
      Stopwatch stopwatch;
      const size_t size = full_query ? model.RecommendNext(query, 21).size()
                                     : model.NeighborSessions(query).size();
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

  // --- (d) scalar vs SIMD dispatch at m=500 -------------------------------
  {
    bench::PrintSection(
        "(d) scalar vs SIMD kernel dispatch (RecommendNext, m=500, k=100)");
    std::printf("dispatch: %s\n", simd::DescribeDispatch().c_str());
    Dataset dataset = MakeData(static_cast<size_t>(30000 * scale),
                               static_cast<size_t>(5000 * scale), 0xc06);
    TrainTestSplit split = SplitLastDays(dataset, 1);
    SessionIndex index = SessionIndex::Build(split.train, 500);
    const auto queries = QueriesOfLength(split.test, 4, 200);
    KnnConfig config;
    config.m = 500;
    config.k = 100;

    uint64_t scalar_ns = 0;
    uint64_t simd_ns = 0;
    {
      simd::ScopedLevel level(simd::Level::kScalar);
      scalar_ns = MedianLatencyNanos(index, config, queries, true);
    }
    {
      simd::ScopedLevel level(simd::BestSupportedLevel());
      simd_ns = MedianLatencyNanos(index, config, queries, true);
    }
    const bool has_simd = simd::BestSupportedLevel() != simd::Level::kScalar;
    std::printf("%16s %14llu ns/query\n", "scalar",
                static_cast<unsigned long long>(scalar_ns));
    std::printf("%16s %14llu ns/query (%.2fx)\n",
                simd::LevelName(simd::BestSupportedLevel()),
                static_cast<unsigned long long>(simd_ns),
                simd_ns > 0 ? static_cast<double>(scalar_ns) / simd_ns : 0.0);
    json.Add("scalar_median_ns_m500", static_cast<double>(scalar_ns));
    json.Add("simd_median_ns_m500", static_cast<double>(simd_ns));
    if (has_simd && simd_ns > 0) {
      json.Add("simd_speedup_m500",
               static_cast<double>(scalar_ns) / static_cast<double>(simd_ns));
    }

    // Per-kernel micro numbers on cache-resident slot arrays: the two
    // dispatched scoring-pass kernels, isolated from the engine's
    // memory-bound candidate inserts (which dilute the end-to-end delta
    // above).
    Rng rng(0xd1);
    const size_t universe = 4096;
    std::vector<simd::ItemScoreSlot> score_slots(universe);
    std::vector<float> idf(universe);
    std::vector<ItemId> ids(universe);
    for (size_t i = 0; i < universe; ++i) {
      ids[i] = static_cast<ItemId>(i);
      idf[i] = 0.01f * static_cast<float>(1 + rng.Below(300));
    }
    for (size_t i = universe; i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.Below(i)]);
    }
    std::vector<ItemId> touched;
    touched.reserve(universe);
    uint32_t epoch = 0;
    // Min over rounds that alternate the arms: interference from other
    // processes only ever adds time, so the fastest round is the
    // kernel's own cost.
    const auto kernel_ns = [&](simd::Level level, auto&& body) {
      simd::ScopedLevel scoped(level);
      const int reps = 500;
      Stopwatch stopwatch;
      uint64_t sink = 0;
      for (int r = 0; r < reps; ++r) sink += body();
      const double ns = static_cast<double>(stopwatch.ElapsedNanos());
      (void)sink;
      return ns / (static_cast<double>(reps) * universe);
    };
    const auto min_kernel_ns = [&](auto&& body, double* scalar,
                                   double* vector) {
      *scalar = *vector = 1e300;
      for (int round = 0; round < 9; ++round) {
        *scalar = std::min(*scalar, kernel_ns(simd::Level::kScalar, body));
        *vector =
            std::min(*vector, kernel_ns(simd::BestSupportedLevel(), body));
      }
    };
    // One neighbour-list pass per call in a fresh epoch, so every slot
    // takes the first-touch path as in a real query.
    const auto accumulate = [&]() -> uint64_t {
      touched.clear();
      simd::AccumulateItemScores(ids.data(), universe, 0.75f,
                                 IdfWeighting::kLog, idf.data(), ++epoch,
                                 score_slots.data(), &touched);
      return touched.size();
    };
    const auto mask = [&]() -> uint64_t {
      uint64_t acc = 0;
      for (size_t i = 0; i + 8 <= universe; i += 8) {
        acc += simd::BeatsItemMask(ids.data() + i, 8, score_slots.data(),
                                   1.5f, 100);
      }
      return acc;
    };
    double accumulate_scalar = 0, accumulate_simd = 0;
    double mask_scalar = 0, mask_simd = 0;
    min_kernel_ns(accumulate, &accumulate_scalar, &accumulate_simd);
    min_kernel_ns(mask, &mask_scalar, &mask_simd);
    std::printf("kernel AccumulateItemScores: scalar %.2f ns/id, %s %.2f "
                "ns/id (%.2fx)\n",
                accumulate_scalar, simd::LevelName(simd::BestSupportedLevel()),
                accumulate_simd,
                accumulate_simd > 0 ? accumulate_scalar / accumulate_simd
                                    : 0.0);
    std::printf("kernel BeatsItemMask: scalar %.2f ns/id, %s %.2f ns/id "
                "(%.2fx)\n",
                mask_scalar, simd::LevelName(simd::BestSupportedLevel()),
                mask_simd, mask_simd > 0 ? mask_scalar / mask_simd : 0.0);
    if (has_simd && accumulate_simd > 0 && mask_simd > 0) {
      json.Add("kernel_accumulate_speedup",
               accumulate_scalar / accumulate_simd);
      json.Add("kernel_item_mask_speedup", mask_scalar / mask_simd);
    }
  }

  if (!json.WriteTo(bench::JsonPathFromEnv())) return 1;
  return 0;
}
