// Experiment E5 — reproduces Figure 3(a), bottom: microbenchmark of the
// neighbour-search kernels VS-kNN vs VMIS-kNN-no-opt vs VMIS-kNN on an
// ecom-1m-like dataset for m in {100, 250, 500, 1000}, k = 100, built on
// google-benchmark.
//
// Paper shape to reproduce: both VMIS variants beat VS-kNN by 3-5x at
// every m; the fully-optimised VMIS-kNN (early stopping + octonary heaps)
// is a further 6-12% faster than VMIS-kNN-no-opt.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"

#include "core/session_index.h"
#include "core/vmis_knn.h"
#include "core/vs_knn.h"
#include "data/split.h"
#include "data/synthetic.h"

namespace serenade {
namespace {

// Shared fixture state: one dataset, one index per m, one query stream.
struct BenchState {
  Dataset train;
  std::vector<EvolvingSession> queries;
  std::map<size_t, std::unique_ptr<SessionIndex>> indexes;

  static BenchState& Get() {
    static BenchState* state = [] {
      auto* s = new BenchState();
      // SERENADE_BENCH_SCALE shrinks this to smoke-test size in CI and
      // grows it for full runs (1.0 = ecom-1m-like shape, laptop scale).
      const double scale = bench::ScaleFromEnv();
      SyntheticConfig config;
      config.seed = 0xeca1;
      config.num_items =
          std::max<size_t>(100, static_cast<size_t>(5000 * scale));
      config.num_sessions =
          std::max<size_t>(1000, static_cast<size_t>(30000 * scale));
      config.num_days = 14;
      Dataset dataset = GenerateDataset(config);
      TrainTestSplit split = SplitLastDays(dataset, 1);
      s->train = std::move(split.train);

      const size_t max_queries =
          std::max<size_t>(50, static_cast<size_t>(400 * scale));
      // Query stream: growing prefixes of test sessions ("we randomly
      // pick the number of items for each session").
      Rng rng(77);
      for (const SessionData& session : split.test.sessions()) {
        if (s->queries.size() >= max_queries) break;
        const size_t length = 1 + rng.Below(session.items.size());
        s->queries.emplace_back(session.items.begin(),
                                session.items.begin() + length);
      }
      for (size_t m : {100u, 250u, 500u, 1000u}) {
        s->indexes.emplace(
            m, std::make_unique<SessionIndex>(SessionIndex::Build(s->train, m)));
      }
      return s;
    }();
    return *state;
  }
};

KnnConfig ConfigForM(size_t m) {
  KnnConfig config;
  config.m = m;
  config.k = 100;
  return config;
}

void BM_VsKnn(benchmark::State& state) {
  BenchState& shared = BenchState::Get();
  const size_t m = static_cast<size_t>(state.range(0));
  static std::map<size_t, std::unique_ptr<VsKnn>> models;
  if (models.find(m) == models.end()) {
    models.emplace(m,
                   std::make_unique<VsKnn>(shared.train, ConfigForM(m)));
  }
  VsKnn& model = *models[m];
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.NeighborSessions(shared.queries[i % shared.queries.size()]));
    ++i;
  }
}

void BM_VmisKnnNoOpt(benchmark::State& state) {
  BenchState& shared = BenchState::Get();
  const size_t m = static_cast<size_t>(state.range(0));
  VmisKnn model(shared.indexes[m].get(), NoOptConfig(ConfigForM(m)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.NeighborSessions(shared.queries[i % shared.queries.size()]));
    ++i;
  }
}

void BM_VmisKnn(benchmark::State& state) {
  BenchState& shared = BenchState::Get();
  const size_t m = static_cast<size_t>(state.range(0));
  VmisKnn model(shared.indexes[m].get(), ConfigForM(m));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.NeighborSessions(shared.queries[i % shared.queries.size()]));
    ++i;
  }
}

BENCHMARK(BM_VsKnn)->Arg(100)->Arg(250)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VmisKnnNoOpt)->Arg(100)->Arg(250)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VmisKnn)->Arg(100)->Arg(250)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace serenade

BENCHMARK_MAIN();
