// Differential-correctness harness (testing/differential.h): random
// click histories and evolving sessions, one query through five engines
// — VS-kNN, VMIS-kNN, the no-opt VMIS variant, VMIS over the compressed
// index's fused decode path, and the micro-batched service path —
// demanding bit-identical scores and ranks.
//
// The CI smoke below generates >= 5,000 random sessions under a pinned
// seed with zero tolerated divergence, and the mutation self-check
// proves the oracle can actually fail: a deliberately perturbed engine
// must be caught and reported with its reproducing seed.
#include <gtest/gtest.h>

#include "testing/differential.h"

namespace serenade {
namespace {

// Every fuzz entry point in the repository pins this seed: the CI run is
// a replay, not a lottery. Deeper exploration belongs to
// tools/serenade_fuzz (SERENADE_FUZZ_SECONDS, --seed).
constexpr uint64_t kPinnedSeed = 20260806;

TEST(DifferentialKnnTest, GenerateIsDeterministicPerSeed) {
  DiffSpec spec;
  Rng rng_a(kPinnedSeed), rng_b(kPinnedSeed);
  const DiffCase a = GenerateDiffCase(spec, &rng_a);
  const DiffCase b = GenerateDiffCase(spec, &rng_b);
  ASSERT_EQ(a.train.num_sessions(), b.train.num_sessions());
  for (size_t s = 0; s < a.train.num_sessions(); ++s) {
    EXPECT_EQ(a.train.sessions()[s].items, b.train.sessions()[s].items);
    EXPECT_EQ(a.train.sessions()[s].end_time, b.train.sessions()[s].end_time);
  }
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.knn.m, b.knn.m);
  EXPECT_EQ(a.knn.k, b.knn.k);
}

TEST(DifferentialKnnTest, FuzzSmokeAgreesOverFiveThousandSessions) {
  DiffSpec spec;  // defaults include the batched service path
  DiffFuzzStats stats;
  const auto reproducer = RunDiffFuzz(spec, kPinnedSeed, 64, &stats);
  ASSERT_FALSE(reproducer.has_value()) << *reproducer;
  // The acceptance bar: at least 5,000 random sessions per smoke run.
  EXPECT_GE(stats.sessions, 5000u) << "cases=" << stats.cases;
  EXPECT_EQ(stats.cases, 64u);
  EXPECT_GT(stats.queries, 0u);
}

TEST(DifferentialKnnTest, KernelOnlyFuzzCoversWiderShapes) {
  // Without the service in the loop each case is cheap, so push the
  // generator into larger histories and m values than the smoke run.
  DiffSpec spec;
  spec.include_service = false;
  spec.max_sessions = 400;
  spec.m_max = 80;
  spec.num_queries = 16;
  DiffFuzzStats stats;
  const auto reproducer =
      RunDiffFuzz(spec, kPinnedSeed + 1000, 48, &stats);
  ASSERT_FALSE(reproducer.has_value()) << *reproducer;
  EXPECT_EQ(stats.cases, 48u);
}

TEST(DifferentialKnnTest, PostingLengthEdgesAgreeAcrossEngines) {
  // Deliberately constructed histories whose posting lists sit at and
  // around multiples of eight (lengths 0, 1, 7, 8, 9, 16, 17, 33): item j
  // appears in the first length[j] sessions, and the query touches every
  // item, so the intersection loop scans each edge-length list. Swept
  // over m values around those lengths so the fill-regime/eviction
  // transition lands inside a list, on its end, and far beyond it.
  const size_t lengths[] = {0, 1, 7, 8, 9, 16, 17, 33};
  std::vector<Click> clicks;
  Timestamp now = 1000;
  constexpr size_t kNumSessions = 40;
  for (size_t s = 0; s < kNumSessions; ++s) {
    bool any = false;
    for (size_t j = 0; j < std::size(lengths); ++j) {
      if (s < lengths[j]) {
        clicks.push_back(Click{static_cast<SessionId>(s),
                               static_cast<ItemId>(j), now++});
        any = true;
      }
    }
    if (!any) {
      // Keep session ids dense (FromClicks requires every id present);
      // a filler item beyond the edge items.
      clicks.push_back(Click{static_cast<SessionId>(s),
                             static_cast<ItemId>(std::size(lengths)), now++});
    }
  }

  for (const size_t m : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                         size_t{33}, size_t{40}}) {
    DiffCase c;
    c.train = Dataset::FromClicks(clicks, /*min_session_length=*/1);
    c.queries.assign(1, EvolvingSession{});
    for (size_t j = 0; j <= std::size(lengths); ++j) {
      c.queries[0].push_back(static_cast<ItemId>(j));
    }
    c.knn.m = m;
    c.knn.k = std::max<size_t>(m / 2, 1);
    c.knn.vs_length_norm = false;
    const auto divergence = CheckDiffCase(c, /*include_service=*/false);
    ASSERT_FALSE(divergence.has_value())
        << "m=" << m << ": " << divergence->engine_a << " vs "
        << divergence->engine_b << "\n" << divergence->detail;
  }
}

TEST(DifferentialKnnTest, EvictionAndFirstTouchSweepAgreesWithVsKnn) {
  // VMIS-kNN records a candidate's match position when the candidate is
  // first inserted instead of rescanning its items. This sweep targets
  // exactly the regimes where that could go wrong: a 6-item vocabulary
  // over 300 sessions makes every posting list far longer than m, so
  // candidates are evicted and early stopping fires on every list;
  // queries repeat items and run past the session cap. Every match weight
  // reads the recorded position. (Shared end timestamps are covered by
  // VmisKnnTest.SharedEndTimestampsTieBreakBySessionId: the overlay arm
  // here re-sessionizes histories, which may renumber tied sessions.)
  Rng rng(kPinnedSeed + 500);
  std::vector<Click> clicks;
  for (size_t s = 0; s < 300; ++s) {
    const size_t length = 1 + rng.Below(4);
    for (size_t i = 0; i < length; ++i) {
      clicks.push_back(Click{static_cast<SessionId>(s),
                             static_cast<ItemId>(rng.Below(6)),
                             static_cast<Timestamp>(1000 + s)});
    }
  }
  std::vector<EvolvingSession> queries(24);
  for (EvolvingSession& query : queries) {
    const size_t length = 1 + rng.Below(14);
    for (size_t i = 0; i < length; ++i) {
      query.push_back(static_cast<ItemId>(rng.Below(6)));
    }
  }

  for (const size_t m : {size_t{1}, size_t{2}, size_t{7}}) {
    for (const size_t cap : {size_t{1}, size_t{10}}) {
      for (const MatchWeightType weight :
           {MatchWeightType::kConstant, MatchWeightType::kPaperInsertionOrder,
            MatchWeightType::kStepsFromEnd}) {
        DiffCase c;
        c.train = Dataset::FromClicks(clicks, /*min_session_length=*/1);
        c.queries = queries;
        c.knn.m = m;
        c.knn.k = m;
        c.knn.max_session_length = cap;
        c.knn.match_weight = weight;
        c.knn.vs_length_norm = false;
        const auto divergence = CheckDiffCase(c, /*include_service=*/false);
        ASSERT_FALSE(divergence.has_value())
            << "m=" << m << " cap=" << cap << " weight="
            << MatchWeightTypeName(weight) << ": " << divergence->engine_a
            << " vs " << divergence->engine_b << "\n"
            << divergence->detail;
      }
    }
  }
}

TEST(DifferentialKnnTest, MutationSelfCheckIsCaught) {
  // A harness that cannot fail proves nothing. Perturb the no-opt
  // engine's output and demand the oracle notices — on many seeds, so a
  // future comparator bug cannot hide behind one lucky case.
  DiffSpec spec;
  spec.include_service = false;
  for (uint64_t seed = kPinnedSeed; seed < kPinnedSeed + 8; ++seed) {
    Rng rng(seed);
    const DiffCase c = GenerateDiffCase(spec, &rng);
    const auto divergence =
        CheckDiffCase(c, /*include_service=*/false, /*mutate=*/true);
    ASSERT_TRUE(divergence.has_value()) << "seed " << seed;
    EXPECT_EQ(divergence->engine_b, "vmis-knn-no-opt");

    // The report regenerates from its seed: it names both engines and
    // carries the seed, config, and full history.
    const std::string report = FormatReproducer(c, seed, *divergence);
    EXPECT_NE(report.find("seed " + std::to_string(seed)), std::string::npos);
    EXPECT_NE(report.find("vmis-knn-no-opt"), std::string::npos);
    EXPECT_NE(report.find("config:"), std::string::npos);

    // And the unmutated run of the very same case is clean.
    EXPECT_FALSE(CheckDiffCase(c, /*include_service=*/false).has_value())
        << "seed " << seed;
  }
}

TEST(DifferentialKnnTest, ShrinkKeepsOnlyWhatTheFailureNeeds) {
  // Shrinking needs a genuinely failing case; engines agree on purpose,
  // so build one from a divergent *configuration*: the oracle compares a
  // case against itself under CheckDiffCase, but ShrinkDiffCase's
  // contract is only "the returned case still fails". Drive it through
  // the mutate path indirectly: a case whose VS-kNN runs length
  // normalisation diverges from VMIS by construction.
  DiffSpec spec;
  spec.include_service = false;
  Rng rng(kPinnedSeed + 77);
  DiffCase c = GenerateDiffCase(spec, &rng);
  c.knn.vs_length_norm = true;  // reintroduce Algorithm 1's 1/|s| scale
  c.knn.decay = DecayType::kLinear;
  c.knn.match_weight = MatchWeightType::kConstant;
  auto divergence = CheckDiffCase(c, /*include_service=*/false);
  if (!divergence.has_value()) {
    GTEST_SKIP() << "length normalisation happened to be score-neutral here";
  }
  const DiffCase minimal = ShrinkDiffCase(c, /*include_service=*/false);
  // Minimality: still failing, never larger than the original.
  EXPECT_TRUE(CheckDiffCase(minimal, false).has_value());
  EXPECT_LE(minimal.train.num_sessions(), c.train.num_sessions());
  EXPECT_EQ(minimal.queries.size(), 1u);
}

}  // namespace
}  // namespace serenade
