#include "core/vmis_knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/vs_knn.h"
#include "data/synthetic.h"

namespace serenade {
namespace {

// Sessions (by end time): s0={1,2,4} t=30, s1={2,4} t=50, s2={2,3} t=70.
Dataset ToyDataset() {
  std::vector<Click> clicks = {
      {100, 1, 10}, {100, 2, 20}, {100, 4, 30},
      {200, 2, 40}, {200, 4, 50},
      {300, 2, 60}, {300, 3, 70},
  };
  return Dataset::FromClicks(clicks);
}

KnnConfig ToyConfig() {
  KnnConfig config;
  config.m = 10;
  config.k = 10;
  return config;
}

TEST(VmisKnnTest, ToyExampleSimilarities) {
  Dataset dataset = ToyDataset();
  SessionIndex index = SessionIndex::Build(dataset, 10);
  VmisKnn model(&index, ToyConfig());

  // Paper toy example: evolving session [1, 2, 4]; similarity to the
  // historical session {2, 4} is 2/3 + 3/3 = 5/3.
  const auto neighbors = model.NeighborSessions({1, 2, 4});
  ASSERT_EQ(neighbors.size(), 3u);

  auto score_of = [&](SessionId id) {
    for (const Neighbor& n : neighbors) {
      if (n.session == id) return n.score;
    }
    ADD_FAILURE() << "session " << id << " not found";
    return -1.0f;
  };
  EXPECT_NEAR(score_of(1), 5.0f / 3.0f, 1e-5);          // {2,4}
  EXPECT_NEAR(score_of(0), 1.0f / 3 + 2.0f / 3 + 1.0f, 1e-5);  // {1,2,4}
  EXPECT_NEAR(score_of(2), 2.0f / 3.0f, 1e-5);          // {2,3}
}

TEST(VmisKnnTest, NeighborsSortedByScoreThenRecency) {
  Dataset dataset = ToyDataset();
  SessionIndex index = SessionIndex::Build(dataset, 10);
  VmisKnn model(&index, ToyConfig());
  const auto neighbors = model.NeighborSessions({1, 2, 4});
  for (size_t i = 1; i < neighbors.size(); ++i) {
    const bool ordered =
        neighbors[i - 1].score > neighbors[i].score ||
        (neighbors[i - 1].score == neighbors[i].score &&
         neighbors[i - 1].timestamp >= neighbors[i].timestamp);
    EXPECT_TRUE(ordered) << "position " << i;
  }
}

TEST(VmisKnnTest, EmptySessionYieldsNothing) {
  Dataset dataset = ToyDataset();
  SessionIndex index = SessionIndex::Build(dataset, 10);
  VmisKnn model(&index, ToyConfig());
  EXPECT_TRUE(model.RecommendNext({}, 20).empty());
  EXPECT_TRUE(model.NeighborSessions({}).empty());
}

TEST(VmisKnnTest, UnknownItemsYieldNothing) {
  Dataset dataset = ToyDataset();
  SessionIndex index = SessionIndex::Build(dataset, 10);
  VmisKnn model(&index, ToyConfig());
  EXPECT_TRUE(model.RecommendNext({999, 1000}, 20).empty());
}

TEST(VmisKnnTest, RecommendationsAreRankedAndBounded) {
  Dataset dataset = ToyDataset();
  SessionIndex index = SessionIndex::Build(dataset, 10);
  VmisKnn model(&index, ToyConfig());
  const auto recs = model.RecommendNext({2}, 2);
  ASSERT_LE(recs.size(), 2u);
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GE(recs[i - 1].score, recs[i].score);
  }
}

TEST(VmisKnnTest, ExcludeSessionItemsFlag) {
  Dataset dataset = ToyDataset();
  SessionIndex index = SessionIndex::Build(dataset, 10);
  KnnConfig config = ToyConfig();
  config.exclude_session_items = true;
  VmisKnn model(&index, config);
  for (const ScoredItem& rec : model.RecommendNext({2, 4}, 20)) {
    EXPECT_NE(rec.item, 2u);
    EXPECT_NE(rec.item, 4u);
  }
}

TEST(VmisKnnTest, DuplicateItemsProcessedOnce) {
  Dataset dataset = ToyDataset();
  SessionIndex index = SessionIndex::Build(dataset, 10);
  VmisKnn model(&index, ToyConfig());
  // [2, 2, 2] must behave like a session whose only distinct item is 2 at
  // its most recent position.
  const auto a = model.NeighborSessions({2, 2, 2});
  ASSERT_FALSE(a.empty());
  // All three historical sessions contain item 2 with decay pi = 3/3 = 1.
  for (const Neighbor& n : a) EXPECT_NEAR(n.score, 1.0f, 1e-6);
}

TEST(VmisKnnTest, SessionCapUsesMostRecentItems) {
  Dataset dataset = ToyDataset();
  SessionIndex index = SessionIndex::Build(dataset, 10);
  KnnConfig config = ToyConfig();
  config.max_session_length = 1;
  VmisKnn model(&index, config);
  // Only item 4 (most recent) is considered: s2={2,3} shares nothing.
  const auto neighbors = model.NeighborSessions({2, 3, 4});
  std::set<SessionId> ids;
  for (const Neighbor& n : neighbors) ids.insert(n.session);
  EXPECT_EQ(ids, (std::set<SessionId>{0, 1}));
}

TEST(VmisKnnTest, MBoundsCandidateCount) {
  SyntheticConfig synth;
  synth.seed = 77;
  synth.num_items = 200;
  synth.num_sessions = 3000;
  synth.num_days = 5;
  Dataset dataset = GenerateDataset(synth);
  SessionIndex index = SessionIndex::Build(dataset, 3000);
  KnnConfig config;
  config.m = 17;
  config.k = 17;
  VmisKnn model(&index, config);
  // Even for a very popular item the candidate set (and hence neighbor
  // count) must not exceed m.
  const auto neighbors = model.NeighborSessions({0, 1, 2, 3});
  EXPECT_LE(neighbors.size(), 17u);
}

TEST(VmisKnnTest, EvictionKeepsMostRecentCandidates) {
  // 5 sessions all containing item 7; m = 2 must keep the 2 most recent.
  std::vector<Click> clicks;
  for (SessionId s = 0; s < 5; ++s) {
    clicks.push_back({s, 7, 100 * (s + 1)});
    clicks.push_back({s, 8 + s, 100 * (s + 1) + 1});
  }
  Dataset dataset = Dataset::FromClicks(clicks);
  SessionIndex index = SessionIndex::Build(dataset, 10);
  KnnConfig config;
  config.m = 2;
  config.k = 2;
  VmisKnn model(&index, config);
  const auto neighbors = model.NeighborSessions({7});
  ASSERT_EQ(neighbors.size(), 2u);
  std::set<Timestamp> times{neighbors[0].timestamp, neighbors[1].timestamp};
  EXPECT_EQ(times, (std::set<Timestamp>{401, 501}));
}

TEST(VmisKnnTest, SharedEndTimestampsTieBreakBySessionId) {
  // 40 sessions end in the same second and all contain item 7, so every
  // neighbour ties on score AND timestamp: NeighborLess then orders by
  // session id, and m = 25 must keep the 25 largest ids.
  std::vector<Click> clicks;
  for (SessionId s = 0; s < 40; ++s) {
    clicks.push_back({s, 7, 500});
    clicks.push_back({s, 100 + s, 500});
  }
  Dataset dataset = Dataset::FromClicks(clicks);
  SessionIndex index = SessionIndex::Build(dataset, 40);
  KnnConfig config;
  config.m = 25;
  config.k = 10;
  VmisKnn model(&index, config);
  const auto neighbors = model.NeighborSessions({7});

  std::vector<Neighbor> expected;
  for (SessionId s = 15; s < 40; ++s) {
    expected.push_back(Neighbor{s, 1.0f, 500});
  }
  std::sort(expected.begin(), expected.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return internal::NeighborLess{}(b, a);
            });
  expected.resize(config.k);
  EXPECT_EQ(neighbors, expected);
  EXPECT_EQ(neighbors.front().session, 39u);
  EXPECT_EQ(neighbors.back().session, 30u);
  // The VS-kNN reference samples and ranks by (timestamp, session id).
  VsKnn reference(dataset, config);
  EXPECT_EQ(reference.NeighborSessions({7}), expected);
}

TEST(VmisKnnTest, RejectsSessionLengthBeyondStoredPosition) {
  Dataset dataset = ToyDataset();
  SessionIndex index = SessionIndex::Build(dataset, 10);
  KnnConfig config = ToyConfig();
  config.max_session_length = kMaxVmisSessionLength;
  EXPECT_NO_THROW({ VmisKnn model(&index, config); });
  config.max_session_length = kMaxVmisSessionLength + 1;
  EXPECT_THROW({ VmisKnn model(&index, config); }, std::invalid_argument);
}

// --- Equivalence properties -------------------------------------------------

struct EquivalenceCase {
  size_t m;
  size_t k;
  DecayType decay;
};

class VmisEquivalenceTest : public testing::TestWithParam<EquivalenceCase> {
 protected:
  static Dataset MakeData() {
    SyntheticConfig config;
    config.seed = 1234;
    config.num_items = 400;
    config.num_sessions = 3000;
    config.num_days = 6;
    config.cluster_size = 40;
    return GenerateDataset(config);
  }
};

// Property: the no-opt variant (binary heaps, no early stopping) computes
// EXACTLY the same neighbors — early stopping is an exact optimisation.
TEST_P(VmisEquivalenceTest, NoOptMatchesOptimised) {
  const EquivalenceCase param = GetParam();
  Dataset dataset = MakeData();
  SessionIndex index = SessionIndex::Build(dataset, param.m);

  KnnConfig config;
  config.m = param.m;
  config.k = param.k;
  config.decay = param.decay;
  VmisKnn optimised(&index, config);
  VmisKnn no_opt(&index, NoOptConfig(config));

  SyntheticConfig query_config;
  query_config.seed = 4321;
  query_config.num_items = 400;
  query_config.num_sessions = 60;
  query_config.num_days = 1;
  Dataset queries = GenerateDataset(query_config);

  for (const SessionData& query : queries.sessions()) {
    EvolvingSession evolving;
    for (ItemId item : query.items) {
      evolving.push_back(item);
      const auto a = optimised.RecommendNext(evolving, 20);
      const auto b = no_opt.RecommendNext(evolving, 20);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].item, b[i].item) << "rank " << i;
        ASSERT_NEAR(a[i].score, b[i].score, 1e-4);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VmisEquivalenceTest,
    testing::Values(EquivalenceCase{5, 3, DecayType::kLinear},
                    EquivalenceCase{50, 10, DecayType::kLinear},
                    EquivalenceCase{500, 100, DecayType::kLinear},
                    EquivalenceCase{50, 10, DecayType::kSame},
                    EquivalenceCase{50, 10, DecayType::kQuadratic},
                    EquivalenceCase{5000, 500, DecayType::kHarmonic}));

// Property: with m large enough that no recency eviction can occur,
// VMIS-kNN's neighbor set equals VS-kNN's (same similarities; both
// consider every matching session).
TEST(VmisVsKnnEquivalence, NeighborsMatchWithoutEviction) {
  SyntheticConfig config;
  config.seed = 555;
  config.num_items = 300;
  config.num_sessions = 1500;
  config.num_days = 4;
  Dataset dataset = GenerateDataset(config);

  KnnConfig knn_config;
  knn_config.m = 100000;  // > num_sessions: no eviction, no sampling
  knn_config.k = 30;

  SessionIndex index = SessionIndex::Build(dataset, knn_config.m);
  VmisKnn vmis(&index, knn_config);
  VsKnn vs(dataset, knn_config);

  SyntheticConfig query_config = config;
  query_config.seed = 556;
  query_config.num_sessions = 40;
  Dataset queries = GenerateDataset(query_config);

  for (const SessionData& query : queries.sessions()) {
    const auto a = vmis.NeighborSessions(query.items);
    const auto b = vs.NeighborSessions(query.items);
    ASSERT_EQ(a.size(), b.size());
    // Compare as sets of (session, score): heap tie-breaking may order
    // equal-scored neighbors differently at the k boundary.
    std::set<std::pair<SessionId, int64_t>> set_a, set_b;
    for (const Neighbor& n : a) {
      set_a.emplace(n.session, static_cast<int64_t>(n.score * 1e6));
    }
    for (const Neighbor& n : b) {
      set_b.emplace(n.session, static_cast<int64_t>(n.score * 1e6));
    }
    // Scores at the boundary may tie; require at least 90% agreement.
    std::vector<std::pair<SessionId, int64_t>> intersection;
    std::set_intersection(set_a.begin(), set_a.end(), set_b.begin(),
                          set_b.end(), std::back_inserter(intersection));
    EXPECT_GE(intersection.size(), a.size() * 9 / 10);
  }
}

TEST(VmisKnnTest, TopNTiesMatchBruteForceSort) {
  // 30 sessions share query item 1; items 200-202 sit in ten sessions
  // each and item 100 + s in session s alone. Under the default log idf
  // item 1 scores exactly 0 and the thirty single-session items tie, so
  // every cut below lands inside or next to a tie. Neighbours arrive
  // newest first, so the tied items are offered largest id first and the
  // top-n must displace them to keep the smaller ids.
  std::vector<Click> clicks;
  for (SessionId s = 0; s < 30; ++s) {
    clicks.push_back({s, 1, 500 + s});
    clicks.push_back({s, 200 + s % 3, 500 + s});
    clicks.push_back({s, 100 + s, 500 + s});
  }
  Dataset dataset = Dataset::FromClicks(clicks);
  SessionIndex index = SessionIndex::Build(dataset, 30);
  KnnConfig config;
  config.m = 30;
  config.k = 30;

  // Every touched item with its score (how_many exceeds the 34 touched
  // items, so nothing is cut), brute-force sorted by ScoredItemLess.
  VmisKnn model(&index, config);
  std::vector<ScoredItem> all = model.RecommendNext({1}, index.num_items());
  ASSERT_EQ(all.size(), 34u);
  std::sort(all.begin(), all.end(),
            [](const ScoredItem& a, const ScoredItem& b) {
              return internal::ScoredItemLess{}(b, a);
            });
  EXPECT_EQ(all.back(), (ScoredItem{1, 0.0f}));
  EXPECT_EQ(std::count_if(all.begin(), all.end(),
                          [&](const ScoredItem& s) {
                            return s.score == all[3].score;
                          }),
            30);

  for (const bool exclude : {false, true}) {
    config.exclude_session_items = exclude;
    VmisKnn cut_model(&index, config);
    std::vector<ScoredItem> expected = all;
    if (exclude) expected.pop_back();  // item 1, the session's own item
    for (const size_t how_many : {1u, 4u, 10u, 33u}) {
      std::vector<ScoredItem> prefix(
          expected.begin(),
          expected.begin() +
              static_cast<ptrdiff_t>(std::min(how_many, expected.size())));
      EXPECT_EQ(cut_model.RecommendNext({1}, how_many), prefix)
          << "exclude=" << exclude << " how_many=" << how_many;
    }
  }

  // The packed item key orders ties, zero and adjacent floats exactly as
  // ScoredItemLess does, and unpacks losslessly.
  const float scores[] = {0.0f,
                          std::numeric_limits<float>::denorm_min(),
                          std::nextafter(0.75f, 0.0f),
                          0.75f,
                          std::nextafter(0.75f, 1.0f),
                          1.0f,
                          std::numeric_limits<float>::max()};
  const ItemId items[] = {0, 1, 2, 1000, kInvalidItem - 1};
  std::vector<ScoredItem> candidates;
  for (const float score : scores) {
    for (const ItemId item : items) candidates.push_back({item, score});
  }
  for (const ScoredItem& a : candidates) {
    const internal::ItemKey key_a = internal::MakeItemKey(a.score, a.item);
    EXPECT_EQ(internal::ScoredItemFromKey(key_a), a);
    for (const ScoredItem& b : candidates) {
      EXPECT_EQ(key_a < internal::MakeItemKey(b.score, b.item),
                internal::ScoredItemLess{}(a, b))
          << a.item << "@" << a.score << " vs " << b.item << "@" << b.score;
    }
  }
}

TEST(VmisKnnTest, TopNLimitRespected) {
  SyntheticConfig config;
  config.seed = 88;
  config.num_items = 100;
  config.num_sessions = 500;
  config.num_days = 3;
  Dataset dataset = GenerateDataset(config);
  SessionIndex index = SessionIndex::Build(dataset, 100);
  KnnConfig knn_config;
  knn_config.m = 100;
  knn_config.k = 50;
  VmisKnn model(&index, knn_config);
  for (size_t n : {1u, 5u, 21u}) {
    EXPECT_LE(model.RecommendNext({0, 1, 2}, n).size(), n);
  }
  EXPECT_TRUE(model.RecommendNext({0, 1, 2}, 0).empty());
}

}  // namespace
}  // namespace serenade
