// Bit-identity of the SIMD kernels (core/knn_kernels.h) against their
// scalar references at the alignment and remainder edges where vector
// code goes wrong: lengths 0, 1, width-1, width, width+1, 2*width+1 and
// id arrays starting at every offset 0..3 from the allocation base. Each
// kernel runs once per level on identical inputs; outputs (return
// values, slot bytes, touched lists) must match exactly — the contract
// the differential oracle holds end-to-end, pinned here at kernel
// granularity so a divergence names the kernel directly.
//
// On builds or machines without a vector level (SERENADE_SIMD=OFF, or no
// AVX2), both runs take the scalar path and the suite degenerates to a
// self-consistency check — kept running rather than skipped so the
// harness itself stays covered in the scalar CI job.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "core/knn_kernels.h"

namespace serenade {
namespace {

using simd::Level;

// Lengths around the 8-lane block width, plus 0/1 and a multi-block+tail
// shape. The mask kernel caps at kBlockLanes; the accumulate kernel
// takes them all.
constexpr size_t kEdgeLengths[] = {0, 1, 7, 8, 9, 16, 17, 33};
constexpr size_t kMaxOffset = 4;  // unaligned bases 0..3
constexpr uint32_t kEpoch = 7;

struct KernelCase {
  std::vector<ItemId> ids;  // distinct ids, kMaxOffset slack ahead
  std::vector<simd::ItemScoreSlot> score_slots;
  std::vector<float> idf;
};

// A universe of 160 ids with ~half the slots live at kEpoch and scores
// drawn small enough to collide often (ties are the hard part of the
// BeatsItemMask predicate). ids is a permutation of the whole universe,
// so every window — any offset, any edge length — holds distinct ids,
// the precondition of AccumulateItemScores.
KernelCase MakeCase(uint64_t seed) {
  Rng rng(seed);
  KernelCase c;
  const size_t universe = 160;
  c.ids.resize(universe);
  for (size_t i = 0; i < c.ids.size(); ++i) {
    c.ids[i] = static_cast<ItemId>(i);
  }
  // Shuffle so adjacent lanes hit scattered slots.
  for (size_t i = c.ids.size(); i > 1; --i) {
    std::swap(c.ids[i - 1], c.ids[rng.Below(i)]);
  }
  c.score_slots.resize(universe);
  c.idf.resize(universe);
  for (size_t i = 0; i < universe; ++i) {
    c.score_slots[i] = simd::ItemScoreSlot{
        rng.Bernoulli(0.5) ? kEpoch : 0u,
        0.25f * static_cast<float>(rng.Below(8))};
    c.idf[i] = 0.1f * static_cast<float>(1 + rng.Below(30));
  }
  return c;
}

bool SameBytes(const void* a, const void* b, size_t bytes) {
  return std::memcmp(a, b, bytes) == 0;
}

// Every seed × length × offset combination for one kernel body.
template <typename Fn>
void ForEachEdge(Fn&& fn) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (const size_t length : kEdgeLengths) {
      for (size_t offset = 0; offset < kMaxOffset; ++offset) {
        fn(seed, length, offset);
      }
    }
  }
}

TEST(SimdKernelsTest, LevelsAreEngageable) {
  ASSERT_TRUE(simd::SetActiveLevel(Level::kScalar));
  ASSERT_TRUE(simd::SetActiveLevel(simd::BestSupportedLevel()));
}

TEST(SimdKernelsTest, AccumulateItemScoresMatchesScalarAtEdges) {
  for (const IdfWeighting mode :
       {IdfWeighting::kNone, IdfWeighting::kLog, IdfWeighting::kOnePlusLog}) {
    ForEachEdge([mode](uint64_t seed, size_t length, size_t offset) {
      const KernelCase c = MakeCase(seed);
      auto scalar_slots = c.score_slots;
      auto simd_slots = c.score_slots;
      std::vector<ItemId> scalar_touched, simd_touched;
      {
        simd::ScopedLevel level(Level::kScalar);
        simd::AccumulateItemScores(c.ids.data() + offset, length, 0.625f,
                                   mode, c.idf.data(), kEpoch,
                                   scalar_slots.data(), &scalar_touched);
      }
      {
        simd::ScopedLevel level(simd::BestSupportedLevel());
        simd::AccumulateItemScores(c.ids.data() + offset, length, 0.625f,
                                   mode, c.idf.data(), kEpoch,
                                   simd_slots.data(), &simd_touched);
      }
      ASSERT_EQ(scalar_touched, simd_touched)
          << "seed=" << seed << " len=" << length << " off=" << offset;
      ASSERT_TRUE(SameBytes(scalar_slots.data(), simd_slots.data(),
                            scalar_slots.size() *
                                sizeof(simd::ItemScoreSlot)));
    });
  }
}

TEST(SimdKernelsTest, BeatsItemMaskMatchesScalarAtEdges) {
  ForEachEdge([](uint64_t seed, size_t length, size_t offset) {
    if (length > simd::kBlockLanes) return;
    const KernelCase c = MakeCase(seed);
    Rng rng(seed * 17 + 3);
    for (int t = 0; t < 8; ++t) {
      const float weakest_score = 0.25f * static_cast<float>(rng.Below(8));
      const ItemId weakest_item = static_cast<ItemId>(rng.Below(128));
      uint32_t scalar_m, simd_m;
      {
        simd::ScopedLevel level(Level::kScalar);
        scalar_m = simd::BeatsItemMask(c.ids.data() + offset, length,
                                       c.score_slots.data(), weakest_score,
                                       weakest_item);
      }
      {
        simd::ScopedLevel level(simd::BestSupportedLevel());
        simd_m = simd::BeatsItemMask(c.ids.data() + offset, length,
                                     c.score_slots.data(), weakest_score,
                                     weakest_item);
      }
      ASSERT_EQ(scalar_m, simd_m)
          << "seed=" << seed << " len=" << length << " off=" << offset;
    }
  });
}

}  // namespace
}  // namespace serenade
