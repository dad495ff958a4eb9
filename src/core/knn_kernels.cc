#include "core/knn_kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(SERENADE_SIMD_ENABLED) && \
    (defined(__x86_64__) || defined(__i386__))
#define SERENADE_SIMD_X86 1
#include <immintrin.h>
#endif

#if defined(SERENADE_SIMD_ENABLED) && defined(__aarch64__)
#define SERENADE_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace serenade::simd {

namespace {

// -1 = not yet initialised; otherwise a Level value. Relaxed accesses are
// enough: every initialising thread computes the same value, and level
// flips (tests/bench arms) tolerate momentary mixed dispatch because all
// levels produce bit-identical results.
std::atomic<int> g_active_level{-1};

Level ParseLevel(const char* name, Level fallback) {
  if (std::strcmp(name, "scalar") == 0) return Level::kScalar;
  if (std::strcmp(name, "avx2") == 0) return Level::kAvx2;
  if (std::strcmp(name, "neon") == 0) return Level::kNeon;
  return fallback;  // "auto" and unknown values
}

Level InitialLevel() {
  Level level = BestSupportedLevel();
  if (const char* env = std::getenv("SERENADE_SIMD_LEVEL")) {
    const Level requested = ParseLevel(env, level);
    if (requested == Level::kScalar || requested == BestSupportedLevel()) {
      level = requested;
    }
  }
  return level;
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kNeon: return "neon";
    case Level::kAvx2: return "avx2";
  }
  return "unknown";
}

Level BestSupportedLevel() {
#if defined(SERENADE_SIMD_NEON)
  return Level::kNeon;  // NEON is baseline on AArch64
#elif defined(SERENADE_SIMD_X86)
  return __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kScalar;
#else
  return Level::kScalar;
#endif
}

Level ActiveLevel() {
  const int raw = g_active_level.load(std::memory_order_relaxed);
  if (raw >= 0) return static_cast<Level>(raw);
  const Level level = InitialLevel();
  g_active_level.store(static_cast<int>(level), std::memory_order_relaxed);
  return level;
}

bool SetActiveLevel(Level level) {
  if (level != Level::kScalar && level != BestSupportedLevel()) return false;
  g_active_level.store(static_cast<int>(level), std::memory_order_relaxed);
  return true;
}

std::string DescribeDispatch() {
#if defined(SERENADE_SIMD_ENABLED)
  const char* build = "on";
#else
  const char* build = "off";
#endif
  return std::string(LevelName(ActiveLevel())) + " (build=" + build +
         ", best=" + LevelName(BestSupportedLevel()) + ")";
}

// ---------------------------------------------------------------------------
// Scalar reference implementations. These define the semantics; the
// vector paths below must match them bit for bit.
// ---------------------------------------------------------------------------

namespace {

// Shared by the scalar path and the vector paths' tails/store loops: one
// slot's stamp-or-accumulate step with a precomputed contribution.
inline void TouchAndAdd(ItemId item, float contribution, uint32_t epoch,
                        ItemScoreSlot* slots,
                        std::vector<ItemId>* touched_items) {
  ItemScoreSlot& slot = slots[item];
  if (slot.stamp != epoch) {
    slot.stamp = epoch;
    slot.score = 0.0f;
    touched_items->push_back(item);
  }
  slot.score += contribution;
}

void AccumulateItemScoresScalar(const ItemId* items, size_t count,
                                float weight, IdfWeighting idf_mode,
                                const float* idf, uint32_t epoch,
                                ItemScoreSlot* slots,
                                std::vector<ItemId>* touched_items) {
  for (size_t i = 0; i < count; ++i) {
    const ItemId item = items[i];
    float factor = 1.0f;
    switch (idf_mode) {
      case IdfWeighting::kNone:
        break;
      case IdfWeighting::kLog:
        factor = idf[item];
        break;
      case IdfWeighting::kOnePlusLog:
        factor = 1.0f + idf[item];
        break;
    }
    TouchAndAdd(item, weight * factor, epoch, slots, touched_items);
  }
}

uint32_t BeatsItemMaskScalar(const ItemId* ids, size_t count,
                             const ItemScoreSlot* slots, float weakest_score,
                             ItemId weakest_item) {
  uint32_t mask = 0;
  for (size_t i = 0; i < count; ++i) {
    const ItemId id = ids[i];
    const float score = slots[id].score;
    if (score > weakest_score ||
        (score == weakest_score && id < weakest_item)) {
      mask |= 1u << i;
    }
  }
  return mask;
}

}  // namespace

// ---------------------------------------------------------------------------
// AVX2 paths. Compiled with a per-function target attribute so the rest
// of the object file (and the tree) stays baseline-ISA; only ever called
// after runtime dispatch confirmed AVX2 support. The float kernels use
// separate mul and add intrinsics on purpose — no FMA (the target list
// excludes it), preserving the scalar rounding sequence.
//
// Slot gathers: the 8-byte item slots are fetched whole with
// _mm256_i32gather_epi64 (index = id, scale 8), so item ids must fit a
// signed 32-bit gather index — comfortably above the paper's catalog
// sizes (the scalar path has no such bound).
// ---------------------------------------------------------------------------

#if defined(SERENADE_SIMD_X86)

namespace {

__attribute__((target("avx2"))) void AccumulateItemScoresAvx2(
    const ItemId* items, size_t count, float weight, IdfWeighting idf_mode,
    const float* idf, uint32_t epoch, ItemScoreSlot* slots,
    std::vector<ItemId>* touched_items) {
  const __m256 weight_v = _mm256_set1_ps(weight);
  const __m256 one_v = _mm256_set1_ps(1.0f);
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i ids =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(items + i));
    __m256 factor = one_v;
    if (idf_mode != IdfWeighting::kNone) {
      factor = _mm256_i32gather_ps(idf, ids, 4);
      if (idf_mode == IdfWeighting::kOnePlusLog) {
        factor = _mm256_add_ps(one_v, factor);
      }
    }
    alignas(32) float contribution[8];
    _mm256_store_ps(contribution, _mm256_mul_ps(weight_v, factor));
    // The stamp-and-accumulate step stays scalar (AVX2 has no scatter) —
    // but stamp and score share an 8-byte slot, so each lane touches one
    // cache line. Lane order preserves the scalar touch order.
    for (size_t lane = 0; lane < 8; ++lane) {
      TouchAndAdd(items[i + lane], contribution[lane], epoch, slots,
                  touched_items);
    }
  }
  AccumulateItemScoresScalar(items + i, count - i, weight, idf_mode, idf,
                             epoch, slots, touched_items);
}

// Recombines the odd (score) dwords of two gathered pair vectors into
// lane order [f0..f7].
__attribute__((target("avx2"))) __m256 OddDwordsAsFloats(__m256i lo,
                                                         __m256i hi) {
  const __m256 mixed = _mm256_shuffle_ps(
      _mm256_castsi256_ps(lo), _mm256_castsi256_ps(hi),
      _MM_SHUFFLE(3, 1, 3, 1));
  return _mm256_castsi256_ps(_mm256_permute4x64_epi64(
      _mm256_castps_si256(mixed), _MM_SHUFFLE(3, 1, 2, 0)));
}

__attribute__((target("avx2"))) uint32_t BeatsItemMaskAvx2(
    const ItemId* ids, size_t count, const ItemScoreSlot* slots,
    float weakest_score, ItemId weakest_item) {
  if (count < 8) {
    return BeatsItemMaskScalar(ids, count, slots, weakest_score,
                               weakest_item);
  }
  const long long* base = reinterpret_cast<const long long*>(slots);
  const __m256i id_v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids));
  const __m256i lo = _mm256_i32gather_epi64(
      base, _mm256_castsi256_si128(id_v), 8);
  const __m256i hi = _mm256_i32gather_epi64(
      base, _mm256_extracti128_si256(id_v, 1), 8);
  const __m256 score_v = OddDwordsAsFloats(lo, hi);
  const __m256 weakest_v = _mm256_set1_ps(weakest_score);
  const uint32_t score_gt = static_cast<uint32_t>(
      _mm256_movemask_ps(_mm256_cmp_ps(score_v, weakest_v, _CMP_GT_OQ)));
  const uint32_t score_eq = static_cast<uint32_t>(
      _mm256_movemask_ps(_mm256_cmp_ps(score_v, weakest_v, _CMP_EQ_OQ)));
  // Item ties are won by the SMALLER id (unsigned compare via sign flip).
  const uint32_t id_lt = static_cast<uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(
          _mm256_set1_epi32(static_cast<int>(weakest_item ^ 0x80000000u)),
          _mm256_xor_si256(id_v, _mm256_set1_epi32(INT32_MIN))))));
  return score_gt | (score_eq & id_lt);
}

}  // namespace

#endif  // SERENADE_SIMD_X86

// ---------------------------------------------------------------------------
// NEON paths (AArch64). NEON has no gather, so the dense-array lookups
// stay per-lane scalar loads; the arithmetic and comparisons vectorise.
// The gather-dominated prefilter mask gains little without gather and
// dispatches to the scalar body.
// ---------------------------------------------------------------------------

#if defined(SERENADE_SIMD_NEON)

namespace {

void AccumulateItemScoresNeon(const ItemId* items, size_t count, float weight,
                              IdfWeighting idf_mode, const float* idf,
                              uint32_t epoch, ItemScoreSlot* slots,
                              std::vector<ItemId>* touched_items) {
  const float32x4_t weight_v = vdupq_n_f32(weight);
  const float32x4_t one_v = vdupq_n_f32(1.0f);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    float32x4_t factor = one_v;
    if (idf_mode != IdfWeighting::kNone) {
      float gathered[4];
      for (size_t lane = 0; lane < 4; ++lane) {
        gathered[lane] = idf[items[i + lane]];
      }
      factor = vld1q_f32(gathered);
      if (idf_mode == IdfWeighting::kOnePlusLog) {
        factor = vaddq_f32(one_v, factor);
      }
    }
    float contribution[4];
    vst1q_f32(contribution, vmulq_f32(weight_v, factor));
    for (size_t lane = 0; lane < 4; ++lane) {
      TouchAndAdd(items[i + lane], contribution[lane], epoch, slots,
                  touched_items);
    }
  }
  AccumulateItemScoresScalar(items + i, count - i, weight, idf_mode, idf,
                             epoch, slots, touched_items);
}

}  // namespace

#endif  // SERENADE_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

void AccumulateItemScores(const ItemId* items, size_t count, float weight,
                          IdfWeighting idf_mode, const float* idf,
                          uint32_t epoch, ItemScoreSlot* slots,
                          std::vector<ItemId>* touched_items) {
  switch (ActiveLevel()) {
#if defined(SERENADE_SIMD_X86)
    case Level::kAvx2:
      AccumulateItemScoresAvx2(items, count, weight, idf_mode, idf, epoch,
                               slots, touched_items);
      return;
#endif
#if defined(SERENADE_SIMD_NEON)
    case Level::kNeon:
      AccumulateItemScoresNeon(items, count, weight, idf_mode, idf, epoch,
                               slots, touched_items);
      return;
#endif
    default:
      AccumulateItemScoresScalar(items, count, weight, idf_mode, idf, epoch,
                                 slots, touched_items);
  }
}

uint32_t BeatsItemMask(const ItemId* ids, size_t count,
                       const ItemScoreSlot* slots, float weakest_score,
                       ItemId weakest_item) {
#if defined(SERENADE_SIMD_X86)
  if (ActiveLevel() == Level::kAvx2) {
    return BeatsItemMaskAvx2(ids, count, slots, weakest_score, weakest_item);
  }
#endif
  return BeatsItemMaskScalar(ids, count, slots, weakest_score, weakest_item);
}

}  // namespace serenade::simd
