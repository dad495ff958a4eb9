// Portable SIMD kernels for the VMIS-kNN scoring pass (DESIGN.md §11).
//
// Every kernel has three implementations — AVX2 (x86, compiled with a
// per-function target attribute so the rest of the build stays baseline),
// NEON (AArch64 baseline), and scalar — selected once at process start by
// runtime CPU dispatch. The scalar bodies are the reference semantics:
// the vector paths are required to be BIT-IDENTICAL to them (same float
// operation sequence per array slot, no FMA contraction, no reassociation
// of per-slot accumulation), which is what lets the PR 5 differential
// oracle hold "scalar ≡ SIMD" as an exact equality rather than a
// tolerance. The whole tree builds with -ffp-contract=off to keep the
// compiler from fusing the mul+add pairs these kernels mirror.
//
// Build gating: the vector paths exist only when the tree is configured
// with -DSERENADE_SIMD=ON (the default; defines SERENADE_SIMD_ENABLED).
// Runtime selection: SetActiveLevel / the SERENADE_SIMD_LEVEL environment
// variable ("scalar", "avx2", "neon", "auto") force a level, used by the
// scalar-vs-SIMD bench arms and the differential tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/weighting.h"

namespace serenade::simd {

/// Instruction-set level of the kernel implementations.
enum class Level : int {
  kScalar = 0,
  kNeon = 1,
  kAvx2 = 2,
};

/// Lane count the BeatsItemMask prefilter is designed around; callers
/// feed blocks of at most this many entries.
inline constexpr size_t kBlockLanes = 8;

const char* LevelName(Level level);

/// The best level this build + CPU supports (kScalar when the tree was
/// configured with -DSERENADE_SIMD=OFF or the CPU lacks AVX2).
Level BestSupportedLevel();

/// The level the kernels currently dispatch to. Initialised on first use
/// from BestSupportedLevel(), overridable via SERENADE_SIMD_LEVEL.
Level ActiveLevel();

/// Forces the dispatch level (bench arms, differential tests). Only
/// kScalar and BestSupportedLevel() are accepted; returns false (level
/// unchanged) otherwise. Thread-safe (relaxed atomic), but callers that
/// flip levels mid-run own the coordination with concurrent queries.
bool SetActiveLevel(Level level);

/// RAII level override for tests and bench arms.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level)
      : previous_(ActiveLevel()), ok_(SetActiveLevel(level)) {}
  ~ScopedLevel() { SetActiveLevel(previous_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;
  /// Whether the requested level was actually engaged.
  bool ok() const { return ok_; }

 private:
  Level previous_;
  bool ok_;
};

/// "avx2" / "neon" / "scalar" plus the build flag state — for /v1/stats,
/// startup logs, and bench provenance.
std::string DescribeDispatch();

// ---------------------------------------------------------------------------
// Epoch-stamped slot record of the scoring pass. Stamp and score share
// one 8-byte record, so a touch costs ONE cache line and the vector paths
// fetch a whole record with a single 64-bit gather. A slot is live iff
// its stamp equals the current query epoch.
// ---------------------------------------------------------------------------

/// Per-item accumulated recommendation score (the scoring pass).
struct ItemScoreSlot {
  uint32_t stamp = 0;
  float score = 0.0f;
};
static_assert(sizeof(ItemScoreSlot) == 8);

// ---------------------------------------------------------------------------
// Kernels. Slot pointers reference dense arrays indexed by the ids in the
// id lists; every id must be in bounds for its array (VMIS-kNN
// guarantees this: neighbour items come from the index whose universe
// sizes the arrays, and the index loader range-checks them).
// ---------------------------------------------------------------------------

/// Scoring pass: for each (distinct) item of a neighbour session,
/// adds weight * idf_factor(item) to its score slot, stamping and zeroing
/// slots on first touch this query and recording them in `touched_items`
/// (in list order). idf_factor is 1, idf[item], or 1 + idf[item]
/// depending on `idf_mode` — exactly the float expression of the scalar
/// path.
void AccumulateItemScores(const ItemId* items, size_t count, float weight,
                          IdfWeighting idf_mode, const float* idf,
                          uint32_t epoch, ItemScoreSlot* slots,
                          std::vector<ItemId>* touched_items);

/// Top-n prefilter over touched items (all live by construction), used
/// once the result heap is full: bit i set iff ids[i] beats the weakest
/// kept item under ScoredItemLess — higher score, ties won by the
/// SMALLER item id. count <= kBlockLanes.
uint32_t BeatsItemMask(const ItemId* ids, size_t count,
                       const ItemScoreSlot* slots, float weakest_score,
                       ItemId weakest_item);

}  // namespace serenade::simd
