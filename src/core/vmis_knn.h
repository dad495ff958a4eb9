// Vector-Multiplication-Indexed-Session-kNN (Algorithm 2 of the paper):
// index-based nearest-neighbour session recommendation with bounded
// intermediate state, early stopping, and octonary heaps.
//
// The query engine is a template over the index representation so that
// the same code runs against the flat CSR SessionIndex and the
// compressed CompressedSessionIndex (the paper's future-work question:
// "whether we can run our similarity computations on a compressed
// version of the index"). An index type must provide:
//   std::span<const SessionId> SessionsForItem(ItemId, std::vector<SessionId>* scratch) const;
//   std::span<const ItemId>    ItemsForSession(SessionId, std::vector<ItemId>* scratch) const;
//   Timestamp    SessionTimestamp(SessionId) const;
//   const float* IdfData() const;  // dense per-item idf
//   size_t       num_items() const;
//   size_t       num_sessions() const;
// and may additionally provide cache hints, detected with `requires`:
//   void PrefetchPostings(ItemId) const;   // issued one query item ahead
//   void PrefetchItems(SessionId) const;   // issued four neighbours ahead
//
// Session ids must ascend with session end time (the id ≡ recency
// invariant, DESIGN.md §11): "most recent" is "largest id", so candidate
// slots, the recency heap and the neighbour keys carry no timestamps.
// Posting lists are strictly descending in id. The scoring pass is one
// scalar loop, internal::AccumulateItemScores (DESIGN.md §11).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/dary_heap.h"
#include "common/types.h"
#include "core/recommender.h"
#include "core/session_index.h"
#include "core/weighting.h"

namespace serenade {

/// Hyperparameters and variant switches for the VS-kNN family.
struct KnnConfig {
  /// Sample size m: number of most recent candidate sessions considered
  /// (bounds both the per-item postings scanned and the candidate set).
  size_t m = 500;
  /// Number of nearest neighbour sessions k (k <= m).
  size_t k = 100;
  /// Evolving sessions are truncated to their most recent items before
  /// matching (Section 3: "the number of items in the evolving session,
  /// which we cap at a maximum value"). 10 aligns with lambda's horizon.
  size_t max_session_length = 10;
  DecayType decay = DecayType::kLinear;
  MatchWeightType match_weight = MatchWeightType::kStepsFromEnd;
  IdfWeighting idf = IdfWeighting::kLog;
  /// When true, recommendations never repeat items of the evolving session.
  bool exclude_session_items = false;
  /// Algorithm 1 scales VS-kNN item scores by 1/|s| (session-length
  /// normalisation). The factor is a positive per-query constant, so
  /// ranks never change; switching it off makes VS-kNN scores
  /// bit-comparable with VMIS-kNN, which the differential fuzzer relies
  /// on. VMIS-kNN ignores this flag.
  bool vs_length_norm = true;

  // --- variant switches (Figure 3(a) bottom / ablations) ---
  /// Early stopping on sorted per-item postings (Section 3).
  bool early_stopping = true;
  /// Heap arity: 8 = octonary (paper default), 2 = binary (no-opt), 4 for
  /// the ablation sweep.
  size_t heap_arity = 8;
};

/// A neighbour session with its similarity score.
struct Neighbor {
  SessionId session = kInvalidSession;
  float score = 0.0f;
  Timestamp timestamp = 0;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// The paper's "VMIS-kNN-no-opt" variant: binary heaps, no early stopping.
KnnConfig NoOptConfig(KnnConfig config);

/// Largest supported KnnConfig::max_session_length for VMIS-kNN: a
/// candidate's 1-based match position is stored in the low
/// kMatchPositionBits of its slot's stamp word (internal::SessionSlot).
inline constexpr size_t kMatchPositionBits = 8;
inline constexpr size_t kMaxVmisSessionLength =
    (size_t{1} << kMatchPositionBits) - 1;

namespace internal {

// Ordering for the bounded top-k neighbour heap: a neighbour is "better"
// when its score is higher, ties broken by recency (Algorithm 2, line 38),
// then session id (total order for deterministic results).
struct NeighborLess {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    if (a.score != b.score) return a.score < b.score;
    if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
    return a.session < b.session;
  }
};

// Ordering for the final item top-N: higher score wins, ties broken by
// smaller item id for determinism.
struct ScoredItemLess {
  bool operator()(const ScoredItem& a, const ScoredItem& b) const {
    return a.score < b.score || (a.score == b.score && a.item > b.item);
  }
};

// ---------------------------------------------------------------------------
// Packed-key orderings for the VMIS hot heaps (DESIGN.md §11). The
// multi-field comparators above are branchy and dominate the sift-down
// and final-sort costs; packing each tuple into one unsigned integer
// turns every comparison into a single machine compare while keeping the
// EXACT same total order. Score bits may stand in for score values
// because every achievable score is a finite non-negative float (sums
// and products of positive decay weights and non-negative idf factors —
// never -0.0, never NaN), and IEEE bit patterns of such floats order
// identically to their values; ScoreKeyBits still applies the general
// monotone sign-flip embedding for defence in depth.
// ---------------------------------------------------------------------------

/// Monotone embedding of a (non-NaN) float into unsigned 32-bit order.
inline uint32_t ScoreKeyBits(float score) {
  uint32_t bits;
  std::memcpy(&bits, &score, sizeof(bits));
  return bits ^
         (static_cast<uint32_t>(static_cast<int32_t>(bits) >> 31) |
          0x80000000u);
}

inline float ScoreFromKeyBits(uint32_t bits) {
  bits ^= (bits & 0x80000000u) ? 0x80000000u : 0xffffffffu;
  float score;
  std::memcpy(&score, &bits, sizeof(score));
  return score;
}

/// Neighbour key: (score bits << 32) | session. std::less = NeighborLess
/// on every index whose session ids ascend with end time (the id ≡
/// recency invariant, DESIGN.md §11): among equal scores the larger id
/// is the more recent session, or an equally recent one with the larger
/// id — exactly NeighborLess's (timestamp, session) tie-break.
using NeighborKey = uint64_t;
inline NeighborKey MakeNeighborKey(float score, SessionId session) {
  return (static_cast<NeighborKey>(ScoreKeyBits(score)) << 32) | session;
}

/// Item key: (score bits << 32) | ~item. std::less = ScoredItemLess
/// (score ties are won by the SMALLER item id, hence the complement).
using ItemKey = uint64_t;
inline ItemKey MakeItemKey(float score, ItemId item) {
  return (static_cast<ItemKey>(ScoreKeyBits(score)) << 32) |
         static_cast<uint32_t>(~item);
}
inline ScoredItem ScoredItemFromKey(ItemKey key) {
  return ScoredItem{~static_cast<ItemId>(static_cast<uint32_t>(key)),
                    ScoreFromKeyBits(static_cast<uint32_t>(key >> 32))};
}

/// Per-session candidate state of one query, 8 bytes. `stamp` is
/// (query epoch << kMatchPositionBits) | match position, where the match
/// position is the 1-based position of the most recent evolving-session
/// item whose postings admitted the candidate. A slot is live iff its
/// stamp is at least the current epoch's base (epoch <<
/// kMatchPositionBits); eviction writes 0.
struct SessionSlot {
  uint32_t stamp = 0;
  float score = 0.0f;
};
static_assert(sizeof(SessionSlot) == 8);

/// Per-item score of one query's scoring pass, 8 bytes, so a touch costs
/// one cache line. A slot is live iff its stamp equals the query epoch.
struct ItemScoreSlot {
  uint32_t stamp = 0;
  float score = 0.0f;
};
static_assert(sizeof(ItemScoreSlot) == 8);

/// The scoring pass over one neighbour session's items: adds
/// weight * idf factor (1, idf[item] or 1 + idf[item] per `idf_mode`) to
/// each item's slot, zeroing and stamping a slot on its first touch of
/// the epoch and appending that item to `touched_items`. Every item must
/// index into `slots` and `idf`. Defined out of line in vmis_knn.cc:
/// inlined into RecommendNext it measured about 5% slower end to end.
void AccumulateItemScores(const ItemId* items, size_t count, float weight,
                          IdfWeighting idf_mode, const float* idf,
                          uint32_t epoch, ItemScoreSlot* slots,
                          std::vector<ItemId>* touched_items);

}  // namespace internal

/// VMIS-kNN recommender over an index representation `Index`. Shares an
/// immutable index (thread-safe for concurrent reads); each VmisKnnT
/// instance holds per-query scratch buffers and must therefore be used by
/// one thread at a time — create one instance per serving worker.
template <typename Index>
class VmisKnnT : public Recommender {
 public:
  /// `index` must outlive the recommender. config.m must not exceed the
  /// index's max_sessions_per_item (postings beyond it were not retained).
  /// Throws std::invalid_argument when config.max_session_length exceeds
  /// kMaxVmisSessionLength.
  VmisKnnT(const Index* index, KnnConfig config)
      : index_(index), config_(config) {
    assert(index_ != nullptr);
    assert(config_.m > 0 && config_.k > 0);
    assert(config_.k <= config_.m);
    assert(config_.heap_arity == 2 || config_.heap_arity == 4 ||
           config_.heap_arity == 8);
    if (config_.max_session_length > kMaxVmisSessionLength) {
      throw std::invalid_argument(
          "VMIS-kNN max_session_length " +
          std::to_string(config_.max_session_length) + " exceeds " +
          std::to_string(kMaxVmisSessionLength));
    }
  }

  std::string Name() const override {
    if (!config_.early_stopping && config_.heap_arity == 2) {
      return "vmis-knn-no-opt";
    }
    return "vmis-knn";
  }

  /// The neighbour computation of Algorithm 2 (exposed for tests and the
  /// index microbenchmark, which measures exactly this function).
  /// Returns up to k neighbours in descending (score, timestamp) order.
  std::vector<Neighbor> NeighborSessions(const EvolvingSession& session) {
    Truncate(session);
    std::vector<Neighbor> neighbors;
    if (truncated_.empty()) return neighbors;
    BumpEpoch();  // one epoch per query; RecommendNext reuses it

    if (config_.early_stopping) {
      switch (config_.heap_arity) {
        case 2:
          NeighborSessionsImpl<2, true>(truncated_, &neighbors);
          break;
        case 4:
          NeighborSessionsImpl<4, true>(truncated_, &neighbors);
          break;
        default:
          NeighborSessionsImpl<8, true>(truncated_, &neighbors);
          break;
      }
    } else {
      switch (config_.heap_arity) {
        case 2:
          NeighborSessionsImpl<2, false>(truncated_, &neighbors);
          break;
        case 4:
          NeighborSessionsImpl<4, false>(truncated_, &neighbors);
          break;
        default:
          NeighborSessionsImpl<8, false>(truncated_, &neighbors);
          break;
      }
    }
    return neighbors;
  }

  std::vector<ScoredItem> RecommendNext(const EvolvingSession& session,
                                        size_t how_many) override {
    std::vector<ScoredItem> result;
    if (how_many == 0) return result;
    const std::vector<Neighbor> neighbors = NeighborSessions(session);
    if (neighbors.empty()) return result;

    const size_t len = truncated_.size();
    if (config_.exclude_session_items) {
      // Items absent from the index are never touched, so they need no
      // stamp.
      for (const ItemId item : truncated_) {
        if (item < query_item_stamps_.size()) query_item_stamps_[item] = epoch_;
      }
    }

    // The scoring pass touches every item of every neighbour session —
    // the hottest loop of the whole query. Epoch-stamped dense slot
    // arrays replace the hash maps here (see BumpEpoch, called by
    // NeighborSessions above): a lookup is one indexed load plus a stamp
    // compare, and "clearing" between queries is a single epoch
    // increment. Each neighbour's max(omega(s) ⊙ n) position is already
    // in its candidate slot, recorded at first insert.
    const uint32_t stamp_base = StampBase();
    touched_items_.clear();
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if constexpr (requires { index_->PrefetchItems(SessionId{}); }) {
        if (i + kItemPrefetchDistance < neighbors.size()) {
          index_->PrefetchItems(neighbors[i + kItemPrefetchDistance].session);
        }
      }
      const Neighbor& neighbor = neighbors[i];
      const uint32_t match_position =
          session_slots_[neighbor.session].stamp - stamp_base;
      const float weight =
          static_cast<float>(
              MatchWeight(config_.match_weight, match_position, len)) *
          neighbor.score;
      if (weight <= 0.0f) continue;

      const std::span<const ItemId> neighbor_items =
          index_->ItemsForSession(neighbor.session, &items_scratch_);
      internal::AccumulateItemScores(
          neighbor_items.data(), neighbor_items.size(), weight, config_.idf,
          index_->IdfData(), epoch_, item_score_slots_.data(),
          &touched_items_);
    }

    // Final top-n over the touched items. Offer keeps an item only if it
    // beats the weakest kept one under ScoredItemLess (higher score, ties
    // won by the smaller item id), so no prefilter is needed.
    BoundedTopK<internal::ItemKey, 8> top_n(how_many);
    for (const ItemId item : touched_items_) {
      if (config_.exclude_session_items &&
          query_item_stamps_[item] == epoch_) {
        continue;
      }
      top_n.Offer(
          internal::MakeItemKey(item_score_slots_[item].score, item));
    }
    const std::vector<internal::ItemKey> sorted_keys =
        top_n.TakeSortedDescending();
    result.reserve(sorted_keys.size());
    for (const internal::ItemKey key : sorted_keys) {
      result.push_back(internal::ScoredItemFromKey(key));
    }
    return result;
  }

  const KnnConfig& config() const { return config_; }

 private:
  // Slots of the posting this many entries ahead are pulled into cache
  // while the current one is decided; insert-heavy scans miss on most.
  static constexpr size_t kSlotPrefetchDistance = 4;
  // Neighbour item lists are random reads into the session CSR.
  static constexpr size_t kItemPrefetchDistance = 4;
  // Epochs occupy the stamp bits above the match position.
  static constexpr uint32_t kMaxEpoch =
      (uint32_t{1} << (32 - kMatchPositionBits)) - 1;

  template <size_t Arity, bool EarlyStop>
  void NeighborSessionsImpl(const std::vector<ItemId>& items,
                            std::vector<Neighbor>* neighbors) {
    const size_t m = config_.m;
    const size_t len = items.size();
    const uint32_t stamp_base = StampBase();

    // Candidate state lives in the epoch-stamped dense slot array
    // (indexed by session id): membership is `stamp >= stamp_base`,
    // eviction stamps 0, and touched_sessions_ remembers which ids to
    // visit in the top-k loop. A session is touched at most once: once
    // evicted it is older than every later candidate set's oldest
    // member, so it can never be readmitted.
    //
    // Session ids ascend with end time, so the recency heap b_t holds
    // bare ids and its root — the smallest id — is the oldest candidate.
    // The heap exists to answer that one question, which is only asked
    // once the candidate set is full. So it is not maintained
    // incrementally: the moment `live` reaches m, the touched ids (no
    // eviction has happened yet, so they are exactly the live set) are
    // copied and Floyd-heapified once; queries whose candidate set never
    // fills skip the ordering work entirely.
    touched_sessions_.clear();
    size_t live = 0;
    bool heap_built = false;
    DaryHeap<SessionId, Arity> recency_heap;
    const auto build_heap = [&] {
      recency_ids_.assign(touched_sessions_.begin(), touched_sessions_.end());
      recency_heap.Assign(std::move(recency_ids_));
      recency_heap.Heapify();
      heap_built = true;
    };

    // Item intersection loop: most recent items first (reverse insertion
    // order). Duplicate items are only processed at their most recent
    // (highest-decay) position.
    for (size_t reverse = 0; reverse < len; ++reverse) {
      const size_t position = len - 1 - reverse;  // 0-based
      const ItemId item = items[position];

      // Dedup (hashset d of the paper): with capped session lengths a
      // linear scan over the already-processed suffix beats hashing.
      bool duplicate = false;
      for (size_t later = position + 1; later < len; ++later) {
        if (items[later] == item) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;

      // Hint the next query item's posting list into cache while this
      // item's list is being scanned.
      if constexpr (requires { index_->PrefetchPostings(item); }) {
        if (position > 0) index_->PrefetchPostings(items[position - 1]);
      }

      const std::span<const SessionId> postings =
          index_->SessionsForItem(item, &posting_scratch_);
      const SessionId* sessions = postings.data();
      const float decay = static_cast<float>(
          DecayWeight(config_.decay, position + 1, len));  // pi_i
      // The match position recorded at first insert. Exact: a final
      // candidate lies in the truncated posting list of EVERY query item
      // it contains (otherwise m newer sessions containing that item
      // would have displaced it), and items are visited most recent
      // first — so its first insert happens at its most recent shared
      // item, max(omega(s) ⊙ n).
      const uint32_t stamp = stamp_base | static_cast<uint32_t>(position + 1);
      const size_t limit =
          std::min(postings.size(), m);  // index may retain more than query m

      if (live == 0) {
        // First non-empty posting list of the query: every candidate is
        // new and limit <= m, so all are admitted — a straight-line
        // stamping loop with no membership checks.
        for (size_t i = 0; i < limit; ++i) {
          session_slots_[sessions[i]] = internal::SessionSlot{stamp, decay};
        }
        touched_sessions_.assign(sessions, sessions + limit);
        live = limit;
        if (live == m) build_heap();
        continue;
      }

      for (size_t idx = 0; idx < limit; ++idx) {
        if (idx + kSlotPrefetchDistance < limit) {
          __builtin_prefetch(
              &session_slots_[sessions[idx + kSlotPrefetchDistance]], 1);
        }
        const SessionId candidate = sessions[idx];
        internal::SessionSlot& slot = session_slots_[candidate];
        if (slot.stamp >= stamp_base) {
          slot.score += decay;
          continue;
        }
        if (live < m) {
          slot = internal::SessionSlot{stamp, decay};
          touched_sessions_.push_back(candidate);
          if (++live == m) build_heap();
          continue;
        }
        const SessionId oldest = recency_heap.Top();
        if (candidate > oldest) {
          session_slots_[oldest].stamp = 0;  // evict
          slot = internal::SessionSlot{stamp, decay};
          touched_sessions_.push_back(candidate);
          recency_heap.ReplaceTop(candidate);
        } else if (EarlyStop) {
          // Postings descend in id, i.e. in recency: every remaining
          // session is older than the current oldest candidate, so none
          // is a member and none can displace it (Algorithm 2, line 32).
          // Ids are a total order, so this is exact even when several
          // sessions share one end timestamp.
          break;
        }
      }
    }

    // Top-k similarity loop over the touched candidates (evicted ones
    // keep a dead stamp and are skipped). Packed keys make every
    // comparison one integer compare and unpack losslessly into the
    // result order NeighborLess defines; timestamps are looked up for the
    // <= k neighbours returned only.
    BoundedTopK<internal::NeighborKey, Arity> top_k(config_.k);
    for (const SessionId session : touched_sessions_) {
      const internal::SessionSlot slot = session_slots_[session];
      if (slot.stamp < stamp_base) continue;
      top_k.Offer(internal::MakeNeighborKey(slot.score, session));
    }
    const std::vector<internal::NeighborKey> sorted_keys =
        top_k.TakeSortedDescending();
    neighbors->reserve(sorted_keys.size());
    for (const internal::NeighborKey key : sorted_keys) {
      const auto session = static_cast<SessionId>(static_cast<uint32_t>(key));
      neighbors->push_back(
          Neighbor{session,
                   internal::ScoreFromKeyBits(static_cast<uint32_t>(key >> 32)),
                   index_->SessionTimestamp(session)});
    }

    // Reclaim the id buffer's capacity if the heap adopted it.
    if (heap_built) recency_ids_ = recency_heap.TakeElements();
  }

  /// Truncates the evolving session to the configured cap, most recent
  /// items kept; result goes to truncated_.
  void Truncate(const EvolvingSession& session) {
    truncated_.clear();
    const size_t start = session.size() > config_.max_session_length
                             ? session.size() - config_.max_session_length
                             : 0;
    truncated_.assign(session.begin() + static_cast<ptrdiff_t>(start),
                      session.end());
  }

  /// Smallest live session stamp of the current epoch.
  uint32_t StampBase() const { return epoch_ << kMatchPositionBits; }

  /// Grows the dense scoring slot arrays to the index's item and session
  /// universes and starts a new query epoch. Stamp 0 means "never
  /// touched" (or evicted), so epoch_ skips 0: when it outgrows the
  /// stamp bits the slots are reset and the epoch restarts at 1,
  /// preventing a stale stamp from ever aliasing a live one.
  void BumpEpoch() {
    const size_t num_items = index_->num_items();
    if (item_score_slots_.size() < num_items) {
      item_score_slots_.resize(num_items);
      query_item_stamps_.resize(num_items);
    }
    const size_t num_sessions = index_->num_sessions();
    if (session_slots_.size() < num_sessions) {
      session_slots_.resize(num_sessions);
    }
    if (++epoch_ > kMaxEpoch) {
      std::fill(item_score_slots_.begin(), item_score_slots_.end(),
                internal::ItemScoreSlot{});
      std::fill(query_item_stamps_.begin(), query_item_stamps_.end(), 0u);
      std::fill(session_slots_.begin(), session_slots_.end(),
                internal::SessionSlot{});
      epoch_ = 1;
    }
  }

  const Index* index_;
  KnnConfig config_;

  // Per-query scratch, reused across calls to avoid allocation churn.
  std::vector<ItemId> truncated_;
  std::vector<SessionId> posting_scratch_;
  std::vector<ItemId> items_scratch_;

  // Epoch-stamped dense scoring state (see BumpEpoch and SessionSlot):
  // an entry is live only when its stamp belongs to epoch_, so per-query
  // clearing is one increment instead of a hash-map clear. The price is
  // O(|I| + |H|) memory per recommender instance (12 bytes/item + 8
  // bytes/session), a deliberate serving-side trade against the paper's
  // purely m-bounded per-query state.
  std::vector<internal::SessionSlot> session_slots_;  // r + b_t membership
  std::vector<SessionId> touched_sessions_;
  std::vector<SessionId> recency_ids_;  // b_t storage, reused
  std::vector<internal::ItemScoreSlot> item_score_slots_;  // d
  std::vector<uint32_t> query_item_stamps_;  // evolving-session items
  std::vector<ItemId> touched_items_;
  uint32_t epoch_ = 0;
};

/// The production instantiation over the flat CSR index.
using VmisKnn = VmisKnnT<SessionIndex>;

}  // namespace serenade
