// In-memory compressed session similarity index — the paper's future-work
// direction ("we intend to explore whether we can run our similarity
// computations on a compressed version of the index", Section 7).
//
// Posting lists and per-session item lists are stored delta + varint
// coded in two contiguous byte arenas:
//   * postings per item are descending session ids (descending recency),
//     encoded as first id + positive gaps;
//   * items per session are ascending item ids, encoded likewise.
// Timestamps stay flat (O(1) lookup for the neighbours a query returns);
// they are however rebased to the minimum and stored as u32 deltas.
//
// The compressed index satisfies the same query concept as SessionIndex
// (see vmis_knn.h), decoding into caller-provided scratch buffers, so
// VmisKnnT<CompressedSessionIndex> runs Algorithm 2 unmodified. The
// ablation bench quantifies the memory/latency trade-off.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/session_index.h"

namespace serenade {

/// Immutable compressed index built from a flat SessionIndex.
class CompressedSessionIndex {
 public:
  CompressedSessionIndex() = default;

  /// Compresses an existing index (the flat index can be discarded after).
  static CompressedSessionIndex FromIndex(const SessionIndex& index);

  size_t num_sessions() const { return timestamp_deltas_.size(); }
  size_t num_items() const {
    return item_offsets_.empty() ? 0 : item_offsets_.size() - 1;
  }
  size_t max_sessions_per_item() const { return max_sessions_per_item_; }

  /// Decodes the posting list of `item` into `scratch` (most recent
  /// session first) and returns a view of it.
  std::span<const SessionId> SessionsForItem(
      ItemId item, std::vector<SessionId>* scratch) const;

  /// Dense per-item IDF array for the scoring pass.
  const float* IdfData() const { return item_idf_.data(); }

  /// Decodes the distinct-item list of `session` into `scratch`.
  std::span<const ItemId> ItemsForSession(SessionId session,
                                          std::vector<ItemId>* scratch) const;

  Timestamp SessionTimestamp(SessionId session) const {
    return base_timestamp_ + timestamp_deltas_[session];
  }

  double Idf(ItemId item) const {
    return item < item_idf_.size() ? item_idf_[item] : 0.0;
  }

  /// Resident bytes (compare with SessionIndex::MemoryBytes()).
  size_t MemoryBytes() const;

 private:
  size_t max_sessions_per_item_ = 0;
  Timestamp base_timestamp_ = 0;

  std::vector<uint64_t> item_offsets_;     // into postings_arena_
  std::vector<uint8_t> postings_arena_;    // delta-varint descending ids
  std::vector<uint64_t> session_offsets_;  // into items_arena_
  std::vector<uint8_t> items_arena_;       // delta-varint ascending ids
  std::vector<uint32_t> timestamp_deltas_;
  std::vector<float> item_idf_;
};

}  // namespace serenade
