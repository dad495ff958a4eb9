// The VMIS-kNN session similarity index (M, t) from Section 3 of the
// paper, plus the per-session item lists needed by the scoring pass and
// the per-item IDF statistics.
//
// Layout: both the item -> recent-sessions map M and the session -> items
// map are stored CSR-style (one flat value array plus an offsets array),
// which keeps the whole index in a handful of contiguous allocations and
// makes replication to serving machines a straight memcpy/file load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "data/click_log.h"

namespace serenade {

/// Immutable session similarity index. Build offline (see also
/// index/index_builder.h for the parallel pipeline), replicate to every
/// serving machine, query concurrently without synchronisation.
///
/// Session ids ascend with session end time (timestamps never decrease
/// with id), so a larger id always means an equally or more recent
/// session — the id ≡ recency invariant VMIS-kNN keys its candidate state
/// by (DESIGN.md §11). Build requires it of its input; DeserializeIndex
/// and ApplyDeltaToIndex (index/index_format.h) reject artifacts and
/// deltas that would break it.
class SessionIndex {
 public:
  SessionIndex() = default;

  /// Builds the index from training sessions. For every item, keeps the
  /// `max_sessions_per_item` (the paper's m) most recent sessions that
  /// contain it, ordered by descending session timestamp.
  ///
  /// Requires dataset sessions in ascending end-time order with dense ids
  /// (as produced by Dataset::FromClicks).
  static SessionIndex Build(const Dataset& train,
                            size_t max_sessions_per_item);

  size_t num_sessions() const { return session_timestamps_.size(); }
  size_t num_items() const {
    return item_offsets_.empty() ? 0 : item_offsets_.size() - 1;
  }
  size_t max_sessions_per_item() const { return max_sessions_per_item_; }

  /// The m most recent historical sessions containing `item`, most recent
  /// first (the array m_i of the paper). Empty span for unknown items.
  std::span<const SessionId> SessionsForItem(ItemId item) const {
    if (item >= num_items()) return {};
    return {session_lists_.data() + item_offsets_[item],
            item_offsets_[item + 1] - item_offsets_[item]};
  }

  /// Scratch-taking overload of the query-engine index concept (see
  /// vmis_knn.h). The flat CSR layout needs no decode buffer.
  std::span<const SessionId> SessionsForItem(
      ItemId item, std::vector<SessionId>* /*scratch*/) const {
    return SessionsForItem(item);
  }

  /// Hints the first cache line of `item`'s posting list into cache —
  /// issued by the query loop one item ahead of use.
  void PrefetchPostings(ItemId item) const {
    if (item >= num_items()) return;
    __builtin_prefetch(session_lists_.data() + item_offsets_[item]);
  }

  /// Hints the first cache line of `session`'s item list into cache —
  /// issued by the scoring pass a few neighbours ahead of use.
  void PrefetchItems(SessionId session) const {
    __builtin_prefetch(session_items_.data() + session_offsets_[session]);
  }

  /// Dense per-item IDF array (num_items() floats) for the scoring
  /// pass. Entries equal static_cast<float>(Idf(item)).
  const float* IdfData() const { return item_idf_.data(); }

  /// Timestamp of a historical session (the array t of the paper).
  Timestamp SessionTimestamp(SessionId session) const {
    return session_timestamps_[session];
  }

  /// The distinct items of a historical session (for the scoring pass).
  std::span<const ItemId> ItemsForSession(SessionId session) const {
    return {session_items_.data() + session_offsets_[session],
            session_offsets_[session + 1] - session_offsets_[session]};
  }

  /// Scratch-taking overload (index concept); no decode needed.
  std::span<const ItemId> ItemsForSession(
      SessionId session, std::vector<ItemId>* /*scratch*/) const {
    return ItemsForSession(session);
  }

  /// log(|H| / h_i) where h_i counts *all* historical sessions containing
  /// the item (not just the m retained ones). 0 for unknown items.
  double Idf(ItemId item) const {
    return item < item_idf_.size() ? item_idf_[item] : 0.0;
  }

  /// h_i: the number of historical sessions containing `item` (exact, not
  /// capped at m). 0 for unknown items, and 0 for every item when the
  /// index was loaded from a format-v1 artifact (see has_frequencies()).
  uint32_t ItemFrequency(ItemId item) const {
    return item < item_frequencies_.size() ? item_frequencies_[item] : 0;
  }

  /// Whether exact per-item frequencies are available. Always true for
  /// freshly built indexes; false only for indexes deserialized from a
  /// format-v1 artifact, which did not persist the frequency section.
  /// Delta application (index/index_format.h) requires frequencies: IDF
  /// after a merge must be recomputed from exact counts to stay
  /// bit-identical with a full rebuild.
  bool has_frequencies() const {
    return num_items() == 0 || !item_frequencies_.empty();
  }

  /// Total number of (item, session) postings retained — the index size
  /// driver (space is O(|I| * m), Section 3).
  size_t num_postings() const { return session_lists_.size(); }

  /// Approximate resident memory of the index in bytes.
  size_t MemoryBytes() const;

  // --- Raw access for serialization (index/index_format.*). ---
  struct Raw {
    std::vector<uint64_t> item_offsets;
    std::vector<SessionId> session_lists;
    std::vector<Timestamp> session_timestamps;
    std::vector<uint64_t> session_offsets;
    std::vector<ItemId> session_items;
    std::vector<float> item_idf;
    /// Exact h_i counts (format v2+); empty for v1 artifacts.
    std::vector<uint32_t> item_frequencies;
    uint64_t max_sessions_per_item = 0;
  };

  /// Reconstructs an index from raw arrays (used by the deserializer).
  static SessionIndex FromRaw(Raw raw);

  /// Exposes the raw arrays (used by the serializer).
  Raw ToRaw() const;

 private:
  size_t max_sessions_per_item_ = 0;

  // M: item -> most recent sessions, CSR; each list strictly descending
  // in session id, i.e. in recency.
  std::vector<uint64_t> item_offsets_;
  std::vector<SessionId> session_lists_;

  // t: session -> timestamp.
  std::vector<Timestamp> session_timestamps_;

  // session -> distinct items, CSR.
  std::vector<uint64_t> session_offsets_;
  std::vector<ItemId> session_items_;

  // idf per item.
  std::vector<float> item_idf_;

  // exact per-item session frequency h_i (empty iff loaded from a v1
  // artifact; see has_frequencies()).
  std::vector<uint32_t> item_frequencies_;
};

}  // namespace serenade
