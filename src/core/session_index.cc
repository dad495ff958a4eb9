#include "core/session_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace serenade {

SessionIndex SessionIndex::Build(const Dataset& train,
                                 size_t max_sessions_per_item) {
  assert(max_sessions_per_item > 0);
  SessionIndex index;
  index.max_sessions_per_item_ = max_sessions_per_item;

  const auto& sessions = train.sessions();
  const size_t num_items = train.num_items();
  const size_t num_sessions = sessions.size();

  // --- session -> timestamp and session -> distinct items (CSR) ---
  index.session_timestamps_.resize(num_sessions);
  index.session_offsets_.assign(num_sessions + 1, 0);

  std::vector<ItemId> scratch;
  std::vector<std::vector<ItemId>> distinct_items(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    assert(sessions[s].id == static_cast<SessionId>(s));
    assert(s == 0 || sessions[s - 1].end_time <= sessions[s].end_time);
    index.session_timestamps_[s] = sessions[s].end_time;
    scratch.assign(sessions[s].items.begin(), sessions[s].items.end());
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    distinct_items[s] = scratch;
  }
  for (size_t s = 0; s < num_sessions; ++s) {
    index.session_offsets_[s + 1] =
        index.session_offsets_[s] + distinct_items[s].size();
  }
  index.session_items_.resize(index.session_offsets_.back());
  for (size_t s = 0; s < num_sessions; ++s) {
    std::copy(distinct_items[s].begin(), distinct_items[s].end(),
              index.session_items_.begin() +
                  static_cast<ptrdiff_t>(index.session_offsets_[s]));
  }

  // --- item frequencies h_i over ALL sessions (for IDF) ---
  std::vector<uint32_t> item_frequency(num_items, 0);
  for (size_t s = 0; s < num_sessions; ++s) {
    for (ItemId item : distinct_items[s]) ++item_frequency[item];
  }
  index.item_idf_.resize(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    index.item_idf_[i] =
        item_frequency[i] == 0
            ? 0.0f
            : static_cast<float>(std::log(static_cast<double>(num_sessions) /
                                          item_frequency[i]));
  }
  index.item_frequencies_ = item_frequency;

  // --- M: item -> m most recent sessions, descending timestamp ---
  // Sessions are numbered in ascending end-time order, so iterating them
  // from the most recent down and appending to each item's list until it
  // is full yields exactly the m most recent sessions per item, already
  // in descending timestamp order, in O(total clicks).
  std::vector<uint32_t> retained(num_items, 0);
  for (size_t i = 0; i < num_items; ++i) {
    retained[i] = static_cast<uint32_t>(std::min<size_t>(
        item_frequency[i], max_sessions_per_item));
  }
  index.item_offsets_.assign(num_items + 1, 0);
  for (size_t i = 0; i < num_items; ++i) {
    index.item_offsets_[i + 1] = index.item_offsets_[i] + retained[i];
  }
  index.session_lists_.resize(index.item_offsets_.back());
  std::vector<uint32_t> filled(num_items, 0);
  for (size_t s = num_sessions; s-- > 0;) {
    for (ItemId item : distinct_items[s]) {
      if (filled[item] < retained[item]) {
        index.session_lists_[index.item_offsets_[item] + filled[item]] =
            static_cast<SessionId>(s);
        ++filled[item];
      }
    }
  }
  return index;
}

size_t SessionIndex::MemoryBytes() const {
  return item_offsets_.size() * sizeof(uint64_t) +
         session_lists_.size() * sizeof(SessionId) +
         session_timestamps_.size() * sizeof(Timestamp) +
         session_offsets_.size() * sizeof(uint64_t) +
         session_items_.size() * sizeof(ItemId) +
         item_idf_.size() * sizeof(float) +
         item_frequencies_.size() * sizeof(uint32_t);
}

SessionIndex SessionIndex::FromRaw(Raw raw) {
  SessionIndex index;
  index.max_sessions_per_item_ =
      static_cast<size_t>(raw.max_sessions_per_item);
  index.item_offsets_ = std::move(raw.item_offsets);
  index.session_lists_ = std::move(raw.session_lists);
  index.session_timestamps_ = std::move(raw.session_timestamps);
  index.session_offsets_ = std::move(raw.session_offsets);
  index.session_items_ = std::move(raw.session_items);
  index.item_idf_ = std::move(raw.item_idf);
  index.item_frequencies_ = std::move(raw.item_frequencies);
  return index;
}

SessionIndex::Raw SessionIndex::ToRaw() const {
  Raw raw;
  raw.max_sessions_per_item = max_sessions_per_item_;
  raw.item_offsets = item_offsets_;
  raw.session_lists = session_lists_;
  raw.session_timestamps = session_timestamps_;
  raw.session_offsets = session_offsets_;
  raw.session_items = session_items_;
  raw.item_idf = item_idf_;
  raw.item_frequencies = item_frequencies_;
  return raw;
}

}  // namespace serenade
