#include "core/compressed_index.h"

#include <cassert>

#include "core/vmis_knn.h"

namespace serenade {

namespace {

void PutVarint(std::vector<uint8_t>* arena, uint64_t value) {
  while (value >= 0x80) {
    arena->push_back(static_cast<uint8_t>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  arena->push_back(static_cast<uint8_t>(value));
}

// Decodes one varint; advances cursor. The arenas are trusted (built in
// process), so no bounds diagnostics beyond the debug assert.
uint64_t GetVarint(const uint8_t** cursor) {
  uint64_t result = 0;
  int shift = 0;
  while (true) {
    const uint8_t byte = **cursor;
    ++*cursor;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return result;
    shift += 7;
  }
}

}  // namespace

CompressedSessionIndex CompressedSessionIndex::FromIndex(
    const SessionIndex& index) {
  CompressedSessionIndex compressed;
  compressed.max_sessions_per_item_ = index.max_sessions_per_item();

  const size_t num_items = index.num_items();
  const size_t num_sessions = index.num_sessions();

  // Postings: descending session ids -> first id, then positive gaps.
  compressed.item_offsets_.reserve(num_items + 1);
  compressed.item_offsets_.push_back(0);
  for (ItemId item = 0; item < num_items; ++item) {
    const auto postings = index.SessionsForItem(item);
    PutVarint(&compressed.postings_arena_, postings.size());
    SessionId previous = 0;
    for (size_t i = 0; i < postings.size(); ++i) {
      if (i == 0) {
        PutVarint(&compressed.postings_arena_, postings[0]);
      } else {
        assert(previous > postings[i]);
        PutVarint(&compressed.postings_arena_, previous - postings[i]);
      }
      previous = postings[i];
    }
    compressed.item_offsets_.push_back(compressed.postings_arena_.size());
  }

  // Session items: ascending item ids -> first id, then positive gaps.
  compressed.session_offsets_.reserve(num_sessions + 1);
  compressed.session_offsets_.push_back(0);
  for (SessionId session = 0; session < num_sessions; ++session) {
    const auto items = index.ItemsForSession(session);
    PutVarint(&compressed.items_arena_, items.size());
    ItemId previous = 0;
    for (size_t i = 0; i < items.size(); ++i) {
      if (i == 0) {
        PutVarint(&compressed.items_arena_, items[0]);
      } else {
        assert(items[i] > previous);
        PutVarint(&compressed.items_arena_, items[i] - previous);
      }
      previous = items[i];
    }
    compressed.session_offsets_.push_back(compressed.items_arena_.size());
  }

  // Timestamps rebased to the minimum; u32 deltas cover ~136 years.
  Timestamp base = num_sessions == 0 ? 0 : ~Timestamp{0};
  for (SessionId s = 0; s < num_sessions; ++s) {
    base = std::min(base, index.SessionTimestamp(s));
  }
  compressed.base_timestamp_ = num_sessions == 0 ? 0 : base;
  compressed.timestamp_deltas_.resize(num_sessions);
  for (SessionId s = 0; s < num_sessions; ++s) {
    const Timestamp delta = index.SessionTimestamp(s) - compressed.base_timestamp_;
    assert(delta <= ~uint32_t{0});
    compressed.timestamp_deltas_[s] = static_cast<uint32_t>(delta);
  }

  compressed.item_idf_.resize(num_items);
  for (ItemId item = 0; item < num_items; ++item) {
    compressed.item_idf_[item] = static_cast<float>(index.Idf(item));
  }
  return compressed;
}

std::span<const SessionId> CompressedSessionIndex::SessionsForItem(
    ItemId item, std::vector<SessionId>* scratch) const {
  scratch->clear();
  if (item >= num_items()) return {};
  const uint8_t* cursor = postings_arena_.data() + item_offsets_[item];
  const uint64_t count = GetVarint(&cursor);
  scratch->reserve(count);
  SessionId current = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t value = GetVarint(&cursor);
    current = i == 0 ? static_cast<SessionId>(value)
                     : current - static_cast<SessionId>(value);
    scratch->push_back(current);
  }
  return {scratch->data(), scratch->size()};
}

std::span<const ItemId> CompressedSessionIndex::ItemsForSession(
    SessionId session, std::vector<ItemId>* scratch) const {
  scratch->clear();
  if (session >= num_sessions()) return {};
  const uint8_t* cursor = items_arena_.data() + session_offsets_[session];
  const uint64_t count = GetVarint(&cursor);
  scratch->reserve(count);
  ItemId current = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t value = GetVarint(&cursor);
    current = i == 0 ? static_cast<ItemId>(value)
                     : current + static_cast<ItemId>(value);
    scratch->push_back(current);
  }
  return {scratch->data(), scratch->size()};
}

size_t CompressedSessionIndex::MemoryBytes() const {
  return item_offsets_.size() * sizeof(uint64_t) + postings_arena_.size() +
         session_offsets_.size() * sizeof(uint64_t) + items_arena_.size() +
         timestamp_deltas_.size() * sizeof(uint32_t) +
         item_idf_.size() * sizeof(float);
}

// Anchor the compressed query-engine instantiation here.
template class VmisKnnT<CompressedSessionIndex>;

}  // namespace serenade
