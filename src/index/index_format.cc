#include "index/index_format.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/crc32.h"

namespace serenade {

namespace {

constexpr char kMagic[8] = {'S', 'R', 'N', 'I', 'D', 'X', '1', '\0'};
constexpr uint32_t kVersion = 2;
// Version 1 lacked the item_frequency section; readers still accept it.
constexpr size_t kNumSectionsV1 = 6;
constexpr size_t kNumSectionsV2 = 7;

constexpr char kDeltaMagic[8] = {'S', 'R', 'N', 'D', 'L', 'T', '1', '\0'};
constexpr uint32_t kDeltaVersion = 1;

// --- varint primitives -----------------------------------------------------

void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

bool GetVarint(const char** cursor, const char* end, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  while (*cursor < end && shift <= 63) {
    const uint8_t byte = static_cast<uint8_t>(**cursor);
    ++*cursor;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

void PutFixed32(std::string* out, uint32_t value) {
  char buf[4];
  std::memcpy(buf, &value, 4);
  out->append(buf, 4);
}

void PutFixed64(std::string* out, uint64_t value) {
  char buf[8];
  std::memcpy(buf, &value, 8);
  out->append(buf, 8);
}

// --- section encoders ------------------------------------------------------

template <typename T>
std::string EncodeDelta(const std::vector<T>& values) {
  std::string payload;
  PutVarint(&payload, values.size());
  uint64_t previous = 0;
  for (T v : values) {
    PutVarint(&payload, static_cast<uint64_t>(v) - previous);
    previous = static_cast<uint64_t>(v);
  }
  return payload;
}

template <typename T>
std::string EncodePlain(const std::vector<T>& values) {
  std::string payload;
  PutVarint(&payload, values.size());
  for (T v : values) PutVarint(&payload, static_cast<uint64_t>(v));
  return payload;
}

std::string EncodeTimestamps(const std::vector<Timestamp>& values) {
  std::string payload;
  PutVarint(&payload, values.size());
  Timestamp min_value = ~Timestamp{0};
  for (Timestamp v : values) min_value = std::min(min_value, v);
  if (values.empty()) min_value = 0;
  PutVarint(&payload, min_value);
  for (Timestamp v : values) PutVarint(&payload, v - min_value);
  return payload;
}

std::string EncodeFloats(const std::vector<float>& values) {
  std::string payload;
  PutVarint(&payload, values.size());
  payload.append(reinterpret_cast<const char*>(values.data()),
                 values.size() * sizeof(float));
  return payload;
}

// --- section decoders ------------------------------------------------------

template <typename T>
Status DecodeDelta(const char* data, size_t size, std::vector<T>* out) {
  const char* cursor = data;
  const char* end = data + size;
  uint64_t count = 0;
  if (!GetVarint(&cursor, end, &count)) return Status::Corruption("count");
  out->clear();
  out->reserve(count);
  uint64_t previous = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t delta = 0;
    if (!GetVarint(&cursor, end, &delta)) return Status::Corruption("delta");
    previous += delta;
    out->push_back(static_cast<T>(previous));
  }
  return Status::Ok();
}

template <typename T>
Status DecodePlain(const char* data, size_t size, std::vector<T>* out) {
  const char* cursor = data;
  const char* end = data + size;
  uint64_t count = 0;
  if (!GetVarint(&cursor, end, &count)) return Status::Corruption("count");
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t value = 0;
    if (!GetVarint(&cursor, end, &value)) return Status::Corruption("value");
    out->push_back(static_cast<T>(value));
  }
  return Status::Ok();
}

Status DecodeTimestamps(const char* data, size_t size,
                        std::vector<Timestamp>* out) {
  const char* cursor = data;
  const char* end = data + size;
  uint64_t count = 0, min_value = 0;
  if (!GetVarint(&cursor, end, &count) || !GetVarint(&cursor, end, &min_value)) {
    return Status::Corruption("timestamp header");
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t delta = 0;
    if (!GetVarint(&cursor, end, &delta)) {
      return Status::Corruption("timestamp delta");
    }
    out->push_back(static_cast<Timestamp>(min_value + delta));
  }
  return Status::Ok();
}

Status DecodeFloats(const char* data, size_t size, std::vector<float>* out) {
  const char* cursor = data;
  const char* end = data + size;
  uint64_t count = 0;
  if (!GetVarint(&cursor, end, &count)) return Status::Corruption("count");
  if (static_cast<uint64_t>(end - cursor) < count * sizeof(float)) {
    return Status::Corruption("float payload truncated");
  }
  out->resize(count);
  if (count > 0) {  // memcpy with a null dst is UB even for zero bytes
    std::memcpy(out->data(), cursor, count * sizeof(float));
  }
  return Status::Ok();
}

void AppendSection(std::string* out, const std::string& payload) {
  PutFixed64(out, payload.size());
  out->append(payload);
  PutFixed32(out, Crc32(payload.data(), payload.size()));
}

Status ReadSection(const char** cursor, const char* end,
                   const char** payload, size_t* payload_size) {
  if (end - *cursor < 8) return Status::Corruption("section length");
  uint64_t size = 0;
  std::memcpy(&size, *cursor, 8);
  *cursor += 8;
  if (static_cast<uint64_t>(end - *cursor) < size + 4) {
    return Status::Corruption("section payload truncated");
  }
  *payload = *cursor;
  *payload_size = static_cast<size_t>(size);
  *cursor += size;
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, *cursor, 4);
  *cursor += 4;
  if (Crc32(*payload, *payload_size) != stored_crc) {
    return Status::Corruption("section CRC mismatch");
  }
  return Status::Ok();
}

}  // namespace

std::string SerializeIndex(const SessionIndex& index) {
  const SessionIndex::Raw raw = index.ToRaw();
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutFixed32(&out, kVersion);
  PutFixed64(&out, raw.max_sessions_per_item);
  AppendSection(&out, EncodeDelta(raw.item_offsets));
  AppendSection(&out, EncodePlain(raw.session_lists));
  AppendSection(&out, EncodeTimestamps(raw.session_timestamps));
  AppendSection(&out, EncodeDelta(raw.session_offsets));
  AppendSection(&out, EncodePlain(raw.session_items));
  AppendSection(&out, EncodeFloats(raw.item_idf));
  AppendSection(&out, EncodePlain(raw.item_frequencies));
  return out;
}

StatusOr<SessionIndex> DeserializeIndex(const std::string& bytes) {
  const char* cursor = bytes.data();
  const char* end = bytes.data() + bytes.size();
  if (end - cursor < static_cast<ptrdiff_t>(sizeof(kMagic) + 4 + 8)) {
    return Status::Corruption("index file too short");
  }
  if (std::memcmp(cursor, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic");
  }
  cursor += sizeof(kMagic);
  uint32_t version = 0;
  std::memcpy(&version, cursor, 4);
  cursor += 4;
  if (version != 1 && version != kVersion) {
    return Status::Corruption("unsupported index version " +
                              std::to_string(version));
  }
  const size_t num_sections =
      version == 1 ? kNumSectionsV1 : kNumSectionsV2;
  SessionIndex::Raw raw;
  std::memcpy(&raw.max_sessions_per_item, cursor, 8);
  cursor += 8;

  const char* payloads[kNumSectionsV2];
  size_t payload_sizes[kNumSectionsV2];
  for (size_t i = 0; i < num_sections; ++i) {
    SERENADE_RETURN_IF_ERROR(
        ReadSection(&cursor, end, &payloads[i], &payload_sizes[i]));
  }

  SERENADE_RETURN_IF_ERROR(
      DecodeDelta(payloads[0], payload_sizes[0], &raw.item_offsets));
  SERENADE_RETURN_IF_ERROR(
      DecodePlain(payloads[1], payload_sizes[1], &raw.session_lists));
  SERENADE_RETURN_IF_ERROR(DecodeTimestamps(payloads[2], payload_sizes[2],
                                            &raw.session_timestamps));
  SERENADE_RETURN_IF_ERROR(
      DecodeDelta(payloads[3], payload_sizes[3], &raw.session_offsets));
  SERENADE_RETURN_IF_ERROR(
      DecodePlain(payloads[4], payload_sizes[4], &raw.session_items));
  SERENADE_RETURN_IF_ERROR(
      DecodeFloats(payloads[5], payload_sizes[5], &raw.item_idf));
  if (version >= 2) {
    SERENADE_RETURN_IF_ERROR(
        DecodePlain(payloads[6], payload_sizes[6], &raw.item_frequencies));
  }

  // Structural validation so a logically-corrupt (but CRC-clean) file
  // cannot crash the query path.
  if (raw.item_offsets.empty() || raw.session_offsets.empty()) {
    return Status::Corruption("missing offset arrays");
  }
  if (raw.item_offsets.back() != raw.session_lists.size()) {
    return Status::Corruption("item offsets inconsistent with postings");
  }
  if (raw.session_offsets.back() != raw.session_items.size()) {
    return Status::Corruption("session offsets inconsistent with items");
  }
  if (raw.session_offsets.size() != raw.session_timestamps.size() + 1) {
    return Status::Corruption("session count mismatch");
  }
  if (raw.item_offsets.size() != raw.item_idf.size() + 1) {
    return Status::Corruption("item count mismatch");
  }
  if (!raw.item_frequencies.empty() &&
      raw.item_frequencies.size() != raw.item_idf.size()) {
    return Status::Corruption("frequency count mismatch");
  }
  // The invariants the query engine relies on without re-checking them
  // per query (DESIGN.md §11): every stored id indexes a dense array,
  // session ids ascend with end time, and each posting list is a
  // strictly descending (i.e. most-recent-first) run of at most m ids.
  const auto monotone = [](const std::vector<uint64_t>& offsets) {
    if (offsets.front() != 0) return false;
    for (size_t i = 1; i < offsets.size(); ++i) {
      if (offsets[i] < offsets[i - 1]) return false;
    }
    return true;
  };
  if (!monotone(raw.item_offsets) || !monotone(raw.session_offsets)) {
    return Status::Corruption("offsets not monotone");
  }
  const size_t num_sessions = raw.session_timestamps.size();
  for (size_t s = 1; s < num_sessions; ++s) {
    if (raw.session_timestamps[s] < raw.session_timestamps[s - 1]) {
      return Status::Corruption("session timestamps decrease with session id");
    }
  }
  const size_t num_items = raw.item_idf.size();
  for (size_t s = 0; s < num_sessions; ++s) {
    const uint64_t begin = raw.session_offsets[s];
    for (uint64_t j = begin; j < raw.session_offsets[s + 1]; ++j) {
      if (raw.session_items[j] >= num_items) {
        return Status::Corruption("session item id out of range");
      }
      if (j > begin && raw.session_items[j] <= raw.session_items[j - 1]) {
        return Status::Corruption("session items not strictly ascending");
      }
    }
  }
  for (size_t i = 0; i < num_items; ++i) {
    const uint64_t begin = raw.item_offsets[i];
    const uint64_t end = raw.item_offsets[i + 1];
    if (end - begin > raw.max_sessions_per_item) {
      return Status::Corruption(
          "posting list longer than max_sessions_per_item");
    }
    for (uint64_t j = begin; j < end; ++j) {
      if (raw.session_lists[j] >= num_sessions) {
        return Status::Corruption("session id out of range");
      }
      if (j > begin && raw.session_lists[j] >= raw.session_lists[j - 1]) {
        return Status::Corruption("posting list not strictly descending");
      }
    }
  }
  return SessionIndex::FromRaw(std::move(raw));
}

Status WriteIndexFile(const std::string& path, const SessionIndex& index) {
  const std::string bytes = SerializeIndex(index);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IoError("cannot open " + path + " for writing");
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  file.flush();
  if (!file) return Status::IoError("write failure on " + path);
  return Status::Ok();
}

StatusOr<SessionIndex> ReadIndexFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (file.bad()) return Status::IoError("read failure on " + path);
  return DeserializeIndex(buffer.str());
}

// --- delta artifacts ---------------------------------------------------------

std::string SerializeDelta(const IndexDelta& delta) {
  std::string out;
  out.append(kDeltaMagic, sizeof(kDeltaMagic));
  PutFixed32(&out, kDeltaVersion);

  std::string lineage;
  PutVarint(&lineage, delta.base_version);
  PutVarint(&lineage, delta.base_crc32);
  PutVarint(&lineage, delta.delta_version);
  PutVarint(&lineage, delta.watermark_unix_ms);
  PutVarint(&lineage, delta.sessions.size());
  AppendSection(&out, lineage);

  std::string sessions;
  for (const DeltaSession& session : delta.sessions) {
    PutVarint(&sessions, session.end_time);
    PutVarint(&sessions, session.observed_unix_ms);
    PutVarint(&sessions, session.items.size());
    uint64_t previous = 0;
    for (ItemId item : session.items) {
      PutVarint(&sessions, static_cast<uint64_t>(item) - previous);
      previous = item;
    }
  }
  AppendSection(&out, sessions);
  return out;
}

StatusOr<IndexDelta> DeserializeDelta(const std::string& bytes) {
  const char* cursor = bytes.data();
  const char* end = bytes.data() + bytes.size();
  if (end - cursor < static_cast<ptrdiff_t>(sizeof(kDeltaMagic) + 4)) {
    return Status::Corruption("delta artifact too short");
  }
  if (std::memcmp(cursor, kDeltaMagic, sizeof(kDeltaMagic)) != 0) {
    return Status::Corruption("bad delta magic");
  }
  cursor += sizeof(kDeltaMagic);
  uint32_t version = 0;
  std::memcpy(&version, cursor, 4);
  cursor += 4;
  if (version != kDeltaVersion) {
    return Status::Corruption("unsupported delta version " +
                              std::to_string(version));
  }

  const char* lineage = nullptr;
  size_t lineage_size = 0;
  SERENADE_RETURN_IF_ERROR(ReadSection(&cursor, end, &lineage, &lineage_size));
  IndexDelta delta;
  uint64_t base_crc = 0, num_sessions = 0;
  {
    const char* c = lineage;
    const char* e = lineage + lineage_size;
    if (!GetVarint(&c, e, &delta.base_version) ||
        !GetVarint(&c, e, &base_crc) ||
        !GetVarint(&c, e, &delta.delta_version) ||
        !GetVarint(&c, e, &delta.watermark_unix_ms) ||
        !GetVarint(&c, e, &num_sessions)) {
      return Status::Corruption("delta lineage truncated");
    }
  }
  delta.base_crc32 = static_cast<uint32_t>(base_crc);
  if (delta.delta_version <= delta.base_version) {
    return Status::Corruption("delta version must exceed base version");
  }

  const char* payload = nullptr;
  size_t payload_size = 0;
  SERENADE_RETURN_IF_ERROR(ReadSection(&cursor, end, &payload, &payload_size));
  if (cursor != end) return Status::Corruption("trailing bytes after delta");

  const char* c = payload;
  const char* e = payload + payload_size;
  delta.sessions.reserve(num_sessions);
  Timestamp previous_end = 0;
  for (uint64_t s = 0; s < num_sessions; ++s) {
    DeltaSession session;
    uint64_t count = 0;
    if (!GetVarint(&c, e, &session.end_time) ||
        !GetVarint(&c, e, &session.observed_unix_ms) ||
        !GetVarint(&c, e, &count)) {
      return Status::Corruption("delta session header truncated");
    }
    if (count == 0) return Status::Corruption("empty delta session");
    if (s > 0 && session.end_time < previous_end) {
      return Status::Corruption("delta session end times regress");
    }
    previous_end = session.end_time;
    session.items.reserve(count);
    uint64_t previous_item = 0;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t gap = 0;
      if (!GetVarint(&c, e, &gap)) {
        return Status::Corruption("delta session items truncated");
      }
      // Gap coding doubles as the sorted-distinct check: after the first
      // item every gap must be >= 1.
      if (i > 0 && gap == 0) {
        return Status::Corruption("delta session items not strictly ascending");
      }
      previous_item += gap;
      session.items.push_back(static_cast<ItemId>(previous_item));
    }
    delta.sessions.push_back(std::move(session));
  }
  if (c != e) return Status::Corruption("trailing bytes in delta sessions");
  return delta;
}

Status WriteDeltaFile(const std::string& path, const IndexDelta& delta) {
  const std::string bytes = SerializeDelta(delta);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IoError("cannot open " + path + " for writing");
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  file.flush();
  if (!file) return Status::IoError("write failure on " + path);
  return Status::Ok();
}

StatusOr<IndexDelta> ReadDeltaFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (file.bad()) return Status::IoError("read failure on " + path);
  return DeserializeDelta(buffer.str());
}

StatusOr<SessionIndex> ApplyDeltaToIndex(const SessionIndex& base,
                                         const IndexDelta& delta) {
  if (!base.has_frequencies()) {
    return Status::InvalidArgument(
        "delta base lacks exact item frequencies (format-v1 artifact); "
        "rebuild the snapshot before streaming deltas");
  }
  const size_t base_sessions = base.num_sessions();
  const size_t base_items = base.num_items();
  const size_t m = base.max_sessions_per_item();
  if (m == 0) return Status::InvalidArgument("base index has m == 0");

  Timestamp base_max = 0;
  for (size_t s = 0; s < base_sessions; ++s) {
    base_max = std::max(base_max, base.SessionTimestamp(s));
  }

  size_t num_items = base_items;
  Timestamp previous_end = 0;
  for (size_t s = 0; s < delta.sessions.size(); ++s) {
    const DeltaSession& session = delta.sessions[s];
    if (session.items.empty()) {
      return Status::InvalidArgument("empty delta session");
    }
    if (base_sessions > 0 && session.end_time < base_max) {
      return Status::InvalidArgument(
          "delta session older than base index horizon");
    }
    if (s > 0 && session.end_time < previous_end) {
      return Status::InvalidArgument("delta session end times regress");
    }
    previous_end = session.end_time;
    for (size_t i = 0; i < session.items.size(); ++i) {
      if (i > 0 && session.items[i] <= session.items[i - 1]) {
        return Status::InvalidArgument(
            "delta session items not sorted distinct");
      }
      num_items = std::max<size_t>(num_items, session.items[i] + 1);
    }
  }

  const size_t num_delta = delta.sessions.size();
  const size_t num_sessions = base_sessions + num_delta;

  // Per-item delta postings, ascending session id (sessions iterate in id
  // order, so a plain append keeps them sorted).
  std::vector<uint32_t> delta_freq(num_items, 0);
  for (const DeltaSession& session : delta.sessions) {
    for (ItemId item : session.items) ++delta_freq[item];
  }
  std::vector<uint64_t> delta_offsets(num_items + 1, 0);
  for (size_t i = 0; i < num_items; ++i) {
    delta_offsets[i + 1] = delta_offsets[i] + delta_freq[i];
  }
  std::vector<SessionId> delta_postings(delta_offsets.back());
  {
    std::vector<uint64_t> fill = delta_offsets;
    for (size_t s = 0; s < num_delta; ++s) {
      for (ItemId item : delta.sessions[s].items) {
        delta_postings[fill[item]++] =
            static_cast<SessionId>(base_sessions + s);
      }
    }
  }

  SessionIndex::Raw raw;
  raw.max_sessions_per_item = m;

  // Merged frequencies, IDF, and truncated postings — exactly what a full
  // rebuild over base + delta sessions computes, so the merged artifact is
  // byte-identical to the rebuilt one.
  raw.item_frequencies.resize(num_items);
  raw.item_idf.resize(num_items);
  raw.item_offsets.assign(num_items + 1, 0);
  for (size_t i = 0; i < num_items; ++i) {
    const uint32_t freq =
        (i < base_items ? base.ItemFrequency(static_cast<ItemId>(i)) : 0) +
        delta_freq[i];
    raw.item_frequencies[i] = freq;
    raw.item_idf[i] =
        freq == 0 ? 0.0f
                  : static_cast<float>(std::log(
                        static_cast<double>(num_sessions) / freq));
    raw.item_offsets[i + 1] =
        raw.item_offsets[i] + std::min<size_t>(freq, m);
  }
  raw.session_lists.resize(raw.item_offsets.back());
  for (size_t i = 0; i < num_items; ++i) {
    const size_t cap = raw.item_offsets[i + 1] - raw.item_offsets[i];
    size_t out = raw.item_offsets[i];
    size_t taken = 0;
    // Delta sessions are the most recent: newest (highest id) first.
    for (size_t d = delta_offsets[i + 1]; d-- > delta_offsets[i];) {
      if (taken == cap) break;
      raw.session_lists[out++] = delta_postings[d];
      ++taken;
    }
    if (i < base_items) {
      const auto base_list = base.SessionsForItem(static_cast<ItemId>(i));
      for (SessionId s : base_list) {
        if (taken == cap) break;
        raw.session_lists[out++] = s;
        ++taken;
      }
    }
  }

  // Session side: base arrays plus the delta sessions appended.
  raw.session_timestamps.reserve(num_sessions);
  raw.session_offsets.reserve(num_sessions + 1);
  raw.session_offsets.push_back(0);
  for (size_t s = 0; s < base_sessions; ++s) {
    raw.session_timestamps.push_back(base.SessionTimestamp(s));
    const auto items = base.ItemsForSession(static_cast<SessionId>(s));
    raw.session_items.insert(raw.session_items.end(), items.begin(),
                             items.end());
    raw.session_offsets.push_back(raw.session_items.size());
  }
  for (const DeltaSession& session : delta.sessions) {
    raw.session_timestamps.push_back(session.end_time);
    raw.session_items.insert(raw.session_items.end(), session.items.begin(),
                             session.items.end());
    raw.session_offsets.push_back(raw.session_items.size());
  }

  return SessionIndex::FromRaw(std::move(raw));
}

}  // namespace serenade
