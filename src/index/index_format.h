// Compact binary on-disk formats for the session similarity index and
// for index *deltas* — the stand-in for the paper's Avro index files
// written by the Spark job and ingested by the serving component, plus
// the streaming-freshness delta artifacts the index-builder role
// publishes between nightly rebuilds (ROADMAP: "Streaming index
// freshness pipeline"). Both formats are compressed with varint/delta
// coding (the paper: "a compressed representation of our index") and
// every section carries a CRC-32 so a corrupted replica is rejected at
// load time rather than serving garbage.
//
// Index layout (version 2):
//   header:  magic "SRNIDX1\0" | u32 version | u64 m | sections
//   sections (each varint-coded payload followed by u32 CRC of payload):
//     1 item_offsets        (delta + varint; monotone non-decreasing)
//     2 session_lists       (varint)
//     3 session_timestamps  (delta vs min + varint, preceded by min)
//     4 session_offsets     (delta + varint)
//     5 session_items       (varint)
//     6 item_idf            (raw float32 little-endian)
//     7 item_frequencies    (varint; exact h_i counts, v2 only)
// Version-1 artifacts (six sections, no frequencies) still load; their
// indexes report has_frequencies() == false and cannot serve as a delta
// base (IDF after a merge must be recomputed from exact counts).
//
// Delta layout (version 1):
//   header:  magic "SRNDLT1\0" | u32 version | sections
//   sections:
//     1 lineage   (varint: base_version, base_crc32, delta_version,
//                  watermark_unix_ms, num_sessions)
//     2 sessions  (per session: end_time, observed_unix_ms, item count,
//                  items delta-coded ascending)
// A delta is *cumulative*: it carries every session the builder sealed
// since the base snapshot it names, so a pod can skip intermediate delta
// versions and always apply the newest one directly over its pinned
// base. Serialization is deterministic — the same sealed sessions always
// produce byte-identical artifacts (the replay-determinism contract the
// tests pin down).
#pragma once

#include <string>

#include "common/status.h"
#include "core/session_index.h"

namespace serenade {

/// Serializes the index to `path`, replacing any existing file.
Status WriteIndexFile(const std::string& path, const SessionIndex& index);

/// Loads an index previously written by WriteIndexFile. Returns
/// kCorruption for truncated files, bad magic/version or CRC mismatches,
/// and for CRC-clean artifacts that break the query engine's invariants:
/// offsets that are not monotone, ids out of range, session items not
/// strictly ascending, session timestamps that decrease with id, and
/// posting lists that are not strictly descending in id or are longer
/// than max_sessions_per_item.
StatusOr<SessionIndex> ReadIndexFile(const std::string& path);

/// In-memory variants (used by tests and by the replication path of the
/// serving layer, which ships index bytes to each serving machine).
std::string SerializeIndex(const SessionIndex& index);
StatusOr<SessionIndex> DeserializeIndex(const std::string& bytes);

// --- delta artifacts ---------------------------------------------------------

/// One session sealed by the index builder since the base snapshot.
struct DeltaSession {
  /// Distinct items, ascending (the builder deduplicates + sorts; the
  /// deserializer rejects anything else).
  std::vector<ItemId> items;
  /// Index-time end timestamp. Must be >= the base index's maximum
  /// timestamp and non-decreasing across the delta's sessions, so delta
  /// sessions are by construction the most recent — the invariant the
  /// overlay merge and VMIS-kNN's early stopping rely on.
  Timestamp end_time = 0;
  /// Wall clock (ms since epoch) when the session's last click was
  /// observed on a pod — the freshness-SLO anchor: click -> servable
  /// latency is measured against this stamp.
  uint64_t observed_unix_ms = 0;
};

/// A cumulative, versioned index delta: every session sealed since
/// `base_version`, plus the lineage needed to refuse application over
/// the wrong base.
struct IndexDelta {
  uint64_t base_version = 0;   ///< snapshot version this delta layers over
  uint32_t base_crc32 = 0;     ///< base artifact CRC (0 = in-memory base)
  uint64_t delta_version = 0;  ///< monotone per builder; > base_version
  /// Newest observed_unix_ms covered by this delta (0 = empty delta).
  /// Pods export now - watermark as serenade_index_freshness_seconds.
  uint64_t watermark_unix_ms = 0;
  std::vector<DeltaSession> sessions;  ///< ascending end_time
};

/// Deterministic serialization: equal deltas yield byte-identical
/// artifacts.
std::string SerializeDelta(const IndexDelta& delta);

/// Validates magic, section CRCs, lineage sanity (delta_version >
/// base_version), and per-session structure (sorted distinct items,
/// non-decreasing end times). Returns kCorruption on any violation.
StatusOr<IndexDelta> DeserializeDelta(const std::string& bytes);

Status WriteDeltaFile(const std::string& path, const IndexDelta& delta);
StatusOr<IndexDelta> ReadDeltaFile(const std::string& path);

/// Structurally merges `delta` over `base`, producing the index a full
/// batch rebuild over base-sessions + delta-sessions would build —
/// byte-identical (same serialized artifact), not just equivalent:
/// postings keep descending recency with delta sessions prepended,
/// per-item truncation re-applies min(h_i, m), and IDF is recomputed as
/// float32(log(N_new / h_i)) from exact merged frequencies. Requires
/// base.has_frequencies() (a format-v2 base); rejects deltas whose
/// end_times regress below the base's maximum timestamp.
StatusOr<SessionIndex> ApplyDeltaToIndex(const SessionIndex& base,
                                         const IndexDelta& delta);

}  // namespace serenade
