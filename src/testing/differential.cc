#include "testing/differential.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>

#include "core/compressed_index.h"
#include "core/session_index.h"
#include "core/vs_knn.h"
#include "data/synthetic.h"
#include "index/index_format.h"
#include "serving/service.h"

namespace serenade {

namespace {

uint32_t FloatBits(float value) {
  uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::string DescribeItems(const std::vector<ScoredItem>& items) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out << ", ";
    out << items[i].item << ":" << items[i].score << " (0x" << std::hex
        << FloatBits(items[i].score) << std::dec << ")";
  }
  out << "]";
  return out.str();
}

/// Bit-exact comparison of two ranked lists; nullopt when identical.
std::optional<std::string> CompareRanked(const std::vector<ScoredItem>& a,
                                         const std::vector<ScoredItem>& b) {
  if (a.size() != b.size()) {
    return "result sizes differ: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size()) + "\n  a=" + DescribeItems(a) +
           "\n  b=" + DescribeItems(b);
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item ||
        FloatBits(a[i].score) != FloatBits(b[i].score)) {
      return "first divergence at rank " + std::to_string(i) + "\n  a=" +
             DescribeItems(a) + "\n  b=" + DescribeItems(b);
    }
  }
  return std::nullopt;
}

DecayType DrawDecay(Rng* rng) {
  switch (rng->Below(5)) {
    case 0: return DecayType::kSame;
    case 1: return DecayType::kLinear;
    case 2: return DecayType::kQuadratic;
    case 3: return DecayType::kHarmonic;
    default: return DecayType::kLogarithmic;
  }
}

MatchWeightType DrawMatchWeight(Rng* rng) {
  switch (rng->Below(3)) {
    case 0: return MatchWeightType::kConstant;
    case 1: return MatchWeightType::kPaperInsertionOrder;
    default: return MatchWeightType::kStepsFromEnd;
  }
}

IdfWeighting DrawIdf(Rng* rng) {
  switch (rng->Below(3)) {
    case 0: return IdfWeighting::kNone;
    case 1: return IdfWeighting::kLog;
    default: return IdfWeighting::kOnePlusLog;
  }
}

/// Re-materialises a Dataset from a session subset, preserving each
/// session's end time (every click carries it; FromClicks's stable
/// within-session sort keeps the click order).
Dataset RebuildDataset(const std::vector<SessionData>& sessions) {
  std::vector<Click> clicks;
  SessionId next_id = 0;
  for (const SessionData& session : sessions) {
    for (ItemId item : session.items) {
      clicks.push_back(Click{next_id, item, session.end_time});
    }
    ++next_id;
  }
  return Dataset::FromClicks(std::move(clicks), /*min_session_length=*/1);
}

/// Freshness-overlay oracle (DESIGN.md §9): splits the history into a
/// base (first three quarters) and a cumulative delta (the rest, with
/// end times re-assigned above the base maximum, the way the index
/// builder stamps sealed sessions), then checks that ApplyDeltaToIndex
/// over the base is byte-identical to a full rebuild over the same
/// sessions — and that VMIS-kNN scores bit-identically on both.
std::optional<DiffDivergence> CheckOverlayOracle(const DiffCase& c) {
  const std::vector<SessionData>& sessions = c.train.sessions();
  if (sessions.size() < 2) return std::nullopt;
  size_t split = std::max<size_t>(sessions.size() * 3 / 4, 1);
  if (split == sessions.size()) split = sessions.size() - 1;

  std::vector<SessionData> prefix(sessions.begin(),
                                  sessions.begin() +
                                      static_cast<ptrdiff_t>(split));
  const Dataset base_dataset = RebuildDataset(prefix);
  const SessionIndex base = SessionIndex::Build(base_dataset, c.knn.m);
  Timestamp base_max = 0;
  for (const SessionData& session : prefix) {
    base_max = std::max(base_max, session.end_time);
  }

  IndexDelta delta;
  delta.base_version = 1;
  delta.base_crc32 = 0;
  delta.delta_version = 2;
  std::vector<SessionData> merged_sessions = prefix;
  for (size_t s = split; s < sessions.size(); ++s) {
    DeltaSession entry;
    entry.items = sessions[s].items;
    std::sort(entry.items.begin(), entry.items.end());
    entry.items.erase(std::unique(entry.items.begin(), entry.items.end()),
                      entry.items.end());
    entry.end_time = base_max + static_cast<Timestamp>(s - split) + 1;
    entry.observed_unix_ms = 1000 + s;
    delta.watermark_unix_ms = entry.observed_unix_ms;
    SessionData rebuilt;
    rebuilt.id = static_cast<SessionId>(merged_sessions.size());
    rebuilt.items = entry.items;
    rebuilt.end_time = entry.end_time;
    merged_sessions.push_back(std::move(rebuilt));
    delta.sessions.push_back(std::move(entry));
  }

  auto merged = ApplyDeltaToIndex(base, delta);
  if (!merged.ok()) {
    return DiffDivergence{"full-rebuild", "base+overlay", 0,
                          "ApplyDeltaToIndex failed: " +
                              merged.status().ToString()};
  }
  const Dataset full_dataset = RebuildDataset(merged_sessions);
  const SessionIndex full = SessionIndex::Build(full_dataset, c.knn.m);
  if (SerializeIndex(*merged) != SerializeIndex(full)) {
    return DiffDivergence{
        "full-rebuild", "base+overlay", 0,
        "serialized artifacts differ (base " + std::to_string(split) +
            " sessions + delta of " + std::to_string(delta.sessions.size()) +
            ")"};
  }

  VmisKnn overlay_knn(&*merged, c.knn);
  VmisKnn full_knn(&full, c.knn);
  for (size_t qi = 0; qi < c.queries.size(); ++qi) {
    if (auto diff =
            CompareRanked(full_knn.RecommendNext(c.queries[qi], c.top_n),
                          overlay_knn.RecommendNext(c.queries[qi], c.top_n))) {
      return DiffDivergence{"vmis-knn-full", "vmis-knn-overlay", qi, *diff};
    }
  }
  return std::nullopt;
}

}  // namespace

DiffCase GenerateDiffCase(const DiffSpec& spec, Rng* rng) {
  DiffCase c;
  const size_t num_sessions =
      spec.min_sessions +
      rng->Below(spec.max_sessions - spec.min_sessions + 1);
  const size_t num_items =
      spec.min_items + rng->Below(spec.max_items - spec.min_items + 1);

  std::vector<Click> clicks;
  Timestamp now = 1000;
  for (size_t s = 0; s < num_sessions; ++s) {
    const size_t length = 1 + rng->Below(spec.max_history_length);
    for (size_t i = 0; i < length; ++i) {
      clicks.push_back(Click{static_cast<SessionId>(s),
                             static_cast<ItemId>(rng->Below(num_items)),
                             now++});
    }
  }
  c.train = Dataset::FromClicks(std::move(clicks), /*min_session_length=*/1);

  c.queries.resize(spec.num_queries);
  for (EvolvingSession& query : c.queries) {
    const size_t length = 1 + rng->Below(spec.max_query_length);
    query.reserve(length);
    for (size_t i = 0; i < length; ++i) {
      // Mostly vocabulary items (overlap drives scoring); occasionally an
      // id the index has never seen, which every engine must ignore.
      const bool unknown = rng->Bernoulli(0.05);
      query.push_back(static_cast<ItemId>(
          unknown ? num_items + rng->Below(4) : rng->Below(num_items)));
    }
  }

  c.knn.m = 1 + rng->Below(spec.m_max);
  c.knn.k = 1 + rng->Below(c.knn.m);
  c.knn.max_session_length = 1 + rng->Below(10);
  c.knn.decay = DrawDecay(rng);
  c.knn.match_weight = DrawMatchWeight(rng);
  c.knn.idf = DrawIdf(rng);
  c.knn.exclude_session_items = rng->Bernoulli(0.3);
  c.knn.vs_length_norm = false;  // bit-exact scores across engines
  c.top_n = spec.top_n;
  return c;
}

std::optional<DiffDivergence> CheckDiffCase(const DiffCase& c,
                                            bool include_service,
                                            bool mutate) {
  if (c.train.num_sessions() == 0) return std::nullopt;
  auto index = std::make_shared<const SessionIndex>(
      SessionIndex::Build(c.train, c.knn.m));

  VmisKnn vmis(index.get(), c.knn);
  VmisKnn vmis_no_opt(index.get(), NoOptConfig(c.knn));
  VsKnn vs(c.train, c.knn);
  const CompressedSessionIndex compressed =
      CompressedSessionIndex::FromIndex(*index);
  VmisKnnT<CompressedSessionIndex> vmis_compressed(&compressed, c.knn);

  std::unique_ptr<SerenadeService> service;
  if (include_service) {
    ItemCatalog catalog;
    catalog.available.assign(c.train.num_items(), true);
    catalog.adult.assign(c.train.num_items(), false);
    ServiceConfig config;
    config.knn = c.knn;
    config.rules.filter_unavailable = false;
    config.rules.filter_adult = false;
    config.rules.max_items = c.top_n;
    auto created = SerenadeService::Create(index, catalog, config);
    if (!created.ok()) {
      return DiffDivergence{"service", "service", 0,
                            "service creation failed: " +
                                created.status().ToString()};
    }
    service = std::move(created).value();
  }

  for (size_t qi = 0; qi < c.queries.size(); ++qi) {
    const EvolvingSession& query = c.queries[qi];
    const std::vector<ScoredItem> expected = vmis.RecommendNext(query, c.top_n);

    std::vector<ScoredItem> no_opt = vmis_no_opt.RecommendNext(query, c.top_n);
    if (mutate && !no_opt.empty()) {
      no_opt.front().score += 0.25f;  // harness self-check: must be caught
    } else if (mutate) {
      no_opt.push_back(ScoredItem{0, 1.0f});
    }
    if (auto diff = CompareRanked(expected, no_opt)) {
      return DiffDivergence{"vmis-knn", "vmis-knn-no-opt", qi, *diff};
    }

    if (auto diff = CompareRanked(expected, vs.RecommendNext(query, c.top_n))) {
      return DiffDivergence{"vmis-knn", "vs-knn", qi, *diff};
    }

    // The compressed index's fused decode path must be invisible to the
    // engine: same candidates, same float sequence, same bits.
    if (auto diff = CompareRanked(
            expected, vmis_compressed.RecommendNext(query, c.top_n))) {
      return DiffDivergence{"vmis-knn", "vmis-knn-compressed", qi, *diff};
    }

    if (qi == 0) {
      // Once per case (it builds three indexes): base + overlay delta
      // must reproduce the full rebuild bit for bit.
      if (auto diff = CheckOverlayOracle(c)) return diff;
    }

    if (service != nullptr) {
      // One micro-batch per query, every slot on the same session key:
      // in-batch chaining applies the clicks in order, so the last slot
      // predicts from the full evolving session.
      std::vector<RecommendRequest> batch(query.size());
      const std::string key = "diff-q" + std::to_string(qi);
      for (size_t i = 0; i < query.size(); ++i) {
        batch[i] = RecommendRequest{key, query[i], /*consent=*/true};
      }
      auto results = service->HandleUpdateAndRecommendBatch(batch);
      if (!results.back().ok()) {
        return DiffDivergence{"vmis-knn", "service-batch", qi,
                              "service slot failed: " +
                                  results.back().status().ToString()};
      }
      if (auto diff = CompareRanked(expected, results.back().value())) {
        return DiffDivergence{"vmis-knn", "service-batch", qi, *diff};
      }
    }
  }
  return std::nullopt;
}

DiffCase ShrinkDiffCase(const DiffCase& original, bool include_service) {
  DiffCase best = original;
  auto fails = [&](const DiffCase& candidate) {
    return CheckDiffCase(candidate, include_service).has_value();
  };

  // 1. Keep only the first failing query.
  if (best.queries.size() > 1) {
    if (auto divergence = CheckDiffCase(best, include_service)) {
      DiffCase candidate = best;
      candidate.queries = {best.queries[divergence->query_index]};
      if (fails(candidate)) best = std::move(candidate);
    }
  }

  // 2. Remove historical sessions, ddmin-style: large chunks first.
  for (size_t chunk = std::max<size_t>(best.train.num_sessions() / 2, 1);
       chunk >= 1; chunk /= 2) {
    bool removed = true;
    while (removed) {
      removed = false;
      const auto& sessions = best.train.sessions();
      for (size_t start = 0; start < sessions.size(); start += chunk) {
        std::vector<SessionData> kept;
        kept.reserve(sessions.size());
        for (size_t s = 0; s < sessions.size(); ++s) {
          if (s < start || s >= start + chunk) kept.push_back(sessions[s]);
        }
        if (kept.empty()) continue;
        DiffCase candidate = best;
        candidate.train = RebuildDataset(kept);
        if (fails(candidate)) {
          best = std::move(candidate);
          removed = true;
          break;
        }
      }
    }
    if (chunk == 1) break;
  }

  // 3. Drop query items one at a time.
  for (EvolvingSession& query : best.queries) {
    for (size_t i = 0; i < query.size() && query.size() > 1;) {
      DiffCase candidate = best;
      EvolvingSession shorter = query;
      shorter.erase(shorter.begin() + static_cast<ptrdiff_t>(i));
      candidate.queries.assign(1, shorter);
      if (fails(candidate)) {
        best.queries.assign(1, shorter);
        query = shorter;
      } else {
        ++i;
      }
    }
  }
  return best;
}

std::string FormatReproducer(const DiffCase& c, uint64_t seed,
                             const DiffDivergence& divergence) {
  std::ostringstream out;
  out << "=== differential divergence (seed " << seed << ") ===\n";
  out << divergence.engine_a << " vs " << divergence.engine_b << " on query #"
      << divergence.query_index << "\n";
  out << divergence.detail << "\n";
  out << "config: m=" << c.knn.m << " k=" << c.knn.k
      << " max_session_length=" << c.knn.max_session_length
      << " decay=" << DecayTypeName(c.knn.decay)
      << " match_weight=" << MatchWeightTypeName(c.knn.match_weight)
      << " idf=" << IdfWeightingName(c.knn.idf) << " exclude_session_items="
      << (c.knn.exclude_session_items ? "true" : "false")
      << " top_n=" << c.top_n << "\n";
  out << "history (" << c.train.num_sessions() << " sessions):\n";
  for (const SessionData& session : c.train.sessions()) {
    out << "  s" << session.id << " @" << session.end_time << ":";
    for (ItemId item : session.items) out << " " << item;
    out << "\n";
  }
  for (size_t qi = 0; qi < c.queries.size(); ++qi) {
    out << "query #" << qi << ":";
    for (ItemId item : c.queries[qi]) out << " " << item;
    out << "\n";
  }
  return out.str();
}

std::optional<std::string> RunDiffFuzz(const DiffSpec& spec, uint64_t seed,
                                       size_t cases, DiffFuzzStats* stats) {
  for (size_t i = 0; i < cases; ++i) {
    const uint64_t case_seed = seed + i;
    Rng rng(case_seed);
    DiffCase c = GenerateDiffCase(spec, &rng);
    if (stats != nullptr) {
      stats->cases += 1;
      stats->sessions += c.train.num_sessions() + c.queries.size();
      stats->queries += c.queries.size();
    }
    if (CheckDiffCase(c, spec.include_service).has_value()) {
      const DiffCase minimal = ShrinkDiffCase(c, spec.include_service);
      auto divergence = CheckDiffCase(minimal, spec.include_service);
      if (!divergence.has_value()) {
        divergence = CheckDiffCase(c, spec.include_service);
      }
      return FormatReproducer(minimal, case_seed, *divergence);
    }
  }
  return std::nullopt;
}

}  // namespace serenade
