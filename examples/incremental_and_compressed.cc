// Future-work features walkthrough (Section 7 of the paper): running the
// identical VMIS-kNN computation on (a) a compressed in-memory index and
// (b) an index that absorbs fresh sessions through a streamed delta merge
// — including sessions for items that did not exist at batch-build time.
//
//   $ ./incremental_and_compressed
#include <cstdio>

#include "core/compressed_index.h"
#include "core/vmis_knn.h"
#include "data/synthetic.h"
#include "index/index_format.h"

using namespace serenade;

int main() {
  SyntheticConfig data_config;
  data_config.seed = 99;
  data_config.num_items = 6000;
  data_config.num_sessions = 30000;
  data_config.num_days = 14;
  Dataset historical = GenerateDataset(data_config);

  KnnConfig config;
  config.m = 500;
  config.k = 100;

  // --- (a) compressed index: same results, smaller footprint ---
  SessionIndex flat = SessionIndex::Build(historical, config.m);
  CompressedSessionIndex compressed = CompressedSessionIndex::FromIndex(flat);
  std::printf("flat index:       %8.2f MB\n", flat.MemoryBytes() / 1e6);
  std::printf("compressed index: %8.2f MB (%.2fx smaller)\n",
              compressed.MemoryBytes() / 1e6,
              static_cast<double>(flat.MemoryBytes()) /
                  compressed.MemoryBytes());

  VmisKnn flat_model(&flat, config);
  VmisKnnT<CompressedSessionIndex> compressed_model(&compressed, config);
  const EvolvingSession session = {10, 25, 400};
  const auto from_flat = flat_model.RecommendNext(session, 5);
  const auto from_compressed = compressed_model.RecommendNext(session, 5);
  std::printf("\ntop-5 for session {10, 25, 400} (flat vs compressed):\n");
  for (size_t i = 0; i < from_flat.size(); ++i) {
    std::printf("  %u (%.3f)  |  %u (%.3f)%s\n", from_flat[i].item,
                from_flat[i].score, from_compressed[i].item,
                from_compressed[i].score,
                from_flat[i].item == from_compressed[i].item
                    ? ""
                    : "   <-- MISMATCH");
  }

  // --- (b) incremental maintenance: fresh sessions, brand-new items ---
  const ItemId new_item = static_cast<ItemId>(historical.num_items() + 7);
  std::printf("\nmerging a delta of 50 fresh sessions pairing new item %u "
              "with item 10...\n", new_item);
  IndexDelta delta;
  delta.base_version = 1;
  delta.delta_version = 2;
  for (int i = 0; i < 50; ++i) {
    delta.sessions.push_back(DeltaSession{
        {10, new_item}, historical.max_timestamp() + 60 + i, 0});
  }
  auto live = ApplyDeltaToIndex(flat, delta);
  if (!live.ok()) {
    std::fprintf(stderr, "delta merge failed: %s\n",
                 live.status().ToString().c_str());
    return 1;
  }
  VmisKnn live_model(&*live, config);
  const auto recs = live_model.RecommendNext({10}, 5);
  std::printf("top-5 after item 10 (no nightly rebuild needed):\n");
  for (const ScoredItem& rec : recs) {
    std::printf("  item %-8u score %.3f%s\n", rec.item, rec.score,
                rec.item == new_item ? "   <-- the brand-new item" : "");
  }
  return 0;
}
