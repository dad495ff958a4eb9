#include "core/vmis_knn.h"

namespace serenade {

KnnConfig NoOptConfig(KnnConfig config) {
  config.early_stopping = false;
  config.heap_arity = 2;
  return config;
}

namespace internal {

void AccumulateItemScores(const ItemId* items, size_t count, float weight,
                          IdfWeighting idf_mode, const float* idf,
                          uint32_t epoch, ItemScoreSlot* slots,
                          std::vector<ItemId>* touched_items) {
  for (size_t i = 0; i < count; ++i) {
    const ItemId item = items[i];
    float factor = 1.0f;
    switch (idf_mode) {
      case IdfWeighting::kNone:
        break;
      case IdfWeighting::kLog:
        factor = idf[item];
        break;
      case IdfWeighting::kOnePlusLog:
        factor = 1.0f + idf[item];
        break;
    }
    ItemScoreSlot& slot = slots[item];
    if (slot.stamp != epoch) {
      slot.stamp = epoch;
      slot.score = 0.0f;
      touched_items->push_back(item);
    }
    slot.score += weight * factor;
  }
}

}  // namespace internal

// Anchor the common instantiation in one translation unit.
template class VmisKnnT<SessionIndex>;

}  // namespace serenade
