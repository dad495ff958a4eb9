#include "serving/batch_executor.h"

namespace serenade {

BatchExecutor::BatchExecutor(SerenadeService* service,
                             MetricsRegistry* registry)
    : service_(service) {
  if (registry == nullptr) return;
  registry->AddCallback(
      "serenade_batches_total", "client-side :batch calls executed",
      MetricType::kCounter, [this] { return batches_executed(); });
  registry->AddCallback(
      "serenade_batch_requests_total",
      "requests carried by client-side :batch calls", MetricType::kCounter,
      [this] { return requests_executed(); });
  batch_size_hist_ = &registry->AddHistogram(
      "serenade_batch_size", "requests per client-side :batch call");
}

BatchExecutor::Result BatchExecutor::Execute(const RecommendRequest& request,
                                             Trace* trace) {
  return service_->HandleUpdateAndRecommend(request, trace);
}

std::vector<BatchExecutor::Result> BatchExecutor::ExecuteBatch(
    const std::vector<RecommendRequest>& requests, Trace* trace) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  requests_.fetch_add(requests.size(), std::memory_order_relaxed);
  if (batch_size_hist_ != nullptr) batch_size_hist_->Record(requests.size());
  return service_->HandleUpdateAndRecommendBatch(requests, trace);
}

}  // namespace serenade
