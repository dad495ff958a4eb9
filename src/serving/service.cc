#include "serving/service.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <unordered_map>
#include <utility>

namespace serenade {

const char* EngineName(EngineKind engine) {
  return engine == EngineKind::kAnn ? "ann" : "vmis";
}

std::optional<EngineKind> ParseEngineKind(const std::string& text) {
  if (text.empty()) return EngineKind::kDefault;
  if (text == "vmis") return EngineKind::kVmis;
  if (text == "ann") return EngineKind::kAnn;
  return std::nullopt;
}

std::string EncodeSession(const EvolvingSession& session) {
  std::string out;
  for (size_t i = 0; i < session.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(session[i]);
  }
  return out;
}

EvolvingSession DecodeSession(const std::string& encoded) {
  EvolvingSession session;
  size_t start = 0;
  while (start < encoded.size()) {
    size_t end = encoded.find(',', start);
    if (end == std::string::npos) end = encoded.size();
    uint32_t item = 0;
    const auto result = std::from_chars(encoded.data() + start,
                                        encoded.data() + end, item);
    if (result.ec == std::errc() && result.ptr == encoded.data() + end) {
      session.push_back(item);
    }
    start = end + 1;
  }
  return session;
}

SerenadeService::SerenadeService(std::shared_ptr<IndexManager> manager,
                                 ItemCatalog catalog, ServiceConfig config)
    : manager_(std::move(manager)),
      catalog_(std::move(catalog)),
      config_(config) {}

StatusOr<std::unique_ptr<SerenadeService>> SerenadeService::Create(
    std::shared_ptr<IndexManager> manager, ItemCatalog catalog,
    ServiceConfig config) {
  if (manager == nullptr) {
    return Status::InvalidArgument("index manager must not be null");
  }
  // Checked here so a worker's lazily built VmisKnn never throws.
  if (config.knn.max_session_length > kMaxVmisSessionLength) {
    return Status::InvalidArgument(
        "knn.max_session_length exceeds " +
        std::to_string(kMaxVmisSessionLength));
  }
  // Validates the boot snapshot and guards every future reload (same
  // InvalidArgument as a direct ValidateIndexForKnn failure).
  SERENADE_RETURN_IF_ERROR(
      manager->RequireKnnCompatibility(config.knn.m));
  auto service = std::unique_ptr<SerenadeService>(
      new SerenadeService(std::move(manager), std::move(catalog), config));
  auto store = SessionStore::Open(config.store);
  if (!store.ok()) return store.status();
  service->store_ = std::move(store).value();
  return service;
}

StatusOr<std::unique_ptr<SerenadeService>> SerenadeService::Create(
    std::shared_ptr<const SessionIndex> index, ItemCatalog catalog,
    ServiceConfig config) {
  if (index == nullptr) {
    return Status::InvalidArgument("index must not be null");
  }
  return Create(IndexManager::CreateFromIndex(std::move(index)),
                std::move(catalog), config);
}

Status SerenadeService::ReloadIndex(const std::string& path) {
  SERENADE_RETURN_IF_ERROR(manager_->ReloadFromFile(path));
  PruneStaleRecommenders(manager_->current_version());
  return Status::Ok();
}

Status SerenadeService::ReloadEmbeddings(const std::string& path) {
  if (embeddings_ == nullptr) {
    return Status::Unavailable("this pod has no embedding manager attached");
  }
  return embeddings_->ReloadFromFile(path);
}

EngineKind SerenadeService::ResolveEngine(EngineKind requested) {
  if (requested != EngineKind::kAnn) return EngineKind::kVmis;
  ann_requests_.fetch_add(1, std::memory_order_relaxed);
  if (ann_available()) return EngineKind::kAnn;
  ann_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  return EngineKind::kVmis;
}

Status SerenadeService::ApplyDelta(const IndexDelta& delta,
                                   IndexManager::DeltaApplyInfo* info) {
  SERENADE_RETURN_IF_ERROR(manager_->ApplyDelta(delta, info));
  PruneStaleRecommenders(manager_->current_version());
  return Status::Ok();
}

SerenadeService::PooledRecommender SerenadeService::AcquireRecommender(
    const std::shared_ptr<const IndexSnapshot>& snapshot) {
  const uint64_t version = snapshot->version();
  std::vector<PooledRecommender> stale;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    while (!recommender_pool_.empty()) {
      PooledRecommender entry = std::move(recommender_pool_.back());
      recommender_pool_.pop_back();
      if (entry.version == version) return entry;
      // Built against a retired snapshot: destroy outside the lock.
      stale.push_back(std::move(entry));
    }
  }
  stale.clear();
  PooledRecommender fresh;
  fresh.version = version;
  fresh.snapshot = snapshot;
  fresh.recommender =
      std::make_unique<VmisKnn>(&snapshot->index(), config_.knn);
  return fresh;
}

void SerenadeService::ReleaseRecommender(PooledRecommender entry) {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    // Only pool scratch matching the live snapshot, and only up to the
    // configured cap — a burst of concurrent requests must not grow the
    // pool without bound, and a swapped-out index must not be pinned by
    // idle scratch.
    if (entry.version == manager_->current_version() &&
        recommender_pool_.size() < config_.max_pooled_recommenders) {
      recommender_pool_.push_back(std::move(entry));
      return;
    }
  }
  // Dropped: entry (and its snapshot pin) destructs here, outside the lock.
}

void SerenadeService::PruneStaleRecommenders(uint64_t version) {
  std::vector<PooledRecommender> stale;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    auto keep_end = std::remove_if(
        recommender_pool_.begin(), recommender_pool_.end(),
        [version](const PooledRecommender& entry) {
          return entry.version != version;
        });
    stale.assign(std::make_move_iterator(keep_end),
                 std::make_move_iterator(recommender_pool_.end()));
    recommender_pool_.erase(keep_end, recommender_pool_.end());
  }
  // Retired snapshots release here, outside the lock.
}

size_t SerenadeService::PooledRecommenders() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return recommender_pool_.size();
}

StatusOr<std::vector<ScoredItem>> SerenadeService::HandleUpdateAndRecommend(
    const RecommendRequest& request, Trace* trace) {
  if (request.item == kInvalidItem) {
    return Status::InvalidArgument("missing item id");
  }
  if (request.session_key.empty()) {
    return Status::InvalidArgument("missing session key");
  }

  // Step 2 (Figure 1): update the evolving session with a machine-local
  // read-modify-write (the store records it as the store_put span).
  EvolvingSession evolving;
  const Status update_status = store_->Update(
      request.session_key,
      [&](const std::string& current) {
        evolving = DecodeSession(current);
        evolving.push_back(request.item);
        if (evolving.size() > config_.max_stored_session_length) {
          evolving.erase(evolving.begin(),
                         evolving.end() -
                             static_cast<ptrdiff_t>(
                                 config_.max_stored_session_length));
        }
        return EncodeSession(evolving);
      },
      trace);
  SERENADE_RETURN_IF_ERROR(update_status);

  // Depersonalisation (Section 4.2): without consent, only the currently
  // displayed item feeds the prediction.
  if (!request.consent) {
    evolving.assign(1, request.item);
  }

  // Step 3: prediction against the pinned snapshot of whichever retrieval
  // family the request resolved to. The pin outlives the scoring pass, so
  // a concurrent hot swap can never free the index under us. Fetch more
  // than the UI needs so the business-rule filters have spare candidates.
  const size_t fetch = config_.rules.max_items * 2 + 8;
  if (ResolveEngine(request.engine) == EngineKind::kAnn) {
    Span pin_span(trace, TraceStage::kSnapshotPin);
    const std::shared_ptr<const EmbeddingSnapshot> snapshot =
        embeddings_->Current();
    pin_span.End();

    Span knn_span(trace, TraceStage::kKnnRetrieve);
    AnnRecommender ann(&snapshot->embeddings(), &snapshot->ann(),
                       config_.ann);
    const std::vector<ScoredItem> raw = ann.RecommendNext(evolving, fetch);
    knn_span.End();

    Span rank_span(trace, TraceStage::kRank);
    return ApplyBusinessRules(raw, catalog_, config_.rules);
  }

  Span pin_span(trace, TraceStage::kSnapshotPin);
  const std::shared_ptr<const IndexSnapshot> snapshot = manager_->Current();
  PooledRecommender entry = AcquireRecommender(snapshot);
  pin_span.End();

  Span knn_span(trace, TraceStage::kKnnRetrieve);
  const std::vector<ScoredItem> raw =
      entry.recommender->RecommendNext(evolving, fetch);
  knn_span.End();
  ReleaseRecommender(std::move(entry));

  Span rank_span(trace, TraceStage::kRank);
  return ApplyBusinessRules(raw, catalog_, config_.rules);
}

std::vector<StatusOr<std::vector<ScoredItem>>>
SerenadeService::HandleUpdateAndRecommendBatch(
    const std::vector<RecommendRequest>& requests, Trace* trace) {
  std::vector<StatusOr<std::vector<ScoredItem>>> results(
      requests.size(), Status::Internal("batch slot not filled"));
  if (requests.empty()) return results;

  // Validate every slot first; only valid slots join the batched IO.
  std::vector<size_t> valid;
  valid.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].item == kInvalidItem) {
      results[i] = Status::InvalidArgument("missing item id");
    } else if (requests[i].session_key.empty()) {
      results[i] = Status::InvalidArgument("missing session key");
    } else {
      valid.push_back(i);
    }
  }
  if (valid.empty()) return results;

  // Step 2 (Figure 1), batched: one MultiGet for the distinct session
  // keys, the appends applied in batch order (so duplicate keys chain),
  // one MultiPut writing each key's final state.
  std::vector<std::string> keys;
  std::unordered_map<std::string, size_t> key_slot;  // key -> index in keys
  for (size_t i : valid) {
    if (key_slot.emplace(requests[i].session_key, keys.size()).second) {
      keys.push_back(requests[i].session_key);
    }
  }
  std::vector<std::string> stored;
  std::vector<bool> found;
  Span get_span(trace, TraceStage::kStoreGet);
  store_->MultiGet(keys, &stored, &found);
  get_span.End();

  std::vector<EvolvingSession> sessions(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    if (found[k]) sessions[k] = DecodeSession(stored[k]);
  }
  // `predict[i]` is the session as of request i's click — later clicks on
  // the same key in this batch must not leak into it.
  std::vector<EvolvingSession> predict(requests.size());
  for (size_t i : valid) {
    EvolvingSession& evolving = sessions[key_slot[requests[i].session_key]];
    evolving.push_back(requests[i].item);
    if (evolving.size() > config_.max_stored_session_length) {
      evolving.erase(evolving.begin(),
                     evolving.end() - static_cast<ptrdiff_t>(
                                          config_.max_stored_session_length));
    }
    // Depersonalisation (Section 4.2): without consent, only the
    // currently displayed item feeds the prediction.
    predict[i] = requests[i].consent
                     ? evolving
                     : EvolvingSession{requests[i].item};
  }

  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    entries.emplace_back(keys[k], EncodeSession(sessions[k]));
  }
  Span put_span(trace, TraceStage::kStorePut);
  const Status put_status = store_->MultiPut(entries);
  put_span.End();
  if (!put_status.ok()) {
    for (size_t i : valid) results[i] = put_status;
    return results;
  }

  // Step 3, batched: one snapshot pin per retrieval family and one pooled
  // recommender serve every item — the scoring loop itself is the only
  // per-item work left. Slots resolve their engine independently, so one
  // batch can mix A/B arms.
  std::vector<EngineKind> resolved(requests.size(), EngineKind::kVmis);
  bool any_ann = false;
  for (size_t i : valid) {
    resolved[i] = ResolveEngine(requests[i].engine);
    any_ann |= resolved[i] == EngineKind::kAnn;
  }

  Span pin_span(trace, TraceStage::kSnapshotPin);
  const std::shared_ptr<const IndexSnapshot> snapshot = manager_->Current();
  PooledRecommender entry = AcquireRecommender(snapshot);
  std::shared_ptr<const EmbeddingSnapshot> embedding_snapshot;
  std::unique_ptr<AnnRecommender> ann;
  if (any_ann) {
    embedding_snapshot = embeddings_->Current();
    ann = std::make_unique<AnnRecommender>(&embedding_snapshot->embeddings(),
                                           &embedding_snapshot->ann(),
                                           config_.ann);
  }
  pin_span.End();

  for (size_t i : valid) {
    Recommender& engine =
        resolved[i] == EngineKind::kAnn
            ? static_cast<Recommender&>(*ann)
            : static_cast<Recommender&>(*entry.recommender);
    Span knn_span(trace, TraceStage::kKnnRetrieve);
    const std::vector<ScoredItem> raw =
        engine.RecommendNext(predict[i], config_.rules.max_items * 2 + 8);
    knn_span.End();
    Span rank_span(trace, TraceStage::kRank);
    results[i] = ApplyBusinessRules(raw, catalog_, config_.rules);
  }
  ReleaseRecommender(std::move(entry));
  return results;
}

StatusOr<EvolvingSession> SerenadeService::GetSession(
    const std::string& session_key) {
  auto value = store_->Get(session_key);
  if (!value.ok()) return value.status();
  return DecodeSession(*value);
}

}  // namespace serenade
