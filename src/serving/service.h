// The Serenade recommendation service: maintains evolving user sessions
// in the colocated session store, computes next-item recommendations with
// VMIS-kNN against the replicated session index, and applies business
// rules — steps 2 and 3 of Figure 1.
//
// Index consumption is snapshot-based (see index/snapshot.h): every
// request pins the currently published IndexSnapshot, and the per-thread
// recommender scratch pool is version-tagged so a hot swap lazily rebuilds
// scratch state against the new index — a stale pooled recommender can
// never score against a freed index, and an old snapshot retires only
// when the last in-flight request (or pooled recommender) releases it.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/ann_recommender.h"
#include "core/session_index.h"
#include "obs/trace.h"
#include "core/vmis_knn.h"
#include "data/synthetic.h"
#include "index/embedding_store.h"
#include "index/snapshot.h"
#include "serving/business_rules.h"
#include "store/session_store.h"

namespace serenade {

/// Which retrieval family serves a request. kDefault defers to the
/// service default (VMIS); kAnn requires an attached embedding snapshot
/// and silently degrades to VMIS (counted, never failed) without one —
/// a dead ANN arm must not fail user traffic.
enum class EngineKind { kDefault, kVmis, kAnn };

/// "vmis" / "ann" (kDefault resolves to "vmis").
const char* EngineName(EngineKind engine);

/// Parses "" (default), "vmis", "ann"; anything else is nullopt.
std::optional<EngineKind> ParseEngineKind(const std::string& text);

struct ServiceConfig {
  KnnConfig knn;
  BusinessRulesConfig rules;
  SessionStoreOptions store;
  /// Session->query folding and graph parameters for the ANN engine.
  AnnConfig ann;
  /// Stored evolving sessions are truncated to this many recent items
  /// (predictions only use KnnConfig::max_session_length of them anyway).
  size_t max_stored_session_length = 100;
  /// Upper bound on idle per-thread recommender scratch instances kept for
  /// reuse; excess releases are dropped so a concurrency burst cannot grow
  /// the pool without limit.
  size_t max_pooled_recommenders = 64;
};

/// One update-and-recommend request from the shop frontend. The frontend
/// calls this whenever the user opens a product detail page.
struct RecommendRequest {
  std::string session_key;   ///< opaque session identifier (cookie)
  ItemId item = kInvalidItem;  ///< the item the user just interacted with
  /// Consent flag: when false, the paper's depersonalisation applies —
  /// only the currently displayed item is used (Section 4.2).
  bool consent = true;
  /// Retrieval family for this request (`engine=vmis|ann` on the wire, or
  /// the gateway's A/B bucket stamp). Flows through the batch executor
  /// untouched.
  EngineKind engine = EngineKind::kDefault;
};

/// Thread-safe service facade. One instance per serving machine; safe for
/// concurrent HandleUpdateAndRecommend calls (VMIS-kNN scratch state is
/// pooled per-thread internally) including concurrent index reloads.
class SerenadeService {
 public:
  /// `manager` owns the replicated read-only session index and its hot-swap
  /// lifecycle; the service registers its knn.m requirement with it so
  /// reloads of an incompatible index are rejected before publication.
  static StatusOr<std::unique_ptr<SerenadeService>> Create(
      std::shared_ptr<IndexManager> manager, ItemCatalog catalog,
      ServiceConfig config);

  /// Convenience for a fixed index (tests, benches, offline tools): wraps
  /// it in a single-snapshot IndexManager.
  static StatusOr<std::unique_ptr<SerenadeService>> Create(
      std::shared_ptr<const SessionIndex> index, ItemCatalog catalog,
      ServiceConfig config);

  /// Appends the clicked item to the evolving session (machine-local
  /// write), predicts the next items (machine-local reads only) and
  /// applies the business rules. Returns at most rules.max_items items.
  /// A non-null `trace` receives store_put / snapshot_pin / knn_retrieve
  /// / rank stage spans.
  StatusOr<std::vector<ScoredItem>> HandleUpdateAndRecommend(
      const RecommendRequest& request, Trace* trace = nullptr);

  /// Batched variant (client-side :batch calls): amortises the
  /// per-request fixed costs across `requests` by doing one store
  /// MultiGet, one MultiPut, one snapshot pin, and one recommender-pool
  /// checkout for the whole batch, then scoring each item. Per-item
  /// failures (validation, a failed WAL write) surface in that slot only
  /// — one bad request never fails its batch siblings. Duplicate session
  /// keys are applied in batch order, so results match sequential calls.
  /// A non-null `trace` receives one store_get (the MultiGet), store_put
  /// (the MultiPut) and snapshot_pin span, plus a knn_retrieve and a rank
  /// span per scored slot.
  std::vector<StatusOr<std::vector<ScoredItem>>>
  HandleUpdateAndRecommendBatch(const std::vector<RecommendRequest>& requests,
                                Trace* trace = nullptr);

  /// Reads the stored evolving session (diagnostics / tests).
  StatusOr<EvolvingSession> GetSession(const std::string& session_key);

  /// Hot-swaps to the index at `path` ("" = re-read the current source).
  /// In-flight requests keep serving from their pinned snapshot; new
  /// requests see the new index as soon as this returns Ok.
  Status ReloadIndex(const std::string& path = "");

  /// Attaches the second retrieval family (call before serving traffic;
  /// the pointer itself is not re-assigned afterwards — reloads go
  /// through the manager). Null detaches nothing: pass a live manager.
  void AttachEmbeddings(std::shared_ptr<EmbeddingManager> embeddings) {
    embeddings_ = std::move(embeddings);
  }

  /// True when an embedding snapshot is published and the ANN engine can
  /// serve `engine=ann` requests without falling back.
  bool ann_available() const { return embeddings_ != nullptr; }

  /// The attached embedding manager (null when the pod has no ANN arm).
  const std::shared_ptr<EmbeddingManager>& embedding_manager() const {
    return embeddings_;
  }

  /// Hot-swaps the embedding artifact ("" = re-read the boot path).
  /// kFailedPrecondition when no embedding manager is attached.
  Status ReloadEmbeddings(const std::string& path = "");

  /// Requests that asked for the ANN engine (requested, not resolved).
  uint64_t ann_requests_total() const {
    return ann_requests_.load(std::memory_order_relaxed);
  }

  /// ANN-engine requests degraded to VMIS because no embedding snapshot
  /// was attached — the dead-arm safety valve, never a request failure.
  uint64_t ann_fallbacks_total() const {
    return ann_fallbacks_.load(std::memory_order_relaxed);
  }

  /// Layers a streaming freshness delta over the pinned base snapshot
  /// (IndexManager::ApplyDelta) with the same publication discipline as a
  /// full swap: in-flight requests finish on their pinned snapshot, the
  /// pool drops entries built against retired overlay versions.
  /// kAlreadyExists (idempotent re-delivery) leaves everything untouched.
  Status ApplyDelta(const IndexDelta& delta,
                    IndexManager::DeltaApplyInfo* info = nullptr);

  SessionStoreStats StoreStats() const { return store_->Stats(); }

  /// Direct store access for the replication subsystem (WAL shipping,
  /// hand-off dump/restore, replica promotion).
  SessionStore& session_store() { return *store_; }

  /// Pins the current index snapshot (version + index + provenance).
  std::shared_ptr<const IndexSnapshot> CurrentSnapshot() const {
    return manager_->Current();
  }
  IndexManager& index_manager() { return *manager_; }
  const ServiceConfig& config() const { return config_; }

  /// Idle pooled recommenders (diagnostics / stats).
  size_t PooledRecommenders() const;

  /// Evicts expired sessions (called by a background janitor thread in
  /// the server wrapper).
  size_t SweepExpiredSessions() { return store_->SweepExpired(); }

 private:
  // One pooled scratch recommender, tagged with the snapshot it was built
  // against. The pinned snapshot keeps the raw index pointer inside the
  // VmisKnn valid for exactly as long as the entry lives.
  struct PooledRecommender {
    uint64_t version = 0;
    std::shared_ptr<const IndexSnapshot> snapshot;
    std::unique_ptr<VmisKnn> recommender;
  };

  SerenadeService(std::shared_ptr<IndexManager> manager, ItemCatalog catalog,
                  ServiceConfig config);

  // Borrow/return pattern for per-thread recommender scratch state. The
  // returned entry always matches `snapshot`'s version.
  PooledRecommender AcquireRecommender(
      const std::shared_ptr<const IndexSnapshot>& snapshot);
  void ReleaseRecommender(PooledRecommender entry);

  // Drops pooled entries built against snapshots older than `version` so
  // a retired index is not kept alive by an idle pool.
  void PruneStaleRecommenders(uint64_t version);

  // Resolves kDefault/kVmis -> kVmis, kAnn -> kAnn when an embedding
  // snapshot is attached else kVmis; maintains the ann request/fallback
  // counters.
  EngineKind ResolveEngine(EngineKind requested);

  std::shared_ptr<IndexManager> manager_;
  std::shared_ptr<EmbeddingManager> embeddings_;
  std::atomic<uint64_t> ann_requests_{0};
  std::atomic<uint64_t> ann_fallbacks_{0};
  ItemCatalog catalog_;
  ServiceConfig config_;
  std::unique_ptr<SessionStore> store_;

  mutable std::mutex pool_mutex_;
  std::vector<PooledRecommender> recommender_pool_;
};

/// Encodes an evolving session as a comma-separated item id string (the
/// session-store value format; human-readable for debugging).
std::string EncodeSession(const EvolvingSession& session);

/// Decodes the store value format; malformed tokens are skipped.
EvolvingSession DecodeSession(const std::string& encoded);

}  // namespace serenade
