#include "serving/server.h"

#include <charconv>
#include <chrono>

#include "common/stopwatch.h"
#include "index/index_format.h"
#include "serving/json.h"

namespace serenade {

namespace {

// Whole seconds between the freshness watermark (the newest click folded
// into the servable index) and now; 0 until the first delta lands.
uint64_t FreshnessSeconds(uint64_t watermark_unix_ms) {
  if (watermark_unix_ms == 0) return 0;
  const uint64_t now = NowUnixMs();
  return now > watermark_unix_ms ? (now - watermark_unix_ms) / 1000 : 0;
}

// Pod-side stages exported as serenade_stage_duration_microseconds
// labels. kForward is gateway-only and deliberately absent.
constexpr TraceStage kPodStages[] = {
    TraceStage::kParse,       TraceStage::kStoreGet,
    TraceStage::kStorePut,    TraceStage::kSnapshotPin,
    TraceStage::kKnnRetrieve, TraceStage::kRank,
    TraceStage::kSerialize,
};

// {"items":[...],"scores":[...]} — the single-recommend success body and
// the per-slot success entry of a batch response.
void WriteRecommendation(const std::vector<ScoredItem>& items,
                         JsonWriter& writer) {
  writer.BeginObject().Key("items").BeginArray();
  for (const ScoredItem& rec : items) {
    writer.Value(static_cast<uint64_t>(rec.item));
  }
  writer.EndArray().Key("scores").BeginArray();
  for (const ScoredItem& rec : items) {
    writer.Value(static_cast<double>(rec.score));
  }
  writer.EndArray().EndObject();
}

// Decodes one JSON recommend request ({"session_id","item_id","consent"})
// — the POST /v1/recommend body and each /v1/recommend:batch entry.
StatusOr<RecommendRequest> ParseRecommendEntry(const JsonValue& entry) {
  if (entry.type() != JsonValue::Type::kObject) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  RecommendRequest request;
  const JsonValue* session = entry.Find("session_id");
  if (session == nullptr || session->type() != JsonValue::Type::kString ||
      session->AsString().empty()) {
    return Status::InvalidArgument("session_id is required");
  }
  request.session_key = session->AsString();
  const JsonValue* item = entry.Find("item_id");
  if (item == nullptr || item->type() != JsonValue::Type::kNumber ||
      item->AsNumber() < 0 || item->AsNumber() > 4294967295.0 ||
      item->AsNumber() != static_cast<double>(item->AsInt())) {
    return Status::InvalidArgument("item_id must be an unsigned integer");
  }
  request.item = static_cast<ItemId>(item->AsInt());
  if (const JsonValue* consent = entry.Find("consent");
      consent != nullptr && consent->type() == JsonValue::Type::kBool) {
    request.consent = consent->AsBool();
  }
  if (const JsonValue* engine = entry.Find("engine"); engine != nullptr) {
    if (engine->type() != JsonValue::Type::kString) {
      return Status::InvalidArgument("engine must be \"vmis\" or \"ann\"");
    }
    const auto kind = ParseEngineKind(engine->AsString());
    if (!kind.has_value()) {
      return Status::InvalidArgument("unknown engine '" + engine->AsString() +
                                     "' (expected \"vmis\" or \"ann\")");
    }
    request.engine = *kind;
  }
  return request;
}

}  // namespace

SerenadeServer::SerenadeServer(std::unique_ptr<SerenadeService> service,
                               ServerConfig config)
    : service_(std::move(service)),
      config_(config),
      slow_logger_(config.trace) {
  executor_ = std::make_unique<BatchExecutor>(service_.get(), &registry_);
  RegisterMetrics();
  BuildRoutes();
}

SerenadeServer::~SerenadeServer() { Stop(); }

void SerenadeServer::RegisterMetrics() {
  registry_.AddCallback("serenade_requests_total", "HTTP requests served",
                        MetricType::kCounter,
                        [this] { return requests_served(); });
  registry_.AddCallback("serenade_store_reads_total", "session store reads",
                        MetricType::kCounter,
                        [this] { return service_->StoreStats().reads; });
  registry_.AddCallback("serenade_store_writes_total", "session store writes",
                        MetricType::kCounter,
                        [this] { return service_->StoreStats().writes; });
  registry_.AddCallback("serenade_store_expirations_total",
                        "sessions expired by TTL", MetricType::kCounter,
                        [this] { return service_->StoreStats().expirations; });
  registry_.AddCallback(
      "serenade_live_sessions", "evolving sessions currently stored",
      MetricType::kGauge,
      [this] { return service_->StoreStats().live_entries; });
  registry_.AddCallback(
      "serenade_index_sessions", "historical sessions in the index",
      MetricType::kGauge,
      [this] { return service_->CurrentSnapshot()->index().num_sessions(); });
  registry_.AddCallback(
      "serenade_index_items", "distinct items in the index", MetricType::kGauge,
      [this] { return service_->CurrentSnapshot()->index().num_items(); });
  registry_.AddCallback(
      "serenade_index_version", "published index snapshot version",
      MetricType::kGauge,
      [this] { return service_->CurrentSnapshot()->version(); });
  registry_.AddCallback(
      "serenade_index_base_version",
      "version of the base snapshot freshness deltas layer over",
      MetricType::kGauge,
      [this] { return service_->index_manager().base_version(); });
  registry_.AddCallback(
      "serenade_index_reloads_total", "successful index hot swaps",
      MetricType::kCounter,
      [this] { return service_->index_manager().reloads_total(); });
  registry_.AddCallback(
      "serenade_index_reload_failures_total", "rejected index reload attempts",
      MetricType::kCounter,
      [this] { return service_->index_manager().reload_failures_total(); });
  registry_.AddCallback(
      "serenade_index_deltas_applied_total",
      "freshness deltas layered over the base snapshot", MetricType::kCounter,
      [this] { return service_->index_manager().deltas_applied_total(); });
  registry_.AddCallback(
      "serenade_index_delta_rejects_total",
      "freshness deltas rejected (lineage or CRC mismatch)",
      MetricType::kCounter,
      [this] { return service_->index_manager().delta_rejects_total(); });
  registry_.AddCallback(
      "serenade_index_applied_delta_version",
      "version of the last applied freshness delta (0 = base only)",
      MetricType::kGauge,
      [this] { return service_->index_manager().applied_delta_version(); });
  registry_.AddCallback(
      "serenade_index_freshness_seconds",
      "age of the newest click servable from the index (0 until the "
      "first delta lands)",
      MetricType::kGauge, [this] {
        return FreshnessSeconds(
            service_->index_manager().freshness_watermark_unix_ms());
      });
  registry_.AddCallback("serenade_recommender_pool_size",
                        "idle pooled recommenders", MetricType::kGauge,
                        [this] { return service_->PooledRecommenders(); });
  registry_.AddCallback(
      "serenade_slow_requests_total",
      "requests over the slow-request threshold", MetricType::kCounter,
      [this] { return slow_logger_.slow_requests_seen(); });

  // Reactor counters: http_ is rebuilt per Start(), so the callbacks read
  // through the pointer and answer 0 before the first Start().
  registry_.AddCallback(
      "serenade_open_connections", "currently open HTTP connections",
      MetricType::kGauge,
      [this] { return http_ ? http_->stats().open_connections : 0; });
  registry_.AddCallback("serenade_accepted_connections_total",
                        "HTTP connections admitted", MetricType::kCounter,
                        [this] { return http_ ? http_->stats().accepted : 0; });
  registry_.AddCallback(
      "serenade_shed_connections_total",
      "connections refused with 503 + Retry-After at the connection cap",
      MetricType::kCounter, [this] { return http_ ? http_->stats().shed : 0; });
  registry_.AddCallback(
      "serenade_reactor_loop_iterations_total", "event-loop wakeups",
      MetricType::kCounter,
      [this] { return http_ ? http_->stats().loop_iterations : 0; });
  registry_.AddCallback(
      "serenade_connection_timeouts_total",
      "connections closed by the timer wheel", MetricType::kCounter, "kind",
      [this]() -> std::vector<MetricSample> {
        const HttpServerStats stats =
            http_ ? http_->stats() : HttpServerStats{};
        return {{"idle", stats.idle_timeouts},
                {"deadline", stats.deadline_timeouts}};
      });
  reactor_loop_lag_micros_ = &registry_.AddHistogram(
      "serenade_reactor_loop_lag_microseconds",
      "time the event loop spent processing one epoll batch");

  recommend_latency_micros_ = &registry_.AddHistogram(
      "serenade_recommend_latency_microseconds",
      "/v1/recommend handling latency");

  // Second retrieval family: per-arm traffic/latency plus the embedding
  // snapshot lifecycle (all read 0 / stay empty on pods without an ANN
  // arm, so the exposition shape is uniform across the fleet).
  registry_.AddCallback(
      "serenade_engine_requests_total",
      "recommend requests served, by resolved retrieval engine",
      MetricType::kCounter, "engine",
      [this]() -> std::vector<MetricSample> {
        return {{"vmis", engine_requests_[0].load(std::memory_order_relaxed)},
                {"ann", engine_requests_[1].load(std::memory_order_relaxed)}};
      });
  registry_.AddCallback(
      "serenade_ann_requests_total", "requests that asked for the ANN engine",
      MetricType::kCounter, [this] { return service_->ann_requests_total(); });
  registry_.AddCallback(
      "serenade_ann_fallbacks_total",
      "ANN requests degraded to VMIS (no embedding snapshot attached)",
      MetricType::kCounter, [this] { return service_->ann_fallbacks_total(); });
  registry_.AddCallback(
      "serenade_embedding_version",
      "published embedding snapshot version (0 = no ANN arm)",
      MetricType::kGauge, [this] {
        const auto& manager = service_->embedding_manager();
        return manager ? manager->current_version() : 0;
      });
  registry_.AddCallback(
      "serenade_embedding_reloads_total", "successful embedding hot swaps",
      MetricType::kCounter, [this] {
        const auto& manager = service_->embedding_manager();
        return manager ? manager->reloads_total() : 0;
      });
  registry_.AddCallback(
      "serenade_embedding_reload_failures_total",
      "rejected embedding reload attempts", MetricType::kCounter, [this] {
        const auto& manager = service_->embedding_manager();
        return manager ? manager->reload_failures_total() : 0;
      });
  engine_latency_micros_[0] = &registry_.AddHistogram(
      "serenade_engine_latency_microseconds",
      "single-recommend execution latency by resolved retrieval engine",
      "engine", "vmis");
  engine_latency_micros_[1] = &registry_.AddHistogram(
      "serenade_engine_latency_microseconds",
      "single-recommend execution latency by resolved retrieval engine",
      "engine", "ann");
  click_to_servable_ms_ = &registry_.AddHistogram(
      "serenade_click_to_servable_milliseconds",
      "end-to-end freshness: click observation to servable overlay");
  for (TraceStage stage : kPodStages) {
    stage_micros_[static_cast<size_t>(stage)] = &registry_.AddHistogram(
        "serenade_stage_duration_microseconds",
        "per-request latency attributed to one serving stage", "stage",
        TraceStageName(stage));
  }
}

void SerenadeServer::BuildRoutes() {
  router_.Handle("GET", "/v1/recommend",
                 [this](const HttpRequest& request, Trace* trace) {
                   return HandleRecommendGet(request, trace);
                 });
  router_.Handle("POST", "/v1/recommend",
                 [this](const HttpRequest& request, Trace* trace) {
                   return HandleRecommendPost(request, trace);
                 });
  router_.Handle("POST", "/v1/recommend:batch",
                 [this](const HttpRequest& request, Trace* trace) {
                   return HandleRecommendBatch(request, trace);
                 });
  router_.Handle("GET", "/v1/healthz",
                 [this](const HttpRequest&, Trace*) { return HandleHealthz(); });
  router_.Handle("GET", "/v1/stats",
                 [this](const HttpRequest&, Trace*) { return HandleStats(); });
  router_.Handle("GET", "/v1/metrics",
                 [this](const HttpRequest&, Trace*) {
                   return HttpResponse::Text(registry_.RenderPrometheus(),
                                             MetricsRegistry::ContentType());
                 });
  // Admin endpoints live under the uniform /v1/admin/<subsystem>/<verb>
  // namespace (replication registers /v1/admin/replication/* and
  // /v1/admin/sessions/* on this same router).
  router_.Handle("POST", "/v1/admin/index/reload",
                 [this](const HttpRequest& request, Trace* trace) {
                   return HandleAdminReload(request, trace);
                 });
  router_.Handle("POST", "/v1/admin/index/delta",
                 [this](const HttpRequest& request, Trace* trace) {
                   return HandleAdminDelta(request, trace);
                 });
  router_.Handle("POST", "/v1/admin/embeddings/reload",
                 [this](const HttpRequest& request, Trace* trace) {
                   return HandleAdminEmbeddingsReload(request, trace);
                 });
}

Status SerenadeServer::Start() {
  HttpServerOptions http_options = config_.http;
  http_options.retry_after_seconds =
      static_cast<int>(config_.retry_after_seconds);
  http_ = std::make_unique<HttpServer>(
      [this](const HttpRequest& request) { return Handle(request); },
      http_options);
  http_->set_loop_lag_histogram(reactor_loop_lag_micros_);
  SERENADE_RETURN_IF_ERROR(http_->Start(config_.port));
  if (config_.janitor_interval_ms > 0) {
    stopping_.store(false);
    janitor_ = std::thread([this] {
      while (!stopping_.load()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(config_.janitor_interval_ms));
        if (stopping_.load()) break;
        service_->SweepExpiredSessions();
      }
    });
  }
  return Status::Ok();
}

void SerenadeServer::Stop() {
  stopping_.store(true);
  if (janitor_.joinable()) janitor_.join();
  if (http_) http_->Stop();
}

void SerenadeServer::RecordStageMetrics(const Trace& trace) {
  for (TraceStage stage : kPodStages) {
    if (trace.StageCount(stage) == 0) continue;
    stage_micros_[static_cast<size_t>(stage)]->Record(
        trace.StageMicros(stage));
  }
}

HttpResponse SerenadeServer::Handle(const HttpRequest& request) {
  // Adopt the gateway's trace id when one arrived; mint one otherwise.
  const std::string inbound = request.Header(kTraceIdHeader);
  Trace trace = IsValidTraceId(inbound) ? Trace(inbound) : Trace();
  trace.Record(TraceStage::kParse, request.parse_micros);

  HttpResponse response = router_.Dispatch(request, &trace);
  response.headers[kTraceIdHeader] = trace.id();

  // Request-level latency metrics cover the recommend routes only, so
  // metrics scrapes and health probes don't dilute the histograms.
  if (request.path == "/v1/recommend" ||
      request.path == "/v1/recommend:batch") {
    recommend_latency_micros_->Record(trace.TotalMicros());
    RecordStageMetrics(trace);
    slow_logger_.MaybeLog(trace, "pod", request.path, response.status);
  }
  return response;
}

HttpResponse SerenadeServer::RunRecommend(const RecommendRequest& request,
                                          Trace* trace) {
  bool admitted = false;
  if (write_hooks_.divert) {
    if (auto diverted =
            write_hooks_.divert(request.session_key, false, std::string())) {
      diverted->headers[kTraceIdHeader] = trace->id();
      return std::move(*diverted);
    }
    admitted = true;
  }
  // The engine that will actually serve: ann only when embeddings are
  // attached, else the vmis fallback (the service counts the fallback).
  const EngineKind resolved =
      request.engine == EngineKind::kAnn && service_->ann_available()
          ? EngineKind::kAnn
          : EngineKind::kVmis;
  const size_t arm = resolved == EngineKind::kAnn ? 1 : 0;
  Stopwatch engine_watch;
  auto result = executor_->Execute(request, trace);
  if (admitted && write_hooks_.done) write_hooks_.done(request.session_key);
  if (!result.ok()) {
    return ApiError(HttpStatusForStatus(result.status()),
                    result.status().message(), trace->id());
  }
  engine_requests_[arm].fetch_add(1, std::memory_order_relaxed);
  if (engine_latency_micros_[arm] != nullptr) {
    engine_latency_micros_[arm]->Record(engine_watch.ElapsedMicros());
  }
  // Accepted click: feed the freshness tap (the builder turns it into a
  // servable overlay delta).
  if (click_observer_) click_observer_(request.session_key, request.item);
  Span serialize_span(trace, TraceStage::kSerialize);
  JsonWriter writer;
  WriteRecommendation(*result, writer);
  HttpResponse response = HttpResponse::Json(writer.str());
  response.headers[kEngineHeader] = EngineName(resolved);
  return response;
}

HttpResponse SerenadeServer::HandleRecommendGet(const HttpRequest& request,
                                                Trace* trace) {
  const std::string session_key = request.Param("session_id");
  const std::string item_text = request.Param("item_id");
  if (session_key.empty() || item_text.empty()) {
    return ApiError(400, "session_id and item_id are required", trace->id());
  }
  uint32_t item = 0;
  const auto parsed = std::from_chars(
      item_text.data(), item_text.data() + item_text.size(), item);
  if (parsed.ec != std::errc() ||
      parsed.ptr != item_text.data() + item_text.size()) {
    return ApiError(400, "item_id must be an unsigned integer", trace->id());
  }
  const bool consent = request.Param("consent", "true") != "false";
  const auto engine = ParseEngineKind(request.Param("engine"));
  if (!engine.has_value()) {
    return ApiError(400,
                    "unknown engine '" + request.Param("engine") +
                        "' (expected \"vmis\" or \"ann\")",
                    trace->id());
  }
  return RunRecommend(RecommendRequest{session_key, item, consent, *engine},
                      trace);
}

HttpResponse SerenadeServer::HandleRecommendPost(const HttpRequest& request,
                                                 Trace* trace) {
  auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    return ApiError(400, "malformed JSON body: " + doc.status().message(),
                    trace->id());
  }
  auto parsed = ParseRecommendEntry(*doc);
  if (!parsed.ok()) {
    return ApiError(400, parsed.status().message(), trace->id());
  }
  return RunRecommend(*parsed, trace);
}

HttpResponse SerenadeServer::HandleRecommendBatch(const HttpRequest& request,
                                                  Trace* trace) {
  auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    return ApiError(400, "malformed JSON body: " + doc.status().message(),
                    trace->id());
  }
  const JsonValue* entries = doc->Find("requests");
  if (entries == nullptr || entries->type() != JsonValue::Type::kArray) {
    return ApiError(400, "body must carry a \"requests\" array", trace->id());
  }
  const std::vector<JsonValue>& slots = entries->AsArray();
  if (slots.size() > config_.max_batch_items) {
    return ApiError(413,
                    "batch of " + std::to_string(slots.size()) +
                        " exceeds the limit of " +
                        std::to_string(config_.max_batch_items),
                    trace->id());
  }

  // Partial-failure semantics: a slot that fails to parse gets an error
  // entry; the remaining slots still execute as one batch.
  std::vector<BatchExecutor::Result> results(
      slots.size(), Status::Internal("batch slot not filled"));
  // Slots whose key range is mid-hand-off are proxied to the new owner by
  // the replication write hook; their raw result bodies bypass `results`.
  std::vector<std::string> raw_slots(slots.size());
  std::vector<RecommendRequest> requests;
  std::vector<size_t> request_slots;
  requests.reserve(slots.size());
  request_slots.reserve(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    auto parsed = ParseRecommendEntry(slots[i]);
    if (!parsed.ok()) {
      results[i] = parsed.status();
      continue;
    }
    if (write_hooks_.divert) {
      if (auto diverted = write_hooks_.divert(parsed->session_key, true,
                                              SerializeJson(slots[i]))) {
        // A 200 body is a single-recommend result — exactly a slot entry;
        // any error body is already the shared envelope a slot carries.
        raw_slots[i] = diverted->body;
        continue;
      }
    }
    requests.push_back(std::move(parsed).value());
    request_slots.push_back(i);
  }
  std::vector<BatchExecutor::Result> executed =
      executor_->ExecuteBatch(requests, trace);
  if (write_hooks_.divert && write_hooks_.done) {
    for (const RecommendRequest& request : requests) {
      write_hooks_.done(request.session_key);
    }
  }
  for (size_t j = 0; j < executed.size(); ++j) {
    if (executed[j].ok() && j < requests.size()) {
      if (click_observer_) {
        click_observer_(requests[j].session_key, requests[j].item);
      }
      const bool ann = requests[j].engine == EngineKind::kAnn &&
                       service_->ann_available();
      engine_requests_[ann ? 1 : 0].fetch_add(1, std::memory_order_relaxed);
    }
    results[request_slots[j]] = std::move(executed[j]);
  }

  Span serialize_span(trace, TraceStage::kSerialize);
  JsonWriter writer;
  writer.BeginObject().Key("results").BeginArray();
  for (size_t i = 0; i < results.size(); ++i) {
    const BatchExecutor::Result& result = results[i];
    if (!raw_slots[i].empty()) {
      writer.Raw(raw_slots[i]);
    } else if (result.ok()) {
      WriteRecommendation(*result, writer);
    } else {
      writer.BeginObject().Key("error").BeginObject();
      writer.Key("code").Value(
          ApiErrorCode(HttpStatusForStatus(result.status())));
      writer.Key("message").Value(result.status().message());
      writer.Key("trace_id").Value(trace->id());
      writer.EndObject().EndObject();
    }
  }
  writer.EndArray().EndObject();
  return HttpResponse::Json(writer.str());
}

HttpResponse SerenadeServer::HandleHealthz() {
  IndexManager& manager = service_->index_manager();
  JsonWriter writer;
  writer.BeginObject()
      .Key("status")
      .Value("ok")
      .Key("index_version")
      .Value(manager.current_version())
      .Key("applied_delta_version")
      .Value(manager.applied_delta_version())
      .Key("index_freshness_seconds")
      .Value(FreshnessSeconds(manager.freshness_watermark_unix_ms()))
      .Key("ann_ready")
      .Value(service_->ann_available())
      .Key("embedding_version")
      .Value(service_->embedding_manager()
                 ? service_->embedding_manager()->current_version()
                 : 0);
  for (const auto& extra : healthz_extras_) extra(writer);
  writer.EndObject();
  return HttpResponse::Json(writer.str());
}

Status SerenadeServer::ApplyDelta(const IndexDelta& delta) {
  IndexManager::DeltaApplyInfo info;
  const Status applied = service_->ApplyDelta(delta, &info);
  if (applied.code() == StatusCode::kAlreadyExists) return Status::Ok();
  SERENADE_RETURN_IF_ERROR(applied);
  const uint64_t now = NowUnixMs();
  for (uint64_t observed : info.observed_unix_ms) {
    click_to_servable_ms_->Record(now > observed ? now - observed : 0);
  }
  return Status::Ok();
}

HttpResponse SerenadeServer::HandleAdminDelta(const HttpRequest& request,
                                              Trace* trace) {
  auto delta = DeserializeDelta(request.body);
  if (!delta.ok()) {
    return ApiError(HttpStatusForStatus(delta.status()),
                    delta.status().ToString(), trace->id());
  }
  const Status applied = ApplyDelta(*delta);
  if (!applied.ok()) {
    // Lineage / CRC mismatches reject without touching the published
    // snapshot; tell the shipper why.
    return ApiError(HttpStatusForStatus(applied), applied.ToString(),
                    trace->id());
  }
  IndexManager& manager = service_->index_manager();
  JsonWriter writer;
  writer.BeginObject()
      .Key("status")
      .Value("ok")
      .Key("index_version")
      .Value(manager.current_version())
      .Key("applied_delta_version")
      .Value(manager.applied_delta_version())
      .Key("base_version")
      .Value(manager.base_version())
      .EndObject();
  return HttpResponse::Json(writer.str());
}

HttpResponse SerenadeServer::HandleAdminReload(const HttpRequest& request,
                                               Trace* trace) {
  const std::string path = request.Param("path");
  const Status reloaded = service_->ReloadIndex(path);
  if (!reloaded.ok()) {
    // The previous snapshot stays published; tell the operator why the
    // rollout was rejected.
    return ApiError(HttpStatusForStatus(reloaded), reloaded.ToString(),
                    trace->id());
  }
  const auto snapshot = service_->CurrentSnapshot();
  JsonWriter writer;
  writer.BeginObject()
      .Key("status")
      .Value("ok")
      .Key("index_version")
      .Value(snapshot->version())
      .Key("index_source")
      .Value(snapshot->manifest().source)
      .Key("index_sessions")
      .Value(static_cast<uint64_t>(snapshot->index().num_sessions()))
      .EndObject();
  return HttpResponse::Json(writer.str());
}

HttpResponse SerenadeServer::HandleAdminEmbeddingsReload(
    const HttpRequest& request, Trace* trace) {
  const std::string path = request.Param("path");
  const Status reloaded = service_->ReloadEmbeddings(path);
  if (!reloaded.ok()) {
    // The previous embedding snapshot (if any) stays published.
    return ApiError(HttpStatusForStatus(reloaded), reloaded.ToString(),
                    trace->id());
  }
  const auto snapshot = service_->embedding_manager()->Current();
  JsonWriter writer;
  writer.BeginObject()
      .Key("status")
      .Value("ok")
      .Key("embedding_version")
      .Value(snapshot->version())
      .Key("embedding_source")
      .Value(snapshot->manifest().source)
      .Key("embedding_items")
      .Value(static_cast<uint64_t>(snapshot->embeddings().num_items))
      .Key("embedding_dim")
      .Value(static_cast<uint64_t>(snapshot->embeddings().dim))
      .EndObject();
  return HttpResponse::Json(writer.str());
}

// The registry view plus the identity strings no uint64 family can hold.
HttpResponse SerenadeServer::HandleStats() {
  const auto snapshot = service_->CurrentSnapshot();
  const IndexManifest& manifest = snapshot->manifest();
  return HttpResponse::Json(
      StatsJson(registry_, {{"index_source", manifest.source},
                            {"index_build_id", manifest.build_id}}));
}

}  // namespace serenade
