#include "freshness/builder_server.h"

#include <charconv>
#include <chrono>
#include <fstream>

#include "common/crc32.h"
#include "common/stopwatch.h"
#include "index/snapshot.h"
#include "serving/json.h"
#include "testing/fault_injection.h"

namespace serenade {

namespace {

uint64_t ParseUint(const std::string& text, uint64_t fallback) {
  uint64_t value = fallback;
  std::from_chars(text.data(), text.data() + text.size(), value);
  return value;
}

}  // namespace

IndexBuilderServer::IndexBuilderServer(IndexBuilderConfig config)
    : config_(std::move(config)),
      builder_(config_.builder),
      http_([this](const HttpRequest& request) { return Handle(request); },
            config_.http) {
  BuildRoutes();
  RegisterMetrics();
}

IndexBuilderServer::~IndexBuilderServer() { Stop(); }

Status IndexBuilderServer::Start() {
  SERENADE_RETURN_IF_ERROR(http_.Start(config_.port));
  if (config_.compact_interval_ms > 0 && !compactor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(compact_mutex_);
      stopping_ = false;
    }
    compactor_ = std::thread([this] { CompactLoop(); });
  }
  return Status::Ok();
}

void IndexBuilderServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(compact_mutex_);
    stopping_ = true;
  }
  compact_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
  http_.Stop();
}

void IndexBuilderServer::CompactLoop() {
  std::unique_lock<std::mutex> lock(compact_mutex_);
  while (!stopping_) {
    compact_cv_.wait_for(
        lock, std::chrono::milliseconds(config_.compact_interval_ms),
        [&] { return stopping_; });
    if (stopping_) return;
    lock.unlock();
    CompactNow(0);
    lock.lock();
  }
}

StatusOr<uint64_t> IndexBuilderServer::CompactNow(uint64_t now_unix_ms) {
  const uint64_t now = now_unix_ms == 0 ? NowUnixMs() : now_unix_ms;
  builder_.SealIdle(now);
  std::optional<IndexDelta> delta = builder_.Compact(now);
  if (!delta.has_value()) return published_version();

  {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    if (published_.has_value() &&
        published_->delta_version == delta->delta_version) {
      return delta->delta_version;  // unchanged content, nothing to publish
    }
  }

  const std::string bytes = SerializeDelta(*delta);
  const std::string artifact_path =
      config_.publish_dir.empty()
          ? ""
          : config_.publish_dir + "/delta-v" +
                std::to_string(delta->delta_version) + ".srndelta";

  SERENADE_FAULT_POINT(FaultSite::kDeltaPublishCrash, {
    // Builder dies mid-publish: a torn artifact can land on disk, but the
    // served in-memory delta never advances — pods keep applying the
    // previous version and the next publish re-stamps a clean artifact.
    if (!artifact_path.empty()) {
      std::ofstream torn(artifact_path, std::ios::binary | std::ios::trunc);
      torn.write(bytes.data(),
                 static_cast<std::streamsize>(
                     serenade_fi->RandBelow(bytes.size())));
    }
    publish_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("injected: builder crashed mid-publish");
  });

  if (!artifact_path.empty()) {
    if (Status write = WriteDeltaFile(artifact_path, *delta); !write.ok()) {
      publish_failures_.fetch_add(1, std::memory_order_relaxed);
      return write;
    }
    IndexManifest manifest;
    manifest.kind = "delta";
    manifest.version = delta->delta_version;
    manifest.base_version = delta->base_version;
    manifest.base_crc32 = delta->base_crc32;
    manifest.watermark_unix_ms = delta->watermark_unix_ms;
    manifest.built_unix = now / 1000;
    manifest.source = "streaming click tap";
    manifest.num_sessions = delta->sessions.size();
    manifest.index_bytes = bytes.size();
    manifest.index_crc32 = Crc32(bytes.data(), bytes.size());
    if (Status write = WriteManifestFile(ManifestPathFor(artifact_path),
                                         manifest);
        !write.ok()) {
      publish_failures_.fetch_add(1, std::memory_order_relaxed);
      return write;
    }
  }

  std::lock_guard<std::mutex> lock(publish_mutex_);
  // Click -> publish latency for the sessions this version adds.
  const size_t previously =
      published_.has_value() ? published_->sessions.size() : 0;
  if (click_to_publish_ms_ != nullptr) {
    for (size_t s = previously; s < delta->sessions.size(); ++s) {
      const uint64_t observed = delta->sessions[s].observed_unix_ms;
      click_to_publish_ms_->Record(now > observed ? now - observed : 0);
    }
  }
  published_bytes_ = bytes;
  published_ = std::move(delta);
  return published_->delta_version;
}

uint64_t IndexBuilderServer::published_version() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return published_.has_value() ? published_->delta_version : 0;
}

uint64_t IndexBuilderServer::published_watermark_unix_ms() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return published_.has_value() ? published_->watermark_unix_ms : 0;
}

void IndexBuilderServer::BuildRoutes() {
  router_.Handle("POST", "/v1/ingest",
                 [this](const HttpRequest& request, Trace*) {
                   return HandleIngest(request);
                 });
  router_.Handle("GET", "/v1/delta/latest",
                 [this](const HttpRequest& request, Trace*) {
                   return HandleDeltaLatest(request);
                 });
  router_.Handle("GET", "/v1/healthz",
                 [this](const HttpRequest& request, Trace*) {
                   return HandleHealthz(request);
                 });
  router_.Handle("GET", "/v1/stats",
                 [this](const HttpRequest& request, Trace*) {
                   return HandleStats(request);
                 });
  router_.Handle("GET", "/v1/metrics",
                 [this](const HttpRequest&, Trace*) {
                   return HttpResponse::Text(registry_.RenderPrometheus(),
                                             MetricsRegistry::ContentType());
                 });
}

HttpResponse IndexBuilderServer::Handle(const HttpRequest& request) {
  return router_.Dispatch(request, nullptr);
}

HttpResponse IndexBuilderServer::HandleIngest(const HttpRequest& request) {
  auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    return ApiError(400, "ingest body: " + doc.status().message());
  }
  const JsonValue* clicks = doc->Find("clicks");
  if (clicks == nullptr || clicks->type() != JsonValue::Type::kArray) {
    return ApiError(400, "ingest body must carry a \"clicks\" array");
  }
  size_t accepted = 0;
  for (const JsonValue& click : clicks->AsArray()) {
    const JsonValue* session = click.Find("session_id");
    const JsonValue* item = click.Find("item_id");
    if (session == nullptr || item == nullptr ||
        session->type() != JsonValue::Type::kString ||
        item->type() != JsonValue::Type::kNumber) {
      return ApiError(400,
                      "each click needs a string session_id and a numeric "
                      "item_id");
    }
    const JsonValue* observed = click.Find("observed_unix_ms");
    const uint64_t observed_ms =
        observed != nullptr && observed->type() == JsonValue::Type::kNumber
            ? static_cast<uint64_t>(observed->AsInt())
            : NowUnixMs();
    builder_.Ingest(session->AsString(),
                    static_cast<ItemId>(item->AsInt()), observed_ms);
    ++accepted;
  }
  JsonWriter json;
  json.BeginObject().Key("accepted").Value(static_cast<uint64_t>(accepted));
  json.EndObject();
  return HttpResponse::Json(json.str());
}

HttpResponse IndexBuilderServer::HandleDeltaLatest(
    const HttpRequest& request) {
  const uint64_t after = ParseUint(request.Param("after", "0"), 0);
  std::lock_guard<std::mutex> lock(publish_mutex_);
  if (!published_.has_value() || published_->delta_version <= after) {
    HttpResponse response;
    response.status = 204;
    response.content_type = "application/octet-stream";
    return response;
  }
  std::string bytes = published_bytes_;
  SERENADE_FAULT_POINT(FaultSite::kDeltaLineageMismatch, {
    // Serve a delta stamped for a different base: CRC-clean bytes, wrong
    // lineage. The pod-side lineage check must reject it.
    IndexDelta mismatched = *published_;
    mismatched.base_version += 1 + serenade_fi->RandBelow(3);
    bytes = SerializeDelta(mismatched);
  });
  HttpResponse response =
      HttpResponse::Text(std::move(bytes), "application/octet-stream");
  response.headers["X-Serenade-Delta-Version"] =
      std::to_string(published_->delta_version);
  response.headers["X-Serenade-Base-Version"] =
      std::to_string(published_->base_version);
  return response;
}

HttpResponse IndexBuilderServer::HandleHealthz(const HttpRequest&) {
  JsonWriter json;
  json.BeginObject()
      .Key("status")
      .Value("ok")
      .Key("role")
      .Value("index-builder")
      .Key("delta_version")
      .Value(published_version())
      .Key("base_version")
      .Value(builder_.base_version())
      .EndObject();
  return HttpResponse::Json(json.str());
}

HttpResponse IndexBuilderServer::HandleStats(const HttpRequest&) {
  return HttpResponse::Json(StatsJson(registry_, {{"role", "index-builder"}}));
}

void IndexBuilderServer::RegisterMetrics() {
  registry_.AddCallback(
      "serenade_builder_clicks_ingested_total",
      "clicks accepted from pod click taps", MetricType::kCounter,
      [this] { return builder_.clicks_ingested(); });
  registry_.AddCallback(
      "serenade_builder_clicks_dropped_total",
      "clicks dropped at the open-session cap", MetricType::kCounter,
      [this] { return builder_.clicks_dropped_overflow(); });
  registry_.AddCallback(
      "serenade_builder_sessions_sealed_total",
      "sessions sealed into the delta log", MetricType::kCounter,
      [this] { return builder_.sessions_sealed(); });
  registry_.AddCallback(
      "serenade_builder_sessions_dropped_short_total",
      "sealed sessions dropped below min_session_length", MetricType::kCounter,
      [this] { return builder_.sessions_dropped_short(); });
  registry_.AddCallback(
      "serenade_builder_sessions_expired_total",
      "sealed sessions aged out of the cumulative delta", MetricType::kCounter,
      [this] { return builder_.sessions_expired(); });
  registry_.AddCallback(
      "serenade_builder_open_sessions", "sessions currently open",
      MetricType::kGauge,
      [this] { return builder_.open_sessions(); });
  registry_.AddCallback(
      "serenade_builder_sealed_sessions",
      "sealed sessions held in the cumulative delta", MetricType::kGauge,
      [this] { return builder_.sealed_sessions(); });
  registry_.AddCallback(
      "serenade_builder_delta_version",
      "delta version currently served to the fleet", MetricType::kGauge,
      [this] { return published_version(); });
  registry_.AddCallback(
      "serenade_builder_base_version",
      "base index version the deltas are stamped against", MetricType::kGauge,
      [this] { return builder_.base_version(); });
  registry_.AddCallback(
      "serenade_builder_watermark_unix_ms",
      "newest click (unix ms) covered by the published delta",
      MetricType::kGauge, [this] { return published_watermark_unix_ms(); });
  registry_.AddCallback(
      "serenade_builder_publish_failures_total",
      "delta publications that failed or crashed mid-write",
      MetricType::kCounter,
      [this] { return publish_failures_.load(std::memory_order_relaxed); });
  registry_.AddCallback(
      "serenade_index_freshness_seconds",
      "age of the newest click covered by the published delta",
      MetricType::kGauge, [this] {
        const uint64_t watermark = published_watermark_unix_ms();
        const uint64_t now = NowUnixMs();
        return watermark == 0 || now < watermark ? 0 : (now - watermark) / 1000;
      });
  click_to_publish_ms_ = &registry_.AddHistogram(
      "serenade_click_to_publish_milliseconds",
      "click observe time to delta publication");
}

}  // namespace serenade
