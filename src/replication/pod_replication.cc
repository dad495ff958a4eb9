#include "replication/pod_replication.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "replication/replication_protocol.h"
#include "serving/json.h"
#include "testing/fault_injection.h"

namespace serenade {

namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t ParseU64(const std::string& text, uint64_t fallback = 0) {
  if (text.empty()) return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return fallback;
  return static_cast<uint64_t>(value);
}

/// True when `prefix` is a whole-token comma-list prefix of `full`
/// ("1,2" of "1,2,3" but not of "1,22").
bool IsTokenPrefix(const std::string& prefix, const std::string& full) {
  if (prefix.size() > full.size()) return false;
  if (full.compare(0, prefix.size(), prefix) != 0) return false;
  return prefix.size() == full.size() || full[prefix.size()] == ',';
}

}  // namespace

std::string MergeSessionValues(const std::string& replica,
                               const std::string& local) {
  if (local.empty() || IsTokenPrefix(local, replica)) return replica;
  if (replica.empty() || IsTokenPrefix(replica, local)) return local;
  // Divergent histories: the replica's clicks predate the failover clicks
  // the local pod accrued, so replay them first.
  return replica + "," + local;
}

PodReplication::PodReplication(SerenadeServer* server,
                               PodReplicationConfig config)
    : server_(server), config_(std::move(config)) {
  WalShipperConfig ship;
  ship.donor_name = config_.pod_name;
  ship.wal_path = store().options().wal_path;
  ship.ship_interval_ms = config_.ship_interval_ms;
  ship.max_batch_bytes = config_.max_batch_bytes;
  ship.client = config_.client;
  shipper_ = std::make_unique<WalShipper>(
      std::move(ship), [this] { return store().SyncWal(); },
      [this] { return store().wal_generation(); });
  HttpClientPoolConfig pool;
  pool.client = config_.client;
  pool_ = std::make_unique<HttpClientPool>(pool);
  RegisterRoutes();
  RegisterHooks();
  RegisterMetrics();
}

PodReplication::~PodReplication() { Stop(); }

Status PodReplication::Start() {
  shipper_->Start();
  return Status::Ok();
}

void PodReplication::Stop() { shipper_->Stop(); }

void PodReplication::RegisterRoutes() {
  Router& router = server_->router();
  router.Handle("POST", repl::kBatchPath,
                [this](const HttpRequest& request, Trace* trace) {
                  return HandleBatch(request, trace);
                });
  router.Handle("POST", repl::kPeerPath,
                [this](const HttpRequest& request, Trace* trace) {
                  return HandlePeer(request, trace);
                });
  router.Handle("POST", repl::kPromotePath,
                [this](const HttpRequest& request, Trace* trace) {
                  return HandlePromote(request, trace);
                });
  router.Handle("POST", repl::kRestorePath,
                [this](const HttpRequest& request, Trace* trace) {
                  return HandleRestore(request, trace);
                });
  router.Handle("POST", repl::kHandoffPath,
                [this](const HttpRequest& request, Trace* trace) {
                  return HandleHandoff(request, trace);
                });
  router.Handle("POST", repl::kHandoffFinishPath,
                [this](const HttpRequest& request, Trace* trace) {
                  return HandleHandoffFinish(request, trace);
                });
}

void PodReplication::RegisterHooks() {
  WriteHooks hooks;
  hooks.divert = [this](const std::string& key, bool batch_slot,
                        const std::string& slot_json) {
    return Divert(key, batch_slot, slot_json);
  };
  hooks.done = [this](const std::string& key) { WriteDone(key); };
  server_->set_write_hooks(std::move(hooks));

  server_->add_healthz_extra([this](JsonWriter& writer) {
    writer.Key("replica_lag_bytes").Value(shipper_->lag_bytes());
    writer.Key("replica_lag_seconds").Value(shipper_->lag_seconds());
    writer.Key("ring_epoch").Value(ring_epoch());
  });
}

void PodReplication::RegisterMetrics() {
  MetricsRegistry& registry = server_->metrics();
  registry.AddCallback(
      "serenade_replica_lag_bytes",
      "WAL bytes not yet acknowledged by the ring successor",
      MetricType::kGauge, [this] { return shipper_->lag_bytes(); });
  registry.AddCallback(
      "serenade_replica_lag_milliseconds",
      "Milliseconds since the replica was last fully caught up",
      MetricType::kGauge, [this] {
        return static_cast<uint64_t>(shipper_->lag_seconds() * 1000.0);
      });
  registry.AddCallback("serenade_ring_epoch",
                       "Fleet membership epoch this pod last adopted",
                       MetricType::kGauge, [this] { return ring_epoch(); });
  registry.AddCallback(
      "serenade_repl_peer_port",
      "Port of the ring successor this pod ships its WAL to (0 = none)",
      MetricType::kGauge, [this] { return shipper_->peer_port(); });
  registry.AddCallback(
      "serenade_repl_batches_shipped_total",
      "Replication batches acknowledged by the ring successor",
      MetricType::kCounter,
      [this] { return shipper_->stats().batches_shipped; });
  registry.AddCallback(
      "serenade_repl_bytes_shipped_total",
      "WAL bytes acknowledged by the ring successor", MetricType::kCounter,
      [this] { return shipper_->stats().bytes_shipped; });
  registry.AddCallback(
      "serenade_repl_ship_errors_total",
      "Replication ship attempts that failed in transport",
      MetricType::kCounter, [this] { return shipper_->stats().ship_errors; });
  registry.AddCallback(
      "serenade_repl_offset_rewinds_total",
      "Offset resynchronisations after a 409 from the ring successor",
      MetricType::kCounter,
      [this] { return shipper_->stats().offset_rewinds; });
  registry.AddCallback(
      "serenade_repl_batches_applied_total",
      "Replication batches this pod applied for its donors",
      MetricType::kCounter, [this] { return hub_.batches_applied_total(); });
  registry.AddCallback(
      "serenade_repl_batches_rejected_total",
      "Replication batches this pod rejected (offset mismatch or torn)",
      MetricType::kCounter, [this] { return hub_.batches_rejected_total(); });
  registry.AddCallback(
      "serenade_replica_donors", "Donor pods this pod holds a replica of",
      MetricType::kGauge, [this] { return hub_.Donors().size(); });
  registry.AddCallback(
      "serenade_handoff_sessions_moved_total",
      "Sessions cut over to a new owner during live hand-offs",
      MetricType::kCounter, [this] { return sessions_moved_.load(); });
  registry.AddCallback(
      "serenade_handoff_redirects_total",
      "Single recommends 307-redirected to a session's new owner",
      MetricType::kCounter, [this] { return redirects_.load(); });
  registry.AddCallback(
      "serenade_handoff_proxied_writes_total",
      "Batch slots proxied to a session's new owner mid-hand-off",
      MetricType::kCounter, [this] { return proxied_writes_.load(); });
  registry.AddCallback(
      "serenade_handoff_blocked_writes_total",
      "Writes refused with 503 while their key range was cutting over",
      MetricType::kCounter, [this] { return blocked_writes_.load(); });
  registry.AddCallback(
      "serenade_promotions_total",
      "Replica promotions run on this pod after an owner failed",
      MetricType::kCounter, [this] { return promotions_.load(); });
  registry.AddCallback(
      "serenade_sessions_promoted_total",
      "Replica sessions merged into the live store on owner failover",
      MetricType::kCounter, [this] { return sessions_promoted_.load(); });
}

HttpResponse PodReplication::HandleBatch(const HttpRequest& request,
                                         Trace* trace) {
  const std::string donor = request.Header(repl::kDonorHeader);
  if (donor.empty()) {
    return ApiError(400, "missing " + std::string(repl::kDonorHeader),
                    trace->id());
  }
  const uint64_t seq = ParseU64(request.Header(repl::kSeqHeader));
  const uint64_t offset = ParseU64(request.Header(repl::kOffsetHeader));
  const bool reset = request.Header(repl::kResetHeader) == "1";
  uint64_t acked = 0;
  auto applied =
      hub_.ApplyBatch(donor, seq, offset, reset, request.body, &acked);
  if (!applied.ok()) {
    const int status = HttpStatusForStatus(applied.status());
    if (status == 409) {
      // Offset mismatch: the envelope additionally carries the replica's
      // acked offset so the shipper can resynchronise in one round trip.
      JsonWriter writer;
      writer.BeginObject().Key("error").BeginObject();
      writer.Key("code").Value(ApiErrorCode(409));
      writer.Key("message").Value(applied.status().message());
      writer.Key("trace_id").Value(trace->id());
      writer.EndObject().Key(repl::kAckedOffsetField).Value(acked).EndObject();
      HttpResponse response = HttpResponse::Json(writer.str());
      response.status = 409;
      response.headers[repl::kOffsetHeader] = std::to_string(acked);
      return response;
    }
    return ApiError(status, applied.status().message(), trace->id());
  }
  JsonWriter writer;
  writer.BeginObject();
  writer.Key(repl::kAckedOffsetField).Value(*applied);
  writer.Key("seq").Value(seq);
  writer.EndObject();
  return HttpResponse::Json(writer.str());
}

HttpResponse PodReplication::HandlePeer(const HttpRequest& request,
                                        Trace* trace) {
  auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    return ApiError(400, "invalid JSON: " + doc.status().message(),
                    trace->id());
  }
  const JsonValue* port = doc->Find("peer_port");
  if (port == nullptr || port->type() != JsonValue::Type::kNumber) {
    return ApiError(400, "missing peer_port", trace->id());
  }
  shipper_->SetPeer(static_cast<uint16_t>(port->AsInt()));
  if (const JsonValue* epoch = doc->Find("ring_epoch");
      epoch != nullptr && epoch->type() == JsonValue::Type::kNumber) {
    uint64_t incoming = static_cast<uint64_t>(epoch->AsInt());
    uint64_t current = ring_epoch_.load(std::memory_order_acquire);
    while (incoming > current &&
           !ring_epoch_.compare_exchange_weak(current, incoming)) {
    }
  }
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("status").Value("ok");
  writer.Key("peer_port").Value(static_cast<uint64_t>(shipper_->peer_port()));
  writer.Key("ring_epoch").Value(ring_epoch());
  writer.EndObject();
  HttpResponse response = HttpResponse::Json(writer.str());
  response.headers[repl::kRingEpochHeader] = std::to_string(ring_epoch());
  return response;
}

HttpResponse PodReplication::HandlePromote(const HttpRequest& request,
                                           Trace* trace) {
  auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    return ApiError(400, "invalid JSON: " + doc.status().message(),
                    trace->id());
  }
  const JsonValue* donor = doc->Find("donor");
  if (donor == nullptr || donor->type() != JsonValue::Type::kString) {
    return ApiError(400, "missing donor", trace->id());
  }
  const auto entries = hub_.SnapshotDonor(donor->AsString());
  hub_.DropDonor(donor->AsString());

  const uint64_t now = store().options().clock();
  const uint64_t ttl = store().options().ttl_seconds;
  size_t merged = 0;
  size_t skipped = 0;
  for (const auto& entry : entries) {
    // A session that was already expired on the dead owner must not come
    // back to life on its replica.
    if (now > entry.last_access && now - entry.last_access > ttl) {
      ++skipped;
      continue;
    }
    const Status updated =
        store().Update(entry.key, [&entry](const std::string& local) {
          return MergeSessionValues(entry.value, local);
        });
    if (!updated.ok()) {
      return ApiError(500, "promotion write failed: " + updated.ToString(),
                      trace->id());
    }
    ++merged;
  }
  ++promotions_;
  sessions_promoted_ += merged;
  sessions_promote_skipped_ += skipped;
  LOG_INFO << "replication: promoted donor " << donor->AsString() << " ("
           << merged << " sessions, " << skipped << " expired skipped)";
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("status").Value("ok");
  writer.Key("donor").Value(donor->AsString());
  writer.Key("promoted").Value(static_cast<uint64_t>(merged));
  writer.Key("skipped_expired").Value(static_cast<uint64_t>(skipped));
  writer.EndObject();
  return HttpResponse::Json(writer.str());
}

HttpResponse PodReplication::HandleRestore(const HttpRequest& request,
                                           Trace* trace) {
  auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    return ApiError(400, "invalid JSON: " + doc.status().message(),
                    trace->id());
  }
  const JsonValue* list = doc->Find("entries");
  if (list == nullptr || list->type() != JsonValue::Type::kArray) {
    return ApiError(400, "missing entries", trace->id());
  }
  std::vector<SessionStore::RestoreEntry> entries;
  entries.reserve(list->AsArray().size());
  for (const JsonValue& member : list->AsArray()) {
    const JsonValue* key = member.Find("k");
    const JsonValue* value = member.Find("v");
    const JsonValue* timestamp = member.Find("t");
    if (key == nullptr || key->type() != JsonValue::Type::kString ||
        value == nullptr || value->type() != JsonValue::Type::kString ||
        timestamp == nullptr ||
        timestamp->type() != JsonValue::Type::kNumber) {
      return ApiError(400, "entry needs k, v, t", trace->id());
    }
    entries.push_back(SessionStore::RestoreEntry{
        key->AsString(), value->AsString(),
        static_cast<uint64_t>(timestamp->AsInt())});
  }
  auto restored = store().Restore(entries);
  if (!restored.ok()) {
    return ApiError(500, "restore failed: " + restored.status().ToString(),
                    trace->id());
  }
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("restored").Value(static_cast<uint64_t>(*restored));
  writer.EndObject();
  return HttpResponse::Json(writer.str());
}

HttpResponse PodReplication::HandleHandoff(const HttpRequest& request,
                                           Trace* trace) {
  auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    return ApiError(400, "invalid JSON: " + doc.status().message(),
                    trace->id());
  }
  const JsonValue* members = doc->Find("members");
  if (members == nullptr || members->type() != JsonValue::Type::kArray ||
      members->AsArray().empty()) {
    return ApiError(400, "missing members", trace->id());
  }
  size_t virtual_nodes = config_.virtual_nodes;
  if (const JsonValue* v = doc->Find("virtual_nodes");
      v != nullptr && v->type() == JsonValue::Type::kNumber) {
    virtual_nodes = static_cast<size_t>(v->AsInt());
  }
  uint64_t target_epoch = 0;
  if (const JsonValue* epoch = doc->Find("ring_epoch");
      epoch != nullptr && epoch->type() == JsonValue::Type::kNumber) {
    target_epoch = static_cast<uint64_t>(epoch->AsInt());
  }
  HashRing pending(virtual_nodes);
  std::map<std::string, uint16_t> ports;
  std::set<std::string> names;
  for (const JsonValue& member : members->AsArray()) {
    const JsonValue* name = member.Find("name");
    const JsonValue* port = member.Find("port");
    if (name == nullptr || name->type() != JsonValue::Type::kString ||
        port == nullptr || port->type() != JsonValue::Type::kNumber) {
      return ApiError(400, "member needs name and port", trace->id());
    }
    pending.AddNode(name->AsString());
    ports[name->AsString()] = static_cast<uint16_t>(port->AsInt());
    names.insert(name->AsString());
  }

  {
    std::lock_guard<std::mutex> lock(transfer_mutex_);
    // A retried hand-off against the same pending membership continues
    // where the previous attempt stopped (moved/pushed survive), so a
    // mid-transfer donor crash is repaired by simply re-posting.
    if (!(transfer_.active && transfer_.member_names == names)) {
      transfer_ = Transfer{};
      transfer_.active = true;
      transfer_.ring = pending;
      transfer_.member_names = names;
    }
    transfer_.ports = ports;
    transfer_.target_epoch = target_epoch;
  }
  ++handoffs_;

  // Push-then-cutover passes: a key is cut over only once its current
  // value has been pushed AND no local write is in flight, so every
  // acknowledged click either reaches the new owner in a push or is
  // redirected there after cutover.
  const int max_passes = config_.handoff_max_passes + 5;
  for (int pass = 0;; ++pass) {
    if (pass >= max_passes) {
      return ApiError(500, "hand-off failed to converge", trace->id());
    }
    auto entries = store().DumpEntries();
    std::map<std::string, std::vector<SessionStore::RestoreEntry>> to_push;
    std::vector<std::pair<std::string, std::string>> settled;
    {
      std::lock_guard<std::mutex> lock(transfer_mutex_);
      for (auto& entry : entries) {
        const std::string& owner = transfer_.ring.NodeFor(entry.key);
        if (owner == config_.pod_name) continue;
        if (transfer_.moved.count(entry.key) != 0) continue;
        auto pushed = transfer_.pushed.find(entry.key);
        if (pushed != transfer_.pushed.end() &&
            pushed->second == entry.value) {
          settled.emplace_back(entry.key, entry.value);
        } else {
          to_push[owner].push_back(std::move(entry));
        }
      }
    }
    if (to_push.empty() && settled.empty()) break;

    for (auto& [owner, batch] : to_push) {
      const uint16_t port = ports.at(owner);
      for (size_t begin = 0; begin < batch.size();
           begin += config_.restore_batch_entries) {
        const size_t end =
            std::min(batch.size(), begin + config_.restore_batch_entries);
        std::vector<SessionStore::RestoreEntry> chunk(
            batch.begin() + static_cast<ptrdiff_t>(begin),
            batch.begin() + static_cast<ptrdiff_t>(end));
        const Status pushed = PostRestore(port, chunk);
        if (!pushed.ok()) {
          return ApiError(502,
                          "hand-off push to " + owner +
                              " failed: " + pushed.ToString(),
                          trace->id());
        }
        {
          std::lock_guard<std::mutex> lock(transfer_mutex_);
          for (auto& entry : chunk) {
            transfer_.pushed[entry.key] = entry.value;
          }
        }
        // The donor dies (or aborts) mid-transfer after some keys were
        // pushed. Transfer state is kept, so the gateway's retry resumes
        // instead of restarting — and nothing was cut over twice.
        SERENADE_FAULT_POINT(FaultSite::kHandoffCutoverCrash, {
          return ApiError(500, "injected: hand-off crashed mid-transfer",
                          trace->id());
        });
      }
    }

    {
      std::lock_guard<std::mutex> lock(transfer_mutex_);
      for (const auto& [key, value] : settled) {
        if (inflight_.count(key) != 0) continue;
        const auto current = store().PeekEntry(key);
        if (!current.has_value() || current->value == value) {
          transfer_.moved.insert(key);
          transfer_.blocked.erase(key);
          ++sessions_moved_;
        }
      }
    }

    if (pass == config_.handoff_max_passes) {
      // Hot keys keep changing faster than we can push them: briefly
      // block their writers (the gateway retries the 503s) so the last
      // values freeze and the transfer converges.
      {
        std::lock_guard<std::mutex> lock(transfer_mutex_);
        for (const auto& entry : store().DumpEntries()) {
          if (transfer_.ring.NodeFor(entry.key) != config_.pod_name &&
              transfer_.moved.count(entry.key) == 0) {
            transfer_.blocked.insert(entry.key);
          }
        }
      }
      AwaitMovingInflightDrain();
    }
  }

  // Converged for every key that existed when the last pass scanned.
  // Close the range: from here brand-new moving keys divert straight to
  // their pending owner and stragglers with local state get a brief 503,
  // so after the drain below the final sweep sees a frozen store.
  {
    std::lock_guard<std::mutex> lock(transfer_mutex_);
    transfer_.range_closed = true;
  }
  AwaitMovingInflightDrain();
  for (auto& entry : store().DumpEntries()) {
    std::string owner;
    {
      std::lock_guard<std::mutex> lock(transfer_mutex_);
      owner = transfer_.ring.NodeFor(entry.key);
      if (owner == config_.pod_name ||
          transfer_.moved.count(entry.key) != 0) {
        continue;
      }
    }
    const Status pushed = PostRestore(ports.at(owner), {entry});
    if (!pushed.ok()) {
      return ApiError(502,
                      "hand-off push to " + owner + " failed: " +
                          pushed.ToString(),
                      trace->id());
    }
    std::lock_guard<std::mutex> lock(transfer_mutex_);
    transfer_.pushed[entry.key] = entry.value;
    transfer_.moved.insert(entry.key);
    transfer_.blocked.erase(entry.key);
    ++sessions_moved_;
  }

  uint64_t moved_total = 0;
  {
    std::lock_guard<std::mutex> lock(transfer_mutex_);
    moved_total = transfer_.moved.size();
  }
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("status").Value("ok");
  writer.Key("moved").Value(moved_total);
  writer.Key("ring_epoch").Value(target_epoch);
  writer.EndObject();
  HttpResponse response = HttpResponse::Json(writer.str());
  response.headers[repl::kRingEpochHeader] = std::to_string(target_epoch);
  return response;
}

HttpResponse PodReplication::HandleHandoffFinish(const HttpRequest& request,
                                                 Trace* trace) {
  (void)request;
  (void)trace;
  std::vector<std::string> doomed;
  uint64_t target_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(transfer_mutex_);
    if (!transfer_.active) {
      JsonWriter writer;
      writer.BeginObject();
      writer.Key("status").Value("ok");
      writer.Key("dropped").Value(static_cast<uint64_t>(0));
      writer.Key("ring_epoch").Value(ring_epoch());
      writer.EndObject();
      return HttpResponse::Json(writer.str());
    }
    doomed.assign(transfer_.moved.begin(), transfer_.moved.end());
    target_epoch = transfer_.target_epoch;
  }
  // Delete while the transfer diverts are still armed, so a concurrent
  // write for a moved key cannot land locally between drop and clear.
  for (const std::string& key : doomed) {
    (void)store().Delete(key);
  }
  {
    std::lock_guard<std::mutex> lock(transfer_mutex_);
    residue_ = std::move(transfer_);
    transfer_ = Transfer{};
    residue_until_ms_ = SteadyNowMs() + static_cast<int64_t>(config_.residue_ms);
  }
  uint64_t current = ring_epoch_.load(std::memory_order_acquire);
  while (target_epoch > current &&
         !ring_epoch_.compare_exchange_weak(current, target_epoch)) {
  }
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("status").Value("ok");
  writer.Key("dropped").Value(static_cast<uint64_t>(doomed.size()));
  writer.Key("ring_epoch").Value(ring_epoch());
  writer.EndObject();
  HttpResponse response = HttpResponse::Json(writer.str());
  response.headers[repl::kRingEpochHeader] = std::to_string(ring_epoch());
  return response;
}

std::optional<HttpResponse> PodReplication::Divert(
    const std::string& key, bool batch_slot, const std::string& slot_json) {
  uint16_t divert_port = 0;
  bool block = false;
  {
    std::unique_lock<std::mutex> lock(transfer_mutex_);
    if (transfer_.active && transfer_.ring.num_nodes() > 0) {
      const std::string& owner = transfer_.ring.NodeFor(key);
      if (owner != config_.pod_name) {
        if (transfer_.moved.count(key) != 0) {
          divert_port = transfer_.ports.at(owner);
        } else if (transfer_.blocked.count(key) != 0) {
          block = true;
        } else if (transfer_.range_closed) {
          // Brand-new keys (no local state) go straight to their pending
          // owner; a straggler with local state waits out the final sweep.
          if (store().PeekEntry(key).has_value()) {
            block = true;
          } else {
            divert_port = transfer_.ports.at(owner);
          }
        }
      }
    } else if (residue_.active && SteadyNowMs() < residue_until_ms_ &&
               residue_.ring.num_nodes() > 0) {
      // Post-finish grace window: requests routed against the pre-flip
      // ring still reach the new owner instead of re-creating a session
      // the donor just handed off.
      const std::string& owner = residue_.ring.NodeFor(key);
      if (owner != config_.pod_name && !store().PeekEntry(key).has_value()) {
        divert_port = residue_.ports.at(owner);
      }
    }
    if (!block && divert_port == 0) {
      ++inflight_[key];
      return std::nullopt;
    }
  }
  if (block) {
    ++blocked_writes_;
    HttpResponse response =
        ApiError(503, "session mid-hand-off; retry shortly", "");
    response.headers["Retry-After"] = "1";
    return response;
  }
  if (batch_slot) return ProxySlot(divert_port, slot_json);
  return RedirectTo(divert_port);
}

void PodReplication::WriteDone(const std::string& key) {
  std::lock_guard<std::mutex> lock(transfer_mutex_);
  auto it = inflight_.find(key);
  if (it != inflight_.end() && --it->second <= 0) inflight_.erase(it);
}

HttpResponse PodReplication::RedirectTo(uint16_t port) {
  ++redirects_;
  HttpResponse response;
  response.status = 307;
  response.headers["Location"] = "/v1/recommend";
  response.headers[repl::kBackendPortHeader] = std::to_string(port);
  response.body = "{\"redirect\":true}";
  return response;
}

HttpResponse PodReplication::ProxySlot(uint16_t port,
                                       const std::string& slot_json) {
  ++proxied_writes_;
  auto client = pool_->Acquire(port);
  if (!client.ok()) {
    return ApiError(503,
                    "hand-off proxy connect failed: " +
                        client.status().ToString());
  }
  auto response = (*client)->Post("/v1/recommend", slot_json);
  const bool reusable =
      response.ok() && response->Header("connection") != "close";
  pool_->Release(port, std::move(*client), reusable);
  if (!response.ok()) {
    return ApiError(503,
                    "hand-off proxy failed: " + response.status().ToString());
  }
  return *response;
}

Status PodReplication::PostRestore(
    uint16_t port, const std::vector<SessionStore::RestoreEntry>& entries) {
  JsonWriter writer;
  writer.BeginObject().Key("entries").BeginArray();
  for (const auto& entry : entries) {
    writer.BeginObject();
    writer.Key("k").Value(entry.key);
    writer.Key("v").Value(entry.value);
    writer.Key("t").Value(entry.last_access);
    writer.EndObject();
  }
  writer.EndArray().EndObject();
  auto client = pool_->Acquire(port);
  if (!client.ok()) return client.status();
  auto response = (*client)->Post(repl::kRestorePath, writer.str());
  const bool reusable =
      response.ok() && response->Header("connection") != "close";
  pool_->Release(port, std::move(*client), reusable);
  if (!response.ok()) return response.status();
  if (response->status != 200) {
    return Status::Internal("restore push rejected: HTTP " +
                            std::to_string(response->status));
  }
  return Status::Ok();
}

void PodReplication::AwaitMovingInflightDrain() {
  // Bounded: a missed done() must degrade to a residual race, not a
  // wedged hand-off request.
  for (int spin = 0; spin < 25000; ++spin) {
    bool busy = false;
    {
      std::lock_guard<std::mutex> lock(transfer_mutex_);
      if (!transfer_.active || transfer_.ring.num_nodes() == 0) return;
      for (const auto& [key, count] : inflight_) {
        if (count > 0 &&
            transfer_.ring.NodeFor(key) != config_.pod_name) {
          busy = true;
          break;
        }
      }
    }
    if (!busy) return;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  LOG_WARNING << "replication: hand-off drain timed out with writes in flight";
}

}  // namespace serenade
