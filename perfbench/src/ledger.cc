#include "ledger.h"

#include <chrono>
#include <filesystem>
#include <memory>
#include <unordered_map>

#include "core/vmis_knn.h"
#include "index/index_format.h"
#include "serving/business_rules.h"
#include "serving/http.h"
#include "serving/json.h"
#include "serving/service.h"
#include "store/session_store.h"

namespace perfbench {

using serenade::EvolvingSession;
using serenade::JsonValue;
using serenade::RecommendRequest;
using serenade::ScoredItem;

namespace {

constexpr const char* kPodStages[] = {"parse",       "store_get",
                                      "store_put",   "snapshot_pin",
                                      "knn_retrieve", "rank",
                                      "serialize",   "queue_wait"};

double ElapsedUs(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e3;
}

serenade::StatusOr<serenade::HttpResponse> Fetch(uint16_t port,
                                                 const std::string& path) {
  serenade::HttpClient client(serenade::HttpClientOptions{2000, 10000});
  const serenade::Status connected = client.Connect(port);
  if (!connected.ok()) return connected;
  return client.Get(path);
}

double JsonNumber(const JsonValue& doc, const std::string& key) {
  const JsonValue* field = doc.Find(key);
  return field != nullptr && field->type() == JsonValue::Type::kNumber
             ? field->AsNumber()
             : 0.0;
}

// Adds the pods' stage and freshness _sum/_count samples to `out`.
void AddPrometheusSamples(const std::string& text,
                          std::map<std::string, double>* out) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("serenade_stage_duration_microseconds_", 0) != 0 &&
        line.rfind("serenade_click_to_servable_milliseconds_", 0) != 0) {
      continue;
    }
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, space);
    if (name.find("_sum") == std::string::npos &&
        name.find("_count") == std::string::npos) {
      continue;
    }
    (*out)[name] += std::strtod(line.c_str() + space + 1, nullptr);
  }
}

double SampleDelta(const LedgerInput& in, const std::string& name) {
  auto value = [&](const CounterSnapshot& s) {
    auto it = s.samples.find(name);
    return it == s.samples.end() ? 0.0 : it->second;
  };
  return value(in.after) - value(in.before);
}

// Mean of a pod-side histogram over the loaded phase, from _sum/_count.
double HistogramMean(const LedgerInput& in, const std::string& family,
                     const std::string& labels) {
  const double count = SampleDelta(in, family + "_count" + labels);
  return count > 0 ? SampleDelta(in, family + "_sum" + labels) / count : 0.0;
}

JsonValue ResponseValue(const std::vector<ScoredItem>& items) {
  std::vector<JsonValue> ids, scores;
  for (const ScoredItem& rec : items) {
    ids.push_back(JsonValue::Number(rec.item));
    scores.push_back(JsonValue::Number(rec.score));
  }
  return JsonValue::Object({{"items", JsonValue::Array(std::move(ids))},
                            {"scores", JsonValue::Array(std::move(scores))}});
}

}  // namespace

CounterSnapshot ReadCounters(Fleet& fleet) {
  CounterSnapshot snap;
  if (serenade::ClusterGateway* gateway = fleet.gateway()) {
    const serenade::GatewayCounters counters = gateway->counters();
    snap.gateway_retries = counters.retries;
    snap.gateway_degraded = counters.degraded;
    auto stats = Fetch(gateway->port(), "/v1/stats");
    if (stats.ok() && stats->status == 200) {
      auto doc = serenade::ParseJson(stats->body);
      if (doc.ok()) {
        snap.pool_acquires = JsonNumber(*doc, "client_acquires");
        snap.pool_reuses = JsonNumber(*doc, "client_reuses");
      }
    }
  }
  for (size_t i = 0; i < fleet.num_pods(); ++i) {
    serenade::SerenadeServer* pod = fleet.pod(i);
    const serenade::HttpServerStats http = pod->http_stats();
    snap.loop_iterations += http.loop_iterations;
    snap.requests_served += http.requests_served;
    snap.shed += http.shed;
    snap.store_writes += pod->service().StoreStats().writes;
    const std::string wal = fleet.wal_path(i);
    if (!wal.empty()) {
      pod->service().session_store().SyncWal();
      std::error_code ec;
      const auto size = std::filesystem::file_size(wal, ec);
      if (!ec) snap.wal_bytes += size;
    }
    snap.deltas_applied +=
        pod->service().index_manager().deltas_applied_total();
    if (serenade::SimCluster* sim = fleet.sim()) {
      if (sim->pod_tap(i) != nullptr) {
        snap.tap_dropped += sim->pod_tap(i)->clicks_dropped();
      }
      if (sim->pod_repl(i) != nullptr) {
        snap.shipped_bytes += sim->pod_repl(i)->shipper().stats().bytes_shipped;
      }
    }
    AddPrometheusSamples(pod->metrics().RenderPrometheus(), &snap.samples);
  }
  return snap;
}

LagSampler::LagSampler(Fleet& fleet) : fleet_(fleet) {
  if (fleet_.sim() == nullptr) return;
  thread_ = std::thread([this] {
    serenade::SimCluster& sim = *fleet_.sim();
    while (!stop_.load()) {
      for (size_t i = 0; i < sim.num_pods(); ++i) {
        if (sim.pod_repl(i) == nullptr) continue;
        const uint64_t lag = sim.pod_repl(i)->shipper().lag_bytes();
        if (lag > max_lag_.load()) max_lag_.store(lag);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

LagSampler::~LagSampler() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

size_t RunLedger(const LedgerInput& in, MetricSink* sink) {
  Fleet& fleet = *in.fleet;
  const serenade::ServiceConfig& config = fleet.service_config();
  const bool batch = in.calls.front().size() > 1;
  const double slots = static_cast<double>(in.calls.front().size());
  const size_t fetch = config.rules.max_items * 2 + 8;
  serenade::SerenadeServer& pod = *fleet.pod(0);
  size_t failures = 0;
  // The first warm_calls calls deepen the sessions; they are replayed in
  // every arm but not timed.
  auto timed = [&](size_t j) { return j >= in.warm_calls; };

  // Each arm replays the same calls on its own fresh session keys, so
  // every arm sees the same session lengths and does the same work. The
  // arms are interleaved call by call, so slow phases of the host hit
  // all of them alike.
  auto key = [&](const std::string& prefix, const Click& click) {
    return prefix + (*in.keys)[click.session];
  };
  auto requests = [&](const std::string& prefix, const RecordedCall& call) {
    std::vector<RecommendRequest> out;
    for (const Click& click : call) {
      out.push_back(RecommendRequest{key(prefix, click), click.item});
    }
    return out;
  };
  auto request_json = [&](const std::string& prefix, const RecordedCall& call) {
    std::vector<std::pair<std::string, ItemId>> slots;
    for (const Click& click : call) {
      slots.emplace_back(key(prefix, click), click.item);
    }
    return RequestJson(slots, batch);
  };
  auto wire = [&](const std::string& prefix, const RecordedCall& call) {
    if (batch) {
      return PostWire("/v1/recommend:batch", request_json(prefix, call));
    }
    return GetWire("/v1/recommend?session_id=" + key(prefix, call[0]) +
                       "&item_id=" + std::to_string(call[0].item),
                   "");
  };

  // The evolving session after each click, as the service keeps it.
  std::vector<std::vector<EvolvingSession>> after(in.calls.size());
  {
    std::unordered_map<uint32_t, EvolvingSession> sessions;
    for (size_t j = 0; j < in.calls.size(); ++j) {
      for (const Click& click : in.calls[j]) {
        EvolvingSession& s = sessions[click.session];
        s.push_back(click.item);
        if (s.size() > config.max_stored_session_length) s.erase(s.begin());
        after[j].push_back(s);
      }
    }
  }

  // A private store in the workload's WAL mode.
  if (!fleet.store_options().wal_path.empty()) {
    std::filesystem::remove(fleet.store_options().wal_path);
  }
  auto opened = serenade::SessionStore::Open(fleet.store_options());
  if (!opened.ok()) throw std::runtime_error(opened.status().ToString());
  serenade::SessionStore& store = **opened;
  std::vector<std::pair<std::string, std::string>> pending_multiput;

  const auto snapshot = pod.service().CurrentSnapshot();
  const serenade::SessionIndex& index = snapshot->index();
  serenade::VmisKnn knn(&index, config.knn);

  Connection gateway_conn, pod_conn;
  const bool has_gateway = fleet.gateway() != nullptr;
  if ((has_gateway && !gateway_conn.Open(fleet.gateway()->port(), false)) ||
      !pod_conn.Open(pod.port(), false)) {
    throw std::runtime_error("ledger: cannot connect to the fleet");
  }

  Samples gateway_rt, pod_rt, exec_t, service_t, get_t, put_t,
      multiput_per_key, knn_t, rank_t, parse_t, serialize_t;
  double postings = 0, queries = 0;
  for (size_t j = 0; j < in.calls.size(); ++j) {
    const RecordedCall& call = in.calls[j];
    const bool keep = timed(j);

    // Front door and pod, over HTTP.
    auto http = [&](Connection& conn, const std::string& prefix,
                    Samples* round_trips) {
      Outcome o;
      if (!conn.RoundTrip(wire(prefix, call), &o) || o.status != 200 ||
          o.degraded) {
        ++failures;
      } else if (keep) {
        round_trips->Add(static_cast<double>(o.done_ns - o.sent_ns) / 1e3);
      }
    };
    if (has_gateway) http(gateway_conn, "g-", &gateway_rt);
    http(pod_conn, "p-", &pod_rt);

    // Executor and service, in process on pod 0; their order alternates so
    // neither always runs on the caches the other warmed.
    auto executor_arm = [&] {
      const std::vector<RecommendRequest> reqs = requests("e-", call);
      const int64_t begin = NowNs();
      if (batch) {
        pod.executor().ExecuteBatch(reqs);
      } else {
        pod.executor().Execute(reqs[0]);
      }
      if (keep) exec_t.Add(ElapsedUs(begin));
    };
    auto service_arm = [&] {
      const std::vector<RecommendRequest> reqs = requests("s-", call);
      const int64_t begin = NowNs();
      if (batch) {
        pod.service().HandleUpdateAndRecommendBatch(reqs);
      } else {
        pod.service().HandleUpdateAndRecommend(reqs[0]);
      }
      if (keep) service_t.Add(ElapsedUs(begin));
    };
    if (j % 2 == 0) {
      executor_arm();
      service_arm();
    } else {
      service_arm();
      executor_arm();
    }
    int64_t start = 0;

    // Store: the reads and writes the service makes for this call.
    std::vector<std::string> keys, values;
    std::vector<bool> found;
    std::vector<std::pair<std::string, std::string>> entries;
    for (size_t s = 0; s < call.size(); ++s) {
      keys.push_back(key("t-", call[s]));
      entries.emplace_back(keys.back(), serenade::EncodeSession(after[j][s]));
    }
    double get_us = 0, put_us = 0;
    if (batch) {
      start = NowNs();
      store.MultiGet(keys, &values, &found);
      get_us = ElapsedUs(start);
      start = NowNs();
      (void)store.MultiPut(entries);
      put_us = ElapsedUs(start);
      if (keep) multiput_per_key.Add(put_us / slots);
    } else {
      start = NowNs();
      (void)store.Get(keys[0]);
      get_us = ElapsedUs(start);
      start = NowNs();
      (void)store.Put(keys[0], entries[0].second);
      put_us = ElapsedUs(start);
      // Single-request mixes: the batched write path over groups of 16
      // consecutive writes, on keys of its own.
      pending_multiput.emplace_back(key("tm-", call[0]), entries[0].second);
      if (pending_multiput.size() == 16) {
        start = NowNs();
        (void)store.MultiPut(pending_multiput);
        if (keep) multiput_per_key.Add(ElapsedUs(start) / 16.0);
        pending_multiput.clear();
      }
    }
    if (keep) {
      get_t.Add(get_us);
      put_t.Add(put_us);
    }

    // kNN on the pinned snapshot, business rules, JSON.
    std::vector<JsonValue> results;
    for (const EvolvingSession& session : after[j]) {
      const size_t first = session.size() > config.knn.max_session_length
                               ? session.size() - config.knn.max_session_length
                               : 0;
      for (size_t i = first; keep && i < session.size(); ++i) {
        if (session[i] < index.num_items()) {
          postings +=
              static_cast<double>(index.SessionsForItem(session[i]).size());
        }
      }
      start = NowNs();
      const std::vector<ScoredItem> raw = knn.RecommendNext(session, fetch);
      const double knn_us = ElapsedUs(start);
      start = NowNs();
      const std::vector<ScoredItem> ranked =
          serenade::ApplyBusinessRules(raw, fleet.catalog(), config.rules);
      const double rank_us = ElapsedUs(start);
      if (keep) {
        knn_t.Add(knn_us);
        rank_t.Add(rank_us);
        queries += 1;
      }
      results.push_back(ResponseValue(ranked));
    }
    const JsonValue response =
        batch ? JsonValue::Object(
                    {{"results", JsonValue::Array(std::move(results))}})
              : results[0];
    const std::string body = request_json("j-", call);
    start = NowNs();
    (void)serenade::ParseJson(body);
    const double parse_us = ElapsedUs(start);
    start = NowNs();
    (void)serenade::SerializeJson(response);
    const double serialize_us = ElapsedUs(start);
    if (keep) {
      parse_t.Add(parse_us);
      serialize_t.Add(serialize_us);
    }
  }

  // --- index arms: pin, build, delta apply --------------------------------
  double pin_us = 0;
  {
    constexpr int kPins = 100000;
    std::shared_ptr<const serenade::IndexSnapshot> pinned;
    const int64_t start = NowNs();
    for (int i = 0; i < kPins; ++i) {
      pinned = pod.service().index_manager().Current();
    }
    pin_us = ElapsedUs(start) / kPins;
  }
  const int64_t build_start = NowNs();
  const serenade::SessionIndex rebuilt =
      serenade::SessionIndex::Build(in.inputs->train, config.knn.m);
  const double build_s = static_cast<double>(NowNs() - build_start) / 1e9;
  Samples delta_apply_ms;
  if (serenade::SimCluster* sim = fleet.sim()) {
    auto latest = Fetch(sim->builder()->port(), "/v1/delta/latest");
    if (latest.ok() && latest->status == 200) {
      auto delta = serenade::DeserializeDelta(latest->body);
      for (int r = 0; delta.ok() && r < 10; ++r) {
        auto manager = serenade::IndexManager::CreateFromIndex(fleet.index());
        const int64_t start = NowNs();
        const serenade::Status applied = manager->ApplyDelta(*delta);
        if (applied.ok()) {
          delta_apply_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
        }
      }
    }
  }

  // --- self times and the ledger -----------------------------------------
  const double json_us =
      (batch ? parse_t.Mean() : 0.0) + serialize_t.Mean();
  const double cluster_self =
      has_gateway ? gateway_rt.Mean() - pod_rt.Mean() : 0.0;
  const double http_self = pod_rt.Mean() - json_us - exec_t.Mean();
  const double service_self = service_t.Mean() - get_t.Mean() - put_t.Mean() -
                              slots * (knn_t.Mean() + rank_t.Mean());
  const double front_mean = has_gateway ? gateway_rt.Mean() : pod_rt.Mean();
  // Counter growth over the loaded segments.
  auto grew = [&](auto CounterSnapshot::*counter) {
    return static_cast<double>(in.after.*counter - in.before.*counter);
  };
  const double acquires = grew(&CounterSnapshot::pool_acquires);
  const double served = grew(&CounterSnapshot::requests_served);
  const double writes = grew(&CounterSnapshot::store_writes);

  sink->Set("cluster.self_mean_us", cluster_self, "us");
  sink->Set("cluster.self_p99_us",
            has_gateway ? gateway_rt.Percentile(0.99) - pod_rt.Percentile(0.99)
                        : 0.0,
            "us");
  sink->Set("cluster.pool_reuse_ratio",
            acquires > 0 ? grew(&CounterSnapshot::pool_reuses) / acquires : 0.0,
            "ratio");
  sink->Set("cluster.retries", grew(&CounterSnapshot::gateway_retries),
            "count");
  sink->Set("cluster.degraded", grew(&CounterSnapshot::gateway_degraded),
            "count");
  sink->Set("http.self_mean_us", http_self, "us");
  sink->Set("http.self_p99_us",
            pod_rt.Percentile(0.99) - exec_t.Percentile(0.99) - json_us, "us");
  sink->Set("http.wakeups_per_req",
            served > 0 ? grew(&CounterSnapshot::loop_iterations) / served : 0.0,
            "count");
  sink->Set("http.shed", grew(&CounterSnapshot::shed), "count");
  sink->Set("executor.overhead_mean_us", exec_t.Mean() - service_t.Mean(),
            "us");
  sink->Set("json.parse_mean_us", parse_t.Mean(), "us");
  sink->Set("json.serialize_mean_us", serialize_t.Mean(), "us");
  sink->Set("service.self_mean_us", service_self, "us");
  sink->Set("service.call_p99_us", service_t.Percentile(0.99), "us");
  sink->Set("store.get_mean_us", get_t.Mean(), "us");
  sink->Set("store.put_mean_us", put_t.Mean(), "us");
  sink->Set("store.put_p99_us", put_t.Percentile(0.99), "us");
  sink->Set("store.multiput_mean_us_per_key", multiput_per_key.Mean(), "us");
  sink->Set("store.wal_bytes_per_write",
            writes > 0 ? grew(&CounterSnapshot::wal_bytes) / writes : 0.0,
            "B");
  sink->Set("knn.query_mean_us", knn_t.Mean(), "us");
  sink->Set("knn.query_p99_us", knn_t.Percentile(0.99), "us");
  sink->Set("knn.postings_per_query", queries > 0 ? postings / queries : 0.0,
            "count");
  sink->Set("rank.mean_us", rank_t.Mean(), "us");
  sink->Set("index.build_s", build_s, "s");
  sink->Set("index.memory_mb",
            static_cast<double>(rebuilt.MemoryBytes()) / 1e6, "MB");
  sink->Set("index.pin_mean_us", pin_us, "us");
  sink->Set("index.delta_apply_p99_ms", delta_apply_ms.Percentile(0.99), "ms");
  sink->Set("index.deltas_applied", grew(&CounterSnapshot::deltas_applied),
            "count");
  sink->Set("freshness.click_to_servable_mean_ms",
            HistogramMean(in, "serenade_click_to_servable_milliseconds", ""),
            "ms");
  sink->Set("freshness.tap_dropped", grew(&CounterSnapshot::tap_dropped),
            "count");
  sink->Set("replication.lag_bytes_max", static_cast<double>(in.max_lag_bytes),
            "B");
  sink->Set("replication.bytes_per_write",
            writes > 0 ? grew(&CounterSnapshot::shipped_bytes) / writes : 0.0,
            "B");
  for (const char* stage : kPodStages) {
    sink->Set(std::string("stage.") + stage + "_mean_us",
              HistogramMean(in, "serenade_stage_duration_microseconds",
                            std::string("{stage=\"") + stage + "\"}"),
              "us");
  }
  sink->Set("ledger.queueing_mean_us", in.client_mean_us - front_mean, "us");
  sink->Set("ledger.transport_pct",
            in.client_mean_us > 0
                ? 100.0 * (cluster_self + http_self) / in.client_mean_us
                : 0.0,
            "%");
  std::printf(
      "ledger: replayed %zu calls per arm; front %.1f us, pod %.1f us, "
      "executor %.1f us, service %.1f us, knn %.1f us x %.0f, "
      "delta applies %zu\n",
      in.calls.size(), front_mean, pod_rt.Mean(), exec_t.Mean(),
      service_t.Mean(), knn_t.Mean(), slots, delta_apply_ms.count());
  return failures;
}

}  // namespace perfbench
