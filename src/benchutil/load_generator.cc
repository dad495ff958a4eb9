#include "benchutil/load_generator.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/stopwatch.h"
#include "serving/http.h"
#include "serving/router.h"

namespace serenade {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::string LoadResult::FormatTable() const {
  std::string out;
  char line[200];
  std::snprintf(line, sizeof(line), "%8s %8s %7s %9s %9s %9s %7s\n", "t(s)",
                "rps", "core%", "p75(ms)", "p90(ms)", "p99.5(ms)", "errors");
  out += line;
  for (const LoadBucket& bucket : buckets) {
    std::snprintf(
        line, sizeof(line), "%8.1f %8.0f %7.0f %9.2f %9.2f %9.2f %7llu\n",
        bucket.start_seconds,
        static_cast<double>(bucket.requests) / bucket_seconds,
        bucket.core_usage_percent,
        bucket.latency_micros.Percentile(0.75) / 1000.0,
        bucket.latency_micros.Percentile(0.90) / 1000.0,
        bucket.latency_micros.Percentile(0.995) / 1000.0,
        static_cast<unsigned long long>(bucket.errors));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "total: %llu requests, %llu errors, overall p90 = %.2f ms, "
                "p99.5 = %.2f ms\n",
                static_cast<unsigned long long>(total_requests),
                static_cast<unsigned long long>(total_errors),
                total_latency_micros.Percentile(0.90) / 1000.0,
                total_latency_micros.Percentile(0.995) / 1000.0);
  out += line;
  return out;
}

LoadResult RunLoad(const std::vector<LoadEvent>& events,
                   const std::vector<uint16_t>& server_ports,
                   const LoadGeneratorOptions& options) {
  LoadResult result;
  result.bucket_seconds = options.bucket_seconds;
  if (events.empty() || server_ports.empty()) return result;

  const StickySessionRouter router(server_ports.size());
  const size_t num_workers =
      server_ports.size() * options.connections_per_server;

  // Partition events per worker: sticky routing fixes the server; within
  // a server, a session is pinned to one connection (hash), so each
  // session's requests stay ordered.
  std::vector<std::vector<const LoadEvent*>> per_worker(num_workers);
  for (const LoadEvent& event : events) {
    const size_t server = router.ServerFor(event.session_key);
    const size_t lane =
        std::hash<std::string>{}(event.session_key) %
        options.connections_per_server;
    per_worker[server * options.connections_per_server + lane].push_back(
        &event);
  }

  const size_t num_buckets = static_cast<size_t>(
      events.back().due_micros / options.time_compression / 1e6 /
          options.bucket_seconds) +
      2;
  struct BucketAccumulator {
    std::mutex mutex;
    Histogram latency;
    uint64_t requests = 0;
    uint64_t errors = 0;
  };
  std::vector<BucketAccumulator> buckets(num_buckets);

  // CPU sampling thread.
  std::vector<double> cpu_per_bucket(num_buckets, 0.0);
  std::atomic<bool> done{false};
  Stopwatch clock;
  std::thread cpu_sampler([&] {
    double last_cpu = ProcessCpuSeconds();
    double last_wall = clock.ElapsedSeconds();
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<int>(options.bucket_seconds * 1000)));
      const double now_cpu = ProcessCpuSeconds();
      const double now_wall = clock.ElapsedSeconds();
      const size_t bucket = std::min(
          num_buckets - 1,
          static_cast<size_t>(last_wall / options.bucket_seconds));
      cpu_per_bucket[bucket] =
          100.0 * (now_cpu - last_cpu) / (now_wall - last_wall);
      last_cpu = now_cpu;
      last_wall = now_wall;
    }
  });

  auto worker_fn = [&](size_t worker_index) {
    const uint16_t port =
        server_ports[worker_index / options.connections_per_server];
    HttpClient client;
    if (!client.Connect(port).ok()) return;
    for (const LoadEvent* event : per_worker[worker_index]) {
      const uint64_t due =
          static_cast<uint64_t>(event->due_micros / options.time_compression);
      while (clock.ElapsedMicros() < due) {
        const uint64_t remaining = due - clock.ElapsedMicros();
        std::this_thread::sleep_for(
            std::chrono::microseconds(std::min<uint64_t>(remaining, 2000)));
      }
      const uint64_t sent_at = clock.ElapsedMicros();
      auto response = client.Get(
          "/v1/recommend?session_id=" + event->session_key +
          "&item_id=" + std::to_string(event->item) +
          (event->consent ? "" : "&consent=false"));
      const uint64_t latency = clock.ElapsedMicros() - sent_at;

      const size_t bucket = std::min(
          num_buckets - 1,
          static_cast<size_t>(static_cast<double>(sent_at) / 1e6 /
                              options.bucket_seconds));
      std::lock_guard<std::mutex> lock(buckets[bucket].mutex);
      ++buckets[bucket].requests;
      if (!response.ok() || response->status != 200) {
        ++buckets[bucket].errors;
      } else {
        buckets[bucket].latency.Record(latency);
      }
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) workers.emplace_back(worker_fn, w);
  for (auto& worker : workers) worker.join();
  done.store(true);
  cpu_sampler.join();
  result.wall_seconds = clock.ElapsedSeconds();

  for (size_t b = 0; b < num_buckets; ++b) {
    LoadBucket bucket;
    bucket.start_seconds = static_cast<double>(b) * options.bucket_seconds;
    bucket.requests = buckets[b].requests;
    bucket.errors = buckets[b].errors;
    bucket.latency_micros = buckets[b].latency;
    bucket.core_usage_percent = cpu_per_bucket[b];
    result.total_requests += bucket.requests;
    result.total_errors += bucket.errors;
    result.total_latency_micros.Merge(bucket.latency_micros);
    if (bucket.requests > 0) result.buckets.push_back(std::move(bucket));
  }
  return result;
}

}  // namespace serenade
