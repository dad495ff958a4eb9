#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "obs/trace.h"

namespace serenade {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, CounterExposition) {
  MetricsRegistry registry;
  MetricCounter& hits = registry.AddCounter("test_hits_total", "test hits");
  hits.Increment();
  hits.Increment(41);

  const std::string text = registry.RenderPrometheus();
  EXPECT_TRUE(Contains(text, "# HELP test_hits_total test hits\n"));
  EXPECT_TRUE(Contains(text, "# TYPE test_hits_total counter\n"));
  EXPECT_TRUE(Contains(text, "test_hits_total 42\n"));
}

TEST(MetricsRegistryTest, GaugeExposition) {
  MetricsRegistry registry;
  uint64_t depth = 7;
  registry.AddCallback("test_queue_depth", "queue depth", MetricType::kGauge,
                       "", [&depth]() -> std::vector<MetricSample> {
                         return {{"", depth}};
                       });
  const std::string text = registry.RenderPrometheus();
  EXPECT_TRUE(Contains(text, "# TYPE test_queue_depth gauge\n"));
  EXPECT_TRUE(Contains(text, "test_queue_depth 7\n"));
}

TEST(MetricsRegistryTest, LabeledFamilyRendersEveryMember) {
  MetricsRegistry registry;
  MetricCounter& a =
      registry.AddCounter("test_reqs_total", "reqs", "backend", "pod-0");
  MetricCounter& b =
      registry.AddCounter("test_reqs_total", "reqs", "backend", "pod-1");
  a.Increment(3);
  b.Increment(5);

  const std::string text = registry.RenderPrometheus();
  // One header for the family, one sample line per member.
  const std::string type_line = "# TYPE test_reqs_total counter\n";
  EXPECT_EQ(text.find(type_line), text.rfind(type_line));
  EXPECT_TRUE(Contains(text, type_line));
  EXPECT_TRUE(Contains(text, "test_reqs_total{backend=\"pod-0\"} 3\n"));
  EXPECT_TRUE(Contains(text, "test_reqs_total{backend=\"pod-1\"} 5\n"));
}

TEST(MetricsRegistryTest, ReregistrationReturnsSameHandle) {
  MetricsRegistry registry;
  MetricCounter& first = registry.AddCounter("test_total", "help");
  MetricCounter& second = registry.AddCounter("test_total", "help");
  EXPECT_EQ(&first, &second);
  first.Increment();
  EXPECT_EQ(second.value(), 1u);

  MetricCounter& labeled_a =
      registry.AddCounter("test_fam_total", "h", "k", "v");
  MetricCounter& labeled_b =
      registry.AddCounter("test_fam_total", "h", "k", "v");
  EXPECT_EQ(&labeled_a, &labeled_b);
}

TEST(MetricsRegistryTest, HistogramRendersSummary) {
  MetricsRegistry registry;
  MetricHistogram& latency =
      registry.AddHistogram("test_latency_microseconds", "latency");
  for (uint64_t v = 1; v <= 100; ++v) latency.Record(v);

  const std::string text = registry.RenderPrometheus();
  EXPECT_TRUE(Contains(text, "# TYPE test_latency_microseconds summary\n"));
  EXPECT_TRUE(Contains(text, "test_latency_microseconds{quantile=\"0.5\"}"));
  EXPECT_TRUE(Contains(text, "test_latency_microseconds{quantile=\"0.99\"}"));
  EXPECT_TRUE(Contains(text, "test_latency_microseconds_count 100\n"));
  EXPECT_TRUE(Contains(text, "test_latency_microseconds_sum"));
}

TEST(MetricsRegistryTest, LabeledHistogramQuantileJoinsLabels) {
  MetricsRegistry registry;
  MetricHistogram& stage = registry.AddHistogram(
      "test_stage_microseconds", "stage latency", "stage", "knn_retrieve");
  stage.Record(10);

  const std::string text = registry.RenderPrometheus();
  EXPECT_TRUE(Contains(
      text,
      "test_stage_microseconds{stage=\"knn_retrieve\",quantile=\"0.9\"}"));
  EXPECT_TRUE(
      Contains(text, "test_stage_microseconds_count{stage=\"knn_retrieve\"}"));
}

TEST(MetricsRegistryTest, CallbackSampledAtScrapeTime) {
  MetricsRegistry registry;
  uint64_t live = 3;
  registry.AddCallback("test_live", "live things", MetricType::kGauge, "",
                       [&live]() -> std::vector<MetricSample> {
                         return {{"", live}};
                       });
  EXPECT_TRUE(Contains(registry.RenderPrometheus(), "test_live 3\n"));
  live = 9;
  EXPECT_TRUE(Contains(registry.RenderPrometheus(), "test_live 9\n"));
}

TEST(MetricsRegistryTest, CallbackFamilyRendersLabeledSamples) {
  MetricsRegistry registry;
  registry.AddCallback("test_healthy", "health", MetricType::kGauge, "backend",
                       []() -> std::vector<MetricSample> {
                         return {{"pod-0", 1}, {"pod-1", 0}};
                       });
  const std::string text = registry.RenderPrometheus();
  EXPECT_TRUE(Contains(text, "test_healthy{backend=\"pod-0\"} 1\n"));
  EXPECT_TRUE(Contains(text, "test_healthy{backend=\"pod-1\"} 0\n"));
}

TEST(MetricsRegistryTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.AddCounter("test_esc_total", "h", "path", "a\"b\\c\nd");
  const std::string text = registry.RenderPrometheus();
  EXPECT_TRUE(Contains(text, "test_esc_total{path=\"a\\\"b\\\\c\\nd\"} 0\n"));
}

TEST(MetricsRegistryTest, ConcurrentRecordingIsLossless) {
  MetricsRegistry registry;
  MetricCounter& counter = registry.AddCounter("test_conc_total", "h");
  MetricHistogram& histogram =
      registry.AddHistogram("test_conc_microseconds", "h");

  constexpr int kThreads = 8;
  constexpr int kIterations = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histogram] {
      for (int i = 0; i < kIterations; ++i) {
        counter.Increment();
        histogram.Record(static_cast<uint64_t>(i % 100) + 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(counter.value(),
            static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(histogram.Merged().count(),
            static_cast<uint64_t>(kThreads) * kIterations);
  // A scrape concurrent with recording must render the final totals.
  EXPECT_TRUE(Contains(registry.RenderPrometheus(),
                       "test_conc_microseconds_count 80000\n"));
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndScrape) {
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    // Races scrapes against registration; TSan (and asserts below) catch
    // torn state.
    while (!stop.load()) {
      volatile size_t length = registry.RenderPrometheus().size();
      (void)length;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&registry, t] {
      for (int i = 0; i < 200; ++i) {
        registry
            .AddCounter("test_dyn_total", "h", "writer",
                        std::to_string(t) + "-" + std::to_string(i % 10))
            .Increment();
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true);
  scraper.join();

  const std::string text = registry.RenderPrometheus();
  EXPECT_TRUE(Contains(text, "test_dyn_total{writer=\"0-0\"} 20\n"));
}

// ---------------------------------------------------------------------------
// Trace / Span

TEST(TraceTest, GeneratedIdsAreValidAndUnique) {
  std::vector<std::string> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(GenerateTraceId());
  for (const std::string& id : ids) {
    EXPECT_EQ(id.size(), 16u);
    EXPECT_TRUE(IsValidTraceId(id)) << id;
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "trace ids must be process-unique";
}

TEST(TraceTest, IdValidation) {
  EXPECT_TRUE(IsValidTraceId("0123456789abcdef"));
  EXPECT_TRUE(IsValidTraceId("ABCDEF"));
  EXPECT_TRUE(IsValidTraceId("f"));
  EXPECT_FALSE(IsValidTraceId(""));
  EXPECT_FALSE(IsValidTraceId("xyz"));
  EXPECT_FALSE(IsValidTraceId("deadbeef "));
  EXPECT_FALSE(IsValidTraceId(std::string(65, 'a')));
}

TEST(TraceTest, AdoptedIdIsKept) {
  Trace trace("cafebabe");
  EXPECT_EQ(trace.id(), "cafebabe");
}

TEST(TraceTest, SpanRecordsElapsedTime) {
  Trace trace;
  {
    Span span(&trace, TraceStage::kKnnRetrieve);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(trace.StageCount(TraceStage::kKnnRetrieve), 1u);
  EXPECT_GE(trace.StageMicros(TraceStage::kKnnRetrieve), 1000u);
  // Total request time covers every stage within it.
  EXPECT_GE(trace.TotalMicros(),
            trace.StageMicros(TraceStage::kKnnRetrieve));
}

TEST(TraceTest, SpanEndIsIdempotent) {
  Trace trace;
  Span span(&trace, TraceStage::kRank);
  span.End();
  span.End();  // destructor will call End() a third time
  EXPECT_EQ(trace.StageCount(TraceStage::kRank), 1u);
}

TEST(TraceTest, NullTraceSpanIsNoOp) {
  Span span(nullptr, TraceStage::kParse);
  span.End();  // must not crash
}

TEST(TraceTest, RepeatedStagesAccumulate) {
  Trace trace;
  trace.Record(TraceStage::kStoreGet, 10);
  trace.Record(TraceStage::kStoreGet, 5);
  EXPECT_EQ(trace.StageMicros(TraceStage::kStoreGet), 15u);
  EXPECT_EQ(trace.StageCount(TraceStage::kStoreGet), 2u);
}

TEST(TraceTest, NestedSpansAreMonotone) {
  Trace trace;
  {
    Span outer(&trace, TraceStage::kKnnRetrieve);
    {
      Span inner(&trace, TraceStage::kStoreGet);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The enclosing span covers at least the nested one.
  EXPECT_GE(trace.StageMicros(TraceStage::kKnnRetrieve),
            trace.StageMicros(TraceStage::kStoreGet));
}

TEST(TraceTest, DescribeListsIdTotalAndUsedStagesOnly) {
  Trace trace("abc123");
  trace.Record(TraceStage::kParse, 7);
  trace.Record(TraceStage::kKnnRetrieve, 250);
  const std::string line = trace.Describe();
  EXPECT_TRUE(Contains(line, "trace_id=abc123"));
  EXPECT_TRUE(Contains(line, "total_us="));
  EXPECT_TRUE(Contains(line, "parse_us=7"));
  EXPECT_TRUE(Contains(line, "knn_retrieve_us=250"));
  EXPECT_FALSE(Contains(line, "serialize_us="));
}

// ---------------------------------------------------------------------------
// SlowRequestLogger

class CapturedLog {
 public:
  CapturedLog() {
    SetLogSink([this](LogLevel, const std::string& line) {
      std::lock_guard<std::mutex> lock(mutex_);
      lines_.push_back(line);
    });
  }
  ~CapturedLog() { SetLogSink({}); }

  std::vector<std::string> lines() {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> lines_;
};

TEST(SlowRequestLoggerTest, DisabledThresholdNeverLogs) {
  CapturedLog log;
  SlowRequestLogger logger(TraceConfig{});  // threshold 0 = disabled
  Trace trace;
  trace.Record(TraceStage::kParse, 1000000);
  EXPECT_FALSE(logger.MaybeLog(trace, "pod", "/v1/recommend", 200));
  EXPECT_EQ(logger.slow_requests_seen(), 0u);
  EXPECT_TRUE(log.lines().empty());
}

TEST(SlowRequestLoggerTest, LogsRequestsOverThreshold) {
  CapturedLog log;
  TraceConfig config;
  config.slow_request_micros = 1;  // everything is slow
  SlowRequestLogger logger(config);

  Trace trace("feed5eed");
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(logger.MaybeLog(trace, "gateway", "/v1/recommend", 200));
  EXPECT_EQ(logger.slow_requests_seen(), 1u);
  EXPECT_EQ(logger.slow_requests_logged(), 1u);

  const auto lines = log.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(Contains(lines[0], "slow_request"));
  EXPECT_TRUE(Contains(lines[0], "tier=gateway"));
  EXPECT_TRUE(Contains(lines[0], "path=/v1/recommend"));
  EXPECT_TRUE(Contains(lines[0], "status=200"));
  EXPECT_TRUE(Contains(lines[0], "trace_id=feed5eed"));
}

TEST(SlowRequestLoggerTest, SamplingLogsEveryNth) {
  CapturedLog log;
  TraceConfig config;
  config.slow_request_micros = 1;
  config.sample_every_n = 3;
  SlowRequestLogger logger(config);

  int logged = 0;
  for (int i = 0; i < 9; ++i) {
    Trace trace;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    if (logger.MaybeLog(trace, "pod", "/v1/recommend", 200)) ++logged;
  }
  EXPECT_EQ(logger.slow_requests_seen(), 9u);
  EXPECT_EQ(logger.slow_requests_logged(), 3u);
  EXPECT_EQ(logged, 3);
  EXPECT_EQ(log.lines().size(), 3u);
}

TEST(SlowRequestLoggerTest, FastRequestsAreNotSlow) {
  TraceConfig config;
  config.slow_request_micros = 60UL * 1000 * 1000;  // one minute
  SlowRequestLogger logger(config);
  Trace trace;
  EXPECT_FALSE(logger.MaybeLog(trace, "pod", "/v1/recommend", 200));
  EXPECT_EQ(logger.slow_requests_seen(), 0u);
}

}  // namespace
}  // namespace serenade
