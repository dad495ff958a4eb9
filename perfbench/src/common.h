// Shared helpers of the benchmark: clocks, exact sample statistics,
// process resource readings and the metric sink the result line is
// printed from.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, the clock clock_nanosleep and
/// ppoll deadlines are computed against).
inline int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

/// Sleeps until the absolute monotonic time `deadline_ns`.
inline void SleepUntilNs(int64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = deadline_ns / 1000000000LL;
  ts.tv_nsec = deadline_ns % 1000000000LL;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// Exact order statistics over raw samples: percentiles are read from the
/// sorted samples (nearest rank), never from histogram buckets.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double Mean() const {
    if (values_.empty()) return 0.0;
    double sum = 0.0;
    for (double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }

  /// Nearest-rank percentile, q in [0, 1]: the smallest sample with at
  /// least q of the samples at or below it.
  double Percentile(double q) {
    if (values_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    const double rank = std::ceil(q * static_cast<double>(values_.size()));
    const size_t index =
        rank < 1.0 ? 0 : std::min(values_.size() - 1,
                                  static_cast<size_t>(rank) - 1);
    return values_[index];
  }

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

/// User + system CPU seconds consumed by the whole process so far.
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

/// Peak resident set size of the process, in MB (10^6 bytes).
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

/// Named metrics with units, printed in insertion order as the result.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (index_.count(name) == 0) {
      index_[name] = entries_.size();
      entries_.push_back({name, value, unit});
    } else {
      entries_[index_[name]] = {name, value, unit};
    }
  }

  /// One human-readable line per metric ("name = value unit").
  void PrintTable(FILE* out) const {
    for (const Entry& e : entries_) {
      std::fprintf(out, "  %-36s %16.6f %s\n", e.name.c_str(), e.value,
                   e.unit.c_str());
    }
  }

  /// The "metrics" object of the result line.
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      char value[64];
      const double v = std::isfinite(e.value) ? e.value : 0.0;
      std::snprintf(value, sizeof(value), "%.17g", v);
      if (i > 0) out += ", ";
      out += "\"" + e.name + "\": {\"value\": " + value + ", \"unit\": \"" +
             e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
};

}  // namespace perfbench
