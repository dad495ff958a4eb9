// Shared helpers for the experiment harness. Every bench binary
// regenerates one table or figure of the paper on synthetic data (see
// DESIGN.md for the per-experiment index) and prints:
//   * the paper's reference numbers (shape to compare against), and
//   * the measured values from this machine.
//
// Dataset sizes are scaled to laptop budgets; set SERENADE_BENCH_SCALE
// (default 1.0) to grow or shrink every dataset proportionally. CI smoke
// runs additionally set SERENADE_BENCH_SECONDS (shorter measured phases)
// and SERENADE_BENCH_JSON (machine-readable results uploaded as a build
// artifact).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace serenade::bench {

/// Global scale knob from the environment (default 1.0).
inline double ScaleFromEnv() {
  const char* env = std::getenv("SERENADE_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

/// Measured-phase duration override (SERENADE_BENCH_SECONDS); benches
/// pass their full-run default.
inline double SecondsFromEnv(double fallback) {
  const char* env = std::getenv("SERENADE_BENCH_SECONDS");
  if (env == nullptr) return fallback;
  const double seconds = std::atof(env);
  return seconds > 0.0 ? seconds : fallback;
}

/// Where to write machine-readable results ("" = don't). Used by the CI
/// bench-smoke job; google-benchmark binaries use --benchmark_out
/// instead.
inline std::string JsonPathFromEnv() {
  const char* env = std::getenv("SERENADE_BENCH_JSON");
  return env == nullptr ? "" : env;
}

// --- provenance --------------------------------------------------------------
// Every bench JSON is self-describing: the regression gate refuses to
// compare a Debug run against a Release baseline, and an uploaded
// artifact names the commit and CPU that produced it.

/// CMake build type compiled into the binary (bench/CMakeLists.txt).
inline const char* BuildType() {
#if defined(SERENADE_BUILD_TYPE)
  return SERENADE_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// Commit under test: SERENADE_GIT_SHA (local override) or GITHUB_SHA
/// (Actions), else the `git rev-parse HEAD` taken when CMake configured
/// the tree (bench/CMakeLists.txt); "unknown" outside a git checkout.
inline std::string GitSha() {
  for (const char* var : {"SERENADE_GIT_SHA", "GITHUB_SHA"}) {
    if (const char* env = std::getenv(var)) {
      if (env[0] != '\0') return env;
    }
  }
#if defined(SERENADE_CONFIGURED_GIT_SHA)
  return SERENADE_CONFIGURED_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Vector ISA levels this CPU offers ("+"-joined), independent of what
/// the build compiled in.
inline std::string CpuFeatures() {
  std::string features;
  const auto add = [&features](const char* name, bool supported) {
    if (!supported) return;
    if (!features.empty()) features += "+";
    features += name;
  };
#if defined(__x86_64__) || defined(__i386__)
  add("sse4.2", __builtin_cpu_supports("sse4.2"));
  add("avx", __builtin_cpu_supports("avx"));
  add("avx2", __builtin_cpu_supports("avx2"));
#elif defined(__aarch64__)
  add("neon", true);
#endif
  return features.empty() ? "baseline" : features;
}

/// Collects flat name/value metrics and writes them as one JSON object:
///   {"benchmark":"index_swap",
///    "meta":{"git_sha":"...","build_type":"Release",
///            "cpu_features":"sse4.2+avx+avx2"},
///    "metrics":{"steady_p99_us":123.0,...}}
/// Tiny on purpose — CI plots and regression checks only need key/value;
/// the meta block is provenance, never compared numerically.
class JsonResultWriter {
 public:
  explicit JsonResultWriter(std::string benchmark_name)
      : benchmark_name_(std::move(benchmark_name)) {}

  void Add(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Writes the collected metrics; returns false (after a perror) on IO
  /// failure. No-op returning true when `path` is empty.
  bool WriteTo(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::perror(("bench json: " + path).c_str());
      return false;
    }
    std::fprintf(file,
                 "{\"benchmark\":\"%s\",\"meta\":{\"git_sha\":\"%s\","
                 "\"build_type\":\"%s\",\"cpu_features\":\"%s\"},"
                 "\"metrics\":{",
                 benchmark_name_.c_str(), GitSha().c_str(), BuildType(),
                 CpuFeatures().c_str());
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(file, "%s\"%s\":%.6g", i == 0 ? "" : ",",
                   metrics_[i].first.c_str(), metrics_[i].second);
    }
    std::fprintf(file, "}}\n");
    std::fclose(file);
    return true;
  }

 private:
  std::string benchmark_name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

inline void PrintHeader(const char* experiment, const char* paper_ref,
                        const char* description) {
  std::printf("==========================================================\n");
  std::printf("%s — reproduces %s\n", experiment, paper_ref);
  std::printf("%s\n", description);
  std::printf("==========================================================\n");
}

inline void PrintSection(const char* title) {
  std::printf("\n--- %s ---\n", title);
}

}  // namespace serenade::bench
