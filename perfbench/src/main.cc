// perfbench — the repository benchmark. Starts the real serving fleet
// in-process, drives it with the benchmark's own client, checks every
// response, and prints each metric by name with its unit. The last line
// of standard output is the result object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
//
// Usage: perfbench --workload fleet_single|pod_batch|fleet_churn
//                  --seed N --seconds S --trace 0|1 --work-dir DIR
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "fleet.h"
#include "ledger.h"

namespace perfbench {
namespace {

// Calls each connection keeps in flight while measuring max_rps.
constexpr size_t kSaturationDepth = 8;
// Unanswered calls are given up this long after the phase's last due time
// (longer than the gateway's forward deadline).
constexpr int64_t kDrainNs = 30'000'000'000LL;
// Calls replayed per layer arm in the traced run (single-request mixes).
constexpr size_t kLedgerCalls = 1500;
// pod_batch: session-key groups per connection, and the warm-up calls per
// connection: 10 rounds over the groups, so every key has 10 clicks
// (the kNN's max_session_length) before measuring.
constexpr size_t kBatchGroups = 4;
constexpr size_t kBatchWarmCalls = kBatchGroups * 10;
constexpr size_t kLedgerBatchCalls = 300;
// Length of one timing window of the measured phase.
constexpr double kWindowSeconds = 0.5;

// Keeps every CPU out of its idle state while alive: a child process runs
// one SCHED_IDLE spinner per CPU, the in-guest equivalent of disabling
// deep idle states for a latency benchmark. On a virtual machine a thread
// woken on an idle (halted) vCPU waits for the host to reschedule that
// vCPU, 1-6 ms at the p99 on a busy host, and that host-dependent delay
// would otherwise decide every latency percentile. A SCHED_IDLE thread
// gives way at once to any runnable thread, and as a separate process its
// CPU time stays out of the process CPU reported.
// Construct it before any thread is started (it forks).
class KeepAwake {
 public:
  explicit KeepAwake(size_t cpus) {
    const pid_t parent = ::getpid();
    child_ = ::fork();
    if (child_ != 0) return;
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(0);
    std::vector<std::thread> spinners;
    for (size_t i = 0; i < cpus; ++i) {
      spinners.emplace_back([] {
        sched_param param{};
        ::sched_setscheduler(0, SCHED_IDLE, &param);
        while (true) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#elif defined(__aarch64__)
          asm volatile("yield");
#endif
        }
      });
    }
    for (std::thread& t : spinners) t.join();  // never returns
    ::_exit(0);
  }
  ~KeepAwake() {
    if (child_ <= 0) return;
    ::kill(child_, SIGKILL);
    ::waitpid(child_, nullptr, 0);
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  pid_t child_ = -1;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(args.seconds > 0)) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return args;
}

// Latency and failure summary of one phase. Open loop: latency from the
// due time. Closed loop: latency of the call, lateness = the client's
// turnaround between an answer and the next send on that connection.
struct PhaseStats {
  Samples latency_us;  ///< answered-OK calls only
  Samples lateness_us;
  size_t attempted = 0;
  size_t failed = 0;
  size_t ok = 0;

  void Add(const Outcome& o, int64_t prev_done_ns) {
    ++attempted;
    if (o.sent_ns != 0) {
      const int64_t due = prev_done_ns != 0 ? prev_done_ns : o.due_ns;
      lateness_us.Add(static_cast<double>(o.sent_ns - due) / 1e3);
    }
    if (o.answered() && o.status == 200 && !o.degraded) {
      ++ok;
      latency_us.Add(static_cast<double>(o.done_ns - o.due_ns) / 1e3);
    } else {
      ++failed;
    }
  }
  void Merge(const PhaseStats& other) {
    latency_us.Append(other.latency_us);
    lateness_us.Append(other.lateness_us);
    attempted += other.attempted;
    failed += other.failed;
    ok += other.ok;
  }
  double fail_ratio() const {
    return attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  }
};

PhaseStats SummarizeOpen(const std::vector<Outcome>& outcomes) {
  PhaseStats stats;
  for (const Outcome& o : outcomes) stats.Add(o, 0);
  return stats;
}

PhaseStats SummarizeClosed(const std::vector<std::vector<Outcome>>& per_conn) {
  PhaseStats stats;
  for (const auto& conn : per_conn) {
    for (size_t j = 0; j < conn.size(); ++j) {
      stats.Add(conn[j], j > 0 ? conn[j - 1].done_ns : 0);
    }
  }
  return stats;
}

struct OpenPhase {
  Schedule schedule;
  std::vector<Outcome> outcomes;
};

// Runs a seeded open-loop phase whose first due time is `start_ns`.
OpenPhase RunOpenAt(Fleet& fleet, const Inputs& inputs, double rps,
                    double seconds, uint64_t seed, const std::string& prefix,
                    size_t conns, bool trace, int64_t start_ns) {
  OpenPhase phase;
  phase.schedule =
      BuildOpenLoop(inputs, rps, seconds, seed, prefix, conns, trace);
  phase.outcomes = RunOpenLoop(fleet.front_port(), phase.schedule.calls,
                               conns, start_ns, kDrainNs);
  return phase;
}

OpenPhase RunOpen(Fleet& fleet, const Inputs& inputs, double rps,
                  double seconds, uint64_t seed, const std::string& prefix,
                  size_t conns, bool trace) {
  // The schedule is built before the start time passes (20 ms covers it).
  return RunOpenAt(fleet, inputs, rps, seconds, seed, prefix, conns, trace,
                   NowNs() + 20'000'000);
}

// Process CPU seconds read at fixed absolute times: start + k * window.
class CpuMarks {
 public:
  CpuMarks(int64_t start_ns, int64_t window_ns, size_t windows)
      : marks_(windows + 1) {
    thread_ = std::thread([this, start_ns, window_ns] {
      for (size_t k = 0; k < marks_.size(); ++k) {
        SleepUntilNs(start_ns + static_cast<int64_t>(k) * window_ns);
        marks_[k] = ProcessCpuSeconds();
      }
    });
  }
  ~CpuMarks() {
    if (thread_.joinable()) thread_.join();
  }
  CpuMarks(const CpuMarks&) = delete;
  CpuMarks& operator=(const CpuMarks&) = delete;

  const std::vector<double>& Join() {
    if (thread_.joinable()) thread_.join();
    return marks_;
  }

 private:
  std::vector<double> marks_;
  std::thread thread_;
};

// Medians over fixed windows: each window's percentiles of the calls due in
// it, and its completion rate and CPU per completed unit (a call or a
// batch slot) over the calls answered in it.
struct Windowed {
  double p50 = 0, p90 = 0, p99 = 0, throughput = 0, cpu_per_req = 0;
  size_t windows = 0, samples = 0;
};

Windowed SummarizeWindows(const std::vector<const Outcome*>& calls,
                          int64_t start_ns, int64_t window_ns, size_t windows,
                          const std::vector<double>& cpu_marks,
                          double units_per_call) {
  std::vector<Samples> latency(windows);
  std::vector<double> done(windows, 0.0);
  auto window_of = [&](int64_t t) -> int64_t {
    return t < start_ns ? -1 : (t - start_ns) / window_ns;
  };
  Windowed out;
  for (const Outcome* o : calls) {
    if (!o->answered() || o->status != 200 || o->degraded) continue;
    const int64_t w = window_of(o->due_ns);
    if (w >= 0 && w < static_cast<int64_t>(windows)) {
      latency[w].Add(static_cast<double>(o->done_ns - o->due_ns) / 1e3);
      ++out.samples;
    }
    const int64_t d = window_of(o->done_ns);
    if (d >= 0 && d < static_cast<int64_t>(windows)) done[d] += units_per_call;
  }
  Samples p50, p90, p99, throughput, cpu;
  const double window_s = static_cast<double>(window_ns) / 1e9;
  for (size_t w = 0; w < windows; ++w) {
    if (latency[w].empty() || done[w] == 0) continue;
    p50.Add(latency[w].Percentile(0.5));
    p90.Add(latency[w].Percentile(0.9));
    p99.Add(latency[w].Percentile(0.99));
    throughput.Add(done[w] / window_s);
    cpu.Add((cpu_marks[w + 1] - cpu_marks[w]) * 1e6 / done[w]);
  }
  out.windows = p50.count();
  out.p50 = p50.Percentile(0.5);
  out.p90 = p90.Percentile(0.5);
  out.p99 = p99.Percentile(0.5);
  out.throughput = throughput.Percentile(0.5);
  out.cpu_per_req = cpu.Percentile(0.5);
  return out;
}

// Saturation: every connection keeps kSaturationDepth single calls in
// flight from `start_ns` for `seconds`, each connection walking through
// consecutive held-out sessions under fresh keys. The calls made are
// returned as a phase for the output check.
OpenPhase RunSaturated(Fleet& fleet, const Inputs& inputs, double seconds,
                       uint64_t seed, const std::string& prefix, size_t conns,
                       int64_t start_ns) {
  struct Walk {
    std::vector<std::string> keys;
    std::vector<Click> clicks;
    size_t stream = 0;
    size_t pos = 0;
  };
  std::vector<Walk> walks(conns);  // walks[c] is touched by connection c only
  for (size_t c = 0; c < conns; ++c) walks[c].stream = seed + c;
  auto make_call = [&](size_t c, size_t) {
    Walk& w = walks[c];
    const std::vector<ItemId>& stream =
        inputs.streams[w.stream % inputs.streams.size()];
    if (w.pos == 0) {
      w.keys.push_back(prefix + std::to_string(c) + "-" +
                       std::to_string(w.keys.size()));
    }
    const Click click{static_cast<uint32_t>(w.keys.size() - 1), stream[w.pos]};
    w.clicks.push_back(click);
    if (++w.pos == stream.size()) {
      w.pos = 0;
      w.stream += conns;
    }
    return GetWire("/v1/recommend?session_id=" + w.keys.back() +
                       "&item_id=" + std::to_string(click.item),
                   "");
  };
  SleepUntilNs(start_ns);
  const auto out = RunClosedLoop(
      fleet.front_port(), conns, make_call, SIZE_MAX,
      start_ns + static_cast<int64_t>(seconds * 1e9), kSaturationDepth);
  OpenPhase phase;
  for (size_t c = 0; c < conns; ++c) {
    const uint32_t offset = static_cast<uint32_t>(phase.schedule.keys.size());
    phase.schedule.keys.insert(phase.schedule.keys.end(),
                               walks[c].keys.begin(), walks[c].keys.end());
    for (size_t j = 0; j < out[c].size(); ++j) {
      Call call;
      call.conn = static_cast<uint32_t>(c);
      phase.schedule.calls.push_back(std::move(call));
      phase.schedule.clicks.push_back(
          Click{walks[c].clicks[j].session + offset, walks[c].clicks[j].item});
      phase.outcomes.push_back(out[c][j]);
    }
  }
  return phase;
}

// Gateway failovers and health ejections: a retried or failed-over call
// can land on a pod that does not own the session, so a failed output
// check is read next to these.
void PrintFleetEvents(Fleet& fleet) {
  serenade::ClusterGateway* gateway = fleet.gateway();
  if (gateway == nullptr) return;
  const serenade::GatewayCounters c = gateway->counters();
  uint64_t probe_failures = 0, ejections = 0;
  for (const serenade::BackendHealth& b : gateway->health().Snapshot()) {
    probe_failures += b.probe_failures_total;
    ejections += b.ejections_total;
  }
  std::printf("fleet events: forwarded_ok %llu, retries %llu, degraded %llu, "
              "failed %llu, probe failures %llu, ejections %llu\n",
              static_cast<unsigned long long>(c.forwarded_ok),
              static_cast<unsigned long long>(c.retries),
              static_cast<unsigned long long>(c.degraded),
              static_cast<unsigned long long>(c.failed),
              static_cast<unsigned long long>(probe_failures),
              static_cast<unsigned long long>(ejections));
}

// Why calls failed: unanswered, by HTTP status, degraded.
void PrintFailures(const char* name,
                   const std::vector<const std::vector<Outcome>*>& phases) {
  std::map<int, size_t> by_status;
  size_t unanswered = 0, degraded = 0;
  for (const std::vector<Outcome>* phase : phases) {
    for (const Outcome& o : *phase) {
      if (!o.answered()) {
        ++unanswered;
      } else if (o.status != 200) {
        ++by_status[o.status];
      } else if (o.degraded) {
        ++degraded;
      }
    }
  }
  std::string statuses;
  for (const auto& [status, n] : by_status) {
    char entry[48];
    std::snprintf(entry, sizeof(entry), " %dx%zu", status, n);
    statuses += entry;
  }
  std::printf("%s failures: %zu unanswered, %zu degraded, non-200:%s\n", name,
              unanswered, degraded, statuses.empty() ? " none" : statuses.c_str());
}

void PrintTiming(const char* name, PhaseStats& stats) {
  std::printf("%s: %zu calls, %zu ok, %zu failed; latency p50 %.1f us, "
              "p99 %.1f us over %zu samples; lateness p99 %.1f us\n",
              name, stats.attempted, stats.ok, stats.failed,
              stats.latency_us.Percentile(0.5),
              stats.latency_us.Percentile(0.99), stats.latency_us.count(),
              stats.lateness_us.Percentile(0.99));
}

int Run(const Args& args) {
  const bool optimized =
#if defined(NDEBUG) && defined(__OPTIMIZE__)
      true;
#else
      false;
#endif
  const bool sanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
      true;
#else
      false;
#endif
  std::printf("build: optimized=%d sanitized=%d\n", optimized, sanitized);
  if (!optimized || sanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a debug or sanitizer build\n");
    return 3;
  }

  const WorkloadSpec spec = SpecFor(args.workload);
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const KeepAwake keep_awake(hw);
  const size_t conns = std::min<size_t>(hw, 4);
  const bool open_loop = spec.reference_rps > 0;
  const std::string shape =
      open_loop ? "open-loop reference_rps=" +
                      std::to_string(static_cast<int>(spec.reference_rps))
                : "closed-loop batch_slots=" + std::to_string(spec.batch_slots);
  std::printf(
      "workload: %s seed=%llu seconds=%.3f trace=%d nproc=%zu conns=%zu "
      "items=%zu sessions=%zu %s\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, hw, conns, spec.num_items,
      spec.num_sessions, shape.c_str());

  // --- set-up: inputs, index, fleet, warm-up; repeated, median reported --
  const int setups = args.trace ? 1 : 3;
  Samples setup_s;
  Inputs inputs;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<BatchPlan> plan;
  OpenPhase warm;                               // open loop
  std::vector<std::vector<Outcome>> batch_log;  // closed loop, per conn
  std::vector<size_t> next_call(conns, 0);      // closed loop, per conn
  for (int k = 0; k < setups; ++k) {
    fleet.reset();
    const int64_t start = NowNs();
    inputs = MakeInputs(spec, args.seed);
    fleet = Fleet::Start(spec, inputs,
                         args.work_dir + "/setup" + std::to_string(k));
    if (open_loop) {
      warm = RunOpen(*fleet, inputs, spec.reference_rps, 0.5,
                     args.seed * 7919 + 1, "w", conns, false);
    } else {
      plan = std::make_unique<BatchPlan>(inputs, conns, spec.batch_slots,
                                         kBatchGroups, "b");
      batch_log = RunClosedLoop(
          fleet->front_port(), conns,
          [&](size_t c, size_t j) {
            return PostWire("/v1/recommend:batch", plan->Body(c, j));
          },
          kBatchWarmCalls, 0);
      for (size_t c = 0; c < conns; ++c) next_call[c] = batch_log[c].size();
    }
    setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);
  }
  std::printf("setup: %zu runs, median %.3f s\n", setup_s.count(),
              setup_s.Percentile(0.5));

  // Closed-loop phase continuing each connection's call sequence.
  auto run_batches = [&](double seconds, bool trace) {
    const std::vector<size_t> offset = next_call;
    const auto out = RunClosedLoop(
        fleet->front_port(), conns,
        [&](size_t c, size_t j) {
          char trace_id[24] = "";
          if (trace) {
            std::snprintf(trace_id, sizeof(trace_id), "%016llx",
                          static_cast<unsigned long long>(offset[c] + j));
          }
          return PostWire("/v1/recommend:batch", plan->Body(c, offset[c] + j),
                          trace_id);
        },
        SIZE_MAX, NowNs() + static_cast<int64_t>(seconds * 1e9));
    for (size_t c = 0; c < conns; ++c) {
      batch_log[c].insert(batch_log[c].end(), out[c].begin(), out[c].end());
      next_call[c] += out[c].size();
    }
    return out;
  };

  MetricSink sink;
  std::vector<const Schedule*> checked_schedules;
  std::vector<const std::vector<Outcome>*> checked_outcomes;
  size_t attempted = 0, failed = 0;
  auto count_open = [&](const OpenPhase& phase) {
    checked_schedules.push_back(&phase.schedule);
    checked_outcomes.push_back(&phase.outcomes);
    const PhaseStats stats = SummarizeOpen(phase.outcomes);
    attempted += stats.attempted;
    failed += stats.failed;
  };
  if (open_loop) count_open(warm);

  OpenPhase reference, saturation;
  std::vector<OpenPhase> segments;  // traced run, in order
  double rss_mb = 0;
  if (!args.trace) {
    // --- untraced run: the end-to-end metrics -----------------------------
    // Timings are taken per fixed window and the median window is
    // reported: the host is shared, and a scheduling stall of a few
    // milliseconds must not decide a whole run.
    const double measure_s = args.seconds;
    const size_t windows = std::max<size_t>(
        1, static_cast<size_t>(std::lround(measure_s / kWindowSeconds)));
    const int64_t window_ns = static_cast<int64_t>(kWindowSeconds * 1e9);
    const int64_t start = NowNs() + 20'000'000;
    CpuMarks cpu(start, window_ns, windows);
    std::vector<const Outcome*> calls;
    PhaseStats stats;
    if (open_loop) {
      reference = RunOpenAt(*fleet, inputs, spec.reference_rps,
                            windows * kWindowSeconds, args.seed * 7919 + 2,
                            "m", conns, false, start);
      stats = SummarizeOpen(reference.outcomes);
      for (const Outcome& o : reference.outcomes) calls.push_back(&o);
    } else {
      SleepUntilNs(start);
      const auto out = run_batches(windows * kWindowSeconds, false);
      stats = SummarizeClosed(out);
      for (size_t c = 0; c < out.size(); ++c) {
        const auto& log = batch_log[c];
        for (size_t j = log.size() - out[c].size(); j < log.size(); ++j) {
          calls.push_back(&log[j]);
        }
      }
    }
    const Windowed timing = SummarizeWindows(
        calls, start, window_ns, windows, cpu.Join(),
        open_loop ? 1.0 : static_cast<double>(spec.batch_slots));
    rss_mb = PeakRssMb();
    PrintTiming(open_loop ? "reference phase" : "batch phase", stats);
    std::printf("windows: %zu x %.2f s, %zu samples; median window p50 "
                "%.1f us, p90 %.1f us, p99 %.1f us\n",
                timing.windows, kWindowSeconds, timing.samples, timing.p50,
                timing.p90, timing.p99);
    if (open_loop) count_open(reference);
    sink.Set("setup_s", setup_s.Percentile(0.5), "s");
    sink.Set("p50_us", timing.p50, "us");
    sink.Set("throughput_rps", timing.throughput, "1/s");
    sink.Set("cpu_us_per_req", timing.cpu_per_req, "us");
    sink.Set("rss_mb", rss_mb, "MB");
    std::printf("samples: p50_us from %zu windows of %zu samples in all\n",
                timing.windows, timing.samples);
  } else {
    // --- traced run: client spans, counters, per-layer replays ------------
    LedgerInput ledger;
    ledger.fleet = fleet.get();
    ledger.inputs = &inputs;
    ledger.before = ReadCounters(*fleet);
    // Untraced (a) and traced (b) segments alternate, so the tracing
    // overhead is read under the same host conditions.
    constexpr int kSegments = 4;
    const double segment_s = args.seconds * 0.5 / kSegments;
    segments.reserve(kSegments);  // count_open keeps pointers into it
    PhaseStats a, b;
    {
      LagSampler lag(*fleet);
      for (int i = 0; i < kSegments; ++i) {
        const bool traced = i % 2 == 1;
        PhaseStats& into = traced ? b : a;
        if (open_loop) {
          segments.push_back(RunOpen(
              *fleet, inputs, spec.reference_rps, segment_s,
              args.seed * 7919 + 3 + i,
              (traced ? "t" : "a") + std::to_string(i), conns, traced));
          into.Merge(SummarizeOpen(segments.back().outcomes));
        } else {
          into.Merge(SummarizeClosed(run_batches(segment_s, traced)));
        }
      }
      ledger.max_lag_bytes = lag.max_lag_bytes();
    }
    ledger.after = ReadCounters(*fleet);
    PrintTiming("untraced segments", a);
    PrintTiming("traced segments", b);
    // Capacity: the closed loop already runs saturated; the open-loop
    // mixes get a phase with every connection kept kSaturationDepth deep.
    double max_rps = 0;
    if (open_loop) {
      const size_t windows = std::max<size_t>(
          1, static_cast<size_t>(std::lround(args.seconds * 0.2 /
                                             kWindowSeconds)));
      const int64_t window_ns = static_cast<int64_t>(kWindowSeconds * 1e9);
      const int64_t start = NowNs() + 20'000'000;
      saturation = RunSaturated(*fleet, inputs, windows * kWindowSeconds,
                                args.seed * 7919 + 100, "x", conns, start);
      std::vector<const Outcome*> calls;
      for (const Outcome& o : saturation.outcomes) calls.push_back(&o);
      max_rps = SummarizeWindows(calls, start, window_ns, windows,
                                 std::vector<double>(windows + 1, 0.0), 1.0)
                    .throughput;
      count_open(saturation);
    } else {
      max_rps = static_cast<double>((a.ok + b.ok) * spec.batch_slots) /
                (args.seconds * 0.5);
    }
    if (open_loop) {
      for (const OpenPhase& segment : segments) count_open(segment);
      const Schedule& recorded = segments[1].schedule;
      ledger.keys = &recorded.keys;
      for (size_t i = 0; i < std::min(kLedgerCalls, recorded.clicks.size());
           ++i) {
        ledger.calls.push_back({recorded.clicks[i]});
      }
    } else {
      ledger.keys = &plan->keys;
      ledger.warm_calls = kBatchWarmCalls;
      for (size_t j = 0; j < ledger.warm_calls + kLedgerBatchCalls; ++j) {
        RecordedCall call;
        for (size_t s = 0; s < plan->slots; ++s) {
          call.push_back(plan->SlotClick(0, j, s));
        }
        ledger.calls.push_back(std::move(call));
      }
    }
    PhaseStats all = a;
    all.Merge(b);
    ledger.client_mean_us = all.latency_us.Mean();
    sink.Set("client.samples", static_cast<double>(all.latency_us.count()),
             "count");
    sink.Set("client.p90_us", all.latency_us.Percentile(0.9), "us");
    sink.Set("client.p99_us", all.latency_us.Percentile(0.99), "us");
    sink.Set("client.max_rps", max_rps, "1/s");
    sink.Set("client.lateness_p99_us", all.lateness_us.Percentile(0.99),
             "us");
    sink.Set("client.fail_ratio", all.fail_ratio(), "ratio");
    // The replayed HTTP calls are checked for a 200 answer.
    attempted += ledger.calls.size() * (fleet->gateway() != nullptr ? 2 : 1);
    failed += RunLedger(ledger, &sink);
    const double p50_a = a.latency_us.Percentile(0.5);
    sink.Set("obs.tracing_overhead_pct",
             p50_a > 0 ? 100.0 * (b.latency_us.Percentile(0.5) - p50_a) / p50_a
                       : 0.0,
             "%");
  }

  // --- output checks -------------------------------------------------------
  size_t violations = 0, self_check = 0;
  if (spec.mix == Mix::kFleetChurn) {
    violations = CountChurnViolations(*fleet, checked_schedules,
                                      checked_outcomes, false);
    self_check = CountChurnViolations(*fleet, checked_schedules,
                                      checked_outcomes, true);
  } else if (open_loop) {
    for (size_t i = 0; i < checked_schedules.size(); ++i) {
      violations += CountMismatches(*fleet, fleet->service_config().knn.m,
                                    *checked_schedules[i],
                                    *checked_outcomes[i], conns);
    }
    // The gate must be able to fail: a reference with a different m.
    self_check = CountMismatches(*fleet, fleet->service_config().knn.m / 2,
                                 *checked_schedules.front(),
                                 *checked_outcomes.front(), conns);
  } else {
    violations = CountBatchMismatches(*fleet, fleet->service_config().knn.m,
                                      *plan, batch_log);
    std::vector<std::vector<Outcome>> warm_only(conns);
    for (size_t c = 0; c < conns; ++c) {
      const auto warm_end = batch_log[c].begin() + kBatchWarmCalls;
      warm_only[c].assign(batch_log[c].begin(), warm_end);
    }
    self_check = CountBatchMismatches(
        *fleet, fleet->service_config().knn.m / 2, *plan, warm_only);
  }
  if (!open_loop) {
    const PhaseStats all_batches = SummarizeClosed(batch_log);
    attempted += all_batches.attempted;
    failed += all_batches.failed;
  }
  failed += violations;
  const bool correct = failed == 0 && self_check > 0;
  if (open_loop) {
    PrintFailures("open-loop", checked_outcomes);
  } else {
    std::vector<const std::vector<Outcome>*> per_conn;
    for (const auto& log : batch_log) per_conn.push_back(&log);
    PrintFailures("batch", per_conn);
  }
  PrintFleetEvents(*fleet);
  std::printf("check: %zu attempted, %zu failed, %zu output violations; "
              "perturbed-reference self-check found %zu violations (%s)\n",
              attempted, failed, violations, self_check,
              self_check > 0 ? "gate can fail" : "GATE BROKEN");
  std::printf("metrics:\n");
  sink.PrintTable(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              sink.Json().c_str());
  std::fflush(stdout);
  fleet.reset();
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
