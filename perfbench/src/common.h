// Shared scaffolding of the end-to-end benchmark: arguments, the result
// report, statistics, the span recorder of the traced run, and the set-up /
// round loops every workload uses.
//
// The benchmark drives the library from the outside only: every timed
// interval and every span wraps a call into a public entry point
// (core::Experiment, io::encode/decode_*, core::ArtifactStore,
// sim::ChurnSimulator, core::run_persistence_study, serve::*,
// sim::compute_prefix_flat).  Nothing here reaches into library internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/scenario.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The seed the persistence digest is pinned for (and the canonical
/// internet2002 world seed).
inline constexpr std::uint64_t kDefaultSeed = 2002;
/// Worker threads of every multi-threaded stage (the host has 4 cores).
inline constexpr std::size_t kThreads = 4;
/// How many times each workload runs its set-up; setup_s is the median.
inline constexpr int kSetupReps = 3;
/// Rounds every timed phase runs at least: a median of three ignores one
/// round slowed by a burst on the shared host.
inline constexpr std::size_t kMinRounds = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Scenario::small instead of internet2002 (the self-test size).
  bool small = false;
  /// Overrides the pinned persistence digest and enforces it at any seed
  /// (the negative self-test feeds a wrong one).
  std::string pin_digest;
  /// Corrupts one expected serving reply (negative self-test).
  bool corrupt_expected = false;
  /// Directory for trace files and scratch stores.
  std::string out_dir = ".bench_out";
};

[[nodiscard]] double seconds_since(Clock::time_point start);

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples; 0 for
/// an empty sample.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// The process's peak resident set (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mb();
/// Resets the peak to the current resident set (/proc/self/clear_refs);
/// false where the kernel refuses.
bool reset_peak_rss();

/// Checks and metrics of one run: the result object printed as the last
/// stdout line.
class Report {
 public:
  /// Counts one verified operation; a false `ok` counts it as failed and
  /// says why on stderr.
  void check(bool ok, const std::string& what);
  /// Adds `attempted` operations of which `failed` failed (bulk form of
  /// check() for hot loops that count locally).
  void tally(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool correct() const { return failed_ == 0 && attempted_ > 0; }
  /// The one-line JSON result object.
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, Metric> metrics_;
};

/// In-memory span recorder of the traced run.  Spans nest per thread (the
/// parent of a span is the innermost span open on the same thread when it
/// starts); `group` ties together the spans of one request or repetition.
/// Disabled, every call is a no-op, so the untraced run pays nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  struct SpanRecord {
    std::string name;
    double start_s = 0;  ///< seconds since the tracer's origin
    double end_s = 0;
    std::int64_t parent = -1;
    std::uint64_t group = 0;
    std::uint32_t tid = 0;
  };

  class Span {
   public:
    Span(Tracer* tracer, std::string name, std::uint64_t group);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t id_ = -1;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Opens a span closed when the returned object is destroyed.
  [[nodiscard]] Span span(std::string name, std::uint64_t group = 0) {
    return Span(enabled_ ? this : nullptr, std::move(name), group);
  }
  /// Adds spans the library recorded itself (RunOptions::trace), parented
  /// under the innermost span open on the calling thread.
  void import(const bgpolicy::core::StageTrace& trace, std::uint64_t group);
  /// Total self time per span name: each span's duration minus the part of
  /// it its children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Writes every span as Chrome trace-event JSON.
  void write_chrome(const std::string& path) const;
  [[nodiscard]] std::size_t size() const;

 private:
  std::int64_t open(std::string name, std::uint64_t group);
  void close(std::int64_t id);
  [[nodiscard]] double now_s() const { return seconds_since(origin_); }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// What every workload function receives.
struct Context {
  Args args;
  bgpolicy::core::Scenario scenario;
  Tracer tracer;
  Report report;
  /// Per-workload details printed as human-readable lines above the JSON
  /// result (named as in the README's metric map).
  std::vector<std::pair<std::string, std::string>> notes;
  /// End-to-end metric values (README "End-to-end metrics").
  std::map<std::string, double> end_to_end;
  /// Process peak resident set reached during each untraced round.
  std::vector<double> round_peak_mb;
  /// Per-layer samples of the traced run; each metric reports the median
  /// of its samples, 0 where this workload does not exercise the layer.
  std::map<std::string, std::vector<double>> layers;

  Context(Args a, bgpolicy::core::Scenario s)
      : args(std::move(a)), scenario(std::move(s)), tracer(args.trace) {}

  void note(const std::string& key, double value, const std::string& unit);
  void layer(const std::string& name, double value) {
    layers[name].push_back(value);
  }
  /// A fresh, empty scratch directory under out_dir (removed at exit).
  [[nodiscard]] std::string scratch_dir(const std::string& name) const;
};

/// Returns the heap's free pages to the OS (malloc_trim), so each set-up
/// repetition and round starts from the same heap state and first-touch
/// costs and the process peak do not depend on how many came before.
void release_free_memory();

/// CPUs this process may run on, ascending.
[[nodiscard]] std::vector<int> allowed_cpus();
/// Pins thread `tid` to `cpu`; a refused pin is ignored.
void pin_thread(int tid, int cpu);
/// Thread ids of this process, ascending.
[[nodiscard]] std::vector<int> thread_ids();

/// Runs `setup` kSetupReps times (dropping the previous state before the
/// next repetition, so at most one is alive) and returns the last state
/// together with the median set-up wall time.
template <typename State>
std::unique_ptr<State> repeat_setup(
    Context& ctx, double& setup_s,
    const std::function<std::unique_ptr<State>()>& setup) {
  std::vector<double> times;
  std::unique_ptr<State> state;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    state.reset();
    release_free_memory();
    const auto span = ctx.tracer.span("setup", static_cast<std::uint64_t>(rep));
    const auto start = Clock::now();
    state = setup();
    times.push_back(seconds_since(start));
  }
  setup_s = median(times);
  return state;
}

/// The timed phase: runs `round(index)` back to back for --seconds (a new
/// round starts while the elapsed time plus the last round's duration
/// fits; at least `min_rounds` run) and returns each round's wall time.
/// In the traced run the budget is split: the first half runs with spans
/// off (these are the returned rounds), the second with spans on, and
/// trace.overhead_pct compares their median round times.  Each untraced
/// round also records the process peak it reached in ctx.round_peak_mb.
std::vector<double> timed_phase(Context& ctx, std::size_t min_rounds,
                                const std::function<void(std::size_t)>& round);

/// Per-layer samples from the spans an Experiment recorded through
/// RunOptions::trace: Synthesize, Simulate chunks and merge, Observe
/// sub-stages, and the task graph's idle ratio over `upstream_wall_s`.
void stage_layers(Context& ctx, const bgpolicy::core::StageTrace& trace,
                  double upstream_wall_s);

/// Stable digest of the canonical analysis text of a suite.
[[nodiscard]] std::string analyses_digest(
    const bgpolicy::core::AnalysisSuite& suite);

// ------------------------------------------------------------- workloads --
// Each fills ctx.report with the end-to-end metrics (README "End-to-end
// metrics") and, when ctx.args.trace is set, ctx.layers with per-layer ones.
void run_pipeline(Context& ctx);
void run_persistence(Context& ctx);
void run_serve_lookup(Context& ctx);
void run_serve_compute(Context& ctx);

/// Every per-layer metric name with its unit, in report order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

}  // namespace perfbench
