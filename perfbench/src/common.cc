#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <sched.h>
#include <sstream>
#include <thread>

#include "core/artifact_store.h"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

void release_free_memory() { malloc_trim(0); }

bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------- Report --

void Report::check(bool ok, const std::string& what) {
  const std::lock_guard lock(mutex_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
}

void Report::tally(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& what) {
  const std::lock_guard lock(mutex_);
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::cerr << "CHECK FAILED: " << failed << " of " << attempted << " "
              << what << "\n";
  }
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  const std::lock_guard lock(mutex_);
  metrics_[name] = {value, unit};
}

std::string Report::json() const {
  std::ostringstream out;
  out.precision(12);
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << (std::isfinite(metric.value) ? metric.value : 0.0)
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------- Tracer --

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> open_spans;

std::uint32_t thread_index() {
  static std::mutex mutex;
  static std::map<std::thread::id, std::uint32_t> ids;
  const std::lock_guard lock(mutex);
  return ids.try_emplace(std::this_thread::get_id(),
                         static_cast<std::uint32_t>(ids.size()))
      .first->second;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, std::string name, std::uint64_t group)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->open(std::move(name), group);
}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

std::int64_t Tracer::open(std::string name, std::uint64_t group) {
  SpanRecord record;
  record.name = std::move(name);
  record.group = group;
  record.parent = open_spans.empty() ? -1 : open_spans.back();
  record.tid = thread_index();
  record.start_s = now_s();
  const std::lock_guard lock(mutex_);
  spans_.push_back(std::move(record));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  open_spans.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  const double end = now_s();
  open_spans.pop_back();
  const std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_s = end;
}

void Tracer::import(const bgpolicy::core::StageTrace& trace,
                    std::uint64_t group) {
  if (!enabled_) return;
  const double offset =
      std::chrono::duration<double>(trace.origin - origin_).count();
  const std::int64_t parent = open_spans.empty() ? -1 : open_spans.back();
  const std::lock_guard lock(mutex_);
  for (const bgpolicy::core::TraceSpan& span : trace.spans) {
    SpanRecord record;
    record.name = "experiment." + span.name;
    record.start_s = offset + span.start_seconds;
    record.end_s = offset + span.end_seconds;
    record.parent = parent;
    record.group = group;
    // Library spans carry no thread; give them a lane of their own.
    record.tid = 1000;
    spans_.push_back(std::move(record));
  }
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_s, span.end_s);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = span.start_s;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, reach);
      const double hi = std::min(end, span.end_s);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(end, span.end_s));
    }
    self[span.name] += std::max(0.0, span.end_s - span.start_s - covered);
  }
  return self;
}

void Tracer::write_chrome(const std::string& path) const {
  const std::lock_guard lock(mutex_);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\": %.3f, \"dur\": %.3f",
                  span.start_s * 1e6, (span.end_s - span.start_s) * 1e6);
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << json_escape(span.name)
        << "\", \"ph\": \"X\", " << times << ", \"pid\": 1, \"tid\": "
        << span.tid << ", \"args\": {\"id\": " << i
        << ", \"parent\": " << span.parent << ", \"group\": " << span.group
        << "}}";
  }
  out << "\n]}\n";
}

std::size_t Tracer::size() const {
  const std::lock_guard lock(mutex_);
  return spans_.size();
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

void pin_thread(int tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  // A refused pin only costs steadiness, never correctness.
  (void)sched_setaffinity(tid, sizeof(set), &set);
}

std::vector<int> thread_ids() {
  std::vector<int> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.push_back(std::stoi(entry.path().filename().string()));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// --------------------------------------------------------------- Context --

void Context::note(const std::string& key, double value,
                   const std::string& unit) {
  std::ostringstream text;
  text.precision(6);
  text << value << " " << unit;
  notes.emplace_back(key, text.str());
}

std::string Context::scratch_dir(const std::string& name) const {
  const std::filesystem::path dir =
      std::filesystem::path(args.out_dir) / "scratch" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::vector<double> timed_phase(
    Context& ctx, std::size_t min_rounds,
    const std::function<void(std::size_t)>& round) {
  std::size_t index = 0;
  const auto run = [&](double seconds) {
    std::vector<double> times;
    const auto begin = Clock::now();
    while (times.size() < min_rounds ||
           seconds_since(begin) + times.back() <= seconds) {
      const bool peak_reset = reset_peak_rss();
      const auto start = Clock::now();
      {
        const auto span = ctx.tracer.span("round", index);
        round(index++);
      }
      times.push_back(seconds_since(start));
      if (peak_reset && !ctx.tracer.enabled()) {
        ctx.round_peak_mb.push_back(peak_rss_mb());
      }
      release_free_memory();
    }
    return times;
  };
  const bool trace = ctx.args.trace;
  ctx.tracer.set_enabled(false);
  std::vector<double> plain = run(trace ? ctx.args.seconds / 2
                                        : ctx.args.seconds);
  if (trace) {
    ctx.tracer.set_enabled(true);
    const std::vector<double> traced = run(ctx.args.seconds / 2);
    ctx.layer("trace.overhead_pct",
              100.0 * (median(traced) / median(plain) - 1.0));
  }
  return plain;
}

void stage_layers(Context& ctx, const bgpolicy::core::StageTrace& trace,
                  double upstream_wall_s) {
  std::map<std::string, double> total;
  std::vector<double> chunks;
  double sim_begin = 1e300;
  double sim_end = 0;
  double busy = 0;
  for (const bgpolicy::core::TraceSpan& span : trace.spans) {
    const double seconds = span.end_seconds - span.start_seconds;
    total[span.name] += seconds;
    busy += seconds;
    if (span.name == "simulate.chunk") chunks.push_back(seconds);
    if (span.name.rfind("simulate.", 0) == 0) {
      sim_begin = std::min(sim_begin, span.start_seconds);
      sim_end = std::max(sim_end, span.end_seconds);
    }
  }
  ctx.layer("synthesize.s", total["synthesize"]);
  ctx.layer("simulate.s", sim_end > sim_begin ? sim_end - sim_begin : 0);
  ctx.layer("simulate.busy_s", total["simulate.chunk"]);
  ctx.layer("simulate.merge_s", total["simulate.merge"]);
  if (!chunks.empty()) {
    const double max = *std::max_element(chunks.begin(), chunks.end());
    const double mean =
        total["simulate.chunk"] / static_cast<double>(chunks.size());
    ctx.layer("simulate.chunk_max_s", max);
    ctx.layer("simulate.chunk_imbalance", mean > 0 ? max / mean : 0);
  }
  for (const char* stage :
       {"irr_gen", "irr_parse", "path_ingest", "path_index", "finish"}) {
    ctx.layer(std::string("observe.") + stage + "_s",
              total[std::string("observe.") + stage]);
  }
  if (upstream_wall_s > 0) {
    ctx.layer("taskgraph.idle_ratio",
              1.0 - busy / (upstream_wall_s * static_cast<double>(kThreads)));
  }
}

std::string analyses_digest(const bgpolicy::core::AnalysisSuite& suite) {
  return bgpolicy::core::stable_digest_hex(
      bgpolicy::core::canonical_serialize(suite));
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"synthesize.s", "s"},
      {"simulate.s", "s"},
      {"simulate.busy_s", "s"},
      {"simulate.merge_s", "s"},
      {"simulate.chunk_max_s", "s"},
      {"simulate.chunk_imbalance", "ratio"},
      {"simulate.fixpoint_events", "count"},
      {"simulate.prefix_p50_ms", "ms"},
      {"simulate.prefix_max_ms", "ms"},
      {"simulate.top10_share", "ratio"},
      {"observe.irr_gen_s", "s"},
      {"observe.irr_parse_s", "s"},
      {"observe.path_ingest_s", "s"},
      {"observe.path_index_s", "s"},
      {"observe.finish_s", "s"},
      {"infer.s", "s"},
      {"analyze.s", "s"},
      {"analyze.path_availability_s", "s"},
      {"store.encode_s.truth", "s"},
      {"store.encode_s.sim", "s"},
      {"store.encode_s.observations", "s"},
      {"store.encode_s.inference", "s"},
      {"store.encode_s.analyses", "s"},
      {"store.decode_s.truth", "s"},
      {"store.decode_s.sim", "s"},
      {"store.decode_s.observations", "s"},
      {"store.decode_s.inference", "s"},
      {"store.decode_s.analyses", "s"},
      {"store.bytes", "bytes"},
      {"store.put_s", "s"},
      {"store.load_s", "s"},
      {"taskgraph.idle_ratio", "ratio"},
      {"serve.roundtrip_us", "us"},
      {"serve.answer_us.server_info", "us"},
      {"serve.answer_us.sa_prevalence", "us"},
      {"serve.answer_us.causes", "us"},
      {"serve.answer_us.homing", "us"},
      {"serve.transport_us", "us"},
      {"serve.loop.accepted", "count"},
      {"serve.loop.closed", "count"},
      {"serve.loop.frames_in", "count"},
      {"serve.loop.frames_out", "count"},
      {"serve.loop.malformed_closes", "count"},
      {"serve.loop.read_pauses", "count"},
      {"serve.loop.accept_pauses", "count"},
      {"serve.lookup_p99_us", "us"},
      {"serve.refresh_s", "s"},
      {"serve.snapshot_copy_s", "s"},
      {"serve.publish_us", "us"},
      {"serve.answer_ms.path_availability", "ms"},
      {"serve.answer_ms.rerun_infer", "ms"},
      {"serve.answer_ms.what_if_failure", "ms"},
      {"serve.compute_p90_ms", "ms"},
      {"whatif.wave_events", "count"},
      {"whatif.warm_s", "s"},
      {"churn.initial_s", "s"},
      {"churn.step_ms_p50", "ms"},
      {"churn.step_ms_p90", "ms"},
      {"churn.prefixes_recomputed", "count"},
      {"churn.memo_hit_ratio", "ratio"},
      {"churn.warm_states", "count"},
      {"persistence.analysis_s", "s"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  return names;
}

}  // namespace perfbench
