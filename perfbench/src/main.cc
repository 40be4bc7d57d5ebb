// perfbench: the end-to-end benchmark of the routing-policy system.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--small] [--pin-digest HEX] [--corrupt-expected]
//             [--out-dir DIR]
//
// Runs one workload (pipeline, persistence, serve_lookup, serve_compute;
// see README.md), prints human-readable detail lines, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, and the spans go to DIR/trace-<workload>-<seed>.json.
// Exits 0 only when every output check passed.
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"

namespace {

using namespace perfbench;

/// End-to-end metric units (BENCHMARK.json "end_to_end").
const std::vector<std::pair<std::string, std::string>>& end_to_end_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"setup_s", "s"},     {"peak_rss_mb", "MB"}, {"round_s", "s"},
      {"main_op_ms", "ms"}, {"side_op_ms", "ms"},
  };
  return units;
}

int usage(const char* error) {
  std::cerr << (error != nullptr ? std::string(error) + "\n" : "")
            << "usage: perfbench --workload "
               "pipeline|persistence|serve_lookup|serve_compute [--seed N]"
               " [--seconds S] [--trace 0|1] [--small] [--pin-digest HEX]"
               " [--corrupt-expected] [--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") args.workload = value();
      else if (flag == "--seed") args.seed = std::stoull(value());
      else if (flag == "--seconds") args.seconds = std::stod(value());
      else if (flag == "--trace") args.trace = value() != "0";
      else if (flag == "--small") args.small = true;
      else if (flag == "--pin-digest") args.pin_digest = value();
      else if (flag == "--corrupt-expected") args.corrupt_expected = true;
      else if (flag == "--out-dir") args.out_dir = value();
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception& error) {
      return usage(error.what());
    }
  }
  void (*workload)(Context&) = nullptr;
  if (args.workload == "pipeline") workload = run_pipeline;
  else if (args.workload == "persistence") workload = run_persistence;
  else if (args.workload == "serve_lookup") workload = run_serve_lookup;
  else if (args.workload == "serve_compute") workload = run_serve_compute;
  else return usage("unknown or missing --workload");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");

  // The world is fixed (the canonical internet2002); the seed drives the
  // workload inputs: churn streams, request orders and what-if choices.
  Context ctx(args, args.small ? bgpolicy::core::Scenario::small()
                               : bgpolicy::core::Scenario::internet2002());
  std::filesystem::create_directories(args.out_dir);
  try {
    workload(ctx);
  } catch (const std::exception& error) {
    ctx.report.check(false, std::string("workload threw: ") + error.what());
  }
  std::filesystem::remove_all(std::filesystem::path(args.out_dir) / "scratch");
  // The median round's peak: resident set-up state counts, set-up
  // transients and allocator leftovers of earlier rounds do not.
  ctx.end_to_end["peak_rss_mb"] =
      ctx.round_peak_mb.empty() ? peak_rss_mb() : median(ctx.round_peak_mb);

  std::cout << "workload " << args.workload << " seed " << args.seed
            << " scenario " << ctx.scenario.name << "\n";
  for (const auto& [key, text] : ctx.notes) {
    std::cout << "  " << key << " = " << text << "\n";
  }
  if (args.trace) {
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    ctx.layer("trace.spans", static_cast<double>(ctx.tracer.size()));
    ctx.tracer.write_chrome(path);
    std::cout << "self time by span (s), spans in " << path << ":\n";
    for (const auto& [name, seconds] : ctx.tracer.self_seconds()) {
      std::cout << "  " << name << " " << seconds << "\n";
    }
    std::cout << "per-layer metrics:\n";
    for (const auto& [name, unit] : per_layer_metrics()) {
      const auto it = ctx.layers.find(name);
      const double value = it == ctx.layers.end() ? 0.0 : median(it->second);
      ctx.report.metric(name, value, unit);
      std::cout << "  " << name << " = " << value << " " << unit
                << (it == ctx.layers.end() ? "  (not on this workload)" : "")
                << "\n";
    }
  } else {
    for (const auto& [name, unit] : end_to_end_units()) {
      const auto it = ctx.end_to_end.find(name);
      ctx.report.check(it != ctx.end_to_end.end() && it->second > 0,
                       "end-to-end metric " + name + " measured");
      ctx.report.metric(name, it == ctx.end_to_end.end() ? 0 : it->second,
                        unit);
    }
  }
  std::cout << ctx.report.json() << std::endl;
  return ctx.report.correct() ? 0 : 1;
}
