// Workload `pipeline`: a cold Experiment through Analyze at 4 threads
// persisting into an empty ArtifactStore, then a fresh Experiment that
// resumes from that store (five loads, no stage runs).
//
//   round_s     one cold run plus its resume
//   main_op_ms  the cold run (cold_s)
//   side_op_ms  the resume (resume_s)
//
// The traced run adds the per-layer numbers: stage and sub-stage spans of
// the cold run, per-kind codec and store costs, a per-origination
// compute_prefix_flat sweep (with the ten heaviest originations), and
// path availability per looking-glass vantage.
#include <algorithm>
#include <numeric>

#include "common.h"
#include "core/artifact_store.h"
#include "core/path_availability.h"
#include "io/artifact_codec.h"
#include "sim/flat_engine.h"

namespace perfbench {

namespace bg = bgpolicy;

namespace {

bool all_stages(const bg::core::StageCounters& c, std::size_t n) {
  return c.synthesize == n && c.simulate == n && c.observe == n &&
         c.infer == n && c.analyze == n;
}

/// Times one call in seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

/// Codec and store cost of one artifact kind.
template <typename Artifact, typename Decode>
void store_kind(Context& ctx, bg::core::ArtifactStore& store,
                const std::string& kind, const Artifact& artifact,
                Decode&& decode, double& bytes, double& put_s,
                double& load_s) {
  std::vector<std::uint8_t> encoded;
  ctx.layer("store.encode_s." + kind,
            timed([&] { encoded = bg::io::encode(artifact); }));
  ctx.layer("store.decode_s." + kind, timed([&] {
              (void)decode(std::span<const std::uint8_t>(encoded));
            }));
  bytes += static_cast<double>(encoded.size());
  put_s += timed([&] { store.put(kind, encoded); });
  bool loaded = false;
  load_s += timed([&] { loaded = store.load(kind).has_value(); });
  ctx.report.check(loaded, "store round trip of " + kind);
}

/// Per-layer probes run once after the timed phase, on the artifacts of
/// the last traced cold run.
void layer_probes(Context& ctx, bg::core::Experiment& cold) {
  {
    const auto span = ctx.tracer.span("probe.store");
    bg::core::ArtifactStore store(ctx.scratch_dir("pipeline-probe"));
    double bytes = 0;
    double put_s = 0;
    double load_s = 0;
    store_kind(ctx, store, "truth", cold.truth(), bg::io::decode_ground_truth,
               bytes, put_s, load_s);
    store_kind(ctx, store, "sim", cold.sim(), bg::io::decode_sim_artifact,
               bytes, put_s, load_s);
    store_kind(ctx, store, "observations", cold.observations(),
               bg::io::decode_observations, bytes, put_s, load_s);
    store_kind(ctx, store, "inference", cold.inference(),
               bg::io::decode_inference, bytes, put_s, load_s);
    store_kind(ctx, store, "analyses", cold.analyses(),
               bg::io::decode_analysis_suite, bytes, put_s, load_s);
    ctx.layer("store.bytes", bytes);
    ctx.layer("store.put_s", put_s);
    ctx.layer("store.load_s", load_s);
  }
  {
    const auto span = ctx.tracer.span("probe.path_availability");
    const auto& sim = cold.sim().sim;
    const auto& graph = cold.inference().inferred_graph;
    double total = 0;
    for (const auto& [vantage, table] : sim.looking_glass) {
      total += timed([&] {
        (void)bg::core::analyze_path_availability(table, vantage, graph);
      });
    }
    ctx.layer("analyze.path_availability_s", total);
  }
  {
    // One cold fixpoint per origination, single-threaded on one scratch:
    // the per-prefix cost profile Simulate's chunk balance depends on.
    const auto span = ctx.tracer.span("probe.prefix_sweep");
    const auto& truth = cold.truth();
    const bg::sim::FlatSimContext context(truth.topo.graph,
                                          truth.gen.policies);
    bg::sim::FlatScratch scratch;
    struct Cost {
      double ms = 0;
      std::size_t events = 0;
      std::size_t index = 0;
    };
    std::vector<Cost> costs;
    costs.reserve(truth.originations.size());
    double events = 0;
    for (std::size_t i = 0; i < truth.originations.size(); ++i) {
      std::size_t process_events = 0;
      const double seconds = timed([&] {
        process_events =
            bg::sim::compute_prefix_flat(context, truth.originations[i],
                                         nullptr, ctx.scenario.propagation,
                                         scratch)
                .process_events;
      });
      costs.push_back({seconds * 1e3, process_events, i});
      events += static_cast<double>(process_events);
    }
    std::vector<double> ms;
    for (const Cost& cost : costs) ms.push_back(cost.ms);
    const double total = std::accumulate(ms.begin(), ms.end(), 0.0);
    std::sort(costs.begin(), costs.end(),
              [](const Cost& a, const Cost& b) { return a.ms > b.ms; });
    double top = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(10, costs.size()); ++i) {
      const Cost& cost = costs[i];
      const auto& o = truth.originations[cost.index];
      top += cost.ms;
      ctx.notes.emplace_back(
          "heaviest[" + std::to_string(i) + "]",
          "origination #" + std::to_string(cost.index) + " " +
              o.prefix.to_string() + " from AS" +
              std::to_string(o.origin.value()) + ": " +
              std::to_string(cost.ms) + " ms, " +
              std::to_string(cost.events) + " events");
    }
    ctx.layer("simulate.fixpoint_events", events);
    ctx.layer("simulate.prefix_p50_ms", median(ms));
    ctx.layer("simulate.prefix_max_ms", costs.empty() ? 0 : costs[0].ms);
    ctx.layer("simulate.top10_share", total > 0 ? top / total : 0);
  }
}

}  // namespace

void run_pipeline(Context& ctx) {
  // Set-up: synthesize the world, and warm the code paths and the
  // allocator's per-thread arenas with a cold run and a resume of the small
  // scenario at the same thread count (without it the first round in a
  // process ran ~15% slower than the rest).
  struct State {
    std::size_t originations = 0;
  };
  double setup_s = 0;
  const auto state = repeat_setup<State>(ctx, setup_s, [&] {
    auto s = std::make_unique<State>();
    s->originations = bg::core::synthesize(ctx.scenario).originations.size();
    bg::core::ArtifactStore store(ctx.scratch_dir("pipeline-warmup"));
    bg::core::RunOptions options;
    options.threads = kThreads;
    options.store = &store;
    for (int pass = 0; pass < 2; ++pass) {
      bg::core::Experiment(bg::core::Scenario::small(), options).run();
    }
    return s;
  });
  ctx.report.check(state->originations > 0, "synthesized originations");

  std::vector<double> cold_ms;
  std::vector<double> resume_ms;
  std::string first_digest;
  std::unique_ptr<bg::core::Experiment> last_traced;
  const auto rounds = timed_phase(ctx, kMinRounds, [&](std::size_t r) {
    const bool tracing = ctx.tracer.enabled();
    bg::core::ArtifactStore store(ctx.scratch_dir("pipeline-store"));
    bg::core::RunOptions options;
    options.threads = kThreads;
    options.store = &store;
    bg::core::StageTrace stage_trace;
    if (tracing) options.trace = &stage_trace;

    auto cold = std::make_unique<bg::core::Experiment>(ctx.scenario, options);
    double upstream_s = 0;
    const double cold_s = timed([&] {
      const auto span = ctx.tracer.span("experiment.cold", r);
      if (!tracing) {
        cold->run();
        return;
      }
      // Stage by stage, so Infer and Analyze get spans of their own.
      upstream_s = timed([&] {
        const auto upstream = ctx.tracer.span("upstream", r);
        cold->run(bg::core::Stage::kObserve);
        ctx.tracer.import(stage_trace, r);
      });
      ctx.layer("infer.s", timed([&] {
                  const auto infer = ctx.tracer.span("infer", r);
                  cold->run(bg::core::Stage::kInfer);
                }));
      ctx.layer("analyze.s", timed([&] {
                  const auto analyze = ctx.tracer.span("analyze", r);
                  cold->run(bg::core::Stage::kAnalyze);
                }));
    });
    if (tracing) stage_layers(ctx, stage_trace, upstream_s);
    const std::string cold_digest = analyses_digest(cold->analyses());
    ctx.report.check(all_stages(cold->counters(), 1) &&
                         all_stages(cold->loads(), 0),
                     "cold run computes all five stages");
    if (r == 0) first_digest = cold_digest;
    ctx.report.check(cold_digest == first_digest,
                     "cold analyses digest repeats across rounds");
    if (tracing) {
      last_traced = std::move(cold);
    } else {
      cold.reset();
    }

    options.trace = nullptr;
    bg::core::Experiment resumed(ctx.scenario, options);
    const double resume_s = timed([&] {
      const auto span = ctx.tracer.span("experiment.resume", r);
      resumed.run();
    });
    ctx.report.check(all_stages(resumed.loads(), 1) &&
                         all_stages(resumed.counters(), 0),
                     "resume loads five stages and runs none");
    ctx.report.check(analyses_digest(resumed.analyses()) == cold_digest,
                     "resume analyses digest equals the cold run's");
    cold_ms.push_back(cold_s * 1e3);
    resume_ms.push_back(resume_s * 1e3);
  });
  if (last_traced) layer_probes(ctx, *last_traced);

  // The untraced rounds come first; in a traced run only they count.
  cold_ms.resize(rounds.size());
  resume_ms.resize(rounds.size());
  ctx.end_to_end["setup_s"] = setup_s;
  ctx.end_to_end["round_s"] = median(rounds);
  ctx.end_to_end["main_op_ms"] = median(cold_ms);
  ctx.end_to_end["side_op_ms"] = median(resume_ms);
  ctx.note("rounds", static_cast<double>(rounds.size()), "");
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    ctx.note("round[" + std::to_string(r) + "].cold_s", cold_ms[r] / 1e3, "s");
  }
  ctx.note("cold_s", median(cold_ms) / 1e3, "s");
  ctx.note("resume_s", median(resume_ms) / 1e3, "s");
}

}  // namespace perfbench
