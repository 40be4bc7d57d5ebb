// Workload `persistence`: the paper's Fig. 6 SA-persistence study at AS1
// under ChurnSimulator churn at 4 threads, for fixed step counts.  Set-up
// runs the Experiment through Infer for the inferred graph and oracle.
//
//   round_s     both studies below
//   main_op_ms  the long study: kMainSteps steps at the default flip rate,
//               where delta propagation and the churn memo do the work
//               (study_s)
//   side_op_ms  the intra-day study of Fig. 6(b): 12 steps at a low flip
//               rate, dominated by the initial full propagation
//
// Both studies' canonical_serialize digests must repeat across rounds; the
// long study's digest is pinned for the default seed.  The traced run
// re-drives the long study's churn stream step by step from the outside
// for the churn-layer numbers.
#include "common.h"
#include "core/artifact_store.h"
#include "core/persistence.h"

namespace perfbench {

namespace bg = bgpolicy;

namespace {

constexpr std::size_t kMainSteps = 300;
constexpr std::size_t kSideSteps = 12;
const bg::util::AsNumber kWatched{1};

/// canonical_serialize digest of the kMainSteps study at kDefaultSeed.
constexpr const char* kPinnedDigest = "52c60d718a042d589732b784bcc066bf";

bg::sim::ChurnParams churn_params(const Context& ctx, bool main_study) {
  bg::sim::ChurnParams params;
  params.propagation = ctx.scenario.propagation;
  params.propagation.threads = kThreads;
  if (main_study) {
    params.seed = ctx.args.seed;
  } else {
    // Fig. 6(b): much lower churn within one day.
    params.seed = ctx.args.seed ^ 0x15;
    params.flip_fraction = 0.002;
  }
  return params;
}

struct State {
  std::unique_ptr<bg::core::Experiment> experiment;
};

}  // namespace

void run_persistence(Context& ctx) {
  double setup_s = 0;
  const auto state = repeat_setup<State>(ctx, setup_s, [&] {
    auto s = std::make_unique<State>();
    bg::core::RunOptions options;
    options.threads = kThreads;
    options.until = bg::core::Stage::kInfer;
    bg::core::StageTrace stage_trace;
    if (ctx.tracer.enabled()) options.trace = &stage_trace;
    s->experiment =
        std::make_unique<bg::core::Experiment>(ctx.scenario, options);
    const auto start = Clock::now();
    {
      const auto span = ctx.tracer.span("upstream");
      s->experiment->run(bg::core::Stage::kObserve);
      ctx.tracer.import(stage_trace, 0);
    }
    const double upstream_s = seconds_since(start);
    const auto infer_start = Clock::now();
    {
      const auto span = ctx.tracer.span("infer");
      s->experiment->run(bg::core::Stage::kInfer);
    }
    if (ctx.tracer.enabled()) {
      ctx.layer("infer.s", seconds_since(infer_start));
      stage_layers(ctx, stage_trace, upstream_s);
    }
    return s;
  });
  bg::core::Experiment& experiment = *state->experiment;
  const bg::core::GroundTruth& truth = experiment.truth();
  const bg::core::InferenceProducts& inference = experiment.inference();
  const bg::core::RelationshipOracle oracle =
      bg::core::oracle_from(inference.inferred);

  const auto study = [&](bool main_study) {
    bg::sim::ChurnSimulator churn(truth.topo.graph, truth.gen.policies,
                                  truth.originations, truth.gen.truth,
                                  {kWatched}, churn_params(ctx, main_study));
    const auto span =
        ctx.tracer.span(main_study ? "study.main" : "study.side");
    const auto start = Clock::now();
    const bg::core::PersistenceStudy result = bg::core::run_persistence_study(
        churn, kWatched, inference.inferred_graph, oracle,
        main_study ? kMainSteps : kSideSteps, kThreads);
    const double ms = seconds_since(start) * 1e3;
    return std::make_pair(
        ms, bg::core::stable_digest_hex(bg::core::canonical_serialize(result)));
  };

  std::vector<double> main_ms;
  std::vector<double> side_ms;
  std::string main_digest;
  std::string side_digest;
  const std::string pin = !ctx.args.pin_digest.empty() ? ctx.args.pin_digest
                          : ctx.args.seed == kDefaultSeed && !ctx.args.small
                              ? kPinnedDigest
                              : "";
  const auto rounds = timed_phase(ctx, kMinRounds, [&](std::size_t r) {
    const auto [ms, digest] = study(true);
    const auto [small_ms, small_digest] = study(false);
    if (r == 0) {
      main_digest = digest;
      side_digest = small_digest;
      if (!pin.empty()) {
        ctx.report.check(digest == pin, "persistence digest " + digest +
                                            " equals the pinned " + pin);
      }
    }
    ctx.report.check(digest == main_digest,
                     "long study digest repeats across rounds");
    ctx.report.check(small_digest == side_digest,
                     "intra-day study digest repeats across rounds");
    main_ms.push_back(ms);
    side_ms.push_back(small_ms);
  });

  if (ctx.args.trace) {
    // The long study's churn stream, stepped from the outside.  The study
    // itself is run_initial, kMainSteps - 1 steps, and the snapshot
    // analyses; the last are the rest of its wall time.
    const auto span = ctx.tracer.span("probe.churn");
    bg::sim::ChurnSimulator churn(truth.topo.graph, truth.gen.policies,
                                  truth.originations, truth.gen.truth,
                                  {kWatched}, churn_params(ctx, true));
    auto start = Clock::now();
    churn.run_initial();
    const double initial_s = seconds_since(start);
    std::vector<double> step_ms;
    double recomputed = 0;
    for (std::size_t step = 1; step < kMainSteps; ++step) {
      start = Clock::now();
      recomputed += static_cast<double>(churn.step().size());
      step_ms.push_back(seconds_since(start) * 1e3);
    }
    double stepping_s = 0;
    for (const double ms : step_ms) stepping_s += ms / 1e3;
    ctx.layer("churn.initial_s", initial_s);
    ctx.layer("churn.step_ms_p50", quantile(step_ms, 0.5));
    ctx.layer("churn.step_ms_p90", quantile(step_ms, 0.9));
    ctx.layer("churn.prefixes_recomputed", recomputed);
    ctx.layer("churn.memo_hit_ratio",
              recomputed > 0
                  ? static_cast<double>(churn.memo_hits()) / recomputed
                  : 0);
    ctx.layer("churn.warm_states",
              static_cast<double>(churn.warm_state_count()));
    ctx.layer("persistence.analysis_s",
              median(main_ms) / 1e3 - initial_s - stepping_s);
  }

  main_ms.resize(rounds.size());
  side_ms.resize(rounds.size());
  ctx.end_to_end["setup_s"] = setup_s;
  ctx.end_to_end["round_s"] = median(rounds);
  ctx.end_to_end["main_op_ms"] = median(main_ms);
  ctx.end_to_end["side_op_ms"] = median(side_ms);
  ctx.note("rounds", static_cast<double>(rounds.size()), "");
  ctx.note("study_s", median(main_ms) / 1e3, "s");
  ctx.note("intraday_study_s", median(side_ms) / 1e3, "s");
  ctx.notes.emplace_back("study_digest", main_digest);
}

}  // namespace perfbench
