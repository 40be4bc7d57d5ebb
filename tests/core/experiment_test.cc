// The staged experiment API contract: every stage runs once and yields
// byte-identical artifacts at any thread count, downstream stages re-run
// against cached upstream artifacts (verified by stage-run counters), and
// sweeps are thread-count independent with upstream work shared per
// distinct scenario.
#include "core/experiment.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/artifact_codec.h"

namespace bgpolicy::core {
namespace {

std::string bytes_of(const std::vector<std::uint8_t>& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

// Byte-level digest of every artifact through Infer, via the artifact codec.
std::string upstream_digest(const Experiment& experiment) {
  return bytes_of(io::encode(experiment.truth())) +
         bytes_of(io::encode(experiment.sim())) +
         bytes_of(io::encode(experiment.observations())) +
         bytes_of(io::encode(experiment.inference()));
}

TEST(Experiment, StagesRunOnceWithIdenticalArtifactsAtEveryThreadCount) {
  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    RunOptions options;
    options.threads = threads;
    options.until = Stage::kInfer;
    Experiment experiment(Scenario::small(91), options);
    experiment.run();

    // Each stage ran exactly once.
    EXPECT_EQ(experiment.counters().synthesize, 1u);
    EXPECT_EQ(experiment.counters().simulate, 1u);
    EXPECT_EQ(experiment.counters().observe, 1u);
    EXPECT_EQ(experiment.counters().infer, 1u);
    EXPECT_EQ(experiment.counters().analyze, 0u);

    const std::string digest = upstream_digest(experiment);
    if (reference.empty()) {
      reference = digest;
    } else {
      EXPECT_EQ(digest, reference) << "artifacts differ at threads="
                                   << threads;
    }
  }
}

TEST(Experiment, RerunInferReusesCachedUpstreamArtifacts) {
  Experiment experiment(Scenario::small(7));
  const std::string irr_before = experiment.observations().irr_text;
  const std::string first =
      asrel::canonical_serialize(experiment.inference().inferred);

  // Same params, different knob: the peer-detection ablation must change
  // the classification, without re-running any upstream stage.
  asrel::GaoParams no_peers;
  no_peers.detect_peers = false;
  const std::string second =
      asrel::canonical_serialize(experiment.rerun_infer(no_peers).inferred);
  EXPECT_NE(second, first);

  EXPECT_EQ(experiment.counters().synthesize, 1u);
  EXPECT_EQ(experiment.counters().simulate, 1u);
  EXPECT_EQ(experiment.counters().observe, 1u);
  EXPECT_EQ(experiment.counters().infer, 2u);
  EXPECT_EQ(experiment.observations().irr_text, irr_before);

  // Re-running with the original params restores the original products —
  // the cached Observations are bit-for-bit stable across Infer variants.
  asrel::GaoParams original;
  original.threads = experiment.threads();
  EXPECT_EQ(asrel::canonical_serialize(
                experiment.rerun_infer(original).inferred),
            first);
}

TEST(Experiment, StageSelectionStopsWhereAsked) {
  RunOptions options;
  options.until = Stage::kSimulate;
  Experiment experiment(Scenario::small(7), options);
  experiment.run();
  EXPECT_EQ(experiment.counters().synthesize, 1u);
  EXPECT_EQ(experiment.counters().simulate, 1u);
  EXPECT_EQ(experiment.counters().observe, 0u);
  EXPECT_EQ(experiment.counters().infer, 0u);
  EXPECT_EQ(experiment.counters().analyze, 0u);

  const Experiment& finished = experiment;
  EXPECT_GT(finished.sim().sim.collector.prefix_count(), 0u);
  EXPECT_THROW((void)finished.observations(), std::logic_error);
  EXPECT_THROW((void)finished.inference(), std::logic_error);
}

TEST(Experiment, AnalyzeStageMatchesSuiteOverView) {
  RunOptions options;
  options.threads = 1;
  Experiment experiment(Scenario::small(42), options);
  const std::string staged = canonical_serialize(experiment.analyses());
  EXPECT_EQ(experiment.counters().analyze, 1u);

  const std::string direct = canonical_serialize(run_analysis_suite(
      experiment.view(), recorded_vantages(experiment.sim().sim), 1));
  EXPECT_EQ(staged, direct);
}

std::string run_digest(const SweepRun& run) {
  return run.label + "\n" +
         asrel::canonical_serialize(run.inference.inferred) +
         asrel::canonical_serialize(run.inference.tiers) +
         canonical_serialize(run.analyses);
}

std::vector<SweepVariant> sweep_variants() {
  SweepVariant base;
  base.label = "base";
  base.scenario = Scenario::small(5);

  SweepVariant no_peers = base;
  no_peers.label = "no-peers";
  no_peers.options.gao = asrel::GaoParams{};
  no_peers.options.gao->detect_peers = false;

  SweepVariant other_seed;
  other_seed.label = "seed9";
  other_seed.scenario = Scenario::small(9);

  // Same world as `base`, different thread knob: must share its upstream
  // cache entry (thread counts never change artifact bytes).
  SweepVariant threaded = base;
  threaded.label = "threaded";
  threaded.scenario.propagation.threads = 3;

  return {base, no_peers, other_seed, threaded};
}

TEST(Sweep, ReusesUpstreamArtifactsPerDistinctScenario) {
  const std::vector<SweepVariant> variants = sweep_variants();
  const SweepReport report = sweep(variants, 1);

  ASSERT_EQ(report.runs.size(), 4u);
  EXPECT_EQ(report.distinct_scenarios, 2u);
  // The stage-run ledger: upstream stages once per distinct scenario,
  // Infer/Analyze once per variant.
  EXPECT_EQ(report.counters.synthesize, 2u);
  EXPECT_EQ(report.counters.simulate, 2u);
  EXPECT_EQ(report.counters.observe, 2u);
  EXPECT_EQ(report.counters.infer, 4u);
  EXPECT_EQ(report.counters.analyze, 4u);

  // Results merge in request order.
  EXPECT_EQ(report.runs[0].label, "base");
  EXPECT_EQ(report.runs[1].label, "no-peers");
  EXPECT_EQ(report.runs[2].label, "seed9");
  EXPECT_EQ(report.runs[3].label, "threaded");

  // Cache-key relationships.
  EXPECT_EQ(report.runs[0].scenario_key, report.runs[1].scenario_key);
  EXPECT_EQ(report.runs[0].scenario_key, report.runs[3].scenario_key);
  EXPECT_NE(report.runs[0].scenario_key, report.runs[2].scenario_key);

  // Identical scenario + params => identical products; a changed inference
  // knob or seed => different ones.
  EXPECT_EQ(asrel::canonical_serialize(report.runs[0].inference.inferred),
            asrel::canonical_serialize(report.runs[3].inference.inferred));
  EXPECT_NE(asrel::canonical_serialize(report.runs[0].inference.inferred),
            asrel::canonical_serialize(report.runs[1].inference.inferred));
  EXPECT_NE(asrel::canonical_serialize(report.runs[0].inference.inferred),
            asrel::canonical_serialize(report.runs[2].inference.inferred));
}

TEST(Experiment, ChunkSizeAndThreadsNeverChangeArtifacts) {
  // The chunked Simulate stage must produce byte-identical artifacts at
  // every chunk size and thread count, all equal to one unchunked
  // sim::run_simulation over the same ground truth — an oracle outside
  // the task graph (itself golden-tested against the per-event reference
  // engine).
  const Scenario scenario = Scenario::small(17);
  RunOptions reference_options;
  reference_options.threads = 1;
  Experiment reference(scenario, reference_options);
  reference.run(Stage::kObserve);
  // threads = 1 without a store runs the same chunked graph, inline.
  EXPECT_GT(reference.sim_chunks().total, 0u);

  const GroundTruth& truth = reference.truth();
  SimArtifact oracle;
  oracle.vantage = derive_vantage(scenario, truth.topo);
  oracle.sim = sim::run_simulation(truth.topo.graph, truth.gen.policies,
                                   truth.originations, oracle.vantage,
                                   scenario.propagation);
  const std::string reference_sim = bytes_of(io::encode(oracle));
  EXPECT_EQ(bytes_of(io::encode(reference.sim())), reference_sim);
  const std::string reference_obs =
      bytes_of(io::encode(reference.observations()));

  for (const std::size_t chunk : {std::size_t{0}, std::size_t{1},
                                  std::size_t{5}, std::size_t{100000}}) {
    RunOptions options;
    options.threads = 3;
    options.sim_chunk_prefixes = chunk;
    Experiment experiment(scenario, options);
    experiment.run(Stage::kObserve);
    EXPECT_EQ(bytes_of(io::encode(experiment.sim())), reference_sim)
        << "SimArtifact differs at chunk size " << chunk;
    EXPECT_EQ(bytes_of(io::encode(experiment.observations())), reference_obs)
        << "Observations differ at chunk size " << chunk;
    EXPECT_EQ(experiment.sim_chunks().computed, experiment.sim_chunks().total);

    // Invalidate-and-rerun starts a fresh chunk ledger (computed + loaded
    // always equals total) and reproduces the same bytes.
    experiment.invalidate(Stage::kSimulate);
    experiment.run(Stage::kSimulate);
    EXPECT_EQ(experiment.sim_chunks().computed, experiment.sim_chunks().total);
    EXPECT_EQ(experiment.sim_chunks().loaded, 0u);
    EXPECT_EQ(bytes_of(io::encode(experiment.sim())), reference_sim);
  }
}

TEST(Sweep, StreamsCompletionsWhileMergingInRequestOrder) {
  const std::vector<SweepVariant> variants = sweep_variants();

  // Sequential execution completes variants in request order — the
  // deterministic anchor for completion_index.
  const SweepReport sequential = sweep(variants, 1);
  for (std::size_t i = 0; i < sequential.runs.size(); ++i) {
    EXPECT_EQ(sequential.runs[i].completion_index, i);
  }

  // Parallel execution streams in some order (a permutation), but the
  // report still merges in request order with identical products.
  const SweepReport sharded = sweep(variants, 4);
  std::vector<std::size_t> seen(sharded.runs.size(), 0);
  for (std::size_t i = 0; i < sharded.runs.size(); ++i) {
    EXPECT_EQ(sharded.runs[i].label, variants[i].label);
    ASSERT_LT(sharded.runs[i].completion_index, seen.size());
    ++seen[sharded.runs[i].completion_index];
  }
  for (const std::size_t count : seen) EXPECT_EQ(count, 1u);
}

TEST(Sweep, OutputIndependentOfThreadCount) {
  const std::vector<SweepVariant> variants = sweep_variants();
  const SweepReport sequential = sweep(variants, 1);
  const SweepReport sharded = sweep(variants, 4);

  ASSERT_EQ(sequential.runs.size(), sharded.runs.size());
  for (std::size_t i = 0; i < sequential.runs.size(); ++i) {
    EXPECT_EQ(run_digest(sequential.runs[i]), run_digest(sharded.runs[i]))
        << "sweep run " << i << " differs between thread counts";
  }
  EXPECT_EQ(sharded.counters.synthesize, sequential.counters.synthesize);
  EXPECT_EQ(sharded.counters.infer, sequential.counters.infer);
}

TEST(ScenarioCacheKey, SeparatesWorldsAndIgnoresThreadKnobs) {
  const Scenario a = Scenario::small(5);
  Scenario b = Scenario::small(5);
  EXPECT_EQ(scenario_cache_key(a), scenario_cache_key(b));

  b.propagation.threads = 7;  // thread knobs never change artifacts
  EXPECT_EQ(scenario_cache_key(a), scenario_cache_key(b));

  b = Scenario::small(5);
  b.topo_params.stub_count += 1;
  EXPECT_NE(scenario_cache_key(a), scenario_cache_key(b));

  b = Scenario::small(5);
  b.irr_params.coverage += 1e-9;  // exact bit-pattern, no double rounding
  EXPECT_NE(scenario_cache_key(a), scenario_cache_key(b));

  EXPECT_NE(scenario_cache_key(Scenario::small(5)),
            scenario_cache_key(Scenario::small(6)));
}

}  // namespace
}  // namespace bgpolicy::core
