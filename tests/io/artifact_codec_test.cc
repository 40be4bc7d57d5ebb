// The artifact codec contract (ISSUE 4): every staged artifact round-trips
// through its binary encoding with full behavioral fidelity (downstream
// products are byte-identical whether computed from original or decoded
// artifacts), encoding is a pure function of content (re-encoding a decoded
// artifact reproduces the bytes), and every flavor of damaged input —
// truncation, bit corruption, version or kind mismatch — raises
// std::invalid_argument instead of yielding a wrong artifact.
#include "io/artifact_codec.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "asrel/relationships.h"
#include "asrel/tier_classify.h"
#include "core/scenario.h"

namespace bgpolicy::io {
namespace {

using util::AsNumber;

/// One fully staged small-scenario experiment, shared across tests.
core::Experiment& shared_experiment() {
  static core::Experiment* experiment = [] {
    core::RunOptions options;
    options.threads = 1;
    auto* e = new core::Experiment(core::Scenario::small(21), options);
    e->run();
    return e;
  }();
  return *experiment;
}

TEST(ArtifactCodec, GroundTruthRoundtripIsContentPure) {
  const core::GroundTruth& truth = shared_experiment().truth();
  const std::vector<std::uint8_t> bytes = encode(truth);
  const core::GroundTruth decoded = decode_ground_truth(bytes);
  // Re-encoding the decoded artifact must reproduce the bytes exactly —
  // the property the content-addressed cache keys chain on.
  EXPECT_EQ(encode(decoded), bytes);

  // Structural spot checks, including the orderings downstream stages are
  // sensitive to (AS insertion order, per-edge creation order).
  EXPECT_EQ(decoded.topo.graph.as_count(), truth.topo.graph.as_count());
  ASSERT_EQ(decoded.topo.graph.edges().size(), truth.topo.graph.edges().size());
  for (std::size_t i = 0; i < truth.topo.graph.edges().size(); ++i) {
    EXPECT_EQ(decoded.topo.graph.edges()[i], truth.topo.graph.edges()[i]);
  }
  for (const AsNumber as : truth.topo.graph.ases()) {
    const auto expected = truth.topo.graph.neighbors(as);
    const auto actual = decoded.topo.graph.neighbors(as);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]);
    }
  }
  EXPECT_EQ(decoded.plan.prefixes.size(), truth.plan.prefixes.size());
  EXPECT_EQ(decoded.plan.by_origin.size(), truth.plan.by_origin.size());
  EXPECT_EQ(decoded.gen.policies.by_as.size(), truth.gen.policies.by_as.size());
  EXPECT_EQ(decoded.originations.size(), truth.originations.size());
}

TEST(ArtifactCodec, SimulatingFromDecodedTruthIsByteIdentical) {
  core::Experiment& experiment = shared_experiment();
  const core::GroundTruth decoded =
      decode_ground_truth(encode(experiment.truth()));
  // The decisive fidelity check: simulating the decoded ground truth must
  // reproduce the original simulation artifact to the byte (graph neighbor
  // order drives propagation event order).
  const core::Scenario& scenario = experiment.scenario();
  core::SimArtifact resimulated;
  resimulated.vantage = core::derive_vantage(scenario, decoded.topo);
  resimulated.sim = sim::run_simulation(
      decoded.topo.graph, decoded.gen.policies, decoded.originations,
      resimulated.vantage, scenario.propagation);
  EXPECT_EQ(encode(resimulated), encode(experiment.sim()));
}

TEST(ArtifactCodec, SimArtifactRoundtrip) {
  const core::SimArtifact& sim = shared_experiment().sim();
  const std::vector<std::uint8_t> bytes = encode(sim);
  const core::SimArtifact decoded = decode_sim_artifact(bytes);
  EXPECT_EQ(encode(decoded), bytes);
  EXPECT_EQ(decoded.sim.collector.route_count(),
            sim.sim.collector.route_count());
  EXPECT_EQ(decoded.sim.looking_glass.size(), sim.sim.looking_glass.size());
  EXPECT_EQ(decoded.sim.best_only.size(), sim.sim.best_only.size());
  EXPECT_EQ(decoded.sim.process_events, sim.sim.process_events);
  EXPECT_EQ(decoded.vantage.collector_peers, sim.vantage.collector_peers);
}

TEST(ArtifactCodec, ObservationsRoundtripAndInferenceFidelity) {
  core::Experiment& experiment = shared_experiment();
  const core::Observations& observations = experiment.observations();
  const std::vector<std::uint8_t> bytes = encode(observations);
  const core::Observations decoded = decode_observations(bytes);
  EXPECT_EQ(encode(decoded), bytes);

  EXPECT_EQ(decoded.irr_text, observations.irr_text);
  ASSERT_EQ(decoded.irr_objects.size(), observations.irr_objects.size());
  for (std::size_t i = 0; i < observations.irr_objects.size(); ++i) {
    EXPECT_EQ(decoded.irr_objects[i], observations.irr_objects[i]);
  }
  EXPECT_EQ(decoded.observed_paths.path_count(),
            observations.observed_paths.path_count());
  EXPECT_EQ(decoded.paths.path_count(), observations.paths.path_count());
  EXPECT_EQ(decoded.paths.adjacency_count(),
            observations.paths.adjacency_count());

  // Inference over decoded observations matches inference over originals.
  asrel::GaoParams params;
  params.threads = 1;
  const core::InferenceProducts from_decoded =
      core::infer_relationships(decoded, params);
  const core::InferenceProducts from_original =
      core::infer_relationships(observations, params);
  EXPECT_EQ(asrel::canonical_serialize(from_decoded.inferred),
            asrel::canonical_serialize(from_original.inferred));
  EXPECT_EQ(asrel::canonical_serialize(from_decoded.tiers),
            asrel::canonical_serialize(from_original.tiers));
}

TEST(ArtifactCodec, InferenceProductsRoundtrip) {
  const core::InferenceProducts& inference = shared_experiment().inference();
  const std::vector<std::uint8_t> bytes = encode(inference);
  const core::InferenceProducts decoded = decode_inference(bytes);
  EXPECT_EQ(encode(decoded), bytes);
  EXPECT_EQ(asrel::canonical_serialize(decoded.inferred),
            asrel::canonical_serialize(inference.inferred));
  EXPECT_EQ(asrel::canonical_serialize(decoded.tiers),
            asrel::canonical_serialize(inference.tiers));
  // The annotated graph is rebuilt from the classification.
  EXPECT_EQ(decoded.inferred_graph.as_count(),
            inference.inferred_graph.as_count());
  EXPECT_EQ(decoded.inferred_graph.edge_count(),
            inference.inferred_graph.edge_count());
}

TEST(ArtifactCodec, AnalysisSuiteRoundtrip) {
  const core::AnalysisSuite& suite = shared_experiment().analyses();
  const std::vector<std::uint8_t> bytes = encode(suite);
  const core::AnalysisSuite decoded = decode_analysis_suite(bytes);
  EXPECT_EQ(encode(decoded), bytes);
  EXPECT_EQ(core::canonical_serialize(decoded),
            core::canonical_serialize(suite));
}

TEST(ArtifactCodec, TruncatedInputThrowsAtEveryLength) {
  const std::vector<std::uint8_t> bytes = encode(shared_experiment().inference());
  // Every proper prefix must be rejected (header first, then payload-length
  // mismatch); step keeps the loop fast on larger artifacts.
  for (std::size_t size = 0; size < bytes.size();
       size += std::max<std::size_t>(1, bytes.size() / 257)) {
    EXPECT_THROW(
        (void)decode_inference(std::span<const std::uint8_t>(bytes.data(), size)),
        std::invalid_argument)
        << "accepted a " << size << "-byte prefix of " << bytes.size();
  }
}

TEST(ArtifactCodec, BitCorruptionThrows) {
  const std::vector<std::uint8_t> original = encode(shared_experiment().sim());
  // Flip one byte at several positions across header and payload: the
  // checksum (or a structural check) must catch each.
  for (const double at : {0.0, 0.1, 0.5, 0.9}) {
    std::vector<std::uint8_t> corrupted = original;
    const std::size_t index =
        std::min(corrupted.size() - 1,
                 static_cast<std::size_t>(at * static_cast<double>(
                                                   corrupted.size())));
    corrupted[index] ^= 0x40;
    EXPECT_THROW((void)decode_sim_artifact(corrupted), std::invalid_argument)
        << "accepted corruption at byte " << index;
  }
}

TEST(ArtifactCodec, VersionAndKindMismatchThrow) {
  std::vector<std::uint8_t> bytes = encode(shared_experiment().inference());
  // Bytes 4..5 hold the little-endian codec version.
  std::vector<std::uint8_t> future = bytes;
  future[4] = static_cast<std::uint8_t>(kArtifactCodecVersion + 1);
  EXPECT_THROW((void)decode_inference(future), std::invalid_argument);

  // A valid artifact of a different kind must be rejected up front.
  EXPECT_THROW((void)decode_sim_artifact(bytes), std::invalid_argument);
  EXPECT_THROW((void)decode_ground_truth(bytes), std::invalid_argument);

  // Foreign bytes entirely.
  const std::vector<std::uint8_t> garbage = {'n', 'o', 'p', 'e', 0, 1, 2, 3};
  EXPECT_THROW((void)decode_observations(garbage), std::invalid_argument);
  EXPECT_THROW((void)decode_analysis_suite({}), std::invalid_argument);
}

}  // namespace
}  // namespace bgpolicy::io
