// Property tests for the campaign scale axes: fault dropping must be
// invisible in results, the detection table must agree with the scalar
// reference, and sampled coverage must be an honest estimate of the
// universe it sampled from.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/fault_sim.hpp"
#include "gen/random_circuit.hpp"
#include "gen/suite.hpp"
#include "sim/logic_sim.hpp"

namespace enb::fault {
namespace {

using netlist::Circuit;

// Everything except sim_passes must be bit-identical with dropping on —
// the pass count is the only thing dropping is allowed to change, and only
// downward.
TEST(FaultScaleProperty, DropMatchesNoDropAcrossSuite) {
  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    const Circuit circuit = spec.build();
    CampaignOptions options;
    options.patterns = 48;
    options.shard_patterns = 16;
    const FaultCampaignResult no_drop =
        run_campaign(circuit, nullptr, options);
    options.drop = true;
    FaultCampaignResult dropped = run_campaign(circuit, nullptr, options);
    EXPECT_LE(dropped.sim_passes, no_drop.sim_passes) << spec.name;
    dropped.sim_passes = no_drop.sim_passes;
    EXPECT_EQ(dropped, no_drop) << spec.name;
  }
}

// Dropping pays off where it matters: on a kilo-net circuit the faulty
// sweeps shrink by well over the 5x acceptance floor.
TEST(FaultScaleProperty, DropCutsPassesAtLeast5xOnScaleCircuit) {
  const Circuit circuit = gen::find_benchmark("rca256").build();
  CampaignOptions options;
  options.patterns = 128;  // same shape as the pinned benchmark, CI-sized
  options.shard_patterns = 64;
  const FaultCampaignResult no_drop = run_campaign(circuit, nullptr, options);
  options.drop = true;
  const FaultCampaignResult dropped = run_campaign(circuit, nullptr, options);
  EXPECT_GE(no_drop.sim_passes, 5 * dropped.sim_passes);
}

// The detection table must equal the scalar reference bit for bit.
TEST(FaultScaleProperty, DetectionTableBitIdenticalToScalar) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    gen::RandomCircuitOptions circuit_options;
    circuit_options.num_inputs = 10;
    circuit_options.num_gates = 90;
    circuit_options.num_outputs = 6;
    circuit_options.seed = seed;
    const Circuit circuit = gen::random_circuit(circuit_options);
    const FaultUniverse universe = FaultUniverse::build(circuit);
    CampaignOptions options;
    options.patterns = 12;
    options.shard_patterns = 4;
    options.seed = seed * 1337;

    ScalarFaultSim scalar(circuit, universe);
    const DetectionTable table =
        build_detection_table(circuit, circuit, universe, options);
    for (std::size_t p = 0; p < table.patterns.size(); ++p) {
      const std::vector<bool> expected =
          sim::eval_single(circuit, table.patterns[p]);
      for (std::size_t c = 0; c < universe.num_classes(); ++c) {
        const bool table_bit = ((table.detected[p][c / sim::kWordBits] >>
                                 (c % sim::kWordBits)) &
                                1) != 0;
        EXPECT_EQ(scalar.detect(c, table.patterns[p], expected), table_bit)
            << "seed " << seed << " pattern " << p << " class " << c;
      }
    }
  }
}

// The sample is graded exactly, so the universe's true (exhaustively known,
// full-campaign) coverage must fall inside the sample's Wilson interval for
// a well-behaved seed, and the interval must degenerate to [coverage,
// coverage] when nothing is sampled away.
TEST(FaultScaleProperty, SampledCoverageIntervalContainsTrueCoverage) {
  const Circuit circuit = gen::find_benchmark("rca16").build();
  CampaignOptions options;
  options.patterns = 6;  // deliberately starved: true coverage well below 1
  options.shard_patterns = 2;
  const FaultCampaignResult full = run_campaign(circuit, nullptr, options);
  ASSERT_EQ(full.sampled, full.classes);
  EXPECT_LT(full.coverage, 1.0);
  EXPECT_EQ(full.coverage_ci_low, full.coverage);
  EXPECT_EQ(full.coverage_ci_high, full.coverage);

  options.sample = 64;
  const FaultCampaignResult sampled = run_campaign(circuit, nullptr, options);
  EXPECT_EQ(sampled.sampled, 64u);
  EXPECT_LT(sampled.coverage_ci_low, sampled.coverage_ci_high);
  EXPECT_GE(full.coverage, sampled.coverage_ci_low);
  EXPECT_LE(full.coverage, sampled.coverage_ci_high);
}

// Sample selection is a deterministic, seed-keyed choice of distinct
// classes; unsampled classes stay out of every per-class result field.
TEST(FaultScaleProperty, SampleSelectionIsDeterministicAndSeedKeyed) {
  const Circuit circuit = gen::find_benchmark("rca8").build();
  const FaultUniverse universe = FaultUniverse::build(circuit);
  CampaignOptions options;
  options.sample = 20;
  const std::vector<std::uint32_t> first = sampled_classes(universe, options);
  EXPECT_EQ(first, sampled_classes(universe, options));
  EXPECT_EQ(first.size(), 20u);
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
  EXPECT_EQ(std::set<std::uint32_t>(first.begin(), first.end()).size(), 20u);
  options.seed = 0xBEEF;
  EXPECT_NE(first, sampled_classes(universe, options));

  options.seed = 0xFA17;
  const FaultCampaignResult result = run_campaign(circuit, nullptr, options);
  const std::set<std::uint32_t> chosen(first.begin(), first.end());
  for (std::size_t c = 0; c < result.classes; ++c) {
    if (chosen.count(static_cast<std::uint32_t>(c)) != 0) continue;
    EXPECT_EQ(result.detection_counts[c], 0u) << c;
    EXPECT_EQ(result.first_detect_pattern[c], kNotDetected) << c;
    EXPECT_EQ(result.first_detect_output[c], kNoOutput) << c;
  }
}

// The detectability map is internally consistent: detected classes carry a
// valid (pattern, output) pair, undetected classes carry both sentinels,
// and the scalar reference confirms the recorded pattern really is the
// first detector.
TEST(FaultScaleProperty, DetectabilityMapMatchesScalarFirstDetections) {
  const Circuit circuit = gen::find_benchmark("cla16").build();
  const FaultUniverse universe = FaultUniverse::build(circuit);
  CampaignOptions options;
  options.patterns = 16;
  options.shard_patterns = 8;
  const FaultCampaignResult result = run_campaign(circuit, nullptr, options);

  // Re-derive the patterns the campaign drew.
  std::vector<std::vector<bool>> patterns;
  const exec::ShardPlan plan = campaign_shard_plan(circuit, options);
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    for (auto& row :
         shard_pattern_bits(circuit.num_inputs(), options, plan.shard(s))) {
      patterns.push_back(std::move(row));
    }
  }
  ScalarFaultSim scalar(circuit, universe);
  for (std::size_t c = 0; c < result.classes; ++c) {
    std::uint64_t scalar_first = kNotDetected;
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      if (scalar.detect(c, patterns[p], sim::eval_single(circuit, patterns[p]))) {
        scalar_first = p;
        break;
      }
    }
    EXPECT_EQ(result.first_detect_pattern[c], scalar_first) << c;
    if (scalar_first == kNotDetected) {
      EXPECT_EQ(result.first_detect_output[c], kNoOutput) << c;
    } else {
      EXPECT_LT(result.first_detect_output[c], circuit.num_outputs()) << c;
    }
  }
}

}  // namespace
}  // namespace enb::fault
