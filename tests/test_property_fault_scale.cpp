// Property tests for the campaign scale axes: fault dropping must be
// invisible in results, the detection table must agree with the scalar
// reference, campaigns must grade every shard exactly across the kernel's
// 64-bit words and 512-pattern blocks, and sampled coverage must be an
// honest estimate of the universe it sampled from.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "campaign_pattern_reference.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_sim.hpp"
#include "ft/multiplex.hpp"
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
    CampaignOptions options;
    options.patterns = 12;
    options.shard_patterns = 4;
    options.seed = seed * 1337;

    DetectionTable table;
    (void)run_campaign(circuit, nullptr, options, {}, &table);
    const FaultUniverse& universe = *table.universe;
    ScalarFaultSim scalar(circuit, universe);
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
  const std::vector<std::vector<bool>> patterns =
      testing::reference_campaign_rows(
          circuit.num_inputs(), options, campaign_shard_plan(circuit, options));
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

// ---- block boundaries ------------------------------------------------------

// `circuit` with only its first `ports` output ports.
Circuit with_output_prefix(const Circuit& circuit, std::size_t ports) {
  Circuit out(circuit.name());
  for (netlist::NodeId id = 0; id < circuit.node_count(); ++id) {
    const netlist::GateType type = circuit.type(id);
    if (type == netlist::GateType::kInput) {
      out.add_input();
    } else if (netlist::is_constant(type)) {
      out.add_const(type == netlist::GateType::kConst1);
    } else {
      const auto fanins = circuit.fanins(id);
      out.add_gate(type,
                   std::vector<netlist::NodeId>(fanins.begin(), fanins.end()));
    }
  }
  for (std::size_t p = 0; p < ports; ++p) out.add_output(circuit.outputs()[p]);
  return out;
}

// What a campaign must report, graded one shard, one pattern and one class
// at a time by ScalarFaultSim: first detections and the detection bits, the
// first output (the lowest logical output o whose cut-down circuit with
// outputs 0..o already detects the class), and passes from the contract
// formula, per shard, with and without dropping.
struct ShardReference {
  std::vector<std::vector<bool>> patterns;  // [pattern][logical input]
  std::vector<std::vector<bool>> bits;      // [pattern][class]
  std::vector<std::uint64_t> first_pattern;
  std::vector<std::uint32_t> first_output;
  std::uint64_t passes = 0;
  std::uint64_t drop_passes = 0;
};

ShardReference shard_reference(const Circuit& circuit, const Circuit& golden,
                               const FaultUniverse& universe,
                               const CampaignOptions& options) {
  const auto width = static_cast<std::size_t>(options.bundle_width);
  const std::size_t logical_outputs = golden.num_outputs();
  ScalarFaultSim scalar(circuit, universe, options.bundle_width);
  std::vector<Circuit> prefixes;
  for (std::size_t o = 1; o <= logical_outputs; ++o) {
    prefixes.push_back(with_output_prefix(circuit, o * width));
  }
  std::vector<ScalarFaultSim> prefix_sims;
  for (const Circuit& prefix : prefixes) {
    prefix_sims.emplace_back(prefix, universe, options.bundle_width);
  }
  const std::vector<std::uint32_t> sampled =
      sampled_classes(universe, options);
  const auto blocks = [](std::uint64_t active) {
    return (active + sim::kWordBits - 1) / sim::kWordBits;
  };
  ShardReference ref;
  ref.first_pattern.assign(universe.num_classes(), kNotDetected);
  ref.first_output.assign(universe.num_classes(), kNoOutput);
  const exec::ShardPlan plan = campaign_shard_plan(golden, options);
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    const exec::Shard shard = plan.shard(s);
    std::vector<bool> seen(universe.num_classes(), false);
    std::uint64_t still_active = sampled.size();
    for (std::vector<bool>& pattern :
         testing::reference_shard_rows(golden.num_inputs(), options, shard)) {
      const std::uint64_t index = ref.patterns.size();
      const std::vector<bool> expected = sim::eval_single(golden, pattern);
      std::vector<bool> row(universe.num_classes(), false);
      std::uint64_t firsts = 0;
      for (const std::uint32_t c : sampled) {
        row[c] = scalar.detect(c, pattern, expected);
        if (!row[c] || seen[c]) continue;
        seen[c] = true;
        ++firsts;
        if (ref.first_pattern[c] != kNotDetected) continue;
        ref.first_pattern[c] = index;
        for (std::size_t o = 0; o < logical_outputs; ++o) {
          const std::vector<bool> prefix(expected.begin(),
                                         expected.begin() + o + 1);
          if (prefix_sims[o].detect(c, pattern, prefix)) {
            ref.first_output[c] = static_cast<std::uint32_t>(o);
            break;
          }
        }
      }
      ref.passes += 1 + blocks(sampled.size());
      ref.drop_passes += 1 + blocks(still_active);
      still_active -= firsts;
      ref.patterns.push_back(std::move(pattern));
      ref.bits.push_back(std::move(row));
    }
  }
  return ref;
}

// Pattern budgets on both sides of every word and block boundary, against
// shard sizes from below one word up to one whole block (64, 8 and 1
// shards to a task; 100 and 200 leave a task's block short). Each must
// grade exactly like the per-shard scalar reference, through run_campaign
// with and without dropping and through its `.ans` rows: against a
// golden that differs from the circuit, pruned and sampled, and on a 3-wire
// multiplexed bundle.
TEST(FaultScaleProperty, BlockBoundariesMatchPerShardScalarReference) {
  gen::RandomCircuitOptions shape;
  shape.num_inputs = 8;
  shape.num_gates = 40;
  shape.num_outputs = 4;
  shape.seed = 7;
  const Circuit dag = gen::random_circuit(shape);
  shape.seed = 8;
  const Circuit other = gen::random_circuit(shape);
  const Circuit c17 = gen::find_benchmark("c17").build();
  ft::MultiplexOptions mux;
  mux.bundle_width = 3;
  const Circuit bundled = ft::multiplex_transform(c17, mux).circuit;

  struct Variant {
    const char* name;
    const Circuit* circuit;
    const Circuit* golden;
    CampaignOptions options;
  };
  std::vector<Variant> variants(3);
  variants[0] = {"differing golden", &dag, &other, {}};
  variants[1] = {"pruned and sampled", &dag, &dag, {}};
  variants[1].options.prune_untestable = true;
  variants[1].options.sample = 20;
  variants[2] = {"bundle of 3", &bundled, &c17, {}};
  variants[2].options.bundle_width = 3;

  for (Variant& variant : variants) {
    const Circuit& circuit = *variant.circuit;
    const Circuit& golden = *variant.golden;
    const FaultUniverse universe = FaultUniverse::build(
        circuit, true, variant.options.prune_untestable);
    ASSERT_GT(universe.num_classes(), 20u) << variant.name;
    for (const std::uint64_t patterns :
         {1u, 63u, 64u, 65u, 511u, 512u, 513u, 1100u}) {
      for (const std::uint64_t shard : {8u, 64u, 100u, 200u, 512u}) {
        CampaignOptions options = variant.options;
        options.patterns = patterns;
        options.shard_patterns = shard;
        const ShardReference ref =
            shard_reference(circuit, golden, universe, options);
        const std::string where = std::string(variant.name) + ", " +
                                  std::to_string(patterns) + " patterns, " +
                                  std::to_string(shard) + " per shard";
        for (const bool drop : {false, true}) {
          options.drop = drop;
          const FaultCampaignResult result = run_campaign(
              circuit, &golden, options, exec::Parallelism::global_pool());
          EXPECT_EQ(result.first_detect_pattern, ref.first_pattern) << where;
          EXPECT_EQ(result.first_detect_output, ref.first_output) << where;
          EXPECT_EQ(result.sim_passes, drop ? ref.drop_passes : ref.passes)
              << where << ", drop " << drop;
          EXPECT_EQ(result.patterns, patterns) << where;
        }
        options.drop = false;
        DetectionTable table;
        const FaultCampaignResult tabled = run_campaign(
            circuit, &golden, options, exec::Parallelism::global_pool(),
            &table);
        EXPECT_EQ(table.patterns, ref.patterns) << where;
        EXPECT_EQ(tabled.first_detect_pattern, ref.first_pattern) << where;
        EXPECT_EQ(tabled.first_detect_output, ref.first_output) << where;
        EXPECT_EQ(tabled.sim_passes, ref.passes) << where;
        ASSERT_EQ(table.detected.size(), ref.bits.size()) << where;
        for (std::size_t p = 0; p < ref.bits.size(); ++p) {
          for (std::size_t c = 0; c < universe.num_classes(); ++c) {
            const bool bit = ((table.detected[p][c / sim::kWordBits] >>
                               (c % sim::kWordBits)) &
                              1) != 0;
            ASSERT_EQ(bit, ref.bits[p][c])
                << where << ", pattern " << p << ", class " << c;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace enb::fault
