// Bit-parallel vs scalar-reference fault-simulation equivalence, and the
// pass-reduction contract the fault packing exists for.
#include "fault/fault_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fault/campaign.hpp"
#include "gen/random_circuit.hpp"
#include "gen/suite.hpp"
#include "sim/logic_sim.hpp"
#include "sim/prng.hpp"

namespace enb::fault {
namespace {

using netlist::Circuit;

std::vector<std::vector<bool>> random_patterns(std::size_t count,
                                               std::size_t inputs,
                                               std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  std::vector<std::vector<bool>> rows(count);
  for (auto& row : rows) {
    row.resize(inputs);
    for (std::size_t i = 0; i < inputs; ++i) row[i] = (rng.next() >> 63) != 0;
  }
  return rows;
}

// Detection bits [pattern][class] from the pattern-parallel kernel: the
// patterns are packed 64 to a word (the last word partial), each compared
// against its own fault-free response.
std::vector<std::vector<bool>> kernel_bits(
    const Circuit& circuit, const FaultUniverse& universe,
    const std::vector<std::vector<bool>>& patterns) {
  PatternFaultSim sim(circuit, universe);
  std::vector<std::vector<bool>> bits(
      patterns.size(), std::vector<bool>(universe.num_classes(), false));
  for (std::size_t begin = 0; begin < patterns.size();
       begin += sim::kWordBits) {
    const int count = static_cast<int>(
        std::min<std::size_t>(sim::kWordBits, patterns.size() - begin));
    std::vector<sim::Word> inputs(circuit.num_inputs(), 0);
    std::vector<sim::Word> expected(circuit.num_outputs(), 0);
    for (int p = 0; p < count; ++p) {
      const std::vector<bool>& pattern = patterns[begin + p];
      const std::vector<bool> good = sim::eval_single(circuit, pattern);
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (pattern[i]) inputs[i] |= sim::Word{1} << p;
      }
      for (std::size_t o = 0; o < expected.size(); ++o) {
        if (good[o]) expected[o] |= sim::Word{1} << p;
      }
    }
    for (const PatternFaultSim::Detection& hit :
         sim.detect_word(inputs, count, expected)) {
      EXPECT_EQ(hit.patterns & ~sim::low_mask(count), 0u)
          << circuit.name() << " class " << hit.cls << " padding bits";
      for (int p = 0; p < count; ++p) {
        bits[begin + p][hit.cls] = ((hit.patterns >> p) & 1) != 0;
      }
    }
  }
  return bits;
}

// Every (pattern, class) detection bit of the pattern-parallel simulator
// must equal the scalar one-fault-at-a-time reference. The two paths share
// only the gate rule, so this is a real cross-implementation check.
void expect_bit_identity(const Circuit& circuit,
                         const std::vector<std::vector<bool>>& patterns,
                         bool collapse) {
  const FaultUniverse universe = FaultUniverse::build(circuit, collapse);
  ScalarFaultSim scalar(circuit, universe);
  const std::vector<std::vector<bool>> parallel =
      kernel_bits(circuit, universe, patterns);
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const std::vector<bool> expected = sim::eval_single(circuit, patterns[p]);
    for (std::size_t c = 0; c < universe.num_classes(); ++c) {
      EXPECT_EQ(scalar.detect(c, patterns[p], expected), parallel[p][c])
          << circuit.name() << " pattern " << p << " class " << c;
    }
  }
}

TEST(FaultSim, BitIdenticalToScalarOnIscasSuite) {
  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    const Circuit circuit = spec.build();
    expect_bit_identity(circuit,
                        random_patterns(4, circuit.num_inputs(), 0xC0FFEE),
                        /*collapse=*/true);
  }
}

TEST(FaultSim, BitIdenticalToScalarOnC17Exhaustively) {
  const Circuit c17 = gen::find_benchmark("c17").build();
  std::vector<std::vector<bool>> patterns;
  for (std::uint64_t a = 0; a < (1u << 5); ++a) {
    std::vector<bool> row(5);
    for (std::size_t i = 0; i < 5; ++i) row[i] = ((a >> i) & 1) != 0;
    patterns.push_back(std::move(row));
  }
  expect_bit_identity(c17, patterns, /*collapse=*/true);
  expect_bit_identity(c17, patterns, /*collapse=*/false);
}

TEST(FaultSim, BitIdenticalToScalarOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    gen::RandomCircuitOptions options;
    options.num_inputs = 10;
    options.num_gates = 80;
    options.num_outputs = 6;
    options.seed = seed;
    const Circuit circuit = gen::random_circuit(options);
    expect_bit_identity(circuit, random_patterns(6, 10, seed * 977),
                        /*collapse=*/true);
  }
}

// Gates wider than any small fixed buffer: the scalar reference evaluates
// them with the same gate rule as the kernel, at any fanin count.
TEST(FaultSim, ScalarReferenceHandlesWideGates) {
  for (const netlist::GateType type :
       {netlist::GateType::kAnd, netlist::GateType::kNor,
        netlist::GateType::kXor}) {
    for (const std::size_t width : {std::size_t{17}, std::size_t{40}}) {
      Circuit circuit("wide");
      std::vector<netlist::NodeId> inputs;
      for (std::size_t i = 0; i < width; ++i) {
        inputs.push_back(circuit.add_input());
      }
      circuit.add_output(circuit.add_gate(type, inputs), "y");
      std::vector<std::vector<bool>> patterns =
          random_patterns(8, width, 0x5CA1A + width);
      patterns.emplace_back(width, false);
      patterns.emplace_back(width, true);
      std::vector<bool> one_low(width, true);
      one_low[width / 2] = false;
      patterns.push_back(std::move(one_low));
      expect_bit_identity(circuit, patterns, /*collapse=*/true);
      expect_bit_identity(circuit, patterns, /*collapse=*/false);
    }
  }
}

TEST(FaultSim, DetectsInjectedFaultOnObservablePath) {
  // y = a AND b: output sa1 is detected by (0,0), masked on (1,1). Pattern
  // 0 of the word is (0,0), pattern 1 is (1,1).
  Circuit c("and2");
  const netlist::NodeId a = c.add_input("a");
  const netlist::NodeId b = c.add_input("b");
  const netlist::NodeId g = c.add_gate(netlist::GateType::kAnd, a, b);
  c.add_output(g);
  const FaultUniverse universe = FaultUniverse::build(c, /*collapse=*/false);
  PatternFaultSim sim(c, universe);
  const std::size_t g_sa1 = universe.class_of(2 * g + 1);

  const std::vector<sim::Word> inputs{0b10, 0b10};
  const std::vector<sim::Word> expected{0b10};
  sim::Word seen = 0;
  for (const PatternFaultSim::Detection& hit :
       sim.detect_word(inputs, 2, expected)) {
    if (hit.cls == g_sa1) seen = hit.patterns;
  }
  EXPECT_EQ(seen, 0b01u);
  // The circuit's own response as the reference gives the same answer.
  seen = 0;
  for (const PatternFaultSim::Detection& hit : sim.detect_word(inputs, 2, {})) {
    if (hit.cls == g_sa1) seen = hit.patterns;
  }
  EXPECT_EQ(seen, 0b01u);
}

// Passes are the normalized 64-class unit — one golden pass plus
// ceil(classes / 64) per pattern without dropping — and a partial word's
// padding patterns (here the all-zero assignment, which detects faults the
// real patterns miss) never report a detection.
TEST(FaultSim, PassCountingAndBlockMask) {
  const Circuit circuit = gen::find_benchmark("rca8").build();
  const FaultUniverse universe = FaultUniverse::build(circuit);
  const std::uint64_t blocks =
      (universe.num_classes() + sim::kWordBits - 1) / sim::kWordBits;
  CampaignOptions options;
  options.patterns = 100;
  const DetectionTable table = build_detection_table(
      circuit, circuit, universe, options, exec::Parallelism::serial());
  EXPECT_EQ(table.counts.passes, options.patterns * (1 + blocks));

  PatternFaultSim sim(circuit, universe);
  std::vector<sim::Word> inputs(circuit.num_inputs(), 0);
  inputs[0] = 1;  // pattern 0 sets input 0; patterns 1..63 are all-zero
  const std::size_t zero_detects =
      sim.detect_word(inputs, sim::kWordBits, {}).size();
  ASSERT_GT(zero_detects, 0u);
  for (const PatternFaultSim::Detection& hit : sim.detect_word(inputs, 1, {})) {
    EXPECT_EQ(hit.patterns, 1u) << "class " << hit.cls;
  }
}

// The acceptance pin: packing 64 faults per word must cut the sweeps a
// campaign performs by at least 32x against the one-fault-at-a-time flow
// (both flows pay one golden pass per pattern).
TEST(FaultSim, FaultPackingCutsPassesAtLeast32x) {
  const Circuit circuit = gen::find_benchmark("rca16").build();
  CampaignOptions options;
  options.patterns = 16;
  const FaultUniverse universe = FaultUniverse::build(circuit);
  ASSERT_GE(universe.num_classes(), 64u);

  const DetectionTable table = build_detection_table(
      circuit, circuit, universe, options, exec::Parallelism::serial());
  // Scalar flow: one golden pass plus one faulty pass per class, per
  // pattern.
  const std::uint64_t scalar_passes =
      options.patterns * (1 + universe.num_classes());
  EXPECT_GE(scalar_passes, 32 * table.counts.passes)
      << "bit-parallel passes " << table.counts.passes << ", scalar passes "
      << scalar_passes;
}

// Shards of 200 patterns span four words, the last one partial. Exhaustive
// patterns do not depend on the sharding, so every class's first detection
// must match the 64-pattern shards exactly, with dropping on or off, and
// passes must follow the 64-class formula: per pattern one golden pass plus
// ceil(active / 64), where under dropping a class leaves the active set
// after its first detection within its shard.
TEST(FaultSim, MultiWordShardsMatchOneWordShards) {
  gen::RandomCircuitOptions shape;
  shape.num_inputs = 10;
  shape.num_gates = 80;
  shape.num_outputs = 6;
  shape.seed = 41;
  const Circuit circuit = gen::random_circuit(shape);
  shape.seed = 42;
  const Circuit other = gen::random_circuit(shape);
  for (const Circuit* golden : {&circuit, &other}) {
    CampaignOptions one_word;
    one_word.exhaustive = true;
    CampaignOptions four_words = one_word;
    four_words.shard_patterns = 200;
    const FaultUniverse universe = FaultUniverse::build(circuit);
    const DetectionTable table =
        build_detection_table(circuit, *golden, universe, four_words,
                              exec::Parallelism::serial());
    const std::uint64_t classes = universe.num_classes();
    const std::uint64_t patterns = table.patterns.size();
    ASSERT_EQ(patterns, 1024u);
    for (const bool drop : {false, true}) {
      one_word.drop = drop;
      four_words.drop = drop;
      const FaultCampaignResult a = run_campaign(circuit, golden, one_word);
      const FaultCampaignResult b = run_campaign(circuit, golden, four_words);
      EXPECT_EQ(a.first_detect_pattern, b.first_detect_pattern);
      EXPECT_EQ(a.first_detect_output, b.first_detect_output);
      EXPECT_EQ(b.first_detect_pattern, table.counts.first_pattern);
      EXPECT_EQ(b.first_detect_output, table.counts.first_output);
      EXPECT_GT(b.detected, 0u);

      // The pass formula, from the table's detection bits.
      std::uint64_t want = 0;
      for (std::uint64_t begin = 0; begin < patterns; begin += 200) {
        const std::uint64_t end =
            std::min<std::uint64_t>(begin + 200, patterns);
        std::vector<bool> retired(classes, false);
        std::uint64_t active = classes;
        for (std::uint64_t p = begin; p < end; ++p) {
          want += 1 + (active + sim::kWordBits - 1) / sim::kWordBits;
          if (!drop) continue;
          for (std::uint64_t c = 0; c < classes; ++c) {
            if (!retired[c] &&
                ((table.detected[p][c / sim::kWordBits] >>
                  (c % sim::kWordBits)) & 1) != 0) {
              retired[c] = true;
              --active;
            }
          }
        }
      }
      EXPECT_EQ(b.sim_passes, want) << "drop " << drop;
      if (!drop) {
        EXPECT_EQ(want,
                  patterns * (1 + (classes + sim::kWordBits - 1) /
                                      sim::kWordBits));
        EXPECT_EQ(table.counts.passes, want);
      }
    }
  }
}

TEST(FaultSim, RejectsMalformedBundles) {
  const Circuit c17 = gen::find_benchmark("c17").build();
  const FaultUniverse universe = FaultUniverse::build(c17);
  EXPECT_THROW(PatternFaultSim(c17, universe, 2), std::invalid_argument);
  EXPECT_THROW(PatternFaultSim(c17, universe, 3), std::invalid_argument);
  EXPECT_THROW(ScalarFaultSim(c17, universe, -1), std::invalid_argument);
  PatternFaultSim sim(c17, universe, 1);
  const std::vector<sim::Word> five(5, 0);
  const std::vector<sim::Word> two(2, 0);
  EXPECT_THROW((void)sim.detect_word(std::vector<sim::Word>(1, 0), 1, two),
               std::invalid_argument);
  EXPECT_THROW((void)sim.detect_word(five, 1, std::vector<sim::Word>(1, 0)),
               std::invalid_argument);
  EXPECT_THROW((void)sim.detect_word(five, 0, two), std::invalid_argument);
  EXPECT_THROW((void)sim.detect_word(five, 65, two), std::invalid_argument);
  EXPECT_THROW(sim.set_active({static_cast<std::uint32_t>(
                   universe.num_classes())}),
               std::invalid_argument);
}

}  // namespace
}  // namespace enb::fault
