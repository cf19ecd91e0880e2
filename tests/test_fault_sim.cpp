// Bit-parallel vs scalar-reference fault-simulation equivalence, and the
// pass-reduction contract the fault packing exists for.
#include "fault/fault_sim.hpp"

#include <gtest/gtest.h>

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

// Every (pattern, class) detection bit of the 64-fault-parallel simulator
// must equal the scalar one-fault-at-a-time reference. The two paths share
// only the gate rule, so this is a real cross-implementation check.
void expect_bit_identity(const Circuit& circuit,
                         const std::vector<std::vector<bool>>& patterns,
                         bool collapse) {
  const FaultUniverse universe = FaultUniverse::build(circuit, collapse);
  FaultParallelSim parallel(circuit, universe);
  ScalarFaultSim scalar(circuit, universe);
  for (const std::vector<bool>& pattern : patterns) {
    const std::vector<bool> expected = sim::eval_single(circuit, pattern);
    std::vector<sim::Word> detected(parallel.num_blocks());
    for (std::size_t b = 0; b < parallel.num_blocks(); ++b) {
      detected[b] = parallel.detect_block(b, pattern, expected);
    }
    for (std::size_t c = 0; c < universe.num_classes(); ++c) {
      const bool parallel_bit =
          ((detected[c / sim::kWordBits] >> (c % sim::kWordBits)) & 1) != 0;
      EXPECT_EQ(scalar.detect(c, pattern, expected), parallel_bit)
          << circuit.name() << " class " << c;
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
// them with the same gate rule as the lanes, at any fanin count.
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
  // y = a AND b: output sa1 is detected by (0,0), masked on (1,1).
  Circuit c("and2");
  const netlist::NodeId a = c.add_input("a");
  const netlist::NodeId b = c.add_input("b");
  const netlist::NodeId g = c.add_gate(netlist::GateType::kAnd, a, b);
  c.add_output(g);
  const FaultUniverse universe = FaultUniverse::build(c, /*collapse=*/false);
  FaultParallelSim sim(c, universe);
  const std::size_t g_sa1 = universe.class_of(2 * g + 1);

  const std::vector<bool> zeros{false, false};
  const sim::Word low = sim.detect_block(g_sa1 / sim::kWordBits, zeros,
                                         sim::eval_single(c, zeros));
  EXPECT_NE((low >> (g_sa1 % sim::kWordBits)) & 1, 0u);

  const std::vector<bool> ones{true, true};
  const sim::Word high = sim.detect_block(g_sa1 / sim::kWordBits, ones,
                                          sim::eval_single(c, ones));
  EXPECT_EQ((high >> (g_sa1 % sim::kWordBits)) & 1, 0u);
}

TEST(FaultSim, PassCountingAndBlockMask) {
  const Circuit circuit = gen::find_benchmark("rca8").build();
  const FaultUniverse universe = FaultUniverse::build(circuit);
  FaultParallelSim sim(circuit, universe);
  const std::size_t blocks =
      (universe.num_classes() + sim::kWordBits - 1) / sim::kWordBits;
  EXPECT_EQ(sim.num_blocks(), blocks);
  const auto patterns = random_patterns(1, circuit.num_inputs(), 7);
  const std::vector<bool> expected = sim::eval_single(circuit, patterns[0]);
  for (std::size_t b = 0; b < sim.num_blocks(); ++b) {
    const sim::Word detected = sim.detect_block(b, patterns[0], expected);
    EXPECT_EQ(detected & ~sim.block_mask(b), 0u);
  }
  EXPECT_EQ(sim.passes(), blocks);
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

TEST(FaultSim, RejectsMalformedBundles) {
  const Circuit c17 = gen::find_benchmark("c17").build();
  const FaultUniverse universe = FaultUniverse::build(c17);
  EXPECT_THROW(FaultParallelSim(c17, universe, 2), std::invalid_argument);
  EXPECT_THROW(FaultParallelSim(c17, universe, 3), std::invalid_argument);
  EXPECT_THROW(ScalarFaultSim(c17, universe, -1), std::invalid_argument);
  FaultParallelSim sim(c17, universe, 1);
  EXPECT_THROW((void)sim.detect_block(0, {true}, {false, false}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)sim.detect_block(0, {true, true, true, true, true}, {false}),
      std::invalid_argument);
}

}  // namespace
}  // namespace enb::fault
