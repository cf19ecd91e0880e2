// Property sweeps over the synthesis passes: on seeded random circuits and
// at fanins 2 and 3, every pass must preserve the function and establish its
// structural postcondition.
#include <gtest/gtest.h>

#include "gen/random_circuit.hpp"
#include "netlist/stats.hpp"
#include "sim/exhaustive.hpp"
#include "synth/decompose.hpp"
#include "synth/mapper.hpp"
#include "synth/strash.hpp"
#include "synth/sweep.hpp"

namespace enb::synth {
namespace {

gen::RandomCircuitOptions random_options(std::uint64_t seed) {
  gen::RandomCircuitOptions options;
  options.seed = seed;
  options.num_inputs = 10;
  options.num_gates = 120;
  options.num_outputs = 6;
  options.max_fanin = 4;
  return options;
}

class RandomCircuitSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCircuitSeedTest, SweepPreservesFunctionAndNeverGrows) {
  const auto c = gen::random_circuit(random_options(GetParam()));
  const auto s = sweep(c);
  EXPECT_TRUE(sim::exhaustive_equivalent(c, s));
  EXPECT_LE(s.gate_count(), c.gate_count());
  // Sweep is idempotent.
  const auto s2 = sweep(s);
  EXPECT_EQ(s2.gate_count(), s.gate_count());
  EXPECT_EQ(s2.node_count(), s.node_count());
}

TEST_P(RandomCircuitSeedTest, StrashPreservesFunctionAndNeverGrows) {
  const auto c = gen::random_circuit(random_options(GetParam()));
  const auto s = strash(c);
  EXPECT_TRUE(sim::exhaustive_equivalent(c, s));
  EXPECT_LE(s.gate_count(), c.gate_count());
}

TEST_P(RandomCircuitSeedTest, ReduceFaninEstablishesBound) {
  const auto c = gen::random_circuit(random_options(GetParam()));
  for (int k : {2, 3}) {
    const auto reduced = reduce_fanin(c, k);
    EXPECT_TRUE(sim::exhaustive_equivalent(c, reduced)) << "k=" << k;
    EXPECT_LE(netlist::compute_stats(reduced).max_fanin, k) << "k=" << k;
  }
}

TEST_P(RandomCircuitSeedTest, MapperAllLibraries) {
  const auto c = gen::random_circuit(random_options(GetParam()));
  for (const int k : {3, 2}) {
    const MapResult result = map_to_library(c, k);
    EXPECT_TRUE(sim::exhaustive_equivalent(c, result.circuit)) << "k=" << k;
    EXPECT_LE(result.after.max_fanin, k) << "k=" << k;
    if (k < 3) {
      EXPECT_EQ(result.after.gate_histogram.count(netlist::GateType::kMaj),
                0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitSeedTest,
                         ::testing::Values(11ULL, 22ULL, 33ULL, 44ULL, 55ULL,
                                           66ULL, 77ULL, 88ULL));

TEST(SynthProperties, PipelineStable) {
  // Running the full pipeline twice changes nothing the second time.
  const auto c = gen::random_circuit(random_options(1234));
  const auto once = map_to_library(c, 3);
  const auto twice = map_to_library(once.circuit, 3);
  EXPECT_EQ(twice.after.num_gates, once.after.num_gates);
  EXPECT_EQ(twice.after.depth, once.after.depth);
}

}  // namespace
}  // namespace enb::synth
