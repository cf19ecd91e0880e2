#include "gen/random_circuit.hpp"

#include <gtest/gtest.h>

#include "netlist/stats.hpp"

namespace enb::gen {
namespace {

TEST(RandomCircuit, RespectsRequestedShape) {
  RandomCircuitOptions options;
  options.num_inputs = 10;
  options.num_gates = 100;
  options.num_outputs = 5;
  options.max_fanin = 3;
  const auto c = random_circuit(options);
  EXPECT_EQ(c.num_inputs(), 10u);
  EXPECT_EQ(c.gate_count(), 100u);
  EXPECT_EQ(c.num_outputs(), 5u);
  EXPECT_LE(netlist::compute_stats(c).max_fanin, 3);
}

TEST(RandomCircuit, DeterministicPerSeed) {
  RandomCircuitOptions options;
  options.seed = 1234;
  const auto a = random_circuit(options);
  const auto b = random_circuit(options);
  EXPECT_EQ(a.node_count(), b.node_count());
  for (netlist::NodeId id = 0; id < a.node_count(); ++id) {
    EXPECT_EQ(a.type(id), b.type(id));
    EXPECT_EQ(a.fanins(id).size(), b.fanins(id).size());
  }
}

TEST(RandomCircuit, SeedsProduceDifferentStructures) {
  RandomCircuitOptions a_options;
  a_options.seed = 1;
  RandomCircuitOptions b_options;
  b_options.seed = 2;
  const auto a = random_circuit(a_options);
  const auto b = random_circuit(b_options);
  bool differs = a.node_count() != b.node_count();
  for (netlist::NodeId id = 0; !differs && id < a.node_count(); ++id) {
    const auto fa = a.fanins(id);
    const auto fb = b.fanins(id);
    differs = a.type(id) != b.type(id) ||
              !std::equal(fa.begin(), fa.end(), fb.begin(), fb.end());
  }
  EXPECT_TRUE(differs);
}

TEST(RandomCircuit, HighLocalityDeepens) {
  RandomCircuitOptions shallow;
  shallow.num_gates = 200;
  shallow.locality = 0.0;
  shallow.seed = 77;
  RandomCircuitOptions deep = shallow;
  deep.locality = 0.95;
  const int depth_shallow = netlist::compute_stats(random_circuit(shallow)).depth;
  const int depth_deep = netlist::compute_stats(random_circuit(deep)).depth;
  EXPECT_GT(depth_deep, depth_shallow);
}

TEST(RandomCircuit, ValidatesCleanly) {
  RandomCircuitOptions options;
  options.seed = 5;
  const auto c = random_circuit(options);
  EXPECT_GT(c.num_outputs(), 0u);
}

TEST(RandomCircuit, MaxFaninTwoExcludesMaj) {
  RandomCircuitOptions options;
  options.max_fanin = 2;
  options.num_gates = 64;
  const auto c = random_circuit(options);
  const auto stats = netlist::compute_stats(c);
  EXPECT_EQ(stats.gate_histogram.count(netlist::GateType::kMaj), 0u);
  EXPECT_LE(stats.max_fanin, 2);
}

TEST(RandomCircuit, RejectsBadOptions) {
  RandomCircuitOptions options;
  options.num_inputs = 0;
  EXPECT_THROW((void)random_circuit(options), std::invalid_argument);
  options = {};
  options.max_fanin = 1;
  EXPECT_THROW((void)random_circuit(options), std::invalid_argument);
  options = {};
  options.locality = 1.5;
  EXPECT_THROW((void)random_circuit(options), std::invalid_argument);
}

}  // namespace
}  // namespace enb::gen
