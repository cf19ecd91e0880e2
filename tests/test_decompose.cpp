#include "synth/decompose.hpp"

#include <gtest/gtest.h>

#include "gen/adders.hpp"
#include "netlist/stats.hpp"
#include "sim/exhaustive.hpp"

namespace enb::synth {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

Circuit wide_gate(GateType type, int width) {
  Circuit c;
  std::vector<NodeId> ins;
  for (int i = 0; i < width; ++i) ins.push_back(c.add_input());
  c.add_output(c.add_gate(type, ins));
  return c;
}

class ReduceFaninTest
    : public ::testing::TestWithParam<std::tuple<GateType, int, int>> {};

TEST_P(ReduceFaninTest, PreservesFunctionAndRespectsBound) {
  const auto [type, width, k] = GetParam();
  const Circuit original = wide_gate(type, width);
  const Circuit reduced = reduce_fanin(original, k);
  EXPECT_TRUE(sim::exhaustive_equivalent(original, reduced))
      << to_string(type) << " width=" << width << " k=" << k;
  EXPECT_LE(netlist::compute_stats(reduced).max_fanin, k);
}

INSTANTIATE_TEST_SUITE_P(
    WideGates, ReduceFaninTest,
    ::testing::Combine(::testing::Values(GateType::kAnd, GateType::kNand,
                                         GateType::kOr, GateType::kNor,
                                         GateType::kXor, GateType::kXnor),
                       ::testing::Values(4, 7, 9),
                       ::testing::Values(2, 3, 4)));

TEST(ReduceFanin, MajWithTwoInputTarget) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  const NodeId d = c.add_input();
  c.add_output(c.add_gate(GateType::kMaj, a, b, d));
  const Circuit reduced = reduce_fanin(c, 2);
  EXPECT_TRUE(sim::exhaustive_equivalent(c, reduced));
  EXPECT_LE(netlist::compute_stats(reduced).max_fanin, 2);
}

TEST(ReduceFanin, MajWithThreeInputTargetUnchanged) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  const NodeId d = c.add_input();
  c.add_output(c.add_gate(GateType::kMaj, a, b, d));
  const Circuit reduced = reduce_fanin(c, 3);
  EXPECT_EQ(reduced.gate_count(), 1u);
}

TEST(ReduceFanin, DepthGrowsLogarithmically) {
  const Circuit wide = wide_gate(GateType::kAnd, 16);
  const Circuit reduced = reduce_fanin(wide, 2);
  // Balanced binary tree over 16 operands: depth 4.
  EXPECT_EQ(netlist::compute_stats(reduced).depth, 4);
}

TEST(ReduceFanin, RealisticCircuit) {
  const Circuit cla = gen::carry_lookahead_adder(8);
  EXPECT_GT(netlist::compute_stats(cla).max_fanin, 3);
  const Circuit reduced = reduce_fanin(cla, 3);
  EXPECT_LE(netlist::compute_stats(reduced).max_fanin, 3);
  EXPECT_TRUE(sim::exhaustive_equivalent(cla, reduced));
}

TEST(ReduceFanin, RejectsBadTarget) {
  EXPECT_THROW((void)reduce_fanin(wide_gate(GateType::kAnd, 4), 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace enb::synth
