#include "netlist/circuit.hpp"

#include <gtest/gtest.h>

#include <utility>

namespace enb::netlist {
namespace {

TEST(Circuit, EmptyCircuit) {
  const Circuit c("empty");
  EXPECT_EQ(c.name(), "empty");
  EXPECT_EQ(c.node_count(), 0u);
  EXPECT_EQ(c.num_inputs(), 0u);
  EXPECT_EQ(c.num_outputs(), 0u);
  EXPECT_EQ(c.gate_count(), 0u);
}

TEST(Circuit, BuildSmallNetlist) {
  Circuit c("half_adder");
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId sum = c.add_gate(GateType::kXor, a, b);
  const NodeId carry = c.add_gate(GateType::kAnd, a, b);
  c.add_output(sum, "sum");
  c.add_output(carry, "carry");

  EXPECT_EQ(c.node_count(), 4u);
  EXPECT_EQ(c.num_inputs(), 2u);
  EXPECT_EQ(c.num_outputs(), 2u);
  EXPECT_EQ(c.gate_count(), 2u);
  EXPECT_EQ(c.type(sum), GateType::kXor);
  ASSERT_EQ(c.fanins(sum).size(), 2u);
  EXPECT_EQ(c.fanins(sum)[0], a);
  EXPECT_EQ(c.fanins(sum)[1], b);
}

TEST(Circuit, InputIndexing) {
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId g = c.add_gate(GateType::kNot, a);
  const NodeId b = c.add_input("b");
  EXPECT_EQ(c.input_index(a), 0);
  EXPECT_EQ(c.input_index(b), 1);
  EXPECT_EQ(c.input_index(g), -1);
  ASSERT_EQ(c.inputs().size(), 2u);
  EXPECT_EQ(c.inputs()[0], a);
  EXPECT_EQ(c.inputs()[1], b);
}

TEST(Circuit, ConstantsDoNotCountAsGates) {
  Circuit c;
  const NodeId k0 = c.add_const(false);
  const NodeId k1 = c.add_const(true);
  c.add_gate(GateType::kOr, k0, k1);
  EXPECT_EQ(c.gate_count(), 1u);
  EXPECT_EQ(c.type(k0), GateType::kConst0);
  EXPECT_EQ(c.type(k1), GateType::kConst1);
}

TEST(Circuit, NamesAndDefaults) {
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId g = c.add_gate(GateType::kNot, a);
  EXPECT_EQ(c.node_name(a), "a");
  EXPECT_EQ(c.node_name(g), "n" + std::to_string(g));
  c.set_node_name(g, "inv_a");
  EXPECT_EQ(c.node_name(g), "inv_a");
  c.add_output(g);
  EXPECT_EQ(c.output_name(0), "inv_a");
  c.add_output(g, "port");
  EXPECT_EQ(c.output_name(1), "port");
}

TEST(Circuit, RejectsBadArity) {
  Circuit c;
  const NodeId a = c.add_input();
  EXPECT_THROW(c.add_gate(GateType::kNot, std::vector<NodeId>{a, a}),
               std::invalid_argument);
  EXPECT_THROW(c.add_gate(GateType::kMaj, a, a), std::invalid_argument);
  EXPECT_THROW(c.add_gate(GateType::kAnd, std::vector<NodeId>{}),
               std::invalid_argument);
  EXPECT_THROW(c.add_gate(GateType::kInput, std::vector<NodeId>{}),
               std::invalid_argument);
}

TEST(Circuit, RejectsForwardReferences) {
  Circuit c;
  const NodeId a = c.add_input();
  // Fanins must already exist: ids >= node_count() are rejected, which is
  // what makes the representation a DAG by construction.
  EXPECT_THROW(c.add_gate(GateType::kNot, static_cast<NodeId>(99)),
               std::invalid_argument);
  EXPECT_THROW(c.add_output(static_cast<NodeId>(99)), std::invalid_argument);
  EXPECT_NO_THROW(c.add_gate(GateType::kNot, a));
}

TEST(Circuit, DuplicateOutputListings) {
  Circuit c;
  const NodeId a = c.add_input("a");
  c.add_output(a, "y0");
  c.add_output(a, "y1");
  EXPECT_EQ(c.num_outputs(), 2u);
  EXPECT_EQ(c.outputs()[0], c.outputs()[1]);
  EXPECT_EQ(c.output_name(0), "y0");
  EXPECT_EQ(c.output_name(1), "y1");
}

TEST(Circuit, NodeAccessBounds) {
  Circuit c;
  EXPECT_THROW((void)c.type(0), std::invalid_argument);
  EXPECT_THROW((void)c.fanins(0), std::invalid_argument);
  EXPECT_EQ(c.input_index(0), -1);
  EXPECT_THROW((void)c.node_name(5), std::invalid_argument);
  EXPECT_THROW((void)c.output_name(0), std::out_of_range);
  EXPECT_FALSE(c.is_valid(kInvalidNode));
}

TEST(Circuit, GateCountTracksTypes) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  c.add_const(true);
  const NodeId g1 = c.add_gate(GateType::kBuf, a);
  const NodeId g2 = c.add_gate(GateType::kNand, g1, b);
  c.add_gate(GateType::kMaj, a, b, g2);
  EXPECT_EQ(c.gate_count(), 3u);  // buf + nand + maj; input/const excluded
}

// A moved-from circuit is empty, so it can be built again from scratch.
TEST(Circuit, MovedFromIsEmpty) {
  const auto build_one_gate = [](Circuit& c) {
    const NodeId a = c.add_input("a");
    c.add_output(c.add_gate(GateType::kNot, a), "y");
  };
  Circuit source("src");
  const NodeId a = source.add_input("a");
  const NodeId b = source.add_input("b");
  source.add_output(source.add_gate(GateType::kAnd, a, b), "y");
  source.add_output(source.add_gate(GateType::kOr, a, b), "z");

  const Circuit moved = std::move(source);
  EXPECT_EQ(moved.gate_count(), 2u);
  EXPECT_EQ(source.node_count(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.gate_count(), 0u);
  EXPECT_EQ(source.num_inputs(), 0u);
  EXPECT_EQ(source.num_outputs(), 0u);
  EXPECT_TRUE(source.name().empty());
  build_one_gate(source);
  EXPECT_EQ(source.gate_count(), 1u);
  EXPECT_EQ(source.node_count(), 2u);
  EXPECT_EQ(source.node_name(0), "a");

  Circuit target;
  target = std::move(source);
  EXPECT_EQ(target.gate_count(), 1u);
  EXPECT_EQ(source.gate_count(), 0u);  // NOLINT(bugprone-use-after-move)
  build_one_gate(source);
  EXPECT_EQ(source.gate_count(), 1u);
  EXPECT_EQ(source.num_outputs(), 1u);
}

}  // namespace
}  // namespace enb::netlist
