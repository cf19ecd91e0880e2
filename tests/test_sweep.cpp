#include "synth/sweep.hpp"

#include <gtest/gtest.h>

#include "sim/exhaustive.hpp"

namespace enb::synth {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

TEST(Sweep, ConstantFoldingAnd) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId k0 = c.add_const(false);
  c.add_output(c.add_gate(GateType::kAnd, a, k0), "y");
  const Circuit s = sweep(c);
  // AND(a, 0) == 0: no gates remain, output driven by a constant.
  EXPECT_EQ(s.gate_count(), 0u);
  EXPECT_EQ(s.type(s.outputs()[0]), GateType::kConst0);
}

TEST(Sweep, NeutralOperandDrops) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  const NodeId k1 = c.add_const(true);
  c.add_output(c.add_gate(GateType::kAnd, std::vector<NodeId>{a, b, k1}));
  const Circuit s = sweep(c);
  EXPECT_EQ(s.gate_count(), 1u);
  EXPECT_EQ(s.fanins(s.outputs()[0]).size(), 2u);
  EXPECT_TRUE(sim::exhaustive_equivalent(c, s));
}

TEST(Sweep, DoubleInverterCollapses) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId n1 = c.add_gate(GateType::kNot, a);
  const NodeId n2 = c.add_gate(GateType::kNot, n1);
  c.add_output(n2);
  const Circuit s = sweep(c);
  EXPECT_EQ(s.gate_count(), 0u);
  EXPECT_EQ(s.outputs()[0], s.inputs()[0]);
}

TEST(Sweep, BufferRemoval) {
  Circuit c;
  const NodeId a = c.add_input();
  NodeId x = a;
  for (int i = 0; i < 5; ++i) x = c.add_gate(GateType::kBuf, x);
  c.add_output(c.add_gate(GateType::kNot, x));
  const Circuit s = sweep(c);
  EXPECT_EQ(s.gate_count(), 1u);
}

TEST(Sweep, DuplicateOperandsAndOr) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  c.add_output(c.add_gate(GateType::kAnd, std::vector<NodeId>{a, a, b}));
  c.add_output(c.add_gate(GateType::kOr, std::vector<NodeId>{a, a}));
  const Circuit s = sweep(c);
  // AND(a,a,b) -> AND(a,b); OR(a,a) -> a.
  EXPECT_EQ(s.gate_count(), 1u);
  EXPECT_TRUE(sim::exhaustive_equivalent(c, s));
}

TEST(Sweep, XorPairCancellation) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  c.add_output(c.add_gate(GateType::kXor, std::vector<NodeId>{a, a, b}));
  const Circuit s = sweep(c);
  // a ^ a ^ b == b.
  EXPECT_EQ(s.gate_count(), 0u);
  EXPECT_EQ(s.outputs()[0], s.inputs()[1]);
}

TEST(Sweep, XorWithConstOne) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId k1 = c.add_const(true);
  c.add_output(c.add_gate(GateType::kXor, a, k1));
  const Circuit s = sweep(c);
  // a ^ 1 == !a.
  EXPECT_EQ(s.gate_count(), 1u);
  EXPECT_EQ(s.type(s.outputs()[0]), GateType::kNot);
}

TEST(Sweep, XnorParityPolarity) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  c.add_output(c.add_gate(GateType::kXnor, a, b));
  const Circuit s = sweep(c);
  EXPECT_TRUE(sim::exhaustive_equivalent(c, s));
}

TEST(Sweep, NandSingleOperandBecomesNot) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId k1 = c.add_const(true);
  c.add_output(c.add_gate(GateType::kNand, a, k1));
  const Circuit s = sweep(c);
  EXPECT_EQ(s.type(s.outputs()[0]), GateType::kNot);
  EXPECT_TRUE(sim::exhaustive_equivalent(c, s));
}

TEST(Sweep, MajWithConstant) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  const NodeId k1 = c.add_const(true);
  const NodeId k0 = c.add_const(false);
  c.add_output(c.add_gate(GateType::kMaj, a, b, k1));  // OR(a, b)
  c.add_output(c.add_gate(GateType::kMaj, a, b, k0));  // AND(a, b)
  const Circuit s = sweep(c);
  EXPECT_EQ(s.type(s.outputs()[0]), GateType::kOr);
  EXPECT_EQ(s.type(s.outputs()[1]), GateType::kAnd);
  EXPECT_TRUE(sim::exhaustive_equivalent(c, s));
}

TEST(Sweep, MajDuplicateOperand) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  c.add_output(c.add_gate(GateType::kMaj, a, a, b));
  const Circuit s = sweep(c);
  EXPECT_EQ(s.gate_count(), 0u);
  EXPECT_EQ(s.outputs()[0], s.inputs()[0]);
}

TEST(Sweep, NorToConstCascade) {
  // NOR(a, 1) == 0, then AND(b, 0) == 0: folding cascades through levels.
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  const NodeId k1 = c.add_const(true);
  const NodeId nor_gate = c.add_gate(GateType::kNor, a, k1);
  c.add_output(c.add_gate(GateType::kAnd, b, nor_gate));
  const Circuit s = sweep(c);
  EXPECT_EQ(s.gate_count(), 0u);
  EXPECT_EQ(s.type(s.outputs()[0]), GateType::kConst0);
}

TEST(Sweep, PreservesFunctionOnRandomCircuits) {
  // Functional preservation over a mixed-structure circuit.
  Circuit c;
  std::vector<NodeId> ins;
  for (int i = 0; i < 6; ++i) ins.push_back(c.add_input());
  const NodeId k1 = c.add_const(true);
  const NodeId g1 = c.add_gate(GateType::kXor, std::vector<NodeId>{ins[0], ins[1], k1});
  const NodeId g2 = c.add_gate(GateType::kNand, std::vector<NodeId>{ins[2], ins[2], ins[3]});
  const NodeId g3 = c.add_gate(GateType::kMaj, g1, g2, ins[4]);
  const NodeId g4 = c.add_gate(GateType::kNor, g3, ins[5]);
  c.add_output(g4);
  c.add_output(g1);
  const Circuit s = sweep(c);
  EXPECT_TRUE(sim::exhaustive_equivalent(c, s));
  EXPECT_LE(s.gate_count(), c.gate_count());
}

TEST(Sweep, DeadLogicRemoved) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  c.add_gate(GateType::kXor, a, b);  // dead
  c.add_output(c.add_gate(GateType::kAnd, a, b));
  const Circuit s = sweep(c);
  EXPECT_EQ(s.gate_count(), 1u);
}

}  // namespace
}  // namespace enb::synth
