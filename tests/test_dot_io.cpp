#include "netlist/dot_io.hpp"

#include <gtest/gtest.h>

namespace enb::netlist {
namespace {

TEST(DotIo, EmitsGraphvizStructure) {
  Circuit c("dot");
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  c.add_output(c.add_gate(GateType::kNand, a, b), "y");
  const std::string dot = write_dot_string(c);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("NAND"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
}

TEST(EnumerateNets, SharedWithDotWriter) {
  // The DOT writer lists node statements in node-id order under node_name
  // labels — the fault engine's net order, so diagrams and fault reports
  // agree.
  Circuit c("dot");
  const NodeId a = c.add_input("a");
  const NodeId g = c.add_gate(GateType::kNot, a);
  c.add_output(g, "y");
  const std::string dot = write_dot_string(c);
  const std::size_t pos_a = dot.find("n0 [label=\"a");
  const std::size_t pos_g = dot.find("n1 [label=\"n1");
  EXPECT_NE(pos_a, std::string::npos);
  EXPECT_NE(pos_g, std::string::npos);
  EXPECT_LT(pos_a, pos_g);
}

}  // namespace
}  // namespace enb::netlist
