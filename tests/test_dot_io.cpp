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

}  // namespace
}  // namespace enb::netlist
