#include "netlist/dot_io.hpp"

#include <ostream>
#include <sstream>

namespace enb::netlist {
namespace {

const char* shape_for(GateType type) {
  switch (gate_op(type)) {
    case GateOp::kInput:
      return "invtriangle";
    case GateOp::kConst:
      return "plaintext";
    case GateOp::kBuf:
      return "triangle";
    default:
      return "box";
  }
}

}  // namespace

void write_dot(const Circuit& circuit, std::ostream& out) {
  out << "digraph \"" << (circuit.name().empty() ? "circuit" : circuit.name())
      << "\" {\n  rankdir=LR;\n";
  // One node statement per net, in node-id order (the fault engine's site
  // order, so diagrams and campaign reports agree on naming and sequence).
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const auto type = circuit.type(id);
    out << "  n" << id << " [label=\"" << circuit.node_name(id) << "\\n"
        << to_string(type) << "\" shape=" << shape_for(type) << "];\n";
  }
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    for (NodeId f : circuit.fanins(id)) {
      out << "  n" << f << " -> n" << id << ";\n";
    }
  }
  for (std::size_t pos = 0; pos < circuit.num_outputs(); ++pos) {
    out << "  out" << pos << " [label=\"" << circuit.output_name(pos)
        << "\" shape=doublecircle];\n";
    out << "  n" << circuit.outputs()[pos] << " -> out" << pos << ";\n";
  }
  out << "}\n";
}

std::string write_dot_string(const Circuit& circuit) {
  std::ostringstream out;
  write_dot(circuit, out);
  return out.str();
}

}  // namespace enb::netlist
