#include "synth/decompose.hpp"

#include <stdexcept>
#include <vector>

namespace enb::synth {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

namespace {

// Reduces `operands` to at most `k` nodes by repeatedly combining groups of k
// with `combine`-type gates (balanced: each round shrinks the list by ~k).
std::vector<NodeId> tree_reduce(Circuit& c, std::vector<NodeId> operands,
                                GateType combine, int k) {
  while (static_cast<int>(operands.size()) > k) {
    std::vector<NodeId> next;
    next.reserve(operands.size() / k + 1);
    std::size_t i = 0;
    while (i < operands.size()) {
      const std::size_t take =
          std::min<std::size_t>(k, operands.size() - i);
      if (take == 1) {
        next.push_back(operands[i]);
      } else {
        next.push_back(c.add_gate(
            combine, std::vector<NodeId>(operands.begin() + i,
                                         operands.begin() + i + take)));
      }
      i += take;
    }
    operands = std::move(next);
  }
  return operands;
}

// Emits `type` over `fanins`, splitting into a tree when wider than k. The
// subtrees apply the type's operator without its inversion and only the
// root inverts, preserving the overall function.
NodeId emit_bounded(Circuit& c, GateType type, std::vector<NodeId> fanins,
                    int k) {
  if (static_cast<int>(fanins.size()) > k) {
    const GateType base = netlist::gate_type_of(netlist::gate_op(type), false);
    fanins = tree_reduce(c, std::move(fanins), base, k);
  }
  return c.add_gate(type, std::move(fanins));
}

}  // namespace

Circuit reduce_fanin(const Circuit& circuit, int max_fanin) {
  if (max_fanin < 2) {
    throw std::invalid_argument("reduce_fanin: max_fanin must be >= 2");
  }
  Circuit next(circuit.name());
  std::vector<NodeId> map(circuit.node_count(), netlist::kInvalidNode);
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const auto type = circuit.type(id);
    if (netlist::is_input(type)) {
      map[id] = next.add_input(circuit.node_name(id));
      continue;
    }
    if (netlist::is_constant(type)) {
      map[id] = next.add_const(type == GateType::kConst1);
      continue;
    }
    std::vector<NodeId> fanins;
    fanins.reserve(circuit.fanins(id).size());
    for (NodeId f : circuit.fanins(id)) fanins.push_back(map[f]);
    if (type == GateType::kMaj && max_fanin < 3) {
      // MAJ3 cannot narrow by tree reduction; expand to ab + c(a|b).
      const NodeId ab = next.add_gate(GateType::kAnd, fanins[0], fanins[1]);
      const NodeId a_or_b = next.add_gate(GateType::kOr, fanins[0], fanins[1]);
      const NodeId c_sel = next.add_gate(GateType::kAnd, fanins[2], a_or_b);
      map[id] = next.add_gate(GateType::kOr, ab, c_sel);
      continue;
    }
    map[id] = emit_bounded(next, type, std::move(fanins), max_fanin);
  }
  for (std::size_t pos = 0; pos < circuit.num_outputs(); ++pos) {
    next.add_output(map[circuit.outputs()[pos]], circuit.output_name(pos));
  }
  return next;
}

}  // namespace enb::synth
