#include "netlist/transform.hpp"

#include <stdexcept>
#include <string>

#include "netlist/topo.hpp"

namespace enb::netlist {

std::vector<NodeId> append_circuit(Circuit& dst, const Circuit& src,
                                   std::span<const NodeId> input_substitutes) {
  if (input_substitutes.size() != src.num_inputs()) {
    throw std::invalid_argument(
        "append_circuit: " + std::to_string(src.num_inputs()) +
        " inputs required, got " + std::to_string(input_substitutes.size()));
  }
  std::vector<NodeId> map(src.node_count(), kInvalidNode);
  for (std::size_t i = 0; i < src.num_inputs(); ++i) {
    map[src.inputs()[i]] = input_substitutes[i];
  }
  for (NodeId id = 0; id < src.node_count(); ++id) {
    const auto type = src.type(id);
    if (type == GateType::kInput) continue;
    if (is_constant(type)) {
      map[id] = dst.add_const(type == GateType::kConst1);
      continue;
    }
    std::vector<NodeId> fanins;
    fanins.reserve(src.fanins(id).size());
    for (NodeId f : src.fanins(id)) fanins.push_back(map[f]);
    map[id] = dst.add_gate(type, std::move(fanins));
  }
  std::vector<NodeId> outputs;
  outputs.reserve(src.num_outputs());
  for (NodeId out : src.outputs()) outputs.push_back(map[out]);
  return outputs;
}

Circuit clone(const Circuit& circuit) {
  Circuit copy(circuit.name());
  std::vector<NodeId> inputs;
  inputs.reserve(circuit.num_inputs());
  for (NodeId id : circuit.inputs()) {
    inputs.push_back(copy.add_input(circuit.node_name(id)));
  }
  const std::vector<NodeId> outs = append_circuit(copy, circuit, inputs);
  for (std::size_t pos = 0; pos < circuit.num_outputs(); ++pos) {
    copy.add_output(outs[pos], circuit.output_name(pos));
  }
  return copy;
}

namespace {

// Shared rebuilt-copy helper: keeps all inputs, keeps nodes with keep[id],
// re-emits the selected output positions.
Circuit rebuild(const Circuit& circuit, const std::vector<bool>& keep,
                std::span<const std::size_t> output_positions) {
  Circuit out(circuit.name());
  std::vector<NodeId> map(circuit.node_count(), kInvalidNode);
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const auto type = circuit.type(id);
    if (type == GateType::kInput) {
      map[id] = out.add_input(circuit.node_name(id));
      continue;
    }
    if (!keep[id]) continue;
    if (is_constant(type)) {
      map[id] = out.add_const(type == GateType::kConst1);
    } else {
      std::vector<NodeId> fanins;
      fanins.reserve(circuit.fanins(id).size());
      for (NodeId f : circuit.fanins(id)) fanins.push_back(map[f]);
      map[id] = out.add_gate(type, std::move(fanins));
    }
    out.set_node_name(map[id], circuit.node_name(id));
  }
  for (std::size_t pos : output_positions) {
    if (pos >= circuit.num_outputs()) {
      throw std::out_of_range("rebuild: no output position " +
                              std::to_string(pos));
    }
    out.add_output(map[circuit.outputs()[pos]], circuit.output_name(pos));
  }
  return out;
}

}  // namespace

Circuit extract_cone(const Circuit& circuit,
                     std::span<const std::size_t> output_positions) {
  std::vector<NodeId> roots;
  roots.reserve(output_positions.size());
  for (std::size_t pos : output_positions) {
    if (pos >= circuit.num_outputs()) {
      throw std::out_of_range("extract_cone: no output position " +
                              std::to_string(pos));
    }
    roots.push_back(circuit.outputs()[pos]);
  }
  const std::vector<bool> keep = transitive_fanin(circuit, roots);
  return rebuild(circuit, keep, output_positions);
}

Circuit remove_dead_nodes(const Circuit& circuit) {
  const std::vector<bool> keep = reachable_from_outputs(circuit);
  std::vector<std::size_t> all(circuit.num_outputs());
  for (std::size_t pos = 0; pos < all.size(); ++pos) all[pos] = pos;
  return rebuild(circuit, keep, all);
}

}  // namespace enb::netlist
