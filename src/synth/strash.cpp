#include "synth/strash.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "netlist/transform.hpp"

namespace enb::synth {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

Circuit strash(const Circuit& circuit) {
  Circuit next(circuit.name());
  std::vector<NodeId> map(circuit.node_count(), netlist::kInvalidNode);
  // Key: (type, canonical fanin list). std::map keeps this dependency-free;
  // netlists here are small enough that log-factor lookups are immaterial.
  std::map<std::pair<GateType, std::vector<NodeId>>, NodeId> seen;

  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const auto type = circuit.type(id);
    if (type == GateType::kInput) {
      map[id] = next.add_input(circuit.node_name(id));
      continue;
    }
    std::vector<NodeId> fanins;
    fanins.reserve(circuit.fanins(id).size());
    for (NodeId f : circuit.fanins(id)) fanins.push_back(map[f]);
    if (is_commutative(type)) {
      std::sort(fanins.begin(), fanins.end());
    }
    const auto key = std::make_pair(type, fanins);
    const auto it = seen.find(key);
    if (it != seen.end()) {
      map[id] = it->second;
      continue;
    }
    if (netlist::is_constant(type)) {
      map[id] = next.add_const(type == GateType::kConst1);
    } else {
      map[id] = next.add_gate(type, std::move(fanins));
    }
    seen.emplace(key, map[id]);
  }
  for (std::size_t pos = 0; pos < circuit.num_outputs(); ++pos) {
    next.add_output(map[circuit.outputs()[pos]], circuit.output_name(pos));
  }
  return remove_dead_nodes(next);
}

}  // namespace enb::synth
