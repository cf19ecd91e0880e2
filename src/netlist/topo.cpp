#include "netlist/topo.hpp"

#include <algorithm>

namespace enb::netlist {

std::vector<int> levels(const Circuit& circuit) {
  std::vector<int> level(circuit.node_count(), 0);
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const auto type = circuit.type(id);
    const auto fanins = circuit.fanins(id);
    if (!counts_as_gate(type)) continue;
    int max_in = -1;
    for (NodeId f : fanins) max_in = std::max(max_in, level[f]);
    level[id] = max_in + 1;
  }
  return level;
}

int depth(const Circuit& circuit) {
  const std::vector<int> level = levels(circuit);
  int d = 0;
  for (NodeId out : circuit.outputs()) d = std::max(d, level[out]);
  return d;
}

std::vector<int> fanout_counts(const Circuit& circuit) {
  std::vector<int> fanout(circuit.node_count(), 0);
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    for (NodeId f : circuit.fanins(id)) ++fanout[f];
  }
  return fanout;
}

std::vector<bool> transitive_fanin(const Circuit& circuit,
                                   std::span<const NodeId> roots) {
  std::vector<bool> mark(circuit.node_count(), false);
  for (NodeId r : roots) {
    if (circuit.is_valid(r)) mark[r] = true;
  }
  // Reverse id order is a reverse-topological sweep: when we visit a marked
  // node all of its markers have already been applied.
  for (NodeId id = static_cast<NodeId>(circuit.node_count()); id-- > 0;) {
    if (!mark[id]) continue;
    for (NodeId f : circuit.fanins(id)) mark[f] = true;
  }
  return mark;
}

std::vector<bool> reachable_from_outputs(const Circuit& circuit) {
  return transitive_fanin(circuit, circuit.outputs());
}

}  // namespace enb::netlist
