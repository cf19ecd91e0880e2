#include "netlist/stats.hpp"

#include <algorithm>
#include <sstream>

#include "netlist/topo.hpp"

namespace enb::netlist {

CircuitStats compute_stats(const Circuit& circuit) {
  CircuitStats stats;
  stats.name = circuit.name();
  stats.num_inputs = circuit.num_inputs();
  stats.num_outputs = circuit.num_outputs();
  stats.num_nodes = circuit.node_count();
  stats.num_gates = circuit.gate_count();
  stats.depth = depth(circuit);

  std::size_t fanin_sum = 0;
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const auto type = circuit.type(id);
    const auto fanins = circuit.fanins(id);
    if (!counts_as_gate(type)) continue;
    ++stats.gate_histogram[type];
    fanin_sum += fanins.size();
    stats.max_fanin =
        std::max(stats.max_fanin, static_cast<int>(fanins.size()));
  }
  stats.avg_fanin = stats.num_gates == 0
                        ? 0.0
                        : static_cast<double>(fanin_sum) /
                              static_cast<double>(stats.num_gates);

  const std::vector<int> fanout = fanout_counts(circuit);
  std::size_t fanout_sum = 0;
  std::size_t driver_count = 0;
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    fanout_sum += static_cast<std::size_t>(fanout[id]);
    stats.max_fanout = std::max(stats.max_fanout, fanout[id]);
    if (fanout[id] > 0) ++driver_count;
  }
  stats.avg_fanout = driver_count == 0
                         ? 0.0
                         : static_cast<double>(fanout_sum) /
                               static_cast<double>(driver_count);
  return stats;
}

std::string CircuitStats::to_string() const {
  std::ostringstream out;
  out << "circuit " << (name.empty() ? "<unnamed>" : name) << ": "
      << num_inputs << " inputs, " << num_outputs << " outputs, " << num_gates
      << " gates (of " << num_nodes << " nodes), depth " << depth
      << ", avg fanin " << avg_fanin << ", max fanin " << max_fanin << "\n";
  for (const auto& [type, count] : gate_histogram) {
    out << "  " << netlist::to_string(type) << ": " << count << "\n";
  }
  return out.str();
}

}  // namespace enb::netlist
