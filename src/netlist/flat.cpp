#include "netlist/flat.hpp"

namespace enb::netlist {

Fanouts::Fanouts(const Circuit& circuit)
    : begin_(circuit.node_count() + 1, 0) {
  const std::size_t n = circuit.node_count();
  for (NodeId id = 0; id < n; ++id) {
    for (const NodeId f : circuit.fanins(id)) ++begin_[f + 1];
  }
  for (std::size_t id = 0; id < n; ++id) begin_[id + 1] += begin_[id];
  // Consumers are visited in ascending id order, so each list comes out
  // sorted.
  ids_.resize(begin_[n]);
  std::vector<std::uint32_t> cursor(begin_.begin(), begin_.end() - 1);
  for (NodeId id = 0; id < n; ++id) {
    for (const NodeId f : circuit.fanins(id)) ids_[cursor[f]++] = id;
  }
}

}  // namespace enb::netlist
