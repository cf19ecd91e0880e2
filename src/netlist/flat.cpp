#include "netlist/flat.hpp"

namespace enb::netlist {

FlatCircuit::FlatCircuit(const Circuit& circuit)
    : input_slot_(circuit.node_count(), -1),
      fanout_begin_(circuit.node_count() + 1, 0) {
  const std::size_t n = circuit.node_count();
  types_.reserve(n);
  fanin_begin_.reserve(n + 1);
  fanin_begin_.push_back(0);
  for (NodeId id = 0; id < n; ++id) {
    const Circuit::Node& node = circuit.node(id);
    types_.push_back(node.type);
    for (const NodeId f : node.fanins) {
      fanin_ids_.push_back(f);
      ++fanout_begin_[f + 1];
    }
    fanin_begin_.push_back(static_cast<std::uint32_t>(fanin_ids_.size()));
  }
  const std::span<const NodeId> inputs = circuit.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    input_slot_[inputs[i]] = static_cast<int>(i);
  }
  for (std::size_t id = 0; id < n; ++id) {
    fanout_begin_[id + 1] += fanout_begin_[id];
  }
  // Consumers are visited in ascending id order, so each fanout list comes
  // out sorted.
  fanout_ids_.resize(fanin_ids_.size());
  std::vector<std::uint32_t> cursor(fanout_begin_.begin(),
                                    fanout_begin_.end() - 1);
  for (NodeId id = 0; id < n; ++id) {
    for (const NodeId f : fanins(id)) fanout_ids_[cursor[f]++] = id;
  }
}

}  // namespace enb::netlist
