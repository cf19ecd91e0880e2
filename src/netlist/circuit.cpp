#include "netlist/circuit.hpp"

#include <atomic>
#include <stdexcept>
#include <utility>

namespace enb::netlist {

namespace {
std::atomic<std::uint64_t> g_circuit_copies{0};
}  // namespace

Circuit::Circuit(const Circuit& other)
    : name_(other.name_),
      types_(other.types_),
      fanin_begin_(other.fanin_begin_),
      fanin_ids_(other.fanin_ids_),
      input_slot_(other.input_slot_),
      inputs_(other.inputs_),
      outputs_(other.outputs_),
      output_names_(other.output_names_),
      node_names_(other.node_names_),
      gate_count_(other.gate_count_) {
  g_circuit_copies.fetch_add(1, std::memory_order_relaxed);
}

Circuit& Circuit::operator=(const Circuit& other) {
  if (this != &other) {
    name_ = other.name_;
    types_ = other.types_;
    fanin_begin_ = other.fanin_begin_;
    fanin_ids_ = other.fanin_ids_;
    input_slot_ = other.input_slot_;
    inputs_ = other.inputs_;
    outputs_ = other.outputs_;
    output_names_ = other.output_names_;
    node_names_ = other.node_names_;
    gate_count_ = other.gate_count_;
    g_circuit_copies.fetch_add(1, std::memory_order_relaxed);
  }
  return *this;
}

Circuit::Circuit(Circuit&& other) noexcept { *this = std::move(other); }

Circuit& Circuit::operator=(Circuit&& other) noexcept {
  if (this != &other) {
    name_ = std::exchange(other.name_, {});
    types_ = std::exchange(other.types_, {});
    fanin_begin_ = std::exchange(other.fanin_begin_, {});
    fanin_ids_ = std::exchange(other.fanin_ids_, {});
    input_slot_ = std::exchange(other.input_slot_, {});
    inputs_ = std::exchange(other.inputs_, {});
    outputs_ = std::exchange(other.outputs_, {});
    output_names_ = std::exchange(other.output_names_, {});
    node_names_ = std::exchange(other.node_names_, {});
    gate_count_ = std::exchange(other.gate_count_, 0);
  }
  return *this;
}

std::uint64_t Circuit::copies_made() noexcept {
  return g_circuit_copies.load(std::memory_order_relaxed);
}

NodeId Circuit::append_node(GateType type, std::span<const NodeId> fanins,
                            int input_slot) {
  const NodeId id = static_cast<NodeId>(types_.size());
  if (counts_as_gate(type)) ++gate_count_;
  types_.push_back(type);
  if (fanin_begin_.empty()) fanin_begin_.push_back(0);
  fanin_ids_.insert(fanin_ids_.end(), fanins.begin(), fanins.end());
  fanin_begin_.push_back(static_cast<std::uint32_t>(fanin_ids_.size()));
  input_slot_.push_back(input_slot);
  return id;
}

void Circuit::throw_invalid(NodeId id, const char* context) {
  throw std::invalid_argument(std::string(context) + ": invalid node id " +
                              std::to_string(id));
}

NodeId Circuit::add_input(std::string name) {
  const NodeId id =
      append_node(GateType::kInput, {}, static_cast<int>(inputs_.size()));
  inputs_.push_back(id);
  if (!name.empty()) set_node_name(id, std::move(name));
  return id;
}

NodeId Circuit::add_const(bool value) {
  return append_node(value ? GateType::kConst1 : GateType::kConst0, {}, -1);
}

NodeId Circuit::append_gate(GateType type, std::span<const NodeId> fanins) {
  if (type == GateType::kInput) {
    throw std::invalid_argument("add_gate: use add_input for primary inputs");
  }
  const auto [min_arity, max_arity] = arity_range(type);
  const int n = static_cast<int>(fanins.size());
  if (n < min_arity || n > max_arity) {
    throw std::invalid_argument(
        "add_gate: arity " + std::to_string(n) + " illegal for " +
        std::string(to_string(type)));
  }
  for (NodeId f : fanins) check_valid(f, "add_gate fanin");
  return append_node(type, fanins, -1);
}

NodeId Circuit::add_gate(GateType type, std::vector<NodeId> fanins) {
  return append_gate(type, fanins);
}

NodeId Circuit::add_gate(GateType type, NodeId a) {
  const NodeId fanins[] = {a};
  return append_gate(type, fanins);
}

NodeId Circuit::add_gate(GateType type, NodeId a, NodeId b) {
  const NodeId fanins[] = {a, b};
  return append_gate(type, fanins);
}

NodeId Circuit::add_gate(GateType type, NodeId a, NodeId b, NodeId c) {
  const NodeId fanins[] = {a, b, c};
  return append_gate(type, fanins);
}

void Circuit::add_output(NodeId id, std::string name) {
  check_valid(id, "add_output");
  outputs_.push_back(id);
  output_names_.push_back(std::move(name));
}

void Circuit::set_node_name(NodeId id, std::string name) {
  check_valid(id, "set_node_name");
  node_names_[id] = std::move(name);
}

std::string Circuit::node_name(NodeId id) const {
  check_valid(id, "node_name");
  const auto it = node_names_.find(id);
  if (it != node_names_.end()) return it->second;
  return "n" + std::to_string(id);
}

std::string Circuit::output_name(std::size_t pos) const {
  if (pos >= outputs_.size()) {
    throw std::out_of_range("output_name: no output " + std::to_string(pos));
  }
  if (!output_names_[pos].empty()) return output_names_[pos];
  return node_name(outputs_[pos]);
}

}  // namespace enb::netlist
