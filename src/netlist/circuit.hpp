// Combinational gate-level circuit IR.
//
// A Circuit is an append-only DAG: every node's fanins must already exist
// when the node is created, so node-id order is always a valid topological
// order. Transforms build new circuits rather than mutating in place, which
// keeps ids stable and invariants trivial to maintain.
//
// Because nodes only ever append, the Circuit stores the flat layout the
// simulators sweep: one gate type per node, every node's fanins in one CSR
// array (add_gate appends them and closes the node's offset), and one input
// slot per node (Circuit::input_index, or -1). The only structure derived
// from it is the fanout inverse (netlist::Fanouts, flat.hpp), which the
// engines that walk forward build in one pass.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/gate_type.hpp"

namespace enb::netlist {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = ~NodeId{0};

class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::string name) : name_(std::move(name)) {}

  // Copy construction/assignment is counted (one relaxed atomic increment)
  // so the zero-copy layers above — analysis::CompiledCircuit handles and
  // the batch engine — can assert that hot paths never clone a netlist.
  Circuit(const Circuit& other);
  Circuit& operator=(const Circuit& other);
  // A move leaves the source an empty circuit (no nodes, gates, ports or
  // names; the name too), ready to be built again.
  Circuit(Circuit&& other) noexcept;
  Circuit& operator=(Circuit&& other) noexcept;

  // Process-wide monotonic count of Circuit copies; tests measure deltas.
  [[nodiscard]] static std::uint64_t copies_made() noexcept;

  // ---- construction ----

  // Appends a primary input. `name` is optional; unnamed nodes render as
  // "n<id>".
  NodeId add_input(std::string name = "");

  // Appends a constant node.
  NodeId add_const(bool value);

  // Appends a gate. Throws std::invalid_argument if the arity is illegal for
  // `type` or any fanin id is not an existing node (this is what enforces
  // acyclicity).
  NodeId add_gate(GateType type, std::vector<NodeId> fanins);

  // Convenience forms for the common arities.
  NodeId add_gate(GateType type, NodeId a);
  NodeId add_gate(GateType type, NodeId a, NodeId b);
  NodeId add_gate(GateType type, NodeId a, NodeId b, NodeId c);

  // Marks a node as a primary output (a node may be listed more than once;
  // each listing is a distinct output port).
  void add_output(NodeId id, std::string name = "");

  void set_name(std::string name) { name_ = std::move(name); }
  void set_node_name(NodeId id, std::string name);

  // ---- inspection ----

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return types_.size(); }

  // Gate type and fanins of node `id`; both throw std::invalid_argument on
  // an invalid id. A gate that reads a node k times lists it k times.
  [[nodiscard]] GateType type(NodeId id) const {
    check_valid(id, "type");
    return types_[id];
  }
  [[nodiscard]] std::span<const NodeId> fanins(NodeId id) const {
    check_valid(id, "fanins");
    return {fanin_ids_.data() + fanin_begin_[id],
            fanin_ids_.data() + fanin_begin_[id + 1]};
  }

  [[nodiscard]] std::span<const NodeId> inputs() const noexcept { return inputs_; }
  [[nodiscard]] std::span<const NodeId> outputs() const noexcept { return outputs_; }
  [[nodiscard]] std::size_t num_inputs() const noexcept { return inputs_.size(); }
  [[nodiscard]] std::size_t num_outputs() const noexcept { return outputs_.size(); }

  // Count of nodes with counts_as_gate(type): the S0 of the energy bounds.
  [[nodiscard]] std::size_t gate_count() const noexcept { return gate_count_; }

  // Position of `id` in the input list, or -1 if it is not an input.
  [[nodiscard]] int input_index(NodeId id) const noexcept {
    return is_valid(id) ? input_slot_[id] : -1;
  }

  // Node name; synthesizes "n<id>" when no name was assigned.
  [[nodiscard]] std::string node_name(NodeId id) const;
  // The names that were assigned, by node id; node_name synthesizes the
  // rest.
  [[nodiscard]] const std::unordered_map<NodeId, std::string>& node_names()
      const noexcept {
    return node_names_;
  }
  // Name of output port `pos` (falls back to the driving node's name).
  [[nodiscard]] std::string output_name(std::size_t pos) const;

  // True if `id` refers to an existing node.
  [[nodiscard]] bool is_valid(NodeId id) const noexcept {
    return id < types_.size();
  }

 private:
  NodeId append_node(GateType type, std::span<const NodeId> fanins,
                     int input_slot);
  NodeId append_gate(GateType type, std::span<const NodeId> fanins);
  void check_valid(NodeId id, const char* context) const {
    if (!is_valid(id)) [[unlikely]] throw_invalid(id, context);
  }
  [[noreturn]] static void throw_invalid(NodeId id, const char* context);

  std::string name_;
  std::vector<GateType> types_;
  // node_count() + 1 offsets once a node exists (empty before, and after a
  // move).
  std::vector<std::uint32_t> fanin_begin_;
  std::vector<NodeId> fanin_ids_;
  std::vector<int> input_slot_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<std::string> output_names_;
  std::unordered_map<NodeId, std::string> node_names_;
  std::size_t gate_count_ = 0;
};

}  // namespace enb::netlist
