// Event-driven flip propagation on pattern blocks: the one answer to "what
// changes when this node flips?". BlockSim<W> holds a sim::Block<W> (64 W
// patterns, one per bit) per node. eval() sets the good machine; flip(node)
// complements `node` on every pattern and evaluates only the nodes the
// change reaches over the fanout inverse, stopping wherever a whole block
// keeps its value; restore() rewrites just the nodes the flip changed. A
// flip reaches nearly the same nodes whatever number of patterns it
// carries, so one event grades up to 512 patterns. The fault kernel flips
// fanout-free-region stems (fault/fault_sim.hpp) and the sensitivity sweep
// flips primary inputs (sim/sensitivity.hpp); each caller owns its
// BlockSim and may share the Circuit and Fanouts read-only. The loop lives
// in this header, so each caller compiles it for the widths it uses.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "netlist/circuit.hpp"
#include "netlist/flat.hpp"
#include "sim/bitpack.hpp"

namespace enb::sim {

template <int W>
class BlockSim {
 public:
  using NodeId = netlist::NodeId;
  using Value = Block<W>;

  // `circuit` and `fanouts` (its fanout inverse) must outlive the simulator.
  BlockSim(const netlist::Circuit& circuit, const netlist::Fanouts& fanouts)
      : circuit_(&circuit),
        fanouts_(&fanouts),
        values_(circuit.node_count()),
        pending_(circuit.node_count() / kWordBits + 1, 0) {}

  // The good machine: inputs[s] is the block of the input in slot s
  // (Circuit::input_index), one per circuit input. Not during a flip.
  void eval(std::span<const Value> inputs) {
    for (NodeId id = 0; id < circuit_->node_count(); ++id) {
      const int slot = circuit_->input_index(id);
      values_[id] = slot >= 0 ? inputs[static_cast<std::size_t>(slot)]
                              : gate_value(id);
    }
  }

  // Complements `node` on every pattern and propagates the change; value()
  // reads the flipped machine until restore(), which must come before the
  // next flip. Returns the gate evaluations the propagation spent.
  std::uint64_t flip(NodeId node) {
    touched_.emplace_back(node, values_[node]);
    values_[node] = ~values_[node];
    const std::span<const NodeId> node_fanouts = fanouts_->of(node);
    if (node_fanouts.empty()) return 0;
    // Ids are topological and every fanout has a larger id than its driver,
    // so scanning the pending bitset upward evaluates each queued node once,
    // after all of its fanins.
    Value* values = values_.data();
    Word* pending = pending_.data();
    std::uint64_t events = 0;
    std::size_t last = 0;
    queue_fanouts(node_fanouts, pending, last);
    for (std::size_t w = node_fanouts.front() / kWordBits; w <= last; ++w) {
      while (pending[w] != 0) {
        const Word bits = pending[w];
        pending[w] = bits & (bits - 1);
        const auto id = static_cast<NodeId>(
            w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits)));
        const Value value = gate_value(id);
        ++events;
        if (value == values[id]) continue;
        touched_.emplace_back(id, values[id]);
        values[id] = value;
        queue_fanouts(fanouts_->of(id), pending, last);
      }
    }
    return events;
  }

  // Puts back the good machine after a flip.
  void restore() {
    for (const auto& [id, good] : touched_) values_[id] = good;
    touched_.clear();
  }

  // The patterns on which `gate` depends on its fanin `fanin`: the gate's
  // value with that fanin read as all-ones XOR as all-zeros.
  [[nodiscard]] Value gate_difference(NodeId gate, NodeId fanin) {
    const Value kept = values_[fanin];
    values_[fanin] = ~Value{};
    const Value high = gate_value(gate);
    values_[fanin] = Value{};
    const Value low = gate_value(gate);
    values_[fanin] = kept;
    return high ^ low;
  }

  [[nodiscard]] const Value& value(NodeId id) const noexcept {
    return values_[id];
  }

 private:
  [[nodiscard]] Value gate_value(NodeId id) const noexcept {
    return netlist::eval_gate<Value>(circuit_->type(id), values_,
                                     circuit_->fanins(id));
  }

  // Queues `fanouts`; they ascend, so the last bounds the scan.
  static void queue_fanouts(std::span<const NodeId> fanouts, Word* pending,
                            std::size_t& last) noexcept {
    for (const NodeId f : fanouts) {
      pending[f / kWordBits] |= Word{1} << (f % kWordBits);
    }
    if (!fanouts.empty()) {
      last = std::max<std::size_t>(last, fanouts.back() / kWordBits);
    }
  }

  const netlist::Circuit* circuit_;
  const netlist::Fanouts* fanouts_;
  std::vector<Value> values_;
  std::vector<Word> pending_;  // node ids queued for the running flip
  std::vector<std::pair<NodeId, Value>> touched_;  // their good values
};

// Calls fn(std::integral_constant<int, W>{}) with the narrowest W of 1, 2,
// 4 or 8 that holds `words` words (1..8), and returns its result.
template <typename Fn>
decltype(auto) with_block_width(int words, Fn&& fn) {
  if (words <= 1) return fn(std::integral_constant<int, 1>{});
  if (words <= 2) return fn(std::integral_constant<int, 2>{});
  if (words <= 4) return fn(std::integral_constant<int, 4>{});
  return fn(std::integral_constant<int, kBlockWords>{});
}

}  // namespace enb::sim
