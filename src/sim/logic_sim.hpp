// The good machine: sweep() is the one fault-free sweep, and LogicSim its
// 64-way one-word use. Node-id order is topological, so one linear pass
// sets every node: an input takes its slot's value, a gate its rule
// (eval_gate). V is sim::Word or sim::Block<W>. The visitor runs right
// after each node is set and may change the value before any fanout reads
// it: NoisySim injects errors there, the activity shards count there.
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/circuit.hpp"
#include "netlist/flat.hpp"
#include "sim/bitpack.hpp"

namespace enb::sim {

// values[id] for every node, given inputs[s] for the input in slot s
// (Circuit::input_index); calls visit(id, values[id]) after each node.
template <typename V, typename Visit>
void sweep(const netlist::Circuit& circuit, std::span<const V> inputs,
           std::span<V> values, Visit&& visit) {
  for (netlist::NodeId id = 0; id < circuit.node_count(); ++id) {
    const int slot = circuit.input_index(id);
    values[id] = slot >= 0 ? inputs[static_cast<std::size_t>(slot)]
                           : netlist::eval_gate<V>(
                                 circuit.type(id), std::span<const V>(values),
                                 circuit.fanins(id));
    visit(id, values[id]);
  }
}

class LogicSim {
 public:
  explicit LogicSim(const netlist::Circuit& circuit);

  // Evaluates all nodes for the given primary-input words (one word per
  // input, in circuit input order). Throws std::invalid_argument on a size
  // mismatch.
  void eval(std::span<const Word> input_words);

  [[nodiscard]] Word value(netlist::NodeId id) const { return values_.at(id); }
  [[nodiscard]] std::span<const Word> values() const noexcept { return values_; }

  // Values of the primary outputs, in output order.
  [[nodiscard]] std::vector<Word> output_values() const;

  [[nodiscard]] const netlist::Circuit& circuit() const noexcept {
    return *circuit_;
  }

 protected:
  // eval() with visit(id, value) after each node, as in sweep().
  template <typename Visit>
  void eval(std::span<const Word> input_words, Visit&& visit) {
    if (input_words.size() != circuit_->num_inputs()) {
      throw std::invalid_argument(
          "LogicSim::eval: expected " +
          std::to_string(circuit_->num_inputs()) + " input words, got " +
          std::to_string(input_words.size()));
    }
    sweep<Word>(*circuit_, input_words, values_, visit);
  }

 private:
  const netlist::Circuit* circuit_;
  std::vector<Word> values_;
};

// Single-vector convenience: evaluates `circuit` on one boolean assignment
// and returns the output bits.
[[nodiscard]] std::vector<bool> eval_single(const netlist::Circuit& circuit,
                                            const std::vector<bool>& inputs);

}  // namespace enb::sim
