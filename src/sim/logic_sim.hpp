// 64-way bit-parallel logic simulator.
//
// One eval() pass computes 64 independent evaluations (one per bit lane) of
// every node in the circuit; node-id order is topological by construction,
// so evaluation is a single linear sweep over the circuit's flat layout.
#pragma once

#include <span>
#include <vector>

#include "netlist/circuit.hpp"
#include "netlist/flat.hpp"
#include "sim/bitpack.hpp"

namespace enb::sim {

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

 private:
  const netlist::Circuit* circuit_;
  std::vector<Word> values_;
};

// Single-vector convenience: evaluates `circuit` on one boolean assignment
// and returns the output bits.
[[nodiscard]] std::vector<bool> eval_single(const netlist::Circuit& circuit,
                                            const std::vector<bool>& inputs);

}  // namespace enb::sim
