#include "sim/logic_sim.hpp"

#include <stdexcept>
#include <string>

namespace enb::sim {

using netlist::Circuit;
using netlist::NodeId;

LogicSim::LogicSim(const Circuit& circuit)
    : circuit_(&circuit), values_(circuit.node_count(), 0) {}

void LogicSim::eval(std::span<const Word> input_words) {
  if (input_words.size() != circuit_->num_inputs()) {
    throw std::invalid_argument(
        "LogicSim::eval: expected " + std::to_string(circuit_->num_inputs()) +
        " input words, got " + std::to_string(input_words.size()));
  }
  const Circuit& c = *circuit_;
  for (NodeId id = 0; id < c.node_count(); ++id) {
    const int slot = c.input_index(id);
    values_[id] = slot >= 0 ? input_words[static_cast<std::size_t>(slot)]
                            : netlist::eval_gate<Word>(c.type(id), values_,
                                                       c.fanins(id));
  }
}

std::vector<Word> LogicSim::output_values() const {
  std::vector<Word> out;
  out.reserve(circuit_->num_outputs());
  for (NodeId id : circuit_->outputs()) out.push_back(values_[id]);
  return out;
}

std::vector<bool> eval_single(const Circuit& circuit,
                              const std::vector<bool>& inputs) {
  if (inputs.size() != circuit.num_inputs()) {
    throw std::invalid_argument("eval_single: input count mismatch");
  }
  std::vector<Word> words(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    words[i] = inputs[i] ? kAllOnes : 0;
  }
  LogicSim sim(circuit);
  sim.eval(words);
  std::vector<bool> out;
  out.reserve(circuit.num_outputs());
  for (NodeId id : circuit.outputs()) out.push_back((sim.value(id) & 1U) != 0);
  return out;
}

}  // namespace enb::sim
