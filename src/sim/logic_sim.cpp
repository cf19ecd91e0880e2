#include "sim/logic_sim.hpp"

namespace enb::sim {

using netlist::Circuit;
using netlist::NodeId;

LogicSim::LogicSim(const Circuit& circuit)
    : circuit_(&circuit), values_(circuit.node_count(), 0) {}

void LogicSim::eval(std::span<const Word> input_words) {
  eval(input_words, [](NodeId, Word) {});
}

std::vector<Word> LogicSim::output_values() const {
  std::vector<Word> out;
  out.reserve(circuit_->num_outputs());
  for (NodeId id : circuit_->outputs()) out.push_back(values_[id]);
  return out;
}

std::vector<bool> eval_single(const Circuit& circuit,
                              const std::vector<bool>& inputs) {
  std::vector<Word> words(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    words[i] = inputs[i] ? kAllOnes : 0;
  }
  LogicSim sim(circuit);
  sim.eval(words);  // throws on an input count mismatch
  std::vector<bool> out;
  for (const Word w : sim.output_values()) out.push_back((w & 1U) != 0);
  return out;
}

}  // namespace enb::sim
