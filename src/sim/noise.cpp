#include "sim/noise.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace enb::sim {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

NoisySim::NoisySim(const Circuit& circuit, double epsilon, std::uint64_t seed)
    : NoisySim(circuit,
               std::vector<double>(circuit.node_count(), epsilon), seed) {}

NoisySim::NoisySim(const Circuit& circuit, std::vector<double> epsilons,
                   std::uint64_t seed)
    : circuit_(&circuit),
      epsilons_(std::move(epsilons)),
      rng_(seed),
      values_(circuit.node_count(), 0),
      errors_(circuit.node_count(), 0) {
  if (epsilons_.size() != circuit.node_count()) {
    throw std::invalid_argument("NoisySim: epsilon vector size mismatch");
  }
  for (double e : epsilons_) {
    if (e < 0.0 || e > 0.5) {
      throw std::invalid_argument(
          "NoisySim: epsilon must be in [0, 0.5], got " + std::to_string(e));
    }
  }
}

void NoisySim::eval(std::span<const Word> input_words) {
  if (input_words.size() != circuit_->num_inputs()) {
    throw std::invalid_argument("NoisySim::eval: input word count mismatch");
  }
  // Error draws in node-id order: the RNG stream is part of every noisy
  // estimator's reproducibility contract.
  const Circuit& c = *circuit_;
  for (NodeId id = 0; id < c.node_count(); ++id) {
    const int slot = c.input_index(id);
    if (slot >= 0) {
      values_[id] = input_words[static_cast<std::size_t>(slot)];
      errors_[id] = 0;
      continue;
    }
    const GateType type = c.type(id);
    const Word clean = netlist::eval_gate<Word>(type, values_, c.fanins(id));
    if (counts_as_gate(type) && epsilons_[id] > 0.0) {
      errors_[id] = bernoulli_word(rng_, epsilons_[id]);
      values_[id] = clean ^ errors_[id];
    } else {
      errors_[id] = 0;
      values_[id] = clean;
    }
  }
}

std::vector<Word> NoisySim::output_values() const {
  std::vector<Word> out;
  out.reserve(circuit_->num_outputs());
  for (NodeId id : circuit_->outputs()) out.push_back(values_[id]);
  return out;
}

}  // namespace enb::sim
