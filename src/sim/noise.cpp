#include "sim/noise.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace enb::sim {

using netlist::Circuit;
using netlist::NodeId;

NoisySim::NoisySim(const Circuit& circuit, double epsilon, std::uint64_t seed)
    : NoisySim(circuit,
               std::vector<double>(circuit.node_count(), epsilon), seed) {}

NoisySim::NoisySim(const Circuit& circuit, std::vector<double> epsilons,
                   std::uint64_t seed)
    : LogicSim(circuit),
      epsilons_(std::move(epsilons)),
      rng_(seed),
      errors_(circuit.node_count(), 0) {
  if (epsilons_.size() != circuit.node_count()) {
    throw std::invalid_argument("NoisySim: epsilon vector size mismatch");
  }
  for (double e : epsilons_) {
    if (!(e >= 0.0 && e <= 0.5)) {  // NaN fails both comparisons
      throw std::invalid_argument(
          "NoisySim: epsilon must be in [0, 0.5], got " + std::to_string(e));
    }
  }
}

void NoisySim::eval(std::span<const Word> input_words) {
  const Circuit& c = circuit();
  LogicSim::eval(input_words, [&](NodeId id, Word& value) {
    const bool noisy = counts_as_gate(c.type(id)) && epsilons_[id] > 0.0;
    errors_[id] = noisy ? bernoulli_word(rng_, epsilons_[id]) : 0;
    value ^= errors_[id];
  });
}

}  // namespace enb::sim
