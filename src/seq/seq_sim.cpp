#include "seq/seq_sim.hpp"

#include <stdexcept>

#include "sim/prng.hpp"

namespace enb::seq {

using netlist::NodeId;
using sim::Word;

SeqSim::SeqSim(const SeqCircuit& seq) : SeqSim(seq, 0.0, 0) {}

SeqSim::SeqSim(const SeqCircuit& seq, double epsilon, std::uint64_t seed)
    : seq_(&seq),
      core_(seq.core(), epsilon, seed),
      state_(seq.num_latches(), 0),
      core_inputs_(seq.core().num_inputs(), 0) {
  seq.validate();
  const netlist::Circuit& core = seq.core();
  for (const Latch& latch : seq.latches()) {
    latch_slots_.push_back(
        static_cast<std::size_t>(core.input_index(latch.state_output)));
  }
  for (const NodeId id : seq.free_inputs()) {
    free_slots_.push_back(static_cast<std::size_t>(core.input_index(id)));
  }
  reset();
}

void SeqSim::reset() {
  for (std::size_t l = 0; l < seq_->num_latches(); ++l) {
    state_[l] = seq_->latches()[l].initial_value ? sim::kAllOnes : 0;
  }
}

std::vector<Word> SeqSim::step(std::span<const Word> free_input_words) {
  if (free_input_words.size() != free_slots_.size()) {
    throw std::invalid_argument("SeqSim::step: free input count mismatch");
  }
  // Latch outputs come from the state, free inputs from the caller.
  for (std::size_t l = 0; l < latch_slots_.size(); ++l) {
    core_inputs_[latch_slots_[l]] = state_[l];
  }
  for (std::size_t i = 0; i < free_slots_.size(); ++i) {
    core_inputs_[free_slots_[i]] = free_input_words[i];
  }
  core_.eval(core_inputs_);
  // Latch the next state.
  for (std::size_t l = 0; l < seq_->num_latches(); ++l) {
    state_[l] = core_.value(seq_->latches()[l].next_state);
  }
  return core_.output_values();
}

NoisySeqSim::NoisySeqSim(const SeqCircuit& seq, double epsilon,
                         std::uint64_t seed)
    : inner_(seq, epsilon, seed) {}

std::vector<SeqReliabilityPoint> estimate_seq_reliability(
    const SeqCircuit& seq, double epsilon,
    const SeqReliabilityOptions& options) {
  if (options.cycles < 1 || options.word_passes < 1) {
    throw std::invalid_argument(
        "estimate_seq_reliability: cycles and word_passes must be >= 1");
  }
  const std::size_t free_count = seq.free_inputs().size();
  std::vector<std::uint64_t> output_failures(
      static_cast<std::size_t>(options.cycles), 0);
  std::vector<std::uint64_t> state_failures(
      static_cast<std::size_t>(options.cycles), 0);

  sim::Xoshiro256 rng(options.seed);
  for (std::uint64_t pass = 0; pass < options.word_passes; ++pass) {
    SeqSim golden(seq);
    NoisySeqSim noisy(seq, epsilon, rng.next());
    std::vector<Word> inputs(free_count);
    for (int cycle = 0; cycle < options.cycles; ++cycle) {
      for (Word& w : inputs) w = rng.next();
      const auto out_g = golden.step(inputs);
      const auto out_n = noisy.step(inputs);
      Word out_wrong = 0;
      for (std::size_t o = 0; o < out_g.size(); ++o) {
        out_wrong |= out_g[o] ^ out_n[o];
      }
      Word state_wrong = 0;
      for (std::size_t l = 0; l < seq.num_latches(); ++l) {
        state_wrong |= golden.state()[l] ^ noisy.state()[l];
      }
      output_failures[static_cast<std::size_t>(cycle)] +=
          static_cast<std::uint64_t>(sim::popcount(out_wrong));
      state_failures[static_cast<std::size_t>(cycle)] +=
          static_cast<std::uint64_t>(sim::popcount(state_wrong));
    }
  }

  const double trials =
      static_cast<double>(options.word_passes) * sim::kWordBits;
  std::vector<SeqReliabilityPoint> points;
  points.reserve(static_cast<std::size_t>(options.cycles));
  for (int cycle = 0; cycle < options.cycles; ++cycle) {
    SeqReliabilityPoint p;
    p.cycle = cycle;
    p.output_error =
        static_cast<double>(output_failures[static_cast<std::size_t>(cycle)]) /
        trials;
    p.state_error =
        static_cast<double>(state_failures[static_cast<std::size_t>(cycle)]) /
        trials;
    points.push_back(p);
  }
  return points;
}

}  // namespace enb::seq
