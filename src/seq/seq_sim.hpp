// Cycle-accurate sequential simulation, clean and noisy, 64 independent
// trials per word pass. The noisy variant measures how state errors
// accumulate over cycles — the quantity the paper's combinational theory
// does not cover and its future-work section points at.
#pragma once

#include <cstdint>
#include <vector>

#include "seq/seq_circuit.hpp"
#include "sim/bitpack.hpp"
#include "sim/noise.hpp"
#include "sim/reliability.hpp"

namespace enb::seq {

// Clean cycle simulator. Lane L of every word is an independent machine.
class SeqSim {
 public:
  explicit SeqSim(const SeqCircuit& seq);

  // Resets all lanes to the latch initial values.
  void reset();

  // Applies one clock cycle with the given free-input words (order =
  // SeqCircuit::free_inputs()). Returns the primary-output words.
  std::vector<sim::Word> step(std::span<const sim::Word> free_input_words);

  // Present-state words, in latch order.
  [[nodiscard]] const std::vector<sim::Word>& state() const noexcept {
    return state_;
  }

 private:
  friend class NoisySeqSim;
  // Each cycle evaluates the combinational core as a sim::NoisySim; the
  // clean machine is the ε = 0 case, which draws no randomness.
  SeqSim(const SeqCircuit& seq, double epsilon, std::uint64_t seed);

  const SeqCircuit* seq_;
  sim::NoisySim core_;
  std::vector<std::size_t> latch_slots_;  // core input position per latch
  std::vector<std::size_t> free_slots_;   // core input position per free input
  std::vector<sim::Word> state_;
  std::vector<sim::Word> core_inputs_;
};

// Noisy cycle simulator: every core gate output flips with probability ε per
// cycle (latches themselves are assumed reliable; gate errors corrupt the
// values they capture — matching the paper's gate-level error model).
// Throws std::invalid_argument unless ε is in [0, 0.5].
class NoisySeqSim {
 public:
  NoisySeqSim(const SeqCircuit& seq, double epsilon, std::uint64_t seed);

  void reset() { inner_.reset(); }
  std::vector<sim::Word> step(std::span<const sim::Word> free_input_words) {
    return inner_.step(free_input_words);
  }
  [[nodiscard]] const std::vector<sim::Word>& state() const noexcept {
    return inner_.state_;
  }

 private:
  SeqSim inner_;
};

// Multi-cycle reliability: runs golden and noisy machines in lock-step on
// shared random inputs for `cycles` cycles and reports, per cycle, the
// fraction of lanes whose *output* is wrong at that cycle and whose *state*
// diverges. Trials = 64 × `word_passes`.
struct SeqReliabilityPoint {
  int cycle = 0;
  double output_error = 0.0;  // P(any primary output wrong at this cycle)
  double state_error = 0.0;   // P(any latch differs at end of this cycle)
};

struct SeqReliabilityOptions {
  int cycles = 16;
  std::uint64_t word_passes = 64;  // 64 trials each
  std::uint64_t seed = 0xCAFE;
};

[[nodiscard]] std::vector<SeqReliabilityPoint> estimate_seq_reliability(
    const SeqCircuit& seq, double epsilon,
    const SeqReliabilityOptions& options = {});

}  // namespace enb::seq
