// Noisy (ε-flip) simulation: the paper's error model in executable form.
//
// Each failure-prone gate is modeled as an error-free gate cascaded with a
// symmetric channel of error probability ε (paper Figure 1): after the gate's
// word is computed, each lane independently flips with probability ε.
// Primary inputs and constants never fail; per-gate ε overrides support
// heterogeneous-noise ablations.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"
#include "netlist/flat.hpp"
#include "sim/activity.hpp"
#include "sim/bitpack.hpp"
#include "sim/prng.hpp"

namespace enb::sim {

class NoisySim {
 public:
  // Uniform gate error probability `epsilon` in [0, 0.5].
  NoisySim(const netlist::Circuit& circuit, double epsilon,
           std::uint64_t seed);

  // Heterogeneous variant: `epsilons` holds one entry per node (entries for
  // inputs/constants are ignored).
  NoisySim(const netlist::Circuit& circuit, std::vector<double> epsilons,
           std::uint64_t seed);

  // Evaluates with fresh error draws. Each call consumes randomness, so two
  // calls with the same inputs model two independent noisy executions.
  void eval(std::span<const Word> input_words);

  [[nodiscard]] Word value(netlist::NodeId id) const { return values_.at(id); }
  [[nodiscard]] std::span<const Word> values() const noexcept { return values_; }
  [[nodiscard]] std::vector<Word> output_values() const;

  // Error words applied on the last eval (bit set == lane flipped), useful
  // for tests and fault-coverage statistics.
  [[nodiscard]] std::span<const Word> last_error_words() const noexcept {
    return errors_;
  }

 private:
  const netlist::Circuit* circuit_;
  std::vector<double> epsilons_;
  Xoshiro256 rng_;
  std::vector<Word> values_;
  std::vector<Word> errors_;
};

// Monte-Carlo switching activity of the *noisy* circuit: temporally
// independent vector pairs, each evaluated with fresh error draws — the
// executable version of Theorem 1's sw(z). Returns the usual ActivityResult
// (per-node toggle rates, per-gate average = the paper's sw_eps). The job is
// sharded like sim::activity_job and shares its counts and reduction (both
// are defined in activity.cpp). Throws std::invalid_argument on a zero
// sample budget.
[[nodiscard]] exec::ShardedJob<ActivityResult> noisy_activity_job(
    const netlist::Circuit& circuit, double epsilon,
    const ActivityOptions& options);

[[nodiscard]] ActivityResult estimate_noisy_activity(
    const netlist::Circuit& circuit, double epsilon,
    const ActivityOptions& options = {}, exec::Parallelism how = {});

}  // namespace enb::sim
