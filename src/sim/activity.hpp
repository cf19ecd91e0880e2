// Switching-activity and signal-probability estimation.
//
// The paper's circuit profiles need the average per-gate switching activity
// sw0 under random inputs (Section 6: "average switching activity of a
// generic gate ... obtained considering randomly generated inputs"). Under
// temporally independent vectors, sw(x) = P(x_t != x_{t+1}) = 2 p (1-p);
// the Monte-Carlo estimator below applies independent vector *pairs*, which
// realizes that definition directly. The exact route counts one-lanes over
// the full truth table and converts the probabilities through the identity,
// which is also exposed for other exact probabilities (the BDD package's).
// Both count in the visitor of the good-machine sweep (sim::sweep), 8 words
// per sweep; the noisy estimator runs sim::NoisySim one word per sweep.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/stream.hpp"
#include "exec/thread_pool.hpp"
#include "netlist/circuit.hpp"
#include "sim/bitpack.hpp"

namespace enb::sim {

struct ActivityResult {
  std::vector<double> one_probability;   // per node
  std::vector<double> toggle_rate;       // per node: P(value changes)
  double avg_gate_one_probability = 0.0; // mean over counts_as_gate nodes
  double avg_gate_toggle_rate = 0.0;     // the paper's sw0
  std::size_t sample_pairs = 0;
};

struct ActivityOptions {
  std::size_t sample_pairs = 1 << 14;  // vector pairs (64 lanes each)
  std::uint64_t seed = 1;
  double input_one_probability = 0.5;
  // Parallel execution. The pair budget is split into shards of
  // `shard_pairs`; shard i draws all randomness from a counter-based stream
  // seeded by (seed, i), so the estimate is bit-identical for every thread
  // count.
  std::size_t shard_pairs = 256;
};

// The Monte-Carlo estimate over random vector pairs as a sharded job (see
// exec::ShardedJob): per-node integer counts merge by sum. Throws
// std::invalid_argument on a zero sample budget.
[[nodiscard]] exec::ShardedJob<ActivityResult> activity_job(
    const netlist::Circuit& circuit, const ActivityOptions& options);

// Runs activity_job per `how` (results are bit-identical for any thread
// count).
[[nodiscard]] ActivityResult estimate_activity(
    const netlist::Circuit& circuit, const ActivityOptions& options = {},
    exec::Parallelism how = {});

// Exhaustive (exact) activity as a sharded job: each shard counts per-node
// one-lanes over a fixed run of truth-table blocks, the counts merge by sum
// (bit-identical for any thread count), and finish() takes p = ones / 2^n
// and sw = 2 p (1-p) (temporal independence). Throws std::invalid_argument
// above kMaxExhaustiveInputs inputs.
[[nodiscard]] exec::ShardedJob<ActivityResult> exact_activity_job(
    const netlist::Circuit& circuit);

// Runs exact_activity_job per `how`.
[[nodiscard]] ActivityResult exact_activity(const netlist::Circuit& circuit,
                                            exec::Parallelism how = {});

// Fills the avg_gate_* fields from the per-node rates: plain sums over the
// counts_as_gate nodes in node-id order, so equal per-node rates in equal
// gate order give bit-identical averages.
void finalize_gate_averages(const netlist::Circuit& circuit,
                            ActivityResult& result);

// Temporal-independence identity sw = 2 p (1 - p).
[[nodiscard]] constexpr double activity_from_probability(double p) noexcept {
  return 2.0 * p * (1.0 - p);
}

}  // namespace enb::sim
