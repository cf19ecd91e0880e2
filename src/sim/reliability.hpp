// Monte-Carlo reliability estimation: the empirical counterpart of the
// paper's δ.
//
// A circuit (1-δ)-reliably computes f when, with probability at least 1-δ,
// the entire output vector is correct. The estimator runs the noisy and the
// golden simulation on the same random inputs (64 independent trials per
// word pass) and reports the failure fraction with a Wilson confidence
// interval.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/stream.hpp"
#include "exec/thread_pool.hpp"
#include "netlist/circuit.hpp"
#include "sim/bitpack.hpp"

namespace enb::sim {

struct ReliabilityResult {
  double delta_hat = 0.0;  // estimated P(any output wrong)
  double ci_low = 0.0;     // 95% Wilson interval
  double ci_high = 0.0;
  // The word-parallel simulator executes whole 64-trial passes, so `trials`
  // (the denominator of delta_hat) is the requested count rounded up to a
  // multiple of 64. `requested_trials` echoes what the caller asked for, so
  // downstream consumers (CSV, batch manifests) never mis-normalize failure
  // rates against the wrong denominator.
  std::uint64_t trials = 0;            // executed trials (64-rounded)
  std::uint64_t requested_trials = 0;  // options.trials as requested
  std::uint64_t failures = 0;
};

struct ReliabilityOptions {
  std::uint64_t trials = 1 << 16;  // rounded up to a multiple of 64
  std::uint64_t seed = 7;
  double input_one_probability = 0.5;
  // Parallel execution. The word passes (64 trials each) are split into
  // shards of `shard_passes`; shard i derives all randomness (inputs and its
  // private fault-injection stream) from a counter-based stream of (seed, i),
  // so delta_hat is bit-identical for every thread count.
  std::uint64_t shard_passes = 32;
};

// 95% Wilson score interval for `successes` out of `trials`.
[[nodiscard]] ReliabilityResult wilson_interval(std::uint64_t failures,
                                                std::uint64_t trials);

// The estimate of δ when `noisy` (a redundant implementation, every gate
// failing independently with probability `epsilon`) must reproduce
// `golden`'s input/output behaviour, as a sharded job (see
// exec::ShardedJob): failures merge by integer sum. Throws
// std::invalid_argument when the two circuits disagree on input or output
// counts (inputs match positionally) or on a zero trial budget.
[[nodiscard]] exec::ShardedJob<ReliabilityResult> reliability_job(
    const netlist::Circuit& noisy, const netlist::Circuit& golden,
    double epsilon, const ReliabilityOptions& options);

// Estimates δ for `circuit` against its own fault-free behaviour.
[[nodiscard]] ReliabilityResult estimate_reliability(
    const netlist::Circuit& circuit, double epsilon,
    const ReliabilityOptions& options = {}, exec::Parallelism how = {});

// Runs reliability_job per `how`.
[[nodiscard]] ReliabilityResult estimate_reliability_vs(
    const netlist::Circuit& noisy, const netlist::Circuit& golden,
    double epsilon, const ReliabilityOptions& options = {},
    exec::Parallelism how = {});

// Worst-case-input reliability. The theorems' δ quantifies over *every*
// input ("with probability 1−δ, the output of the circuit is correct"), so
// the input-averaged estimate above understates the achieved δ whenever some
// inputs are more fragile than others (e.g. long carry chains). This
// estimator fixes a set of sampled input vectors and measures each one's
// failure rate across independent noise draws, reporting the maximum.
struct WorstCaseOptions {
  std::uint64_t num_inputs = 64;        // sampled input vectors
  std::uint64_t trials_per_input = 1 << 12;  // noise draws per vector
  std::uint64_t seed = 0xBAD1;
};

struct WorstCaseResult {
  ReliabilityResult worst;              // CI for the worst sampled input
  double average_delta = 0.0;           // mean over sampled inputs
  std::vector<bool> worst_input;        // the argmax assignment
};

// The worst-case estimate as a sharded job with one shard per sampled
// input. Sampled inputs are independent, so each gets its own counter-based
// stream of (seed, sample) and writes its failure count into its own slot;
// the argmax reduction runs serially in sample order, keeping the result
// thread-count independent. Throws std::invalid_argument on an interface
// mismatch or zero counts.
[[nodiscard]] exec::ShardedJob<WorstCaseResult> worst_case_job(
    const netlist::Circuit& noisy, const netlist::Circuit& golden,
    double epsilon, const WorstCaseOptions& options);

[[nodiscard]] WorstCaseResult estimate_worst_case_reliability(
    const netlist::Circuit& noisy, const netlist::Circuit& golden,
    double epsilon, const WorstCaseOptions& options = {},
    exec::Parallelism how = {});

}  // namespace enb::sim
