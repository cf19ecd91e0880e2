#include "sim/reliability.hpp"

#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "exec/thread_pool.hpp"
#include "sim/logic_sim.hpp"
#include "sim/noise.hpp"
#include "sim/prng.hpp"

namespace enb::sim {

using netlist::Circuit;

namespace {

// One fixed assignment per worst-case sample, broadcast to all lanes: every
// lane is an independent noise draw for the *same* input. The assignment is
// a pure function of (seed, sample), so callers re-derive the argmax winner
// instead of storing every candidate. The first draw of the sample's stream
// seeds its private noise source; the assignment bits follow.
std::pair<std::vector<bool>, std::uint64_t> worst_case_sample_assignment(
    const Circuit& noisy, const WorstCaseOptions& options, std::size_t sample,
    std::vector<Word>* inputs) {
  Xoshiro256 rng(
      exec::stream_seed(options.seed, static_cast<std::uint64_t>(sample)));
  const std::uint64_t noise_seed = rng.next();
  std::vector<bool> current(noisy.num_inputs());
  for (std::size_t i = 0; i < current.size(); ++i) {
    current[i] = (rng.next() & 1U) != 0;
    if (inputs != nullptr) (*inputs)[i] = current[i] ? kAllOnes : 0;
  }
  return {std::move(current), noise_seed};
}

std::uint64_t worst_case_passes(const WorstCaseOptions& options) {
  return (options.trials_per_input + kWordBits - 1) / kWordBits;
}

// Failures contributed by one shard of word passes; a pure function of
// (options.seed, shard.index).
std::uint64_t reliability_shard_failures(const Circuit& noisy,
                                         const Circuit& golden, double epsilon,
                                         const ReliabilityOptions& options,
                                         const exec::Shard& shard) {
  Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
  NoisySim noisy_sim(noisy, epsilon, rng.next());
  LogicSim golden_sim(golden);
  std::vector<Word> inputs(noisy.num_inputs());

  std::uint64_t failures = 0;
  for (std::size_t pass = shard.begin; pass < shard.end; ++pass) {
    for (Word& w : inputs) {
      w = options.input_one_probability == 0.5
              ? rng.next()
              : bernoulli_word(rng, options.input_one_probability);
    }
    noisy_sim.eval(inputs);
    golden_sim.eval(inputs);
    Word wrong = 0;
    for (std::size_t o = 0; o < noisy.num_outputs(); ++o) {
      wrong |= noisy_sim.value(noisy.outputs()[o]) ^
               golden_sim.value(golden.outputs()[o]);
    }
    failures += static_cast<std::uint64_t>(popcount(wrong));
  }
  return failures;
}

// Failures of sampled input `sample` across options.trials_per_input noise
// draws (rounded up to 64-trial passes).
std::uint64_t worst_case_sample_failures(const Circuit& noisy,
                                         const Circuit& golden, double epsilon,
                                         const WorstCaseOptions& options,
                                         std::size_t sample) {
  std::vector<Word> inputs(noisy.num_inputs());
  const std::uint64_t noise_seed =
      worst_case_sample_assignment(noisy, options, sample, &inputs).second;
  NoisySim noisy_sim(noisy, epsilon, noise_seed);
  LogicSim golden_sim(golden);
  golden_sim.eval(inputs);
  std::uint64_t failures = 0;
  const std::uint64_t passes = worst_case_passes(options);
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    noisy_sim.eval(inputs);
    Word wrong = 0;
    for (std::size_t o = 0; o < noisy.num_outputs(); ++o) {
      wrong |= noisy_sim.value(noisy.outputs()[o]) ^
               golden_sim.value(golden.outputs()[o]);
    }
    failures += static_cast<std::uint64_t>(popcount(wrong));
  }
  return failures;
}

// Serial reduction over per-sample failure counts: argmax, average, and the
// argmax assignment re-derived from its stream.
WorstCaseResult finalize_worst_case(
    const Circuit& noisy, const WorstCaseOptions& options,
    const std::vector<std::uint64_t>& sample_failures) {
  const std::uint64_t executed = worst_case_passes(options) * kWordBits;
  WorstCaseResult result;
  std::uint64_t worst_failures = 0;
  std::size_t worst_sample = 0;
  double delta_sum = 0.0;
  for (std::size_t sample = 0; sample < sample_failures.size(); ++sample) {
    delta_sum += static_cast<double>(sample_failures[sample]) /
                 static_cast<double>(executed);
    if (sample_failures[sample] >= worst_failures) {
      worst_failures = sample_failures[sample];
      worst_sample = sample;
    }
  }
  result.worst_input =
      worst_case_sample_assignment(noisy, options, worst_sample, nullptr)
          .first;
  result.worst = wilson_interval(worst_failures, executed);
  result.worst.requested_trials = options.trials_per_input;
  result.average_delta = delta_sum / static_cast<double>(options.num_inputs);
  return result;
}

}  // namespace

ReliabilityResult wilson_interval(std::uint64_t failures,
                                  std::uint64_t trials) {
  ReliabilityResult r;
  r.trials = trials;
  r.requested_trials = trials;
  r.failures = failures;
  if (trials == 0) return r;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(failures) / n;
  r.delta_hat = p;
  constexpr double z = 1.959963984540054;  // 97.5th percentile of N(0,1)
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  r.ci_low = std::max(0.0, center - half);
  r.ci_high = std::min(1.0, center + half);
  return r;
}

// Sharded over word passes: shard i's inputs and fault injections derive
// from the counter-based stream of (seed, i), and failures combine through
// an order-insensitive integer sum — bit-identical for any thread count.
exec::ShardedJob<ReliabilityResult> reliability_job(
    const Circuit& noisy, const Circuit& golden, double epsilon,
    const ReliabilityOptions& options) {
  if (noisy.num_inputs() != golden.num_inputs() ||
      noisy.num_outputs() != golden.num_outputs()) {
    throw std::invalid_argument(
        "estimate_reliability_vs: interface mismatch between noisy and "
        "golden circuits");
  }
  if (options.trials == 0) {
    throw std::invalid_argument("estimate_reliability: trials must be > 0");
  }
  const std::uint64_t passes = (options.trials + kWordBits - 1) / kWordBits;
  const exec::ShardPlan plan(static_cast<std::size_t>(passes),
                             static_cast<std::size_t>(options.shard_passes));
  auto failures = std::make_shared<std::atomic<std::uint64_t>>(0);
  return {plan.num_shards(),
          [&noisy, &golden, epsilon, options, plan,
           failures](std::size_t i) {
            failures->fetch_add(
                reliability_shard_failures(noisy, golden, epsilon, options,
                                           plan.shard(i)),
                std::memory_order_relaxed);
          },
          [plan, requested = options.trials, failures] {
            ReliabilityResult result =
                wilson_interval(failures->load(), plan.total() * kWordBits);
            result.requested_trials = requested;
            return result;
          }};
}

ReliabilityResult estimate_reliability_vs(const Circuit& noisy,
                                          const Circuit& golden,
                                          double epsilon,
                                          const ReliabilityOptions& options,
                                          exec::Parallelism how) {
  return exec::run(reliability_job(noisy, golden, epsilon, options), how);
}

ReliabilityResult estimate_reliability(const Circuit& circuit, double epsilon,
                                       const ReliabilityOptions& options,
                                       exec::Parallelism how) {
  return estimate_reliability_vs(circuit, circuit, epsilon, options, how);
}

exec::ShardedJob<WorstCaseResult> worst_case_job(
    const Circuit& noisy, const Circuit& golden, double epsilon,
    const WorstCaseOptions& options) {
  if (noisy.num_inputs() != golden.num_inputs() ||
      noisy.num_outputs() != golden.num_outputs()) {
    throw std::invalid_argument(
        "estimate_worst_case_reliability: interface mismatch");
  }
  if (options.num_inputs == 0 || options.trials_per_input == 0) {
    throw std::invalid_argument(
        "estimate_worst_case_reliability: counts must be > 0");
  }
  // Slot per sample: disjoint writes, read by finish() after every shard.
  auto sample_failures = std::make_shared<std::vector<std::uint64_t>>(
      static_cast<std::size_t>(options.num_inputs), 0);
  return {sample_failures->size(),
          [&noisy, &golden, epsilon, options,
           sample_failures](std::size_t sample) {
            (*sample_failures)[sample] = worst_case_sample_failures(
                noisy, golden, epsilon, options, sample);
          },
          [&noisy, options, sample_failures] {
            return finalize_worst_case(noisy, options, *sample_failures);
          }};
}

WorstCaseResult estimate_worst_case_reliability(
    const Circuit& noisy, const Circuit& golden, double epsilon,
    const WorstCaseOptions& options, exec::Parallelism how) {
  return exec::run(worst_case_job(noisy, golden, epsilon, options), how);
}

}  // namespace enb::sim
