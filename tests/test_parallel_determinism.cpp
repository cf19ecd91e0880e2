// Thread-count independence of the parallel Monte-Carlo engine.
//
// Every estimator shards its trial budget into counter-based PRNG streams
// and combines shard accumulators with order-insensitive integer reductions,
// so at a fixed seed the serial path, the global pool and any dedicated pool
// size must produce *bit-identical* results — not merely statistically close
// ones. Thread control routes through the estimators' exec::Parallelism
// parameter (the unified knob of PR 3). These tests pin that contract.
#include <gtest/gtest.h>

#include <vector>

#include "exec/thread_pool.hpp"
#include "ft/nmr.hpp"
#include "gen/adders.hpp"
#include "gen/iscas.hpp"
#include "gen/multipliers.hpp"
#include "gen/parity.hpp"
#include "sim/activity.hpp"
#include "sim/noise.hpp"
#include "sim/reliability.hpp"
#include "sim/sensitivity.hpp"

namespace enb::sim {
namespace {

// Parallelism settings to compare against the serial reference: the global
// pool, a single dedicated worker and two oversubscribed pools.
const exec::Parallelism kParallelisms[] = {exec::Parallelism::global_pool(),
                                           exec::Parallelism::dedicated(2),
                                           exec::Parallelism::dedicated(5)};

TEST(ParallelDeterminism, ActivityBitExactAcrossThreadCounts) {
  const auto c = gen::array_multiplier(4);
  ActivityOptions options;
  options.sample_pairs = 1234;  // non-multiple of shard size on purpose
  options.shard_pairs = 64;
  options.seed = 77;
  const ActivityResult serial =
      estimate_activity(c, options, exec::Parallelism::serial());
  for (const exec::Parallelism how : kParallelisms) {
    const ActivityResult parallel = estimate_activity(c, options, how);
    EXPECT_EQ(serial.one_probability, parallel.one_probability)
        << "threads=" << how.threads;
    EXPECT_EQ(serial.toggle_rate, parallel.toggle_rate)
        << "threads=" << how.threads;
    EXPECT_EQ(serial.avg_gate_toggle_rate, parallel.avg_gate_toggle_rate)
        << "threads=" << how.threads;
  }
}

TEST(ParallelDeterminism, ActivityBiasedInputsBitExact) {
  const auto c = gen::ripple_carry_adder(4);
  ActivityOptions options;
  options.sample_pairs = 300;
  options.shard_pairs = 32;
  options.input_one_probability = 0.2;
  const ActivityResult serial =
      estimate_activity(c, options, exec::Parallelism::serial());
  const ActivityResult parallel =
      estimate_activity(c, options, exec::Parallelism::dedicated(4));
  EXPECT_EQ(serial.one_probability, parallel.one_probability);
  EXPECT_EQ(serial.toggle_rate, parallel.toggle_rate);
}

TEST(ParallelDeterminism, NoisyActivityBitExactAcrossThreadCounts) {
  const auto c = gen::c17();
  ActivityOptions options;
  options.sample_pairs = 500;
  options.shard_pairs = 64;
  options.seed = 3;
  const ActivityResult serial =
      estimate_noisy_activity(c, 0.05, options, exec::Parallelism::serial());
  for (const exec::Parallelism how : kParallelisms) {
    const ActivityResult parallel =
        estimate_noisy_activity(c, 0.05, options, how);
    EXPECT_EQ(serial.one_probability, parallel.one_probability)
        << "threads=" << how.threads;
    EXPECT_EQ(serial.toggle_rate, parallel.toggle_rate)
        << "threads=" << how.threads;
  }
}

TEST(ParallelDeterminism, ReliabilityBitExactAcrossThreadCounts) {
  const auto base = gen::ripple_carry_adder(4);
  const auto tmr = ft::nmr_transform(base).circuit;
  ReliabilityOptions options;
  options.trials = 1 << 14;
  options.shard_passes = 16;
  options.seed = 19;
  const ReliabilityResult serial = estimate_reliability_vs(
      tmr, base, 0.01, options, exec::Parallelism::serial());
  for (const exec::Parallelism how : kParallelisms) {
    const ReliabilityResult parallel =
        estimate_reliability_vs(tmr, base, 0.01, options, how);
    EXPECT_EQ(serial.failures, parallel.failures)
        << "threads=" << how.threads;
    EXPECT_EQ(serial.delta_hat, parallel.delta_hat)
        << "threads=" << how.threads;
    EXPECT_EQ(serial.ci_low, parallel.ci_low) << "threads=" << how.threads;
    EXPECT_EQ(serial.ci_high, parallel.ci_high) << "threads=" << how.threads;
  }
}

TEST(ParallelDeterminism, WorstCaseBitExactAcrossThreadCounts) {
  const auto c = gen::c17();
  WorstCaseOptions options;
  options.num_inputs = 40;
  options.trials_per_input = 1 << 9;
  const WorstCaseResult serial = estimate_worst_case_reliability(
      c, c, 0.05, options, exec::Parallelism::serial());
  for (const exec::Parallelism how : kParallelisms) {
    const WorstCaseResult parallel =
        estimate_worst_case_reliability(c, c, 0.05, options, how);
    EXPECT_EQ(serial.worst.failures, parallel.worst.failures)
        << "threads=" << how.threads;
    EXPECT_EQ(serial.average_delta, parallel.average_delta)
        << "threads=" << how.threads;
    EXPECT_EQ(serial.worst_input, parallel.worst_input)
        << "threads=" << how.threads;
  }
}

TEST(ParallelDeterminism, SensitivitySampledBitExactAcrossThreadCounts) {
  const auto c = gen::array_multiplier(8);  // 16 inputs
  SensitivityOptions options;
  options.max_exact_inputs = 8;  // force the sampled path
  options.sample_words = 96;
  options.shard_words = 16;
  const SensitivityResult serial =
      compute_sensitivity(c, options, exec::Parallelism::serial());
  ASSERT_FALSE(serial.exact);
  for (const exec::Parallelism how : kParallelisms) {
    const SensitivityResult parallel = compute_sensitivity(c, options, how);
    EXPECT_EQ(serial.sensitivity, parallel.sensitivity)
        << "threads=" << how.threads;
    EXPECT_EQ(serial.influence, parallel.influence)
        << "threads=" << how.threads;
    EXPECT_EQ(serial.assignments, parallel.assignments)
        << "threads=" << how.threads;
  }
}

TEST(ParallelDeterminism, SensitivityExactBitExactAcrossThreadCounts) {
  const auto c = gen::ripple_carry_adder(4);  // 9 inputs, 8 blocks
  SensitivityOptions options;
  options.shard_words = 2;
  const SensitivityResult serial =
      compute_sensitivity(c, options, exec::Parallelism::serial());
  ASSERT_TRUE(serial.exact);
  for (const exec::Parallelism how : kParallelisms) {
    const SensitivityResult parallel = compute_sensitivity(c, options, how);
    EXPECT_EQ(serial.sensitivity, parallel.sensitivity)
        << "threads=" << how.threads;
    EXPECT_EQ(serial.influence, parallel.influence)
        << "threads=" << how.threads;
    EXPECT_EQ(serial.assignments, parallel.assignments)
        << "threads=" << how.threads;
  }
}

TEST(ParallelDeterminism, ExactActivityBitExactAcrossThreadCounts) {
  // mult8 has 16 inputs (1024 blocks, 16 shards), parity16 the same count
  // over a tree, c17 one partial block.
  const netlist::Circuit circuits[] = {gen::array_multiplier(8),
                                       gen::parity_tree(16), gen::c17()};
  for (const netlist::Circuit& c : circuits) {
    const ActivityResult serial =
        exact_activity(c, exec::Parallelism::serial());
    for (const exec::Parallelism how :
         {exec::Parallelism::global_pool(), exec::Parallelism::dedicated(64)}) {
      const ActivityResult parallel = exact_activity(c, how);
      EXPECT_EQ(serial.one_probability, parallel.one_probability)
          << c.name() << " threads=" << how.threads;
      EXPECT_EQ(serial.toggle_rate, parallel.toggle_rate)
          << c.name() << " threads=" << how.threads;
      EXPECT_EQ(serial.avg_gate_one_probability,
                parallel.avg_gate_one_probability)
          << c.name() << " threads=" << how.threads;
      EXPECT_EQ(serial.avg_gate_toggle_rate, parallel.avg_gate_toggle_rate)
          << c.name() << " threads=" << how.threads;
    }
  }
}

TEST(ParallelDeterminism, RepeatedPoolRunsAreStable) {
  // Two runs on the same pool configuration must agree with each other (and
  // with the serial path) — no hidden shared state across calls.
  const auto c = gen::c17();
  ActivityOptions options;
  options.sample_pairs = 640;
  options.shard_pairs = 64;
  const ActivityResult a =
      estimate_activity(c, options, exec::Parallelism::global_pool());
  const ActivityResult b =
      estimate_activity(c, options, exec::Parallelism::global_pool());
  EXPECT_EQ(a.toggle_rate, b.toggle_rate);
  EXPECT_EQ(a.one_probability, b.one_probability);
}

}  // namespace
}  // namespace enb::sim
