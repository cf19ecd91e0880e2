// The sensitivity sweep against a test-local copy of the classic one: per
// 64-pattern word, the good machine is evaluated once, then the whole
// circuit is re-evaluated once per flipped input and the output differences
// are ORed, masked with the word's valid lanes, popcounted into the
// influences and counted per lane for the sensitivity. Every
// SensitivityResult field must match exactly, on random DAGs and both
// benchmark suites, on the exhaustive path and the sampled one, for shard
// sizes that do and do not fill whole blocks, at 1 and 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "exec/stream.hpp"
#include "exec/thread_pool.hpp"
#include "gen/random_circuit.hpp"
#include "gen/suite.hpp"
#include "sim/bitpack.hpp"
#include "sim/exhaustive.hpp"
#include "sim/logic_sim.hpp"
#include "sim/prng.hpp"
#include "sim/sensitivity.hpp"

namespace enb::sim {
namespace {

using netlist::Circuit;

// OR over outputs of (f(x) != f(x ^ e_i)) for every lane of one word, by a
// full re-evaluation with input i complemented.
Word flip_difference(LogicSim& sim, std::vector<Word>& inputs,
                     std::span<const Word> base_outputs, std::size_t i,
                     const Circuit& circuit) {
  inputs[i] = ~inputs[i];
  sim.eval(inputs);
  inputs[i] = ~inputs[i];
  Word diff = 0;
  for (std::size_t o = 0; o < circuit.num_outputs(); ++o) {
    diff |= sim.value(circuit.outputs()[o]) ^ base_outputs[o];
  }
  return diff;
}

// The reference sweep: the same base patterns (exhaustive blocks, or each
// shard's counter-based stream), one word at a time.
SensitivityResult reference_sensitivity(const Circuit& circuit,
                                        const SensitivityOptions& options) {
  const int n = static_cast<int>(circuit.num_inputs());
  SensitivityResult result;
  result.influence.assign(circuit.num_inputs(), 0.0);
  if (n == 0 || circuit.num_outputs() == 0) {
    result.exact = true;
    result.assignments = 1;
    return result;
  }
  result.exact = n <= options.max_exact_inputs && n <= kMaxExhaustiveInputs;
  LogicSim sim(circuit);
  std::vector<Word> inputs(circuit.num_inputs());
  std::vector<Word> base_outputs(circuit.num_outputs());
  std::vector<std::uint64_t> counts(circuit.num_inputs(), 0);
  LaneCounter counter(n);
  const auto process = [&](Word valid) {
    sim.eval(inputs);
    for (std::size_t o = 0; o < circuit.num_outputs(); ++o) {
      base_outputs[o] = sim.value(circuit.outputs()[o]);
    }
    counter.reset();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Word diff =
          flip_difference(sim, inputs, base_outputs, i, circuit) & valid;
      counts[i] += static_cast<std::uint64_t>(popcount(diff));
      counter.add(diff);
    }
    result.sensitivity = std::max(result.sensitivity, counter.max_lane(valid));
    result.assignments += static_cast<std::uint64_t>(popcount(valid));
  };
  if (result.exact) {
    const Word valid = exhaustive_valid_mask(n);
    for (std::uint64_t block = 0; block < exhaustive_block_count(n); ++block) {
      fill_exhaustive_block(n, block, inputs);
      process(valid);
    }
  } else {
    const exec::ShardPlan plan(static_cast<std::size_t>(options.sample_words),
                               static_cast<std::size_t>(options.shard_words));
    for (std::size_t s = 0; s < plan.num_shards(); ++s) {
      const exec::Shard shard = plan.shard(s);
      Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
      for (std::size_t word = shard.begin; word < shard.end; ++word) {
        for (Word& w : inputs) w = rng.next();
        process(kAllOnes);
      }
    }
  }
  for (std::size_t i = 0; i < circuit.num_inputs(); ++i) {
    result.influence[i] = static_cast<double>(counts[i]) /
                          static_cast<double>(result.assignments);
    result.total_influence += result.influence[i];
  }
  return result;
}

void expect_same(const SensitivityResult& got, const SensitivityResult& want,
                 const std::string& where) {
  EXPECT_EQ(got.sensitivity, want.sensitivity) << where;
  EXPECT_EQ(got.exact, want.exact) << where;
  EXPECT_EQ(got.assignments, want.assignments) << where;
  EXPECT_EQ(got.influence, want.influence) << where;
  EXPECT_EQ(got.total_influence, want.total_influence) << where;
}

// Checks the sweep against the reference at 1 and 4 threads.
void check(const Circuit& circuit, const SensitivityOptions& options,
           const std::string& name) {
  const SensitivityResult want = reference_sensitivity(circuit, options);
  for (const unsigned threads : {1U, 4U}) {
    const std::string where =
        name + " max_exact=" + std::to_string(options.max_exact_inputs) +
        " sample_words=" + std::to_string(options.sample_words) +
        " shard_words=" + std::to_string(options.shard_words) +
        " threads=" + std::to_string(threads);
    expect_same(compute_sensitivity(circuit, options,
                                    exec::Parallelism::dedicated(threads)),
                want, where);
  }
}

// Shard sizes below, at and above one 8-word block, most of them not a
// multiple of it.
constexpr std::uint64_t kShardWords[] = {1, 2, 5, 8, 13, 32};

TEST(SensitivityProperty, RandomDagsExactPath) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    gen::RandomCircuitOptions shape;
    shape.num_inputs = 1 + static_cast<int>(seed % 12);
    shape.num_gates = 10 + static_cast<int>(seed * 7 % 60);
    shape.num_outputs = 1 + static_cast<int>(seed % 5);
    shape.seed = seed;
    const Circuit circuit = gen::random_circuit(shape);
    for (const std::uint64_t shard_words : kShardWords) {
      SensitivityOptions options;
      options.shard_words = shard_words;
      check(circuit, options, "random seed=" + std::to_string(seed));
    }
  }
}

TEST(SensitivityProperty, RandomDagsWideExactPath) {
  // 22 inputs: 65536 blocks, the widest exact sweep by default.
  gen::RandomCircuitOptions shape;
  shape.num_inputs = 22;
  shape.num_gates = 40;
  shape.num_outputs = 3;
  shape.seed = 99;
  const Circuit circuit = gen::random_circuit(shape);
  SensitivityOptions options;
  options.shard_words = 13;
  check(circuit, options, "random n=22");
}

TEST(SensitivityProperty, RandomDagsSampledPath) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    gen::RandomCircuitOptions shape;
    shape.num_inputs = 3 + static_cast<int>(seed % 20);
    shape.num_gates = 20 + static_cast<int>(seed * 11 % 90);
    shape.num_outputs = 1 + static_cast<int>(seed % 6);
    shape.max_fanin = 2 + static_cast<int>(seed % 3);
    shape.seed = 1000 + seed;
    const Circuit circuit = gen::random_circuit(shape);
    for (const std::uint64_t shard_words : kShardWords) {
      SensitivityOptions options;
      options.max_exact_inputs = 2;
      options.sample_words = 13;
      options.shard_words = shard_words;
      options.seed = seed;
      check(circuit, options, "random seed=" + std::to_string(seed));
    }
  }
}

TEST(SensitivityProperty, StandardSuiteBothPaths) {
  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    const Circuit circuit = spec.build();
    for (const std::uint64_t shard_words : {2, 5, 13}) {
      SensitivityOptions options;
      options.sample_words = 13;
      options.shard_words = shard_words;
      check(circuit, options, spec.name);
      // The same circuit sampled, whatever its input count.
      options.max_exact_inputs = 0;
      check(circuit, options, spec.name);
    }
  }
}

TEST(SensitivityProperty, ScaleSuiteSampledPath) {
  for (const gen::BenchmarkSpec& spec : gen::scale_suite()) {
    const Circuit circuit = spec.build();
    for (const std::uint64_t shard_words : {2, 5, 13}) {
      SensitivityOptions options;
      options.sample_words = 13;
      options.shard_words = shard_words;
      check(circuit, options, spec.name);
    }
  }
}

TEST(SensitivityProperty, DefaultOptionsOnTheSuites) {
  // The options every profile extraction uses: 256 sampled words in shards
  // of 32, or the exact sweep.
  for (const char* name : {"c17", "parity8", "alu8", "mult8", "rca32",
                           "c432"}) {
    const Circuit circuit = gen::find_benchmark(name).build();
    check(circuit, SensitivityOptions{}, name);
  }
}

}  // namespace
}  // namespace enb::sim
