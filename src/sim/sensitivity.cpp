#include "sim/sensitivity.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "exec/thread_pool.hpp"
#include "sim/bitpack.hpp"
#include "sim/exhaustive.hpp"
#include "sim/logic_sim.hpp"
#include "sim/prng.hpp"

namespace enb::sim {

using netlist::Circuit;

namespace {

// OR over outputs of (f(x) != f(x ^ e_i)), lane-parallel. Flipping input i in
// every lane is simply complementing its input word, regardless of how lanes
// map to assignments.
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

bool degenerate(const Circuit& circuit) {
  return circuit.num_inputs() == 0 || circuit.num_outputs() == 0;
}

// Accumulators of one or more shards; influence and lane totals merge by
// sum, sensitivity by max.
struct SensitivityCounts {
  std::vector<std::uint64_t> influence_counts;  // per input
  int sensitivity = 0;
  std::uint64_t lane_total = 0;
  explicit SensitivityCounts(std::size_t num_inputs)
      : influence_counts(num_inputs, 0) {}
  void merge(const SensitivityCounts& other) {
    for (std::size_t i = 0; i < influence_counts.size(); ++i) {
      influence_counts[i] += other.influence_counts[i];
    }
    sensitivity = std::max(sensitivity, other.sensitivity);
    lane_total += other.lane_total;
  }
};

// Per-shard worker state: its own simulator, buffers and accumulators.
struct ShardState {
  LogicSim sim;
  std::vector<Word> inputs;
  std::vector<Word> base_outputs;
  SensitivityCounts counts;
  LaneCounter counter;

  ShardState(const Circuit& circuit, int n)
      : sim(circuit),
        inputs(static_cast<std::size_t>(n)),
        base_outputs(circuit.num_outputs()),
        counts(static_cast<std::size_t>(n)),
        counter(n) {}
};

void process_block(const Circuit& circuit, ShardState& state, Word valid) {
  state.sim.eval(state.inputs);
  for (std::size_t o = 0; o < circuit.num_outputs(); ++o) {
    state.base_outputs[o] = state.sim.value(circuit.outputs()[o]);
  }
  state.counter.reset();
  for (std::size_t i = 0; i < state.inputs.size(); ++i) {
    const Word diff = flip_difference(state.sim, state.inputs,
                                      state.base_outputs, i, circuit) &
                      valid;
    state.counts.influence_counts[i] +=
        static_cast<std::uint64_t>(popcount(diff));
    state.counter.add(diff);
  }
  state.counts.sensitivity =
      std::max(state.counts.sensitivity, state.counter.max_lane(valid));
  state.counts.lane_total += static_cast<std::uint64_t>(popcount(valid));
}

bool sensitivity_is_exact(const Circuit& circuit,
                          const SensitivityOptions& options) {
  const int n = static_cast<int>(circuit.num_inputs());
  return degenerate(circuit) ||
         (n <= options.max_exact_inputs && n <= kMaxExhaustiveInputs);
}

// The shard decomposition: exhaustive blocks (exact) or sample words
// (sampled), in groups of shard_words.
exec::ShardPlan sensitivity_shard_plan(const Circuit& circuit,
                                       const SensitivityOptions& options) {
  if (degenerate(circuit)) return exec::ShardPlan(0, 1);
  const int n = static_cast<int>(circuit.num_inputs());
  const std::size_t total =
      sensitivity_is_exact(circuit, options)
          ? static_cast<std::size_t>(exhaustive_block_count(n))
          : static_cast<std::size_t>(options.sample_words);
  return exec::ShardPlan(total, static_cast<std::size_t>(options.shard_words));
}

// Counts contributed by one shard; deterministic for exact sweeps, a pure
// function of (options.seed, shard.index) for sampled ones.
SensitivityCounts sensitivity_shard_counts(const Circuit& circuit,
                                           const SensitivityOptions& options,
                                           const exec::Shard& shard) {
  const int n = static_cast<int>(circuit.num_inputs());
  ShardState state(circuit, n);
  if (sensitivity_is_exact(circuit, options)) {
    // Blocks are pure functions of their index, so the exhaustive sweep
    // shards over block ranges with no randomness involved.
    const Word valid = exhaustive_valid_mask(n);
    for (std::size_t block = shard.begin; block < shard.end; ++block) {
      fill_exhaustive_block(n, static_cast<std::uint64_t>(block),
                            state.inputs);
      process_block(circuit, state, valid);
    }
  } else {
    Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
    for (std::size_t pass = shard.begin; pass < shard.end; ++pass) {
      for (Word& w : state.inputs) w = rng.next();
      process_block(circuit, state, kAllOnes);
    }
  }
  return std::move(state.counts);
}

SensitivityResult finalize_sensitivity(const Circuit& circuit,
                                       const SensitivityOptions& options,
                                       const SensitivityCounts& counts) {
  const std::size_t n = circuit.num_inputs();
  SensitivityResult result;
  result.influence.assign(n, 0.0);
  if (degenerate(circuit)) {
    result.exact = true;
    result.assignments = 1;
    return result;
  }
  result.exact = sensitivity_is_exact(circuit, options);
  result.sensitivity = counts.sensitivity;
  result.assignments = counts.lane_total;
  for (std::size_t i = 0; i < n; ++i) {
    result.influence[i] = static_cast<double>(counts.influence_counts[i]) /
                          static_cast<double>(counts.lane_total);
    result.total_influence += result.influence[i];
  }
  return result;
}

}  // namespace

// Shards merge by sum (influence, lane totals) and max (sensitivity), so the
// sweep is thread-count independent for both the exact enumeration (no
// randomness at all) and the sampled one (counter-based streams).
exec::ShardedJob<SensitivityResult> sensitivity_job(
    const Circuit& circuit, const SensitivityOptions& options) {
  if (!sensitivity_is_exact(circuit, options) && options.sample_words == 0) {
    throw std::invalid_argument(
        "compute_sensitivity: sample_words must be > 0 for the sampled sweep");
  }
  const exec::ShardPlan plan = sensitivity_shard_plan(circuit, options);
  return exec::merging_job(
      plan.num_shards(), SensitivityCounts(circuit.num_inputs()),
      [&circuit, options, plan](std::size_t i) {
        return sensitivity_shard_counts(circuit, options, plan.shard(i));
      },
      [&circuit, options](const SensitivityCounts& counts) {
        return finalize_sensitivity(circuit, options, counts);
      });
}

SensitivityResult compute_sensitivity(const Circuit& circuit,
                                      const SensitivityOptions& options,
                                      exec::Parallelism how) {
  return exec::run(sensitivity_job(circuit, options), how);
}

}  // namespace enb::sim
