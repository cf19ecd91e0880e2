#include "sim/sensitivity.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "exec/thread_pool.hpp"
#include "netlist/flat.hpp"
#include "sim/bitpack.hpp"
#include "sim/block_sim.hpp"
#include "sim/exhaustive.hpp"
#include "sim/prng.hpp"

namespace enb::sim {

using netlist::Circuit;

namespace {

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

// Counts contributed by one shard, W words per block: the good machine
// once, then each primary input flipped on its own. The valid patterns on
// which any output moved count toward that input's influence and, per word,
// toward each lane's sensitivity.
template <int W>
SensitivityCounts sensitivity_shard_counts(const Circuit& circuit,
                                           const netlist::Fanouts& fanouts,
                                           const SensitivityOptions& options,
                                           const exec::Shard& shard) {
  const int n = static_cast<int>(circuit.num_inputs());
  const bool exact = sensitivity_is_exact(circuit, options);
  const Word word_valid = exact ? exhaustive_valid_mask(n) : kAllOnes;
  // Exhaustive blocks are pure functions of their index; sampled words are
  // a pure function of (options.seed, shard.index).
  Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
  SensitivityCounts counts(circuit.num_inputs());
  std::vector<Word> words(circuit.num_inputs());  // one word's inputs
  BlockSim<W> sim(circuit, fanouts);
  std::vector<Block<W>> inputs(circuit.num_inputs());
  std::vector<Block<W>> good(circuit.num_outputs());
  std::vector<LaneCounter> lanes(W, LaneCounter(n));  // one per word
  for (std::size_t first = shard.begin; first < shard.end; first += W) {
    const std::size_t used = std::min<std::size_t>(W, shard.end - first);
    std::fill(inputs.begin(), inputs.end(), Block<W>{});
    Block<W> valid;
    for (std::size_t k = 0; k < used; ++k) {
      if (exact) {
        fill_exhaustive_block(n, first + k, words);
      } else {
        for (Word& w : words) w = rng.next();
      }
      for (std::size_t i = 0; i < words.size(); ++i) {
        inputs[i].words[k] = words[i];
      }
      valid.words[k] = word_valid;
    }
    sim.eval(inputs);
    for (std::size_t o = 0; o < good.size(); ++o) {
      good[o] = sim.value(circuit.outputs()[o]);
    }
    for (LaneCounter& counter : lanes) counter.reset();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      sim.flip(circuit.inputs()[i]);
      Block<W> diff;
      for (std::size_t o = 0; o < good.size(); ++o) {
        diff |= sim.value(circuit.outputs()[o]) ^ good[o];
      }
      sim.restore();
      diff &= valid;
      for (std::size_t k = 0; k < W; ++k) {
        counts.influence_counts[i] +=
            static_cast<std::uint64_t>(popcount(diff.words[k]));
        lanes[k].add(diff.words[k]);
      }
    }
    for (std::size_t k = 0; k < used; ++k) {
      counts.sensitivity =
          std::max(counts.sensitivity, lanes[k].max_lane(word_valid));
      counts.lane_total += static_cast<std::uint64_t>(popcount(word_valid));
    }
  }
  return counts;
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
  // One fanout inverse per job, read by every shard.
  auto fanouts = std::make_shared<const netlist::Fanouts>(circuit);
  return exec::merging_job(
      plan.num_shards(), SensitivityCounts(circuit.num_inputs()),
      [&circuit, fanouts, options, plan](std::size_t i) {
        const exec::Shard shard = plan.shard(i);
        // The narrowest block that holds up to 8 of the shard's words.
        const auto words =
            static_cast<int>(std::min<std::size_t>(shard.size(), kBlockWords));
        return with_block_width(words, [&](auto width) {
          return sensitivity_shard_counts<decltype(width)::value>(
              circuit, *fanouts, options, shard);
        });
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
