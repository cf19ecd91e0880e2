#include "sim/activity.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/stream.hpp"
#include "exec/thread_pool.hpp"
#include "sim/exhaustive.hpp"
#include "sim/logic_sim.hpp"
#include "sim/noise.hpp"
#include "sim/prng.hpp"

namespace enb::sim {

using netlist::Circuit;
using netlist::NodeId;

void finalize_gate_averages(const Circuit& circuit, ActivityResult& result) {
  double p_sum = 0.0;
  double sw_sum = 0.0;
  std::size_t gates = 0;
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    if (!counts_as_gate(circuit.type(id))) continue;
    p_sum += result.one_probability[id];
    sw_sum += result.toggle_rate[id];
    ++gates;
  }
  result.avg_gate_one_probability = gates == 0 ? 0.0 : p_sum / static_cast<double>(gates);
  result.avg_gate_toggle_rate = gates == 0 ? 0.0 : sw_sum / static_cast<double>(gates);
}

namespace {

// Per-node integer accumulators of one or more shards; merge by +.
struct ActivityCounts {
  std::vector<std::uint64_t> ones;     // set lanes per node
  std::vector<std::uint64_t> toggles;  // differing lanes per node pair
  explicit ActivityCounts(std::size_t nodes)
      : ones(nodes, 0), toggles(nodes, 0) {}
  void merge(const ActivityCounts& other) {
    for (std::size_t id = 0; id < ones.size(); ++id) {
      ones[id] += other.ones[id];
      toggles[id] += other.toggles[id];
    }
  }
};

// Rates and gate averages from merged counts: p = ones / `ones_lanes` per
// node, and sw = toggles / (64 sample_pairs), or 2 p (1-p) when the counts
// are exact (sample_pairs 0, as the result reports them).
ActivityResult finalize_activity(const Circuit& circuit,
                                 std::size_t sample_pairs,
                                 const ActivityCounts& counts,
                                 double ones_lanes) {
  const std::size_t n = circuit.node_count();
  const double lanes = static_cast<double>(sample_pairs) * kWordBits;
  ActivityResult result;
  result.sample_pairs = sample_pairs;
  result.one_probability.resize(n);
  result.toggle_rate.resize(n);
  for (std::size_t id = 0; id < n; ++id) {
    const double p = static_cast<double>(counts.ones[id]) / ones_lanes;
    result.one_probability[id] = p;
    result.toggle_rate[id] =
        sample_pairs == 0 ? activity_from_probability(p)
                          : static_cast<double>(counts.toggles[id]) / lanes;
  }
  finalize_gate_averages(circuit, result);
  return result;
}

// One activity sweep runs a block of 8 words: 4 Monte-Carlo pairs (pair j
// is word j, its vector a, and word 4 + j, its vector b) or 8 truth-table
// blocks. A tail chunk of a shard counts only its live words.
using ActivityBlock = Block<kBlockWords>;
constexpr int kSweepPairs = kBlockWords / 2;

// Counts contributed by one shard; a pure function of (options.seed,
// shard.index). Pairs are drawn in order, a then b for each input, as if
// one pair were swept at a time.
ActivityCounts activity_shard_counts(const Circuit& circuit,
                                     const ActivityOptions& options,
                                     const exec::Shard& shard) {
  const double p_in = options.input_one_probability;
  Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
  std::vector<ActivityBlock> inputs(circuit.num_inputs());
  std::vector<ActivityBlock> values(circuit.node_count());
  ActivityCounts counts(circuit.node_count());
  for (std::size_t first = shard.begin; first < shard.end;
       first += kSweepPairs) {
    const int live =
        static_cast<int>(std::min<std::size_t>(kSweepPairs, shard.end - first));
    for (int k = 0; k < live; ++k) {
      for (ActivityBlock& in : inputs) {
        in.words[k] = input_word(rng, p_in);
        in.words[kSweepPairs + k] = input_word(rng, p_in);
      }
    }
    sweep<ActivityBlock>(
        circuit, inputs, values, [&](NodeId id, const ActivityBlock& value) {
          for (int k = 0; k < live; ++k) {
            const Word a = value.words[k];
            counts.ones[id] += static_cast<std::uint64_t>(popcount(a));
            counts.toggles[id] += static_cast<std::uint64_t>(
                popcount(a ^ value.words[kSweepPairs + k]));
          }
        });
  }
  return counts;
}

// The noisy counterpart: inputs and the shard's private noise source both
// derive from the shard stream, and both vectors of a pair count as ones.
ActivityCounts noisy_activity_shard_counts(const Circuit& circuit,
                                           double epsilon,
                                           const ActivityOptions& options,
                                           const exec::Shard& shard) {
  const std::size_t n = circuit.node_count();
  const double p_in = options.input_one_probability;
  Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
  NoisySim sim(circuit, epsilon, rng.next());
  std::vector<Word> in_a(circuit.num_inputs());
  std::vector<Word> in_b(circuit.num_inputs());
  std::vector<Word> first(n);
  ActivityCounts counts(n);

  for (std::size_t pair = shard.begin; pair < shard.end; ++pair) {
    for (Word& w : in_a) w = input_word(rng, p_in);
    for (Word& w : in_b) w = input_word(rng, p_in);
    sim.eval(in_a);
    std::copy(sim.values().begin(), sim.values().end(), first.begin());
    sim.eval(in_b);
    for (std::size_t id = 0; id < n; ++id) {
      counts.ones[id] += static_cast<std::uint64_t>(popcount(first[id])) +
                         static_cast<std::uint64_t>(popcount(sim.values()[id]));
      counts.toggles[id] +=
          static_cast<std::uint64_t>(popcount(first[id] ^ sim.values()[id]));
    }
  }
  return counts;
}

// Truth-table blocks per exact_activity_job shard (4096 assignments).
constexpr std::size_t kExactShardBlocks = 64;

// One-lane counts of one exhaustive shard's blocks (toggles stay 0: exact
// toggle rates come from the identity, not from counting).
ActivityCounts exact_shard_counts(const Circuit& circuit,
                                  const exec::Shard& shard) {
  const int n = static_cast<int>(circuit.num_inputs());
  const Word valid = exhaustive_valid_mask(n);
  std::vector<Word> words;
  std::vector<ActivityBlock> inputs(circuit.num_inputs());
  std::vector<ActivityBlock> values(circuit.node_count());
  ActivityCounts counts(circuit.node_count());
  for (std::size_t first = shard.begin; first < shard.end;
       first += kBlockWords) {
    const int live =
        static_cast<int>(std::min<std::size_t>(kBlockWords, shard.end - first));
    for (int k = 0; k < live; ++k) {
      fill_exhaustive_block(n, first + static_cast<std::size_t>(k), words);
      for (std::size_t i = 0; i < words.size(); ++i) {
        inputs[i].words[k] = words[i];
      }
    }
    sweep<ActivityBlock>(
        circuit, inputs, values, [&](NodeId id, const ActivityBlock& value) {
          for (int k = 0; k < live; ++k) {
            counts.ones[id] +=
                static_cast<std::uint64_t>(popcount(value.words[k] & valid));
          }
        });
  }
  return counts;
}

}  // namespace

// Each shard owns a counter-based PRNG stream and local accumulators; the
// merge is an integer sum, so the totals are independent of the order in
// which shards finish — bit-exact for any thread count.
exec::ShardedJob<ActivityResult> activity_job(const Circuit& circuit,
                                              const ActivityOptions& options) {
  if (options.sample_pairs == 0) {
    throw std::invalid_argument("estimate_activity: sample_pairs must be > 0");
  }
  const exec::ShardPlan plan(options.sample_pairs, options.shard_pairs);
  return exec::merging_job(
      plan.num_shards(), ActivityCounts(circuit.node_count()),
      [&circuit, options, plan](std::size_t i) {
        return activity_shard_counts(circuit, options, plan.shard(i));
      },
      [&circuit, pairs = options.sample_pairs](const ActivityCounts& counts) {
        return finalize_activity(circuit, pairs, counts,
                                 static_cast<double>(pairs) * kWordBits);
      });
}

ActivityResult estimate_activity(const Circuit& circuit,
                                 const ActivityOptions& options,
                                 exec::Parallelism how) {
  return exec::run(activity_job(circuit, options), how);
}

// Sharded exactly like activity_job, over the same counts and reduction.
exec::ShardedJob<ActivityResult> noisy_activity_job(
    const Circuit& circuit, double epsilon, const ActivityOptions& options) {
  if (options.sample_pairs == 0) {
    throw std::invalid_argument(
        "estimate_noisy_activity: sample_pairs must be > 0");
  }
  const exec::ShardPlan plan(options.sample_pairs, options.shard_pairs);
  return exec::merging_job(
      plan.num_shards(), ActivityCounts(circuit.node_count()),
      [&circuit, epsilon, options, plan](std::size_t i) {
        return noisy_activity_shard_counts(circuit, epsilon, options,
                                           plan.shard(i));
      },
      [&circuit, pairs = options.sample_pairs](const ActivityCounts& counts) {
        return finalize_activity(circuit, pairs, counts,
                                 2.0 * static_cast<double>(pairs) * kWordBits);
      });
}

ActivityResult estimate_noisy_activity(const Circuit& circuit, double epsilon,
                                       const ActivityOptions& options,
                                       exec::Parallelism how) {
  return exec::run(noisy_activity_job(circuit, epsilon, options), how);
}

// Shard i covers truth-table blocks [64 i, 64 i + 64): the partition is
// fixed by the input count alone, and the integer merge makes the totals
// independent of shard completion order. exhaustive_block_count rejects
// more than kMaxExhaustiveInputs inputs before any 2^n is formed.
exec::ShardedJob<ActivityResult> exact_activity_job(const Circuit& circuit) {
  const exec::ShardPlan plan(
      exhaustive_block_count(static_cast<int>(circuit.num_inputs())),
      kExactShardBlocks);
  return exec::merging_job(
      plan.num_shards(), ActivityCounts(circuit.node_count()),
      [&circuit, plan](std::size_t i) {
        return exact_shard_counts(circuit, plan.shard(i));
      },
      [&circuit](const ActivityCounts& counts) {
        return finalize_activity(
            circuit, 0, counts,
            static_cast<double>(std::uint64_t{1} << circuit.num_inputs()));
      });
}

ActivityResult exact_activity(const Circuit& circuit, exec::Parallelism how) {
  return exec::run(exact_activity_job(circuit), how);
}

}  // namespace enb::sim
