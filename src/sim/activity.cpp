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

// Rates and gate averages from merged counts. `ones_per_pair` is how many
// of each pair's two vectors feed `ones` (1 clean, 2 noisy).
ActivityResult finalize_activity(const Circuit& circuit,
                                 std::size_t sample_pairs,
                                 const ActivityCounts& counts,
                                 double ones_per_pair) {
  const std::size_t n = circuit.node_count();
  const double lanes = static_cast<double>(sample_pairs) * kWordBits;
  ActivityResult result;
  result.sample_pairs = sample_pairs;
  result.one_probability.resize(n);
  result.toggle_rate.resize(n);
  for (std::size_t id = 0; id < n; ++id) {
    result.one_probability[id] =
        static_cast<double>(counts.ones[id]) / (ones_per_pair * lanes);
    result.toggle_rate[id] = static_cast<double>(counts.toggles[id]) / lanes;
  }
  finalize_gate_averages(circuit, result);
  return result;
}

Word input_word(Xoshiro256& rng, double p_in) {
  return p_in == 0.5 ? rng.next() : bernoulli_word(rng, p_in);
}

// Counts contributed by one shard; a pure function of (options.seed,
// shard.index).
ActivityCounts activity_shard_counts(const Circuit& circuit,
                                     const ActivityOptions& options,
                                     const exec::Shard& shard) {
  const std::size_t n = circuit.node_count();
  const double p_in = options.input_one_probability;
  Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
  LogicSim sim_a(circuit);
  LogicSim sim_b(circuit);
  std::vector<Word> in_a(circuit.num_inputs());
  std::vector<Word> in_b(circuit.num_inputs());
  ActivityCounts counts(n);

  for (std::size_t pair = shard.begin; pair < shard.end; ++pair) {
    for (std::size_t i = 0; i < in_a.size(); ++i) {
      in_a[i] = input_word(rng, p_in);
      in_b[i] = input_word(rng, p_in);
    }
    sim_a.eval(in_a);
    sim_b.eval(in_b);
    for (std::size_t id = 0; id < n; ++id) {
      const Word a = sim_a.values()[id];
      const Word b = sim_b.values()[id];
      counts.ones[id] += static_cast<std::uint64_t>(popcount(a));
      counts.toggles[id] += static_cast<std::uint64_t>(popcount(a ^ b));
    }
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
  LogicSim sim(circuit);
  std::vector<Word> inputs;
  ActivityCounts counts(circuit.node_count());
  for (std::size_t block = shard.begin; block < shard.end; ++block) {
    fill_exhaustive_block(n, block, inputs);
    sim.eval(inputs);
    for (std::size_t id = 0; id < counts.ones.size(); ++id) {
      counts.ones[id] +=
          static_cast<std::uint64_t>(popcount(sim.values()[id] & valid));
    }
  }
  return counts;
}

// p = ones / 2^n per node, sw = 2 p (1-p), then the gate averages.
ActivityResult finalize_exact_activity(const Circuit& circuit,
                                       const ActivityCounts& counts) {
  const double total =
      static_cast<double>(std::uint64_t{1} << circuit.num_inputs());
  ActivityResult result;
  result.sample_pairs = 0;  // exact, not sampled
  result.one_probability.resize(circuit.node_count());
  result.toggle_rate.resize(circuit.node_count());
  for (std::size_t id = 0; id < circuit.node_count(); ++id) {
    const double p = static_cast<double>(counts.ones[id]) / total;
    result.one_probability[id] = p;
    result.toggle_rate[id] = activity_from_probability(p);
  }
  finalize_gate_averages(circuit, result);
  return result;
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
        return finalize_activity(circuit, pairs, counts, 1.0);
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
        return finalize_activity(circuit, pairs, counts, 2.0);
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
        return finalize_exact_activity(circuit, counts);
      });
}

ActivityResult exact_activity(const Circuit& circuit, exec::Parallelism how) {
  return exec::run(exact_activity_job(circuit), how);
}

}  // namespace enb::sim
