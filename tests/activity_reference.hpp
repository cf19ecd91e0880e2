// Test-local reference for the good-machine and noisy sweeps and the
// activity estimators built on them, kept independent of src/sim so tests
// that check the library's sweeps never compare a sweep with itself.
//
// Everything here runs one 64-lane word per sweep, in node-id order, and
// counts in a second pass over the nodes:
// - reference_eval: values[id] = the input's word, or the gate rule;
// - reference_noisy_eval: the same, then each gate with ε > 0 draws one
//   bernoulli_word and flips by it (draws in node-id order);
// - reference_activity: per shard of the plan, a counter-based stream of
//   (seed, shard.index); per pair, a then b for each input;
// - reference_noisy_activity: per shard, the noise seed is the stream's
//   first draw; per pair, every a input, then every b input;
// - reference_exact_activity: one-lanes over every truth-table block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "exec/stream.hpp"
#include "netlist/circuit.hpp"
#include "netlist/flat.hpp"
#include "sim/activity.hpp"
#include "sim/bitpack.hpp"
#include "sim/exhaustive.hpp"
#include "sim/prng.hpp"

namespace enb::sim::testing {

inline void reference_eval(const netlist::Circuit& c,
                           std::span<const Word> inputs,
                           std::vector<Word>& values) {
  values.assign(c.node_count(), 0);
  for (netlist::NodeId id = 0; id < c.node_count(); ++id) {
    const int slot = c.input_index(id);
    values[id] = slot >= 0 ? inputs[static_cast<std::size_t>(slot)]
                           : netlist::eval_gate<Word>(
                                 c.type(id), std::span<const Word>(values),
                                 c.fanins(id));
  }
}

inline void reference_noisy_eval(const netlist::Circuit& c,
                                 std::span<const double> epsilons,
                                 Xoshiro256& rng, std::span<const Word> inputs,
                                 std::vector<Word>& values,
                                 std::vector<Word>& errors) {
  values.assign(c.node_count(), 0);
  errors.assign(c.node_count(), 0);
  for (netlist::NodeId id = 0; id < c.node_count(); ++id) {
    const int slot = c.input_index(id);
    if (slot >= 0) {
      values[id] = inputs[static_cast<std::size_t>(slot)];
      continue;
    }
    values[id] = netlist::eval_gate<Word>(
        c.type(id), std::span<const Word>(values), c.fanins(id));
    if (netlist::counts_as_gate(c.type(id)) && epsilons[id] > 0.0) {
      errors[id] = bernoulli_word(rng, epsilons[id]);
      values[id] ^= errors[id];
    }
  }
}

struct ReferenceCounts {
  std::vector<std::uint64_t> ones;
  std::vector<std::uint64_t> toggles;
  explicit ReferenceCounts(std::size_t nodes) : ones(nodes), toggles(nodes) {}
};

inline void reference_gate_averages(const netlist::Circuit& c,
                                    ActivityResult& result) {
  double p_sum = 0.0;
  double sw_sum = 0.0;
  std::size_t gates = 0;
  for (netlist::NodeId id = 0; id < c.node_count(); ++id) {
    if (!netlist::counts_as_gate(c.type(id))) continue;
    p_sum += result.one_probability[id];
    sw_sum += result.toggle_rate[id];
    ++gates;
  }
  const double g = static_cast<double>(gates);
  result.avg_gate_one_probability = gates == 0 ? 0.0 : p_sum / g;
  result.avg_gate_toggle_rate = gates == 0 ? 0.0 : sw_sum / g;
}

inline ActivityResult reference_rates(const netlist::Circuit& c,
                                      std::size_t pairs,
                                      const ReferenceCounts& counts,
                                      double ones_per_pair) {
  const double lanes = static_cast<double>(pairs) * kWordBits;
  ActivityResult result;
  result.sample_pairs = pairs;
  for (std::size_t id = 0; id < c.node_count(); ++id) {
    result.one_probability.push_back(static_cast<double>(counts.ones[id]) /
                                     (ones_per_pair * lanes));
    result.toggle_rate.push_back(static_cast<double>(counts.toggles[id]) /
                                 lanes);
  }
  reference_gate_averages(c, result);
  return result;
}

inline Word reference_input_word(Xoshiro256& rng, double p_in) {
  return p_in == 0.5 ? rng.next() : bernoulli_word(rng, p_in);
}

inline ActivityResult reference_activity(const netlist::Circuit& c,
                                         const ActivityOptions& options) {
  const exec::ShardPlan plan(options.sample_pairs, options.shard_pairs);
  ReferenceCounts counts(c.node_count());
  std::vector<Word> in_a(c.num_inputs());
  std::vector<Word> in_b(c.num_inputs());
  std::vector<Word> a;
  std::vector<Word> b;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    const exec::Shard shard = plan.shard(s);
    Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
    for (std::size_t pair = shard.begin; pair < shard.end; ++pair) {
      for (std::size_t i = 0; i < in_a.size(); ++i) {
        in_a[i] = reference_input_word(rng, options.input_one_probability);
        in_b[i] = reference_input_word(rng, options.input_one_probability);
      }
      reference_eval(c, in_a, a);
      reference_eval(c, in_b, b);
      for (std::size_t id = 0; id < c.node_count(); ++id) {
        counts.ones[id] += static_cast<std::uint64_t>(popcount(a[id]));
        counts.toggles[id] += static_cast<std::uint64_t>(popcount(a[id] ^ b[id]));
      }
    }
  }
  return reference_rates(c, options.sample_pairs, counts, 1.0);
}

inline ActivityResult reference_noisy_activity(const netlist::Circuit& c,
                                               double epsilon,
                                               const ActivityOptions& options) {
  const exec::ShardPlan plan(options.sample_pairs, options.shard_pairs);
  const std::vector<double> epsilons(c.node_count(), epsilon);
  ReferenceCounts counts(c.node_count());
  std::vector<Word> in_a(c.num_inputs());
  std::vector<Word> in_b(c.num_inputs());
  std::vector<Word> a;
  std::vector<Word> b;
  std::vector<Word> errors;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    const exec::Shard shard = plan.shard(s);
    Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
    Xoshiro256 noise(rng.next());
    for (std::size_t pair = shard.begin; pair < shard.end; ++pair) {
      for (Word& w : in_a) {
        w = reference_input_word(rng, options.input_one_probability);
      }
      for (Word& w : in_b) {
        w = reference_input_word(rng, options.input_one_probability);
      }
      reference_noisy_eval(c, epsilons, noise, in_a, a, errors);
      reference_noisy_eval(c, epsilons, noise, in_b, b, errors);
      for (std::size_t id = 0; id < c.node_count(); ++id) {
        counts.ones[id] += static_cast<std::uint64_t>(popcount(a[id])) +
                           static_cast<std::uint64_t>(popcount(b[id]));
        counts.toggles[id] += static_cast<std::uint64_t>(popcount(a[id] ^ b[id]));
      }
    }
  }
  return reference_rates(c, options.sample_pairs, counts, 2.0);
}

inline ActivityResult reference_exact_activity(const netlist::Circuit& c) {
  const int n = static_cast<int>(c.num_inputs());
  const Word valid = n >= 6 ? kAllOnes : (Word{1} << (1 << n)) - 1;
  const std::uint64_t blocks =
      n <= 6 ? 1 : std::uint64_t{1} << static_cast<unsigned>(n - 6);
  ReferenceCounts counts(c.node_count());
  std::vector<Word> inputs(c.num_inputs());
  std::vector<Word> values;
  for (std::uint64_t block = 0; block < blocks; ++block) {
    for (int i = 0; i < n; ++i) {
      Word w = 0;
      for (int lane = 0; lane < kWordBits; ++lane) {
        const std::uint64_t assignment = block * kWordBits + lane;
        if (((assignment >> i) & 1) != 0) w |= Word{1} << lane;
      }
      inputs[static_cast<std::size_t>(i)] = w;
    }
    reference_eval(c, inputs, values);
    for (std::size_t id = 0; id < c.node_count(); ++id) {
      counts.ones[id] += static_cast<std::uint64_t>(popcount(values[id] & valid));
    }
  }
  const double total = static_cast<double>(std::uint64_t{1} << n);
  ActivityResult result;
  for (std::size_t id = 0; id < c.node_count(); ++id) {
    const double p = static_cast<double>(counts.ones[id]) / total;
    result.one_probability.push_back(p);
    result.toggle_rate.push_back(2.0 * p * (1.0 - p));
  }
  reference_gate_averages(c, result);
  return result;
}

}  // namespace enb::sim::testing
