// The good-machine and noisy sweeps against a test-local per-word copy
// (tests/activity_reference.hpp): Monte-Carlo, exact and noisy activity
// must match it bit for bit (memcmp on every per-node double, both gate
// averages, sample_pairs), and so must NoisySim's values and error words
// under uniform and per-gate ε. Budgets fall on both sides of every word,
// block and shard edge, so a tail chunk, a stream drawn out of order or a
// counted dead word all show.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "activity_reference.hpp"
#include "gen/random_circuit.hpp"
#include "gen/suite.hpp"
#include "netlist/circuit.hpp"
#include "sim/activity.hpp"
#include "sim/logic_sim.hpp"
#include "sim/noise.hpp"
#include "sim/prng.hpp"
#include "synth/mapper.hpp"

namespace enb::sim {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same(const ActivityResult& got, const ActivityResult& want,
                 const std::string& label) {
  EXPECT_EQ(got.sample_pairs, want.sample_pairs) << label;
  EXPECT_TRUE(same_doubles(got.one_probability, want.one_probability))
      << label;
  EXPECT_TRUE(same_doubles(got.toggle_rate, want.toggle_rate)) << label;
  EXPECT_TRUE(same_bits(got.avg_gate_one_probability,
                        want.avg_gate_one_probability))
      << label;
  EXPECT_TRUE(same_bits(got.avg_gate_toggle_rate, want.avg_gate_toggle_rate))
      << label;
}

struct Case {
  std::string name;
  std::function<Circuit()> build;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

Circuit random_dag(int inputs, int gates, int fanin, std::uint64_t seed) {
  gen::RandomCircuitOptions options;
  options.num_inputs = inputs;
  options.num_gates = gates;
  options.num_outputs = 4;
  options.max_fanin = fanin;
  options.seed = seed;
  return gen::random_circuit(options);
}

// No inputs: constants and gates over them (one truth-table lane).
Circuit constant_circuit() {
  Circuit c("const0in");
  const NodeId one = c.add_const(true);
  const NodeId zero = c.add_const(false);
  const NodeId x = c.add_gate(GateType::kXor, one, zero);
  c.add_output(c.add_gate(GateType::kNand, x, one));
  c.add_output(c.add_gate(GateType::kNot, zero));
  return c;
}

// Random DAGs, then every suite circuit unmapped and mapped to fanin 2, 3.
std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto& [inputs, gates, fanin, seed] :
       std::vector<std::tuple<int, int, int, std::uint64_t>>{
           {3, 20, 2, 1}, {9, 120, 3, 2}, {24, 400, 4, 3}, {40, 250, 2, 4}}) {
    cases.push_back({"rand_i" + std::to_string(inputs) + "_s" +
                         std::to_string(seed),
                     [=] { return random_dag(inputs, gates, fanin, seed); }});
  }
  for (const auto& suite : {gen::standard_suite(), gen::scale_suite()}) {
    for (const gen::BenchmarkSpec& spec : suite) {
      for (const int k : {0, 2, 3}) {
        cases.push_back({spec.name + "_K" + std::to_string(k), [spec, k] {
                           const Circuit base = spec.build();
                           return k == 0 ? base
                                         : synth::map_to_library(base, k)
                                               .circuit;
                         }});
      }
    }
  }
  return cases;
}

class ActivitySweep : public ::testing::TestWithParam<Case> {};

TEST_P(ActivitySweep, MonteCarloMatchesReference) {
  const Circuit c = GetParam().build();
  for (const std::size_t pairs : {1, 7, 9, 300, 1234, 16384}) {
    for (const std::size_t shard : {1, 3, 64, 256}) {
      // The largest budget at the default shard keeps the run short.
      if (pairs == 16384 && shard != 256) continue;
      for (const double p1 : {0.5, 0.3}) {
        ActivityOptions options;
        options.sample_pairs = pairs;
        options.shard_pairs = shard;
        options.input_one_probability = p1;
        options.seed = 7 + pairs;
        const std::string label = GetParam().name + " pairs=" +
                                  std::to_string(pairs) + " shard=" +
                                  std::to_string(shard) + " p1=" +
                                  std::to_string(p1);
        expect_same(estimate_activity(c, options),
                    testing::reference_activity(c, options), label);
      }
    }
  }
}

TEST_P(ActivitySweep, NoisyActivityMatchesReference) {
  const Circuit c = GetParam().build();
  for (const std::size_t pairs : {1, 9, 300}) {
    for (const std::size_t shard : {1, 64}) {
      for (const double eps : {0.0, 0.01, 0.25}) {
        ActivityOptions options;
        options.sample_pairs = pairs;
        options.shard_pairs = shard;
        options.input_one_probability = pairs == 9 ? 0.3 : 0.5;
        const std::string label = GetParam().name + " pairs=" +
                                  std::to_string(pairs) + " shard=" +
                                  std::to_string(shard) + " eps=" +
                                  std::to_string(eps);
        expect_same(estimate_noisy_activity(c, eps, options),
                    testing::reference_noisy_activity(c, eps, options), label);
      }
    }
  }
}

// Error words and values of consecutive evals, uniform ε and per-gate ε
// with zeros, from one seed: the noise stream is drawn in node-id order.
TEST_P(ActivitySweep, NoisySimMatchesReference) {
  const Circuit c = GetParam().build();
  std::vector<double> mixed(c.node_count());
  for (std::size_t id = 0; id < mixed.size(); ++id) {
    mixed[id] = id % 3 == 0 ? 0.0 : 0.05 * static_cast<double>(id % 11);
  }
  for (const std::vector<double>& epsilons :
       {std::vector<double>(c.node_count(), 0.1), mixed}) {
    NoisySim sim(c, epsilons, 99);
    Xoshiro256 noise(99);
    Xoshiro256 inputs_rng(5);
    std::vector<Word> inputs(c.num_inputs());
    std::vector<Word> values;
    std::vector<Word> errors;
    for (int pass = 0; pass < 4; ++pass) {
      for (Word& w : inputs) w = inputs_rng.next();
      sim.eval(inputs);
      testing::reference_noisy_eval(c, epsilons, noise, inputs, values,
                                    errors);
      ASSERT_EQ(std::vector<Word>(sim.values().begin(), sim.values().end()),
                values)
          << GetParam().name << " pass " << pass;
      ASSERT_EQ(std::vector<Word>(sim.last_error_words().begin(),
                                  sim.last_error_words().end()),
                errors)
          << GetParam().name << " pass " << pass;
    }
  }
}

// At ε = 0 the noisy machine is the good machine on every node.
TEST_P(ActivitySweep, NoiselessNoisySimIsLogicSim) {
  const Circuit c = GetParam().build();
  NoisySim noisy(c, 0.0, 3);
  LogicSim clean(c);
  Xoshiro256 rng(17);
  std::vector<Word> inputs(c.num_inputs());
  for (int pass = 0; pass < 3; ++pass) {
    for (Word& w : inputs) w = rng.next();
    noisy.eval(inputs);
    clean.eval(inputs);
    ASSERT_EQ(std::vector<Word>(noisy.values().begin(), noisy.values().end()),
              std::vector<Word>(clean.values().begin(), clean.values().end()))
        << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, ActivitySweep,
                         ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return info.param.name;
                         });

// Exact activity on every case within the exact route's 16 inputs; the
// wider ones take the Monte-Carlo route only.
TEST(ExactActivitySweep, CasesUpTo16InputsMatchReference) {
  int checked = 0;
  for (const Case& c : all_cases()) {
    const Circuit circuit = c.build();
    if (circuit.num_inputs() > 16) continue;
    expect_same(exact_activity(circuit),
                testing::reference_exact_activity(circuit), c.name);
    ++checked;
  }
  EXPECT_GE(checked, 12);
}

// Exact activity at 0..8 and 16 inputs: below 6 only the low 2^n lanes of
// the one block are assignments, and at 0 there is a single one.
TEST(ExactActivitySweep, EveryInputCountMatchesReference) {
  expect_same(exact_activity(constant_circuit()),
              testing::reference_exact_activity(constant_circuit()), "n=0");
  for (const int n : {1, 2, 3, 4, 5, 6, 7, 8, 16}) {
    for (const std::uint64_t seed : {1, 2}) {
      const Circuit c = random_dag(n, 60 + 10 * n, n == 1 ? 2 : 3, seed);
      expect_same(exact_activity(c), testing::reference_exact_activity(c),
                  "n=" + std::to_string(n) + " seed=" + std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace enb::sim
