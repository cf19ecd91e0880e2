// Cross-validation of the two analysis engines: the BDD package's exact
// probabilities/influences must agree with exhaustive simulation everywhere,
// and with Monte-Carlo within statistical tolerance, across generator and
// random circuits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "bdd/bdd_analysis.hpp"
#include "core/profile.hpp"
#include "exec/thread_pool.hpp"
#include "gen/adders.hpp"
#include "gen/comparators.hpp"
#include "gen/iscas.hpp"
#include "gen/mux_decoder.hpp"
#include "gen/parity.hpp"
#include "gen/random_circuit.hpp"
#include "gen/suite.hpp"
#include "sim/activity.hpp"
#include "sim/sensitivity.hpp"
#include "synth/mapper.hpp"

namespace enb {
namespace {

// Bit-for-bit double comparison: exact equality that also tells -0.0 from
// 0.0.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct NamedCircuit {
  const char* name;
  netlist::Circuit (*build)();
};

// Prints the case name, so the listed test names stay the same from build
// to build (gtest's default byte dump would show the struct's pointers).
void PrintTo(const NamedCircuit& k, std::ostream* os) { *os << k.name; }

class BddVsSimTest : public ::testing::TestWithParam<NamedCircuit> {};

TEST_P(BddVsSimTest, ExactProbabilitiesMatchExhaustive) {
  const netlist::Circuit c = GetParam().build();
  const auto bdd_probs = bdd::exact_signal_probabilities(c);
  const auto sim_result = sim::exact_activity(c);
  ASSERT_EQ(bdd_probs.size(), sim_result.one_probability.size());
  for (std::size_t id = 0; id < bdd_probs.size(); ++id) {
    EXPECT_TRUE(same_bits(bdd_probs[id], sim_result.one_probability[id]))
        << c.name() << " node " << id << ": " << bdd_probs[id] << " vs "
        << sim_result.one_probability[id];
  }
}

TEST_P(BddVsSimTest, MonteCarloWithinTolerance) {
  const netlist::Circuit c = GetParam().build();
  const auto exact = sim::exact_activity(c);
  sim::ActivityOptions options;
  options.sample_pairs = 1 << 12;
  const auto mc = sim::estimate_activity(c, options);
  // ~260k lane samples: generous 5-sigma-ish bound of 0.01.
  EXPECT_NEAR(mc.avg_gate_toggle_rate, exact.avg_gate_toggle_rate, 0.01)
      << c.name();
}

TEST_P(BddVsSimTest, InfluencesMatchSimulation) {
  const netlist::Circuit c = GetParam().build();
  const auto bdd_inf = bdd::exact_influences(c);
  const auto sim_sens = sim::compute_sensitivity(c);
  ASSERT_EQ(bdd_inf.size(), sim_sens.influence.size());
  for (std::size_t i = 0; i < bdd_inf.size(); ++i) {
    EXPECT_NEAR(bdd_inf[i], sim_sens.influence[i], 1e-9)
        << c.name() << " input " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, BddVsSimTest,
    ::testing::Values(
        NamedCircuit{"c17", [] { return gen::c17(); }},
        NamedCircuit{"parity9k3", [] { return gen::parity_tree(9, 3); }},
        NamedCircuit{"parity7shannon", [] { return gen::parity_shannon(7); }},
        NamedCircuit{"rca4", [] { return gen::ripple_carry_adder(4); }},
        NamedCircuit{"cla4", [] { return gen::carry_lookahead_adder(4); }},
        NamedCircuit{"cmp5", [] { return gen::magnitude_comparator(5); }},
        NamedCircuit{"mux8", [] { return gen::mux_tree(3); }},
        NamedCircuit{"rand404", [] {
                       gen::RandomCircuitOptions options;
                       options.seed = 404;
                       options.num_inputs = 9;
                       options.num_gates = 60;
                       return gen::random_circuit(options);
                     }}),
    [](const ::testing::TestParamInfo<NamedCircuit>& info) {
      return std::string(info.param.name);
    });

// The exact activity route of a profile extraction against the BDD oracle:
// per-node probabilities and toggle rates, the gate averages and the
// profile's sw0 must match bit for bit on every circuit of the standard and
// scale suites the route serves (at most exact_activity_max_inputs inputs),
// unmapped and mapped to fanin 2 and 3. With uniform inputs every
// probability is a dyadic rational of at most 16 fraction bits, which both
// engines compute without rounding.
TEST(BddVsSim, ProfileExactActivityMatchesBddOracle) {
  const core::ProfileOptions options;
  std::size_t checked = 0;
  for (const auto& suite : {gen::standard_suite(), gen::scale_suite()}) {
    for (const gen::BenchmarkSpec& spec : suite) {
      const netlist::Circuit base = spec.build();
      if (static_cast<int>(base.num_inputs()) >
          options.exact_activity_max_inputs) {
        continue;
      }
      for (const int k : {0, 2, 3}) {
        const netlist::Circuit c =
            k == 0 ? base : synth::map_to_library(base, k).circuit;
        const std::string label = spec.name + " K=" + std::to_string(k);
        const core::ProfileExtraction extraction =
            exec::run(core::profile_job(c, options));

        sim::ActivityResult oracle;
        oracle.one_probability = bdd::exact_signal_probabilities(c);
        for (const double p : oracle.one_probability) {
          oracle.toggle_rate.push_back(sim::activity_from_probability(p));
        }
        sim::finalize_gate_averages(c, oracle);

        const sim::ActivityResult& got = extraction.activity;
        EXPECT_EQ(got.sample_pairs, 0u) << label;
        ASSERT_EQ(got.one_probability.size(), c.node_count()) << label;
        ASSERT_EQ(got.toggle_rate.size(), c.node_count()) << label;
        for (netlist::NodeId id = 0; id < c.node_count(); ++id) {
          EXPECT_TRUE(same_bits(got.one_probability[id],
                                oracle.one_probability[id]))
              << label << " node " << id;
          EXPECT_TRUE(same_bits(got.toggle_rate[id], oracle.toggle_rate[id]))
              << label << " node " << id;
        }
        EXPECT_TRUE(same_bits(got.avg_gate_one_probability,
                              oracle.avg_gate_one_probability))
            << label;
        EXPECT_TRUE(same_bits(got.avg_gate_toggle_rate,
                              oracle.avg_gate_toggle_rate))
            << label;

        const core::CircuitProfile want =
            core::assemble_profile(c, oracle, extraction.profile.sensitivity_s,
                                   extraction.profile.sensitivity_exact)
                .profile;
        const core::CircuitProfile& p = extraction.profile;
        EXPECT_EQ(p.name, want.name) << label;
        EXPECT_EQ(p.num_inputs, want.num_inputs) << label;
        EXPECT_EQ(p.num_outputs, want.num_outputs) << label;
        EXPECT_TRUE(same_bits(p.size_s0, want.size_s0)) << label;
        EXPECT_EQ(p.depth_d0, want.depth_d0) << label;
        EXPECT_TRUE(same_bits(p.avg_fanin_k, want.avg_fanin_k)) << label;
        EXPECT_EQ(p.max_fanin, want.max_fanin) << label;
        EXPECT_TRUE(same_bits(p.avg_activity_sw0, want.avg_activity_sw0))
            << label;
        ++checked;
      }
    }
  }
  // c17, parity8, parity16, mult4 and mult8, each at three mappings.
  EXPECT_GE(checked, 15u);
}

TEST(BddVsSim, BiasedInputsAgree) {
  const auto c = gen::ripple_carry_adder(3);
  bdd::BddAnalysisOptions bdd_options;
  bdd_options.input_one_probability = 0.8;
  const auto probs = bdd::exact_signal_probabilities(c, bdd_options);
  sim::ActivityOptions mc_options;
  mc_options.input_one_probability = 0.8;
  mc_options.sample_pairs = 1 << 13;
  const auto mc = sim::estimate_activity(c, mc_options);
  for (netlist::NodeId id = 0; id < c.node_count(); ++id) {
    EXPECT_NEAR(mc.one_probability[id], probs[id], 0.01) << "node " << id;
  }
}

}  // namespace
}  // namespace enb
