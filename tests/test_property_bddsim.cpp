// Cross-validation of the two analysis engines: the BDD package's exact
// probabilities/influences must agree with exhaustive simulation everywhere,
// and with Monte-Carlo within statistical tolerance, across generator and
// random circuits.
#include <gtest/gtest.h>

#include <cmath>

#include "bdd/bdd_analysis.hpp"
#include "gen/adders.hpp"
#include "gen/comparators.hpp"
#include "gen/iscas.hpp"
#include "gen/mux_decoder.hpp"
#include "gen/parity.hpp"
#include "gen/random_circuit.hpp"
#include "sim/activity.hpp"
#include "sim/sensitivity.hpp"

namespace enb {
namespace {

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
    EXPECT_NEAR(bdd_probs[id], sim_result.one_probability[id], 1e-12)
        << c.name() << " node " << id;
  }
}

TEST_P(BddVsSimTest, MonteCarloWithinTolerance) {
  const netlist::Circuit c = GetParam().build();
  const auto exact = bdd::exact_activity_bdd(c);
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
