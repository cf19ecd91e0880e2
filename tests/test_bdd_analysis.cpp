#include "bdd/bdd_analysis.hpp"

#include <gtest/gtest.h>

#include "sim/activity.hpp"
#include "sim/sensitivity.hpp"

namespace enb::bdd {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

Circuit and_or_circuit() {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  const NodeId d = c.add_input();
  const NodeId g1 = c.add_gate(GateType::kAnd, a, b);
  const NodeId g2 = c.add_gate(GateType::kOr, g1, d);
  c.add_output(g2);
  return c;
}

TEST(BddAnalysis, ExactProbabilities) {
  const Circuit c = and_or_circuit();
  const std::vector<double> p = exact_signal_probabilities(c);
  // p(AND) = 0.25; p(OR) = 0.25 + 0.5 - 0.125 = 0.625.
  EXPECT_NEAR(p[3], 0.25, 1e-12);
  EXPECT_NEAR(p[4], 0.625, 1e-12);
}

TEST(BddAnalysis, BiasedInputProbability) {
  const Circuit c = and_or_circuit();
  BddAnalysisOptions options;
  options.input_one_probability = 0.8;
  const std::vector<double> p = exact_signal_probabilities(c, options);
  EXPECT_NEAR(p[3], 0.64, 1e-12);
  EXPECT_NEAR(p[4], 0.64 + 0.8 - 0.64 * 0.8, 1e-12);
}

TEST(BddAnalysis, ActivityAgreesWithIdentity) {
  // Exhaustive activity against sw = 2p(1-p) over the BDD's probabilities.
  const Circuit c = and_or_circuit();
  const sim::ActivityResult r = sim::exact_activity(c);
  const std::vector<double> p = exact_signal_probabilities(c);
  for (NodeId id = 0; id < c.node_count(); ++id) {
    EXPECT_EQ(r.toggle_rate[id], sim::activity_from_probability(p[id]))
        << "node " << id;
  }
  EXPECT_NEAR(r.toggle_rate[3], 2 * 0.25 * 0.75, 1e-12);
  EXPECT_NEAR(r.toggle_rate[4], 2 * 0.625 * 0.375, 1e-12);
  EXPECT_NEAR(r.avg_gate_toggle_rate,
              (2 * 0.25 * 0.75 + 2 * 0.625 * 0.375) / 2.0, 1e-12);
}

TEST(BddAnalysis, InfluencesMatchSimulation) {
  const Circuit c = and_or_circuit();
  const std::vector<double> bdd_inf = exact_influences(c);
  const sim::SensitivityResult sim_r = sim::compute_sensitivity(c);
  ASSERT_EQ(bdd_inf.size(), sim_r.influence.size());
  for (std::size_t i = 0; i < bdd_inf.size(); ++i) {
    EXPECT_NEAR(bdd_inf[i], sim_r.influence[i], 1e-9) << "input " << i;
  }
}

TEST(BddAnalysis, EquivalentCircuitsDetected) {
  // a&b | d  ==  d | b&a (rebuilt in a different shape).
  Circuit other;
  const NodeId a = other.add_input();
  const NodeId b = other.add_input();
  const NodeId d = other.add_input();
  const NodeId g1 = other.add_gate(GateType::kAnd, b, a);
  other.add_output(other.add_gate(GateType::kOr, d, g1));
  EXPECT_TRUE(bdd_equivalent(and_or_circuit(), other));
}

TEST(BddAnalysis, InequivalentCircuitsDetected) {
  Circuit other;
  const NodeId a = other.add_input();
  const NodeId b = other.add_input();
  const NodeId d = other.add_input();
  const NodeId g1 = other.add_gate(GateType::kOr, a, b);  // OR instead of AND
  other.add_output(other.add_gate(GateType::kOr, g1, d));
  EXPECT_FALSE(bdd_equivalent(and_or_circuit(), other));
}

TEST(BddAnalysis, InterfaceMismatchNotEquivalent) {
  Circuit one_output = and_or_circuit();
  Circuit two_outputs = and_or_circuit();
  two_outputs.add_output(two_outputs.outputs()[0]);
  EXPECT_FALSE(bdd_equivalent(one_output, two_outputs));
}

}  // namespace
}  // namespace enb::bdd
