#include "sim/activity.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "gen/suite.hpp"

namespace enb::sim {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

Circuit and2() {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  c.add_output(c.add_gate(GateType::kAnd, a, b));
  return c;
}

TEST(Activity, ExactAnd2) {
  const Circuit c = and2();
  const ActivityResult r = exact_activity(c);
  const NodeId gate = c.outputs()[0];
  EXPECT_NEAR(r.one_probability[gate], 0.25, 1e-12);
  EXPECT_NEAR(r.toggle_rate[gate], 2 * 0.25 * 0.75, 1e-12);
  EXPECT_NEAR(r.avg_gate_toggle_rate, 0.375, 1e-12);
}

TEST(Activity, ExactXorIsBalanced) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  c.add_output(c.add_gate(GateType::kXor, a, b));
  const ActivityResult r = exact_activity(c);
  EXPECT_NEAR(r.one_probability[c.outputs()[0]], 0.5, 1e-12);
  EXPECT_NEAR(r.toggle_rate[c.outputs()[0]], 0.5, 1e-12);
}

TEST(Activity, MonteCarloMatchesExact) {
  const Circuit c = and2();
  const ActivityResult exact = exact_activity(c);
  ActivityOptions options;
  options.sample_pairs = 1 << 12;
  options.seed = 5;
  const ActivityResult mc = estimate_activity(c, options);
  const NodeId gate = c.outputs()[0];
  EXPECT_NEAR(mc.one_probability[gate], exact.one_probability[gate], 0.01);
  EXPECT_NEAR(mc.toggle_rate[gate], exact.toggle_rate[gate], 0.01);
}

TEST(Activity, MonteCarloDeterministicPerSeed) {
  const Circuit c = and2();
  ActivityOptions options;
  options.sample_pairs = 128;
  options.seed = 99;
  const ActivityResult r1 = estimate_activity(c, options);
  const ActivityResult r2 = estimate_activity(c, options);
  EXPECT_EQ(r1.toggle_rate, r2.toggle_rate);
}

TEST(Activity, BiasedInputsShiftProbability) {
  const Circuit c = and2();
  ActivityOptions options;
  options.sample_pairs = 1 << 12;
  options.input_one_probability = 0.9;
  const ActivityResult r = estimate_activity(c, options);
  EXPECT_NEAR(r.one_probability[c.outputs()[0]], 0.81, 0.02);
}

TEST(Activity, InputNodesHaveHalfActivity) {
  const Circuit c = and2();
  const ActivityResult r = exact_activity(c);
  for (NodeId in : c.inputs()) {
    EXPECT_NEAR(r.one_probability[in], 0.5, 1e-12);
    EXPECT_NEAR(r.toggle_rate[in], 0.5, 1e-12);
  }
}

TEST(Activity, AverageExcludesInputsAndConstants) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId k = c.add_const(true);
  c.add_output(c.add_gate(GateType::kAnd, a, k));
  const ActivityResult r = exact_activity(c);
  // Only the AND gate contributes; AND(a, 1) == a, so p = 0.5.
  EXPECT_NEAR(r.avg_gate_one_probability, 0.5, 1e-12);
}

TEST(Activity, IdentityFromProbability) {
  EXPECT_DOUBLE_EQ(activity_from_probability(0.0), 0.0);
  EXPECT_DOUBLE_EQ(activity_from_probability(1.0), 0.0);
  EXPECT_DOUBLE_EQ(activity_from_probability(0.5), 0.5);
  EXPECT_DOUBLE_EQ(activity_from_probability(0.25), 0.375);
}

TEST(Activity, ZeroSamplePairsRejected) {
  ActivityOptions options;
  options.sample_pairs = 0;
  EXPECT_THROW((void)estimate_activity(and2(), options),
               std::invalid_argument);
}

TEST(Activity, ExactRejectsTooManyInputs) {
  // 27 inputs is one past the exhaustive cap; rca32 has 65, where a 2^n
  // assignment count would not fit the shift.
  Circuit wide;
  std::vector<NodeId> inputs;
  for (int i = 0; i < 27; ++i) inputs.push_back(wide.add_input());
  wide.add_output(wide.add_gate(GateType::kAnd, inputs));
  EXPECT_THROW((void)exact_activity(wide), std::invalid_argument);
  const Circuit rca32 = gen::find_benchmark("rca32").build();
  ASSERT_EQ(rca32.num_inputs(), 65U);
  EXPECT_THROW((void)exact_activity(rca32), std::invalid_argument);
}

}  // namespace
}  // namespace enb::sim
