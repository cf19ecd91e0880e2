#include "core/profile.hpp"

#include <gtest/gtest.h>

#include "gen/adders.hpp"
#include "gen/iscas.hpp"
#include "gen/parity.hpp"
#include "sim/exhaustive.hpp"

namespace enb::core {
namespace {

TEST(Profile, C17Extraction) {
  const CircuitProfile p = extract_profile(gen::c17());
  EXPECT_EQ(p.name, "c17");
  EXPECT_EQ(p.num_inputs, 5);
  EXPECT_EQ(p.num_outputs, 2);
  EXPECT_DOUBLE_EQ(p.size_s0, 6.0);
  EXPECT_EQ(p.depth_d0, 3);
  EXPECT_DOUBLE_EQ(p.avg_fanin_k, 2.0);
  EXPECT_TRUE(p.sensitivity_exact);
  // c17's sensitivity: flipping input 3 (signal "3") can change both
  // outputs; the exact value is 4 (verified by exhaustive enumeration).
  EXPECT_EQ(p.sensitivity_s, 4.0);
  EXPECT_GT(p.avg_activity_sw0, 0.2);
  EXPECT_LT(p.avg_activity_sw0, 0.6);
}

TEST(Profile, ParityActivityIsHalf) {
  // Every XOR output in a parity tree is balanced: sw = 0.5 exactly.
  const CircuitProfile p = extract_profile(gen::parity_tree(8, 2));
  EXPECT_NEAR(p.avg_activity_sw0, 0.5, 1e-12);
  EXPECT_EQ(p.sensitivity_s, 8.0);
  EXPECT_TRUE(p.sensitivity_exact);
}

TEST(Profile, RippleAdderSensitivity) {
  // Full sensitivity: at a=1..1, b=0..0, cin=0 every input flip changes the
  // output vector, so s = 2n+1.
  const CircuitProfile p = extract_profile(gen::ripple_carry_adder(4));
  EXPECT_EQ(p.sensitivity_s, 9.0);
  EXPECT_EQ(p.num_inputs, 9);
  EXPECT_DOUBLE_EQ(p.size_s0, 20.0);
}

TEST(Profile, LargeCircuitFallsBackToSampling) {
  ProfileOptions options;
  options.sensitivity_exact_max_inputs = 10;
  options.activity_pairs = 1 << 10;
  const CircuitProfile p =
      extract_profile(gen::ripple_carry_adder(16), options);
  EXPECT_FALSE(p.sensitivity_exact);
  // Sampled sensitivity still finds a decent lower bound for an adder.
  EXPECT_GE(p.sensitivity_s, 10.0);
  EXPECT_LE(p.sensitivity_s, 33.0);
}

TEST(Profile, MonteCarloAndExactActivityAgree) {
  ProfileOptions exact;
  ProfileOptions sampled;
  sampled.prefer_exact_activity = false;
  sampled.activity_pairs = 1 << 13;
  const auto circuit = gen::ripple_carry_adder(4);
  const CircuitProfile pe = extract_profile(circuit, exact);
  const CircuitProfile ps = extract_profile(circuit, sampled);
  EXPECT_NEAR(pe.avg_activity_sw0, ps.avg_activity_sw0, 0.01);
}

TEST(Profile, MakeProfileValidation) {
  const CircuitProfile p = make_profile("paper_parity", 10, 21, 0.5, 2, 10);
  EXPECT_EQ(p.sensitivity_s, 10.0);
  EXPECT_EQ(p.size_s0, 21.0);
  EXPECT_TRUE(p.sensitivity_exact);
  EXPECT_THROW((void)make_profile("bad", 0, 21, 0.5, 2, 10),
               std::invalid_argument);
  EXPECT_THROW((void)make_profile("bad", 10, 21, 1.5, 2, 10),
               std::invalid_argument);
}

TEST(Profile, RejectsExactCapBeyondExhaustiveLimit) {
  // A cap the exhaustive route cannot serve is refused up front, even for a
  // circuit small enough to fit under it.
  const netlist::Circuit c17 = gen::c17();
  ProfileOptions options;
  options.exact_activity_max_inputs = sim::kMaxExhaustiveInputs + 1;
  EXPECT_THROW((void)profile_job(c17, options), std::invalid_argument);
  options.exact_activity_max_inputs = sim::kMaxExhaustiveInputs;
  EXPECT_NO_THROW((void)profile_job(c17, options));
  // Without the exact route the cap is never read.
  options.exact_activity_max_inputs = sim::kMaxExhaustiveInputs + 1;
  options.prefer_exact_activity = false;
  EXPECT_NO_THROW((void)profile_job(c17, options));
}

TEST(Profile, RejectsGatelessCircuit) {
  netlist::Circuit c;
  c.add_output(c.add_input());
  EXPECT_THROW((void)extract_profile(c), std::invalid_argument);
}

}  // namespace
}  // namespace enb::core
