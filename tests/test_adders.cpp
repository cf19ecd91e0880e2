#include "gen/adders.hpp"

#include <gtest/gtest.h>

#include "netlist/stats.hpp"
#include "sim/exhaustive.hpp"
#include "sim/logic_sim.hpp"

namespace enb::gen {
namespace {

using netlist::Circuit;

// Evaluates an adder on concrete operand values via single-vector simulation.
std::uint64_t run_adder(const Circuit& c, int bits, std::uint64_t a,
                        std::uint64_t b, bool cin) {
  std::vector<bool> in;
  for (int i = 0; i < bits; ++i) in.push_back(((a >> i) & 1U) != 0);
  for (int i = 0; i < bits; ++i) in.push_back(((b >> i) & 1U) != 0);
  in.push_back(cin);
  const std::vector<bool> out = sim::eval_single(c, in);
  std::uint64_t result = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i]) result |= std::uint64_t{1} << i;
  }
  return result;  // sum bits then cout as the top bit
}

struct AdderKind {
  const char* name;
  Circuit (*build)(int);
};

// Prints the case name, so the listed test names stay the same from build
// to build (gtest's default byte dump would show the struct's pointers).
void PrintTo(const AdderKind& k, std::ostream* os) { *os << k.name; }

class AdderKindTest : public ::testing::TestWithParam<AdderKind> {};

TEST_P(AdderKindTest, FourBitExhaustive) {
  const Circuit c = GetParam().build(4);
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      for (int cin = 0; cin < 2; ++cin) {
        const std::uint64_t expect = a + b + static_cast<std::uint64_t>(cin);
        EXPECT_EQ(run_adder(c, 4, a, b, cin != 0), expect)
            << c.name() << ": " << a << "+" << b << "+" << cin;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AdderKindTest,
    ::testing::Values(
        AdderKind{"ripple", [](int n) { return ripple_carry_adder(n); }},
        AdderKind{"lookahead", [](int n) { return carry_lookahead_adder(n); }},
        AdderKind{"select", [](int n) { return carry_select_adder(n, 2); }}),
    [](const ::testing::TestParamInfo<AdderKind>& info) {
      return std::string(info.param.name);
    });

TEST(Adders, VariantsAreEquivalent) {
  const Circuit rca = ripple_carry_adder(8);
  const Circuit cla = carry_lookahead_adder(8);
  const Circuit csel = carry_select_adder(8, 3);
  EXPECT_TRUE(sim::exhaustive_equivalent(rca, cla));
  EXPECT_TRUE(sim::exhaustive_equivalent(rca, csel));
}

TEST(Adders, RippleGateCount) {
  // 5 gates per full adder.
  EXPECT_EQ(ripple_carry_adder(8).gate_count(), 40u);
  EXPECT_EQ(ripple_carry_adder(32).gate_count(), 160u);
}

TEST(Adders, RippleDepthLinear) {
  const auto s8 = netlist::compute_stats(ripple_carry_adder(8));
  const auto s16 = netlist::compute_stats(ripple_carry_adder(16));
  EXPECT_GT(s16.depth, s8.depth);
  EXPECT_GE(s8.depth, 8);
}

TEST(Adders, LookaheadShallowerThanRipple) {
  const auto rca = netlist::compute_stats(ripple_carry_adder(16));
  const auto cla = netlist::compute_stats(carry_lookahead_adder(16));
  EXPECT_LT(cla.depth, rca.depth);
}

TEST(Adders, LookaheadHasWideGates) {
  EXPECT_GE(netlist::compute_stats(carry_lookahead_adder(16)).max_fanin, 4);
}

TEST(Adders, InterfaceNaming) {
  const Circuit c = ripple_carry_adder(4);
  EXPECT_EQ(c.num_inputs(), 9u);
  EXPECT_EQ(c.num_outputs(), 5u);
  EXPECT_EQ(c.output_name(0), "sum0");
  EXPECT_EQ(c.output_name(4), "cout");
}

TEST(Adders, WidthOneWorks) {
  const Circuit c = ripple_carry_adder(1);
  EXPECT_EQ(run_adder(c, 1, 1, 1, false), 2u);  // 1+1 = 10b
  EXPECT_EQ(run_adder(c, 1, 1, 1, true), 3u);
}

TEST(Adders, RejectBadArgs) {
  EXPECT_THROW((void)ripple_carry_adder(0), std::invalid_argument);
  EXPECT_THROW((void)carry_select_adder(4, 0), std::invalid_argument);
}

}  // namespace
}  // namespace enb::gen
