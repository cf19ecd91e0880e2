#include "gen/multipliers.hpp"

#include <gtest/gtest.h>

#include "netlist/stats.hpp"
#include "sim/exhaustive.hpp"
#include "sim/logic_sim.hpp"

namespace enb::gen {
namespace {

using netlist::Circuit;

std::uint64_t run_multiplier(const Circuit& c, int bits, std::uint64_t a,
                             std::uint64_t b) {
  std::vector<bool> in;
  for (int i = 0; i < bits; ++i) in.push_back(((a >> i) & 1U) != 0);
  for (int i = 0; i < bits; ++i) in.push_back(((b >> i) & 1U) != 0);
  const std::vector<bool> out = sim::eval_single(c, in);
  std::uint64_t result = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i]) result |= std::uint64_t{1} << i;
  }
  return result;
}

struct MultiplierKind {
  const char* name;
  Circuit (*build)(int);
};

// Prints the case name, so the listed test names stay the same from build
// to build (gtest's default byte dump would show the struct's pointers).
void PrintTo(const MultiplierKind& k, std::ostream* os) { *os << k.name; }

class MultiplierTest : public ::testing::TestWithParam<MultiplierKind> {};

TEST_P(MultiplierTest, ThreeBitExhaustive) {
  const Circuit c = GetParam().build(3);
  for (std::uint64_t a = 0; a < 8; ++a) {
    for (std::uint64_t b = 0; b < 8; ++b) {
      EXPECT_EQ(run_multiplier(c, 3, a, b), a * b)
          << c.name() << ": " << a << "*" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, MultiplierTest,
    ::testing::Values(
        MultiplierKind{"array", [](int n) { return array_multiplier(n); }},
        MultiplierKind{"wallace", [](int n) { return wallace_multiplier(n); }}),
    [](const ::testing::TestParamInfo<MultiplierKind>& info) {
      return std::string(info.param.name);
    });

TEST(Multipliers, FourBitSpotChecks) {
  const Circuit c = array_multiplier(4);
  EXPECT_EQ(run_multiplier(c, 4, 15, 15), 225u);
  EXPECT_EQ(run_multiplier(c, 4, 0, 13), 0u);
  EXPECT_EQ(run_multiplier(c, 4, 7, 9), 63u);
}

TEST(Multipliers, ArrayAndWallaceEquivalent) {
  EXPECT_TRUE(sim::exhaustive_equivalent(array_multiplier(4),
                                         wallace_multiplier(4)));
}

TEST(Multipliers, InterfaceShape) {
  const Circuit c = array_multiplier(4);
  EXPECT_EQ(c.num_inputs(), 8u);
  EXPECT_EQ(c.num_outputs(), 8u);
  EXPECT_EQ(c.output_name(0), "p0");
  EXPECT_EQ(c.output_name(7), "p7");
}

TEST(Multipliers, SizeGrowsQuadratically) {
  const auto g4 = array_multiplier(4).gate_count();
  const auto g8 = array_multiplier(8).gate_count();
  EXPECT_GT(g8, 3 * g4);  // ~4x for a quadratic structure
}

TEST(Multipliers, WallaceShallowerThanArrayAtWidth8) {
  const auto array_depth = netlist::compute_stats(array_multiplier(8)).depth;
  const auto wallace_depth =
      netlist::compute_stats(wallace_multiplier(8)).depth;
  EXPECT_LT(wallace_depth, array_depth);
}

TEST(Multipliers, WidthOne) {
  const Circuit c = array_multiplier(1);
  EXPECT_EQ(run_multiplier(c, 1, 1, 1), 1u);
  EXPECT_EQ(run_multiplier(c, 1, 1, 0), 0u);
}

TEST(Multipliers, RejectBadArgs) {
  EXPECT_THROW((void)array_multiplier(0), std::invalid_argument);
  EXPECT_THROW((void)wallace_multiplier(-1), std::invalid_argument);
}

}  // namespace
}  // namespace enb::gen
