#include "gen/suite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "gen/iscas.hpp"
#include "sim/logic_sim.hpp"

namespace enb::gen {
namespace {

TEST(Suite, StandardSuiteBuildsValidCircuits) {
  for (const BenchmarkSpec& spec : standard_suite()) {
    const netlist::Circuit c = spec.build();
    EXPECT_EQ(c.name(), spec.name);
    EXPECT_GT(c.num_outputs(), 0u) << spec.name;
    EXPECT_GT(c.gate_count(), 0u) << spec.name;
  }
}

TEST(Suite, ScaleSuiteBuildsValidKiloNetCircuits) {
  // The scale suite exists for fault campaigns at thousand-net size; every
  // member has outputs and at least one clears 1000 nets (inputs + gates).
  std::size_t max_nets = 0;
  for (const BenchmarkSpec& spec : scale_suite()) {
    const netlist::Circuit c = spec.build();
    EXPECT_EQ(c.name(), spec.name);
    EXPECT_GT(c.num_outputs(), 0u) << spec.name;
    max_nets = std::max(max_nets, c.num_inputs() + c.gate_count());
  }
  EXPECT_GE(max_nets, 1000u);
}

TEST(Suite, NamesAreUnique) {
  std::set<std::string> names;
  for (const BenchmarkSpec& spec : standard_suite()) {
    EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
  }
  // Scale-suite names share the lookup namespace with the standard suite.
  for (const BenchmarkSpec& spec : scale_suite()) {
    EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
  }
}

TEST(Suite, FamiliesCoverPaperWorkloads) {
  std::set<std::string> families;
  for (const BenchmarkSpec& spec : standard_suite()) {
    families.insert(spec.family);
  }
  // The paper's Section 6 mix: ISCAS subset + adders + multipliers; parity is
  // the tightness family; control circuits widen the sw0 range.
  EXPECT_TRUE(families.count("iscas"));
  EXPECT_TRUE(families.count("adder"));
  EXPECT_TRUE(families.count("multiplier"));
  EXPECT_TRUE(families.count("parity"));
}

TEST(Suite, SmallSuiteIsSubsetOfStandard) {
  std::set<std::string> standard;
  for (const BenchmarkSpec& spec : standard_suite()) standard.insert(spec.name);
  for (const BenchmarkSpec& spec : small_suite()) {
    EXPECT_TRUE(standard.count(spec.name)) << spec.name;
  }
}

TEST(Suite, FindBenchmark) {
  const BenchmarkSpec spec = find_benchmark("rca16");
  EXPECT_EQ(spec.name, "rca16");
  EXPECT_EQ(spec.build().num_inputs(), 33u);
  // Scale-suite members resolve through the same lookup.
  EXPECT_EQ(find_benchmark("rca256").build().num_inputs(), 513u);
  EXPECT_THROW((void)find_benchmark("c6288"), std::invalid_argument);
}

TEST(Suite, C17MatchesIscasStructure) {
  const netlist::Circuit c = c17();
  EXPECT_EQ(c.num_inputs(), 5u);
  EXPECT_EQ(c.num_outputs(), 2u);
  EXPECT_EQ(c.gate_count(), 6u);
  // Known vector: all inputs 1 -> outputs (1, 0); see test_logic_sim.
  const std::vector<bool> ones(5, true);
  const auto out = sim::eval_single(c, ones);
  EXPECT_TRUE(out[0]);
  EXPECT_FALSE(out[1]);
}

// Behavioral reference for the c432 interrupt controller, written from the
// Hansen-Yalcin-Hayes high-level spec (not from the netlist): inputs are
// E[0..8], A[0..8], B[0..8], C[0..8] in declaration order; a channel
// requests on bus X when X[i] & E[i]; bus priority is A > B > C; the lowest
// granted channel's index is binary-encoded on the four address outputs
// (channel 0 — and "no grant" — encode as 0000). Outputs in declaration
// order: PA, PB, PC, addr3 (MSB), addr2, addr1, addr0.
std::vector<bool> c432_reference(const std::vector<bool>& in) {
  bool req_a[9];
  bool req_b[9];
  bool req_c[9];
  bool any_a = false;
  bool any_b = false;
  bool any_c = false;
  for (int i = 0; i < 9; ++i) {
    const bool enable = in[static_cast<std::size_t>(i)];
    req_a[i] = in[static_cast<std::size_t>(9 + i)] && enable;
    req_b[i] = in[static_cast<std::size_t>(18 + i)] && enable;
    req_c[i] = in[static_cast<std::size_t>(27 + i)] && enable;
    any_a = any_a || req_a[i];
    any_b = any_b || req_b[i];
    any_c = any_c || req_c[i];
  }
  const bool pa = any_a;
  const bool pb = any_b && !pa;
  const bool pc = any_c && !pa && !pb;
  int first = 0;  // encodes 0000 when nothing is granted
  for (int i = 0; i < 9; ++i) {
    if ((pa && req_a[i]) || (pb && req_b[i]) || (pc && req_c[i])) {
      first = i;
      break;
    }
  }
  return {pa,
          pb,
          pc,
          (first & 8) != 0,
          (first & 4) != 0,
          (first & 2) != 0,
          (first & 1) != 0};
}

TEST(Suite, C432MatchesBehavioralReferenceModel) {
  const netlist::Circuit c = c432();
  ASSERT_EQ(c.num_inputs(), 36u);
  ASSERT_EQ(c.num_outputs(), 7u);
  EXPECT_EQ(c.gate_count(), 98u);

  const auto check = [&](const std::vector<bool>& in, const char* what) {
    EXPECT_EQ(sim::eval_single(c, in), c432_reference(in)) << what;
  };
  check(std::vector<bool>(36, false), "all zero");
  check(std::vector<bool>(36, true), "all one");
  // Single requests: each channel on each bus, alone, with every enable up —
  // exercises both priority arbitration and the full address encode range.
  for (int bus = 0; bus < 3; ++bus) {
    for (int channel = 0; channel < 9; ++channel) {
      std::vector<bool> in(36, false);
      for (int i = 0; i < 9; ++i) in[static_cast<std::size_t>(i)] = true;
      in[static_cast<std::size_t>(9 + 9 * bus + channel)] = true;
      check(in, "single request");
    }
  }
  // Deterministic pseudo-random assignments (xorshift64), biased by masking
  // so sparse request mixes — where the priority chain matters — show up.
  std::uint64_t state = 0xC432C432u;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 512; ++trial) {
    const std::uint64_t bits = next();
    const std::uint64_t mask = next() | next();
    std::vector<bool> in(36);
    for (std::size_t i = 0; i < 36; ++i) {
      in[i] = ((bits & mask) >> i & 1u) != 0;
    }
    check(in, "random assignment");
  }
}

}  // namespace
}  // namespace enb::gen
