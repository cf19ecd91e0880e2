// Property: a hardened candidate's derived profile equals its extracted
// profile, field by field and node by node.
//
// pareto_sweep never extracts a proved candidate's profile; it derives one
// from the base extraction through harden::node_origins (harden/derive.hpp).
// This suite checks that shortcut against core::profile_job run on the
// candidate itself (core::extract_profile returns that job's profile), for
// every style x granularity x K x voter style over the standard suite and
// c432 — circuits on both activity routes (exhaustive
// up to 16 inputs, Monte-Carlo beyond) and both sensitivity routes (exact up to
// the cap, sampled beyond). It also asserts that every node of every
// transform has an origin, so the extraction fallback can never hide a
// derivation that silently stopped happening.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/profile.hpp"
#include "exec/thread_pool.hpp"
#include "gen/suite.hpp"
#include "harden/derive.hpp"
#include "harden/pareto.hpp"
#include "harden/transform.hpp"
#include "netlist/circuit.hpp"

namespace enb::harden {
namespace {

using netlist::Circuit;
using netlist::NodeId;

std::vector<std::string> circuit_names() {
  std::vector<std::string> names;
  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    names.push_back(spec.name);
  }
  names.push_back("c432");
  return names;
}

// Small budgets keep ~800 extractions fast; the property holds for any
// budget. Caps of 12 inputs put the wider circuits (mult8, parity16 and up)
// on the Monte-Carlo activity and sampled sensitivity routes.
core::ProfileOptions profile_options() {
  core::ProfileOptions options;
  options.activity_pairs = 48;
  options.exact_activity_max_inputs = 12;
  options.sensitivity_exact_max_inputs = 12;
  options.sensitivity_sample_words = 24;
  return options;
}

// Every transform config of a default sweep (all nine style x granularity
// pairs, selective over its whole K ladder) for one voter style.
std::vector<TransformOptions> configs(const Circuit& base,
                                      ft::VoterStyle voter) {
  SweepOptions sweep;
  sweep.voter = voter;
  return enumerate_candidates(base.num_outputs(), sweep);
}

std::string describe(const TransformOptions& config) {
  return std::string(to_string(config.style)) + "/" +
         to_string(config.granularity) + "/k" +
         std::to_string(config.top_k) +
         (config.voter == ft::VoterStyle::kMajGate ? "/maj" : "/two-input");
}

void expect_same_profile(const core::CircuitProfile& derived,
                         const core::CircuitProfile& extracted) {
  EXPECT_EQ(derived.name, extracted.name);
  EXPECT_EQ(derived.num_inputs, extracted.num_inputs);
  EXPECT_EQ(derived.num_outputs, extracted.num_outputs);
  EXPECT_EQ(derived.size_s0, extracted.size_s0);
  EXPECT_EQ(derived.depth_d0, extracted.depth_d0);
  EXPECT_EQ(derived.avg_fanin_k, extracted.avg_fanin_k);
  EXPECT_EQ(derived.max_fanin, extracted.max_fanin);
  EXPECT_EQ(derived.avg_activity_sw0, extracted.avg_activity_sw0);
  EXPECT_EQ(derived.sensitivity_s, extracted.sensitivity_s);
  EXPECT_EQ(derived.sensitivity_exact, extracted.sensitivity_exact);
}

void expect_same_activity(const sim::ActivityResult& derived,
                          const sim::ActivityResult& extracted) {
  EXPECT_EQ(derived.one_probability, extracted.one_probability);
  EXPECT_EQ(derived.toggle_rate, extracted.toggle_rate);
  EXPECT_EQ(derived.avg_gate_one_probability,
            extracted.avg_gate_one_probability);
  EXPECT_EQ(derived.avg_gate_toggle_rate, extracted.avg_gate_toggle_rate);
  EXPECT_EQ(derived.sample_pairs, extracted.sample_pairs);
}

class DerivedProfile : public ::testing::TestWithParam<std::string> {};

TEST_P(DerivedProfile, EqualsExtractionForEveryTransform) {
  const Circuit base = gen::find_benchmark(GetParam()).build();
  const core::ProfileOptions options = profile_options();
  const exec::Parallelism how = exec::Parallelism::global_pool();
  const core::ProfileExtraction base_profile =
      exec::run(core::profile_job(base, options), how);
  const BaseIndex index(base);
  ASSERT_TRUE(node_origins(index, base).has_value());

  for (const ft::VoterStyle voter :
       {ft::VoterStyle::kMajGate, ft::VoterStyle::kTwoInput}) {
    for (const TransformOptions& config : configs(base, voter)) {
      SCOPED_TRACE(GetParam() + " " + describe(config));
      const HardenedCircuit variant = harden_transform(base, config);

      const std::optional<std::vector<NodeId>> origins =
          node_origins(index, variant.circuit);
      ASSERT_TRUE(origins.has_value()) << "a node has no origin";
      ASSERT_EQ(origins->size(), variant.circuit.node_count());
      for (const NodeId origin : *origins) {
        EXPECT_TRUE(origin == kZeroOrigin || origin < base.node_count());
      }

      const std::optional<core::ProfileExtraction> derived =
          derive_profile(index, base_profile, variant);
      ASSERT_TRUE(derived.has_value()) << "derivation fell back";
      const core::ProfileExtraction extracted =
          exec::run(core::profile_job(variant.circuit, options), how);
      expect_same_profile(derived->profile, extracted.profile);
      expect_same_activity(derived->activity, extracted.activity);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, DerivedProfile, ::testing::ValuesIn(circuit_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(DerivedProfileRules, VotersAndComparatorsCollapseToTheirOrigin) {
  Circuit base("base");
  const NodeId a = base.add_input("a");
  const NodeId b = base.add_input("b");
  const NodeId g = base.add_gate(netlist::GateType::kNand, a, b);
  base.add_output(g, "y");

  Circuit variant("variant");
  const NodeId va = variant.add_input("a");
  const NodeId vb = variant.add_input("b");
  const NodeId r1 = variant.add_gate(netlist::GateType::kNand, vb, va);
  const NodeId r2 = variant.add_gate(netlist::GateType::kNand, va, vb);
  const NodeId maj = variant.add_gate(netlist::GateType::kMaj, r1, r2, r1);
  const NodeId cmp = variant.add_gate(netlist::GateType::kXor, maj, r2);
  const NodeId any = variant.add_gate(netlist::GateType::kOr, cmp, cmp);
  const NodeId zero = variant.add_const(false);
  variant.add_output(maj, "y");
  variant.add_output(any, "y_check");

  const BaseIndex index(base);
  const std::optional<std::vector<NodeId>> origins =
      node_origins(index, variant);
  ASSERT_TRUE(origins.has_value());
  EXPECT_EQ((*origins)[va], a);
  EXPECT_EQ((*origins)[vb], b);
  EXPECT_EQ((*origins)[r1], g);  // commutative fanins match either order
  EXPECT_EQ((*origins)[r2], g);
  EXPECT_EQ((*origins)[maj], g);
  EXPECT_EQ((*origins)[cmp], kZeroOrigin);
  EXPECT_EQ((*origins)[any], kZeroOrigin);
  EXPECT_EQ((*origins)[zero], kZeroOrigin);

  // A gate the base never computes has no origin, and neither does a
  // circuit with a different input interface.
  Circuit foreign = variant;
  foreign.add_gate(netlist::GateType::kAnd, va, vb);
  EXPECT_FALSE(node_origins(index, foreign).has_value());
  Circuit wider = variant;
  wider.add_input("c");
  EXPECT_FALSE(node_origins(index, wider).has_value());
}

}  // namespace
}  // namespace enb::harden
