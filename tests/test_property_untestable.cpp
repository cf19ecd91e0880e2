// Soundness property tests for the static untestability prover.
//
// The prover's claim is absolute: a pruned class is *never* detected by any
// pattern. On circuits small enough to enumerate (<= 20 logical inputs) that
// claim is checkable exactly — simulate every pruned class under every one
// of the 2^n assignments with the scalar reference simulator and demand zero
// detections. The suite runs that check over the generator small suite,
// seeded random DAGs (whose unused cones exercise the dead-net rule), and
// hand-built circuits that hit each proof rule on purpose, including the
// probe-learned-constant trap the prover must NOT fall into.
//
// The second half pins the campaign-layer contract: pruning shrinks the
// active set and the coverage denominator but leaves every per-class record
// bit-identical, for any thread count.
#include "fault/untestable.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/fault_model.hpp"
#include "fault/fault_sim.hpp"
#include "gen/random_circuit.hpp"
#include "gen/suite.hpp"
#include "netlist/circuit.hpp"
#include "sim/logic_sim.hpp"

namespace enb::fault {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

// Exhaustively verifies that no class the prover pruned is detectable, and
// returns how many classes were actually checked (0 when nothing was
// pruned — callers asserting non-vacuity check the return).
std::uint64_t verify_pruned_classes_undetectable(const Circuit& circuit) {
  EXPECT_LE(circuit.num_inputs(), 20u) << circuit.name();
  const FaultUniverse universe = FaultUniverse::build(
      circuit, /*collapse=*/true, /*prune_untestable=*/true);
  std::vector<std::uint32_t> pruned;
  for (std::size_t c = 0; c < universe.num_classes(); ++c) {
    if (universe.class_untestable(c)) pruned.push_back(static_cast<std::uint32_t>(c));
  }
  EXPECT_EQ(pruned.size(), universe.num_untestable()) << circuit.name();
  if (pruned.empty()) return 0;

  ScalarFaultSim sim(circuit, universe);
  const std::size_t n = circuit.num_inputs();
  std::vector<bool> pattern(n);
  for (std::uint64_t assignment = 0; assignment < (std::uint64_t{1} << n);
       ++assignment) {
    for (std::size_t i = 0; i < n; ++i) {
      pattern[i] = ((assignment >> i) & 1u) != 0;
    }
    const std::vector<bool> expected = sim::eval_single(circuit, pattern);
    for (const std::uint32_t c : pruned) {
      const bool detected = sim.detect(c, pattern, expected);
      EXPECT_FALSE(detected)
          << circuit.name() << ": pruned class " << c
          << " detected by assignment " << assignment;
      if (detected) return pruned.size();  // one counterexample is enough
    }
  }
  return pruned.size();
}

// One circuit that fires every proof rule: a constant gate (rule 1), a cone
// never reaching an output (rule 2), and a live net whose only path out is
// blocked by a constant side input at the controlling value (rule 3).
Circuit rule_mix_circuit() {
  Circuit c("rule-mix");
  const NodeId x = c.add_input("x");
  const NodeId y = c.add_input("y");
  const NodeId zero = c.add_const(false);
  const NodeId live = c.add_gate(GateType::kNot, y);       // live, non-constant
  const NodeId gate = c.add_gate(GateType::kAnd, live, zero);  // constant 0
  const NodeId out = c.add_gate(GateType::kOr, gate, x);   // = x, observable
  c.add_gate(GateType::kAnd, x, y);                        // dead cone
  c.add_output(out, "out");
  return c;
}

// The soundness trap: m = OR(x, NOT(BUF(x))) is identically 1, but only by
// a probe-learned argument that depends on the very nets being faulted —
// e.g. BUF(x) stuck-at-1 makes m = x, which IS detectable. Blocking on m
// would wrongly prune the x cone.
Circuit probe_trap_circuit() {
  Circuit c("probe-trap");
  const NodeId x = c.add_input("x");
  const NodeId y = c.add_input("y");
  const NodeId buf = c.add_gate(GateType::kBuf, x);
  const NodeId inv = c.add_gate(GateType::kNot, buf);
  const NodeId m = c.add_gate(GateType::kOr, x, inv);  // == 1, probe-only
  const NodeId out = c.add_gate(GateType::kAnd, m, y);
  c.add_output(out, "out");
  return c;
}

TEST(UntestableProperty, RuleMixCircuitHitsEveryRule) {
  const Circuit circuit = rule_mix_circuit();
  const FaultUniverse universe = FaultUniverse::build(circuit);
  const UntestableReport report = find_untestable(circuit, universe);
  EXPECT_GT(report.constant_nets, 0u);
  EXPECT_GT(report.dead_nets, 0u);
  EXPECT_GT(report.blocked_nets, 0u);
  EXPECT_GT(report.untestable_classes, 0u);
  EXPECT_GT(report.untestable_sites, 0u);
}

TEST(UntestableProperty, ProbeTrapPrunesNothingUnsound) {
  // No constant gates, no dead nets: the prover must claim nothing at all
  // here, even though the probing tier can prove m constant.
  const Circuit circuit = probe_trap_circuit();
  const FaultUniverse universe = FaultUniverse::build(circuit);
  const UntestableReport report = find_untestable(circuit, universe);
  EXPECT_EQ(report.constant_nets, 0u);
  EXPECT_EQ(report.blocked_nets, 0u);
  EXPECT_EQ(report.untestable_classes, 0u);
}

TEST(UntestableProperty, ExhaustiveCheckOnHandBuiltCircuits) {
  EXPECT_GT(verify_pruned_classes_undetectable(rule_mix_circuit()), 0u);
  EXPECT_EQ(verify_pruned_classes_undetectable(probe_trap_circuit()), 0u);
}

TEST(UntestableProperty, ExhaustiveCheckOnSmallSuite) {
  for (const gen::BenchmarkSpec& spec : gen::small_suite()) {
    const Circuit circuit = spec.build();
    verify_pruned_classes_undetectable(circuit);
  }
}

TEST(UntestableProperty, ExhaustiveCheckOnRandomCircuits) {
  // Narrow output interfaces leave unused cones, so the dead-net rule fires
  // on most seeds; the check stays exhaustive at 8 inputs (256 patterns).
  std::uint64_t total_pruned = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::RandomCircuitOptions options;
    options.num_inputs = 8;
    options.num_gates = 48;
    options.num_outputs = 3;
    options.seed = seed;
    total_pruned +=
        verify_pruned_classes_undetectable(gen::random_circuit(options));
  }
  EXPECT_GT(total_pruned, 0u);  // the sweep must not be vacuous
}

// ---- campaign-layer pruning contract -------------------------------------

TEST(UntestableProperty, PrunedCampaignBitIdenticalOnTestableClasses) {
  const Circuit circuit = rule_mix_circuit();
  CampaignOptions base;
  base.exhaustive = true;
  base.shard_patterns = 2;  // 2 inputs -> 4 patterns in 2 shards
  const FaultCampaignResult plain =
      run_campaign(circuit, nullptr, base);

  CampaignOptions pruning = base;
  pruning.prune_untestable = true;
  const FaultCampaignResult pruned = run_campaign(circuit, nullptr, pruning);

  ASSERT_EQ(pruned.classes, plain.classes);
  EXPECT_GT(pruned.untestable, 0u);
  EXPECT_EQ(plain.untestable, 0u);
  EXPECT_EQ(pruned.sampled, plain.classes - pruned.untestable);
  // Every per-class record is unchanged: an untestable class reports "never
  // detected" whether it was simulated or pruned.
  EXPECT_EQ(pruned.detection_counts, plain.detection_counts);
  EXPECT_EQ(pruned.first_detect_pattern, plain.first_detect_pattern);
  EXPECT_EQ(pruned.first_detect_output, plain.first_detect_output);
  EXPECT_EQ(pruned.detected, plain.detected);
  // Only the denominator moves.
  EXPECT_DOUBLE_EQ(pruned.coverage,
                   static_cast<double>(pruned.detected) /
                       static_cast<double>(pruned.sampled));
  EXPECT_GE(pruned.coverage, plain.coverage);
  // Never more work than the full universe (equal when the testable set
  // still fills the same number of 64-lane blocks).
  EXPECT_LE(pruned.sim_passes, plain.sim_passes);
}

TEST(UntestableProperty, PrunedCampaignIndependentOfExecutionPolicy) {
  gen::RandomCircuitOptions spec;
  spec.num_inputs = 8;
  spec.num_gates = 48;
  spec.num_outputs = 3;
  spec.seed = 2;
  const Circuit circuit = gen::random_circuit(spec);

  CampaignOptions options;
  options.patterns = 48;
  options.shard_patterns = 16;
  options.prune_untestable = true;
  const FaultCampaignResult baseline = run_campaign(circuit, nullptr, options);
  EXPECT_GT(baseline.untestable, 0u);
  EXPECT_EQ(run_campaign(circuit, nullptr, options,
                         exec::Parallelism::dedicated(8)),
            baseline);
  EXPECT_EQ(run_campaign(circuit, nullptr, options,
                         exec::Parallelism::serial()),
            baseline);
}

}  // namespace
}  // namespace enb::fault
