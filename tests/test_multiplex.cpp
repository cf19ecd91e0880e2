#include "ft/multiplex.hpp"

#include <gtest/gtest.h>

#include "gen/iscas.hpp"
#include "gen/parity.hpp"
#include "sim/exhaustive.hpp"
#include "synth/mapper.hpp"

namespace enb::ft {
namespace {

TEST(Multiplex, NoiselessMultiplexedCircuitIsCorrect) {
  const auto base = gen::c17();
  const MultiplexedCircuit mc = multiplex_transform(base);
  // With epsilon = 0 every wire of a bundle carries the correct value, so
  // the decode matches the golden circuit exactly.
  const auto rel = estimate_multiplexed_reliability(mc, base, 0.0);
  EXPECT_EQ(rel.failures, 0u);
}

TEST(Multiplex, StructureScalesWithBundleWidth) {
  const auto base = gen::c17();
  MultiplexOptions options;
  options.bundle_width = 5;
  options.restorative_stages = 0;
  const MultiplexedCircuit mc = multiplex_transform(base, options);
  // Executive stages only: 5 copies of each gate.
  EXPECT_EQ(mc.circuit.gate_count(), 5 * base.gate_count());
  EXPECT_EQ(mc.circuit.num_inputs(), 5 * base.num_inputs());
  EXPECT_EQ(mc.output_bundles.size(), base.num_outputs());
}

TEST(Multiplex, RestorativeStagesAddMajorities) {
  const auto base = gen::c17();
  MultiplexOptions plain;
  plain.restorative_stages = 0;
  MultiplexOptions restored;
  restored.restorative_stages = 1;
  const auto without = multiplex_transform(base, plain);
  const auto with = multiplex_transform(base, restored);
  // Each restorative stage adds one maj3 voter (4 two-input gates) per wire
  // of the default 5-wire bundle, per gate of the original circuit.
  EXPECT_EQ(with.circuit.gate_count() - without.circuit.gate_count(),
            base.gate_count() * 5 * 4);
}

TEST(Multiplex, ImprovesOverBareCircuitAtLowEpsilon) {
  const auto base = gen::parity_tree(4, 2);
  MultiplexOptions options;
  options.bundle_width = 7;
  options.restorative_stages = 1;
  const MultiplexedCircuit mc = multiplex_transform(base, options);
  const double eps = 0.005;
  sim::ReliabilityOptions rel_options;
  rel_options.trials = 1 << 16;
  const auto bare = sim::estimate_reliability(base, eps, rel_options);
  const auto muxed = estimate_multiplexed_reliability(mc, base, eps, rel_options);
  EXPECT_LT(muxed.delta_hat, bare.delta_hat);
}

TEST(Multiplex, DeterministicPerSeed) {
  const auto base = gen::c17();
  MultiplexOptions options;
  options.seed = 99;
  const auto a = multiplex_transform(base, options);
  const auto b = multiplex_transform(base, options);
  EXPECT_EQ(a.circuit.node_count(), b.circuit.node_count());
  for (netlist::NodeId id = 0; id < a.circuit.node_count(); ++id) {
    EXPECT_EQ(a.circuit.fanins(id).size(), b.circuit.fanins(id).size());
  }
}

TEST(Multiplex, RejectsWideGates) {
  netlist::Circuit wide;
  const auto a = wide.add_input();
  const auto b = wide.add_input();
  const auto c = wide.add_input();
  wide.add_output(wide.add_gate(netlist::GateType::kAnd,
                                std::vector<netlist::NodeId>{a, b, c}));
  EXPECT_THROW((void)multiplex_transform(wide), std::invalid_argument);
  // After mapping to a 2-input basis it works.
  const auto mapped = synth::map_to_library(wide, 2);
  EXPECT_NO_THROW((void)multiplex_transform(mapped.circuit));
}

TEST(Multiplex, RejectsBadOptions) {
  const auto base = gen::c17();
  MultiplexOptions options;
  options.bundle_width = 4;  // even
  EXPECT_THROW((void)multiplex_transform(base, options), std::invalid_argument);
  options.bundle_width = 1;
  EXPECT_THROW((void)multiplex_transform(base, options), std::invalid_argument);
  options = {};
  options.restorative_stages = -1;
  EXPECT_THROW((void)multiplex_transform(base, options), std::invalid_argument);
}

TEST(Multiplex, ReplicaRangeBracketsTheMultiplexedFabric) {
  const auto base = gen::c17();
  for (const int width : {3, 5}) {
    MultiplexOptions options;
    options.bundle_width = width;
    const MultiplexedCircuit mc = multiplex_transform(base, options);
    const auto [begin, end] = mc.replica_range();
    EXPECT_EQ(begin, mc.replica_begin);
    EXPECT_EQ(end, mc.replica_end);
    // Everything below the range is an input bundle wire; the multiplexed
    // logic fills the rest of the node table (outputs are marks, not nodes).
    EXPECT_EQ(begin, base.num_inputs() * static_cast<std::size_t>(width));
    EXPECT_EQ(end, mc.circuit.node_count());
    for (const auto& wires : mc.output_bundles) {
      for (const netlist::NodeId wire : wires) {
        EXPECT_GE(wire, begin);
        EXPECT_LT(wire, end);
      }
    }
  }
}

TEST(Multiplex, ReliabilityInterfaceChecks) {
  const auto base = gen::c17();
  const auto other = gen::parity_tree(4, 2);
  const MultiplexedCircuit mc = multiplex_transform(base);
  EXPECT_THROW((void)estimate_multiplexed_reliability(mc, other, 0.01),
               std::invalid_argument);
}

}  // namespace
}  // namespace enb::ft
