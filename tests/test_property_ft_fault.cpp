// Property tests tying the ft/ redundancy transforms to the fault engine:
// fault-free, NMR and multiplexed variants are exhaustively input-equivalent
// to the base circuit; under single injected stuck-at faults, the redundancy
// masks exactly where the constructions promise — every replica-internal
// fault for NMR, every fault anywhere for von Neumann multiplexing with a
// restorative stage — while the unprotected base exposes its whole collapsed
// universe.
#include <gtest/gtest.h>

#include <vector>

#include "fault/campaign.hpp"
#include "fault/fault_model.hpp"
#include "ft/multiplex.hpp"
#include "ft/nmr.hpp"
#include "gen/iscas.hpp"
#include "gen/suite.hpp"
#include "sim/bitpack.hpp"
#include "sim/exhaustive.hpp"
#include "sim/logic_sim.hpp"

namespace enb::ft {
namespace {

using netlist::Circuit;
using netlist::NodeId;

// Decoded exhaustive equivalence for bundled circuits: every logical
// assignment, inputs broadcast per bundle, outputs majority-decoded.
bool decoded_exhaustive_equivalent(const MultiplexedCircuit& mc,
                                   const Circuit& base) {
  bool equal = true;
  sim::LogicSim mux_sim(mc.circuit);
  sim::LogicSim base_sim(base);
  const auto width = static_cast<std::size_t>(mc.bundle_width);
  std::vector<sim::Word> mux_inputs(mc.circuit.num_inputs());
  std::vector<sim::Word> base_inputs(base.num_inputs());
  sim::LaneCounter counter(mc.bundle_width);
  sim::for_each_exhaustive_block(
      static_cast<int>(base.num_inputs()),
      [&](std::uint64_t, std::span<const sim::Word> inputs,
          sim::Word valid) {
        for (std::size_t i = 0; i < base.num_inputs(); ++i) {
          base_inputs[i] = inputs[i];
          for (std::size_t w = 0; w < width; ++w) {
            mux_inputs[i * width + w] = inputs[i];
          }
        }
        mux_sim.eval(mux_inputs);
        base_sim.eval(base_inputs);
        for (std::size_t o = 0; o < base.num_outputs(); ++o) {
          counter.reset();
          for (const NodeId wire : mc.output_bundles[o]) {
            counter.add(mux_sim.value(wire));
          }
          const sim::Word decoded = counter.greater_than(mc.bundle_width / 2);
          if ((decoded ^ base_sim.value(base.outputs()[o])) & valid) {
            equal = false;
          }
        }
      });
  return equal;
}

TEST(FtFaultProperties, NmrIsExhaustivelyEquivalentWhenFaultFree) {
  for (const char* name : {"c17", "parity8", "rca8"}) {
    const Circuit base = gen::find_benchmark(name).build();
    const NmrResult nmr = nmr_transform(base);
    EXPECT_TRUE(sim::exhaustive_equivalent(base, nmr.circuit)) << name;
  }
}

TEST(FtFaultProperties, MultiplexDecodesEquivalentWhenFaultFree) {
  for (const char* name : {"c17", "parity8"}) {
    const Circuit base = gen::find_benchmark(name).build();
    const MultiplexedCircuit mc = multiplex_transform(base);
    EXPECT_TRUE(decoded_exhaustive_equivalent(mc, base)) << name;
  }
}

TEST(FtFaultProperties, BaseC17ExposesItsWholeCollapsedUniverse) {
  // The masking properties below are only meaningful because the
  // unprotected circuit exposes every fault: exhaustive self-coverage 1.
  const Circuit base = gen::c17();
  fault::CampaignOptions options;
  options.exhaustive = true;
  const fault::FaultCampaignResult result =
      fault::run_campaign(base, nullptr, options);
  EXPECT_EQ(result.detected, result.classes);
}

TEST(FtFaultProperties, NmrMasksEverySingleReplicaFault) {
  const Circuit base = gen::c17();
  const NmrResult nmr = nmr_transform(base);
  fault::CampaignOptions options;
  options.exhaustive = true;
  const fault::FaultUniverse universe = fault::FaultUniverse::build(
      nmr.circuit, options.collapse);
  const fault::FaultCampaignResult result =
      fault::run_campaign(nmr.circuit, &base, options);
  ASSERT_EQ(result.first_detect_pattern.size(), universe.num_classes());

  std::size_t replica_sites = 0;
  for (std::size_t s = 0; s < universe.num_sites(); ++s) {
    const fault::FaultSite& site = universe.site(s);
    if (site.node < nmr.replica_begin || site.node >= nmr.replica_end) {
      continue;
    }
    ++replica_sites;
    EXPECT_EQ(result.first_detect_pattern[universe.class_of(s)],
              fault::kNotDetected)
        << "replica fault " << to_string(site.value) << " on node "
        << site.node << " escaped the voters";
  }
  // Sanity: the sweep actually covered the three replicas, and some voter
  // fault stays observable (the construction does not promise more).
  EXPECT_GE(replica_sites, 2 * 3 * base.gate_count());
  EXPECT_GT(result.detected, 0u);
}

TEST(FtFaultProperties, MultiplexMasksEverySingleFault) {
  // One restorative stage scrubs any single executive fault, and the output
  // majority decode absorbs any single restorative/output-wire fault: no
  // single stuck-at is observable at all.
  const Circuit base = gen::c17();
  const MultiplexedCircuit mc = multiplex_transform(base);
  fault::CampaignOptions options;
  options.exhaustive = true;
  options.bundle_width = mc.bundle_width;
  const fault::FaultCampaignResult result =
      fault::run_campaign(mc.circuit, &base, options);
  EXPECT_EQ(result.detected, 0u);
  EXPECT_DOUBLE_EQ(result.masked_fraction, 1.0);
  EXPECT_GT(result.gate_overhead, static_cast<double>(mc.bundle_width));
}

TEST(FtFaultProperties, CascadedTmrKeepsReplicaMaskingOneLevelDeep) {
  // One TMR level of the already-triplicated circuit: still exhaustively
  // equivalent, and a random-pattern masking campaign sees strictly more
  // masking than the flat circuit (0) without any voter-region bookkeeping.
  const Circuit base = gen::c17();
  const Circuit tmr = cascaded_tmr(base, 1);
  EXPECT_TRUE(sim::exhaustive_equivalent(base, tmr));
  fault::CampaignOptions options;
  options.exhaustive = true;
  const fault::FaultCampaignResult protected_result =
      fault::run_campaign(tmr, &base, options);
  const fault::FaultCampaignResult flat_result =
      fault::run_campaign(base, nullptr, options);
  EXPECT_GT(protected_result.masked_fraction, flat_result.masked_fraction);
}

}  // namespace
}  // namespace enb::ft
