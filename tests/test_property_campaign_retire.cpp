// Property tests for class-retiring campaigns. A campaign without dropping
// and without `.ans` rows cuts the kernel's active list into slices and
// retires a class after its first detecting block; a campaign with rows
// grades every class on every block. The two must agree field for field,
// and a dropping run may differ from both only in sim_passes, across
// circuits, goldens, bundles, sampling, pruning, shard sizes, a pattern
// count off the 512-pattern block grid, and thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "fault/campaign.hpp"
#include "ft/multiplex.hpp"
#include "ft/nmr.hpp"
#include "gen/suite.hpp"

namespace enb::fault {
namespace {

using netlist::Circuit;

TEST(CampaignRetireProperty, RetiringEqualsFullGrading) {
  const Circuit c17 = gen::find_benchmark("c17").build();
  const Circuit c432 = gen::find_benchmark("c432").build();
  const analysis::CompiledCircuit mult8 =
      analysis::compile(gen::find_benchmark("mult8").build()).mapped(3);
  const Circuit alu8 = gen::find_benchmark("alu8").build();
  const Circuit c17_tmr = ft::nmr_transform(c17).circuit;
  ft::MultiplexOptions mux;
  mux.bundle_width = 3;
  const Circuit c17_mux = ft::multiplex_transform(c17, mux).circuit;

  struct Variant {
    const char* name;
    const Circuit* circuit;
    const Circuit* golden;
    int bundle_width;
  };
  const std::vector<Variant> variants = {
      {"c17", &c17, &c17, 1},
      {"c432", &c432, &c432, 1},
      {"mult8 mapped", &mult8.circuit(), &mult8.circuit(), 1},
      {"alu8", &alu8, &alu8, 1},
      {"c17 tmr vs c17", &c17_tmr, &c17, 1},
      {"c17 bundle of 3 vs c17", &c17_mux, &c17, 3},
  };

  // 4000 patterns are eight blocks, the last ending mid-block.
  struct Shape {
    const char* name;
    CampaignOptions options;
  };
  std::vector<Shape> shapes(6);
  shapes[0] = {"exhaustive", {}};
  shapes[0].options.exhaustive = true;
  shapes[1] = {"64 per shard", {}};
  shapes[2] = {"1 per shard", {}};
  shapes[2].options.shard_patterns = 1;
  shapes[3] = {"512 per shard", {}};
  shapes[3].options.shard_patterns = 512;
  shapes[4] = {"sampled", {}};
  shapes[4].options.sample = 40;
  shapes[5] = {"pruned", {}};
  shapes[5].options.prune_untestable = true;
  for (Shape& shape : shapes) {
    if (!shape.options.exhaustive) shape.options.patterns = 4000;
  }

  for (const Variant& variant : variants) {
    for (const Shape& shape : shapes) {
      CampaignOptions options = shape.options;
      if (options.exhaustive && variant.golden->num_inputs() > 8) continue;
      options.bundle_width = variant.bundle_width;
      for (const exec::Parallelism how :
           {exec::Parallelism::serial(), exec::Parallelism::global_pool(),
            exec::Parallelism::dedicated(64)}) {
        const std::string where = std::string(variant.name) + ", " +
                                  shape.name + ", " +
                                  std::to_string(how.threads) + " threads";
        options.drop = false;
        const FaultCampaignResult retired =
            run_campaign(*variant.circuit, variant.golden, options, how);
        DetectionTable rows;
        const FaultCampaignResult full =
            run_campaign(*variant.circuit, variant.golden, options, how, &rows);
        EXPECT_EQ(retired, full) << where;
        EXPECT_GT(full.detected, 0u) << where;

        options.drop = true;
        FaultCampaignResult dropped =
            run_campaign(*variant.circuit, variant.golden, options, how);
        EXPECT_LE(dropped.sim_passes, full.sim_passes) << where;
        dropped.sim_passes = full.sim_passes;
        EXPECT_EQ(dropped, full) << where;
      }
    }
  }
}

}  // namespace
}  // namespace enb::fault
