// End-to-end integration: generator -> mapper -> profile -> bounds, the full
// Section 6 flow, plus the redundancy baselines feeding the bound checker.
#include <gtest/gtest.h>

#include <cmath>

#include "core/analyzer.hpp"
#include "core/validate_bounds.hpp"
#include "ft/nmr.hpp"
#include "gen/suite.hpp"
#include "report/ascii_chart.hpp"
#include "sim/reliability.hpp"
#include "synth/mapper.hpp"

namespace enb {
namespace {

core::CircuitProfile mapped_profile(const gen::BenchmarkSpec& spec) {
  const netlist::Circuit base = spec.build();
  const synth::MapResult mapped = synth::map_to_library(base, 3);
  core::ProfileOptions options;
  options.activity_pairs = 1 << 11;
  return core::extract_profile(mapped.circuit, options);
}

TEST(IntegrationPipeline, SmallSuiteEndToEnd) {
  for (const gen::BenchmarkSpec& spec : gen::small_suite()) {
    const core::CircuitProfile profile = mapped_profile(spec);
    EXPECT_GT(profile.size_s0, 0.0) << spec.name;
    EXPECT_GT(profile.avg_activity_sw0, 0.0) << spec.name;
    EXPECT_LT(profile.avg_activity_sw0, 1.0) << spec.name;
    EXPECT_GE(profile.sensitivity_s, 1.0) << spec.name;
    EXPECT_LE(profile.max_fanin, 3) << spec.name;

    for (double eps : {0.001, 0.01, 0.1}) {
      const core::BoundReport r = core::analyze(profile, eps, 0.01);
      EXPECT_GE(r.energy.total_factor, 1.0)
          << spec.name << " eps=" << eps;
      EXPECT_TRUE(std::isfinite(r.energy.total_factor)) << spec.name;
    }
  }
}

TEST(IntegrationPipeline, BoundsGrowWithEpsilonAcrossSuite) {
  for (const gen::BenchmarkSpec& spec : gen::small_suite()) {
    const core::CircuitProfile profile = mapped_profile(spec);
    double prev = 0.0;
    for (double eps : {0.001, 0.01, 0.1}) {
      const core::BoundReport r = core::analyze(profile, eps, 0.01);
      EXPECT_GT(r.energy.total_factor, prev) << spec.name << " eps=" << eps;
      prev = r.energy.total_factor;
    }
  }
}

TEST(IntegrationPipeline, DelayBoundDependsOnlyOnFanin) {
  // Two very different circuits mapped to the same library should get delay
  // bounds that match whenever their average fanins match.
  const core::CircuitProfile a = mapped_profile(gen::find_benchmark("rca8"));
  core::CircuitProfile b = mapped_profile(gen::find_benchmark("parity8"));
  b.avg_fanin_k = a.avg_fanin_k;  // force equal fanin
  const auto ra = core::analyze(a, 0.01, 0.01);
  const auto rb = core::analyze(b, 0.01, 0.01);
  EXPECT_NEAR(ra.metrics.delay, rb.metrics.delay, 1e-12);
}

TEST(IntegrationPipeline, TmrPointRespectsTheorem2OnSuite) {
  for (const gen::BenchmarkSpec& spec : gen::small_suite()) {
    const netlist::Circuit base = spec.build();
    const core::CircuitProfile profile = core::extract_profile(base);
    const ft::NmrResult tmr = ft::nmr_transform(base);
    const double eps = 0.01;
    sim::ReliabilityOptions options;
    options.trials = 1 << 14;
    const auto rel =
        sim::estimate_reliability_vs(tmr.circuit, base, eps, options);
    core::EmpiricalPoint point;
    point.scheme = "tmr";
    point.total_gates = static_cast<double>(tmr.circuit.gate_count());
    point.delta_hat = rel.delta_hat;
    point.delta_ci_high = rel.ci_high;
    const core::BoundCheck check = core::check_point(profile, eps, point);
    EXPECT_TRUE(check.consistent) << spec.name;
  }
}

TEST(IntegrationPipeline, SweepRendersToChartAndTable) {
  const core::CircuitProfile profile =
      core::make_profile("parity10", 10, 21, 0.5, 2, 10);
  const auto grid = core::log_grid(0.001, 0.1, 8);
  const auto reports = core::sweep_epsilon(profile, grid, 0.01);
  report::Series energy("energy", {}, {});
  for (const auto& r : reports) energy.push(r.epsilon, r.energy.total_factor);
  report::ChartOptions options;
  options.log_x = true;
  const std::string chart = report::line_chart({energy}, options);
  EXPECT_NE(chart.find('*'), std::string::npos);
}

TEST(IntegrationPipeline, MappingChangesProfileNotFunction) {
  const auto spec = gen::find_benchmark("mult4");
  const netlist::Circuit base = spec.build();
  const synth::MapResult mapped = synth::map_to_library(base, 2);
  const core::CircuitProfile pb = core::extract_profile(base);
  const core::CircuitProfile pm = core::extract_profile(mapped.circuit);
  // Function-level quantities survive mapping; structural ones move.
  EXPECT_EQ(pb.sensitivity_s, pm.sensitivity_s);
  EXPECT_EQ(pb.num_inputs, pm.num_inputs);
  EXPECT_LE(pm.max_fanin, 2);
}

}  // namespace
}  // namespace enb
