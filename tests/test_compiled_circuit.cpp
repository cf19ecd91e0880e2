// CompiledCircuit contract tests: cheap shared handles, lazily cached
// derived artifacts (stats, levels, fanouts, profiles, mapped variants),
// exactly-once extraction per profile options value, and zero netlist
// copies.
#include "analysis/compiled_circuit.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "core/profile.hpp"
#include "gen/adders.hpp"
#include "gen/iscas.hpp"
#include "gen/suite.hpp"
#include "netlist/stats.hpp"
#include "netlist/topo.hpp"
#include "obs/metrics.hpp"
#include "synth/mapper.hpp"

namespace enb::analysis {
namespace {

TEST(CompiledCircuit, EmptyHandleThrows) {
  CompiledCircuit handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(static_cast<bool>(handle));
  EXPECT_THROW((void)handle.circuit(), std::logic_error);
  EXPECT_THROW((void)handle.stats(), std::logic_error);
  EXPECT_THROW((void)handle.profile(), std::logic_error);
}

TEST(CompiledCircuit, CompileMovesWithoutCopying) {
  netlist::Circuit circuit = gen::c17();
  const std::uint64_t copies = netlist::Circuit::copies_made();
  const CompiledCircuit handle = compile(std::move(circuit));
  const CompiledCircuit alias = handle;  // handle copy, not netlist copy
  EXPECT_EQ(netlist::Circuit::copies_made(), copies);
  EXPECT_TRUE(handle.valid());
  EXPECT_TRUE(alias.same_handle(handle));
  EXPECT_EQ(handle.name(), "c17");
}

TEST(CompiledCircuit, DerivedArtifactsMatchDirectComputation) {
  const netlist::Circuit reference = gen::ripple_carry_adder(4);
  const CompiledCircuit handle = compile(gen::ripple_carry_adder(4));

  const netlist::CircuitStats direct = netlist::compute_stats(reference);
  const netlist::CircuitStats& cached = handle.stats();
  EXPECT_EQ(cached.num_gates, direct.num_gates);
  EXPECT_EQ(cached.depth, direct.depth);
  EXPECT_EQ(cached.num_inputs, direct.num_inputs);
  EXPECT_EQ(cached.avg_fanin, direct.avg_fanin);

  // Cached: the second call returns the same object.
  EXPECT_EQ(&handle.stats(), &cached);
}

TEST(CompiledCircuit, ProfileMatchesExtractProfileAndCachesPerKey) {
  core::ProfileOptions options;
  options.activity_pairs = 256;
  options.sensitivity_exact_max_inputs = 8;

  const netlist::Circuit reference = gen::ripple_carry_adder(8);
  const CompiledCircuit handle = compile(gen::ripple_carry_adder(8));
  const core::CircuitProfile direct =
      core::extract_profile(reference, options, exec::Parallelism::serial());

  const core::CircuitProfile& cached =
      handle.profile(options, exec::Parallelism::serial());
  EXPECT_EQ(cached.size_s0, direct.size_s0);
  EXPECT_EQ(cached.depth_d0, direct.depth_d0);
  EXPECT_EQ(cached.avg_activity_sw0, direct.avg_activity_sw0);
  EXPECT_EQ(cached.sensitivity_s, direct.sensitivity_s);
  EXPECT_EQ(cached.sensitivity_exact, direct.sensitivity_exact);
  EXPECT_EQ(handle.profile_extractions(), 1u);

  // Same key (even through another alias): no second extraction.
  const CompiledCircuit alias = handle;
  (void)alias.profile(options);
  EXPECT_EQ(handle.profile_extractions(), 1u);
  EXPECT_EQ(&alias.profile(options), &cached);

  // The parallelism knob is not part of the key.
  (void)handle.profile(options, exec::Parallelism::dedicated(4));
  EXPECT_EQ(handle.profile_extractions(), 1u);

  // A different seed is a different key.
  core::ProfileOptions reseeded = options;
  reseeded.seed = options.seed + 99;
  (void)handle.profile(reseeded);
  EXPECT_EQ(handle.profile_extractions(), 2u);
}

TEST(CompiledCircuit, DerivedFillIsNotAnExtraction) {
  obs::Counter& extracted =
      obs::Registry::global().counter("analysis-profile-extractions-total");
  obs::Counter& derived =
      obs::Registry::global().counter("analysis-profile-derived-total");
  const std::uint64_t extracted_before = extracted.value();
  const std::uint64_t derived_before = derived.value();

  const CompiledCircuit handle = compile(gen::c17());
  core::ProfileOptions options;
  options.activity_pairs = 64;
  const core::ProfileExtraction computed = exec::run(
      core::profile_job(handle.circuit(), options), exec::Parallelism::serial());
  handle.store_profile(options, computed);
  // profile() now hits the stored entry instead of re-extracting.
  EXPECT_EQ(handle.profile(options).avg_activity_sw0,
            computed.profile.avg_activity_sw0);
  EXPECT_EQ(handle.extraction(options).activity.toggle_rate,
            computed.activity.toggle_rate);
  EXPECT_EQ(handle.profile_extractions(), 0u);
  EXPECT_EQ(derived.value() - derived_before, 1u);
  // The job above ran outside the handle, so nothing counted an extraction.
  EXPECT_EQ(extracted.value() - extracted_before, 0u);
}

TEST(CompiledCircuit, ExtractionKeepsThePerNodeActivity) {
  const CompiledCircuit handle = compile(gen::c17());
  core::ProfileOptions options;
  options.prefer_exact_activity = false;
  options.activity_pairs = 64;
  const core::ProfileExtraction& cached =
      handle.extraction(options, exec::Parallelism::serial());
  EXPECT_EQ(&cached.profile, &handle.profile(options));
  ASSERT_EQ(cached.activity.toggle_rate.size(), handle.circuit().node_count());
  EXPECT_EQ(cached.activity.avg_gate_toggle_rate,
            cached.profile.avg_activity_sw0);
  EXPECT_EQ(handle.profile_extractions(), 1u);
}

TEST(CompiledCircuit, ConcurrentProfileCallsExtractOnce) {
  const CompiledCircuit handle = compile(gen::ripple_carry_adder(8));
  core::ProfileOptions options;
  options.activity_pairs = 512;
  options.sensitivity_exact_max_inputs = 8;

  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&handle, options] {
      (void)handle.profile(options, exec::Parallelism::serial());
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(handle.profile_extractions(), 1u);
}

TEST(CompiledCircuit, MappedVariantIsCachedAndEquivalent) {
  const CompiledCircuit handle = compile(gen::c17());
  const CompiledCircuit mapped = handle.mapped(3);
  EXPECT_TRUE(mapped.valid());
  EXPECT_FALSE(mapped.same_handle(handle));
  // Second request returns the cached handle.
  EXPECT_TRUE(handle.mapped(3).same_handle(mapped));

  // The mapped netlist matches a direct map_to_library run.
  const synth::MapResult direct = synth::map_to_library(handle.circuit(), 3);
  EXPECT_EQ(mapped.stats().num_gates, direct.after.num_gates);
  EXPECT_EQ(mapped.stats().max_fanin, direct.after.max_fanin);
  EXPECT_LE(mapped.stats().max_fanin, 3);

  // A different fanin budget is a different cache slot.
  const CompiledCircuit mapped2 = handle.mapped(2);
  EXPECT_FALSE(mapped2.same_handle(mapped));
  EXPECT_LE(mapped2.stats().max_fanin, 2);
}

TEST(ProfileKeyTest, SeedEntersTheKey) {
  core::ProfileOptions a;
  a.activity_pairs = 64;
  core::ProfileOptions b = a;
  b.seed = a.seed + 1;

  // Options that differ only in the seed are two cache entries; repeating
  // either one is a hit.
  const CompiledCircuit handle = compile(gen::c17());
  (void)handle.profile(a, exec::Parallelism::serial());
  (void)handle.profile(b, exec::Parallelism::serial());
  EXPECT_EQ(handle.profile_extractions(), 2u);
  (void)handle.profile(a, exec::Parallelism::serial());
  (void)handle.profile(b, exec::Parallelism::serial());
  EXPECT_EQ(handle.profile_extractions(), 2u);
}

}  // namespace
}  // namespace enb::analysis
