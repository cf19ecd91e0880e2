// Campaign engine: determinism across thread counts, batch-vs-direct
// equality for the FaultCampaignRequest kind, manifest parsing, the
// detection-table `.ans` view, and ft/ masking metrics.
#include "fault/campaign.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "exec/batch.hpp"
#include "ft/nmr.hpp"
#include "gen/suite.hpp"
#include "obs/metrics.hpp"

namespace enb::fault {
namespace {

using netlist::Circuit;

TEST(FaultCampaign, BitIdenticalForAnyThreadCount) {
  const Circuit circuit = gen::find_benchmark("rca8").build();
  CampaignOptions options;
  options.patterns = 160;
  options.shard_patterns = 32;
  const FaultCampaignResult serial =
      run_campaign(circuit, nullptr, options, exec::Parallelism::serial());
  const FaultCampaignResult pool =
      run_campaign(circuit, nullptr, options, exec::Parallelism::global_pool());
  const FaultCampaignResult wide =
      run_campaign(circuit, nullptr, options, exec::Parallelism::dedicated(64));
  EXPECT_EQ(serial, pool);
  EXPECT_EQ(serial, wide);
  EXPECT_EQ(serial.patterns, 160u);
  EXPECT_GT(serial.detected, 0u);
}

TEST(FaultCampaign, ScaledOptionsBitIdenticalForAnyThreadCount) {
  // The thread-count contract survives every scale axis at once: dropping
  // and a sampled universe.
  const Circuit circuit = gen::find_benchmark("rca8").build();
  CampaignOptions options;
  options.patterns = 160;
  options.shard_patterns = 32;
  options.drop = true;
  options.sample = 50;
  const FaultCampaignResult serial =
      run_campaign(circuit, nullptr, options, exec::Parallelism::serial());
  const FaultCampaignResult pool =
      run_campaign(circuit, nullptr, options, exec::Parallelism::global_pool());
  const FaultCampaignResult wide =
      run_campaign(circuit, nullptr, options, exec::Parallelism::dedicated(64));
  EXPECT_EQ(serial, pool);
  EXPECT_EQ(serial, wide);
  EXPECT_EQ(serial.sampled, 50u);
  EXPECT_GT(serial.detected, 0u);
}

// The faulty-sweep event counter is observational: bounded by what full
// sweeps would cost, and the same for any thread count (shards, not
// workers, own the simulators).
TEST(FaultCampaign, SweepEventsAreBoundedAndThreadCountIndependent) {
  const Circuit c17 = gen::find_benchmark("c17").build();
  CampaignOptions options;
  options.patterns = 96;
  options.shard_patterns = 16;
  obs::Counter& events =
      obs::Registry::global().counter("fault-sweep-events-total");
  const auto run = [&](exec::Parallelism how) {
    const std::uint64_t before = events.value();
    const FaultCampaignResult result = run_campaign(c17, nullptr, options, how);
    const std::uint64_t faulty_passes = result.sim_passes - result.patterns;
    const std::uint64_t delta = events.value() - before;
    EXPECT_GT(delta, 0u);
    EXPECT_LE(delta, faulty_passes * c17.node_count());
    return delta;
  };
  const std::uint64_t serial = run(exec::Parallelism::serial());
  EXPECT_EQ(run(exec::Parallelism::global_pool()), serial);
  EXPECT_EQ(run(exec::Parallelism::dedicated(8)), serial);
}

TEST(FaultCampaign, ExhaustiveC17SelfCoverageIsComplete) {
  // c17 is fully testable: every collapsed class is detected by some input
  // assignment, so exhaustive self-grading reports coverage 1.
  const Circuit c17 = gen::find_benchmark("c17").build();
  CampaignOptions options;
  options.exhaustive = true;
  const FaultCampaignResult result = run_campaign(c17, nullptr, options);
  EXPECT_EQ(result.patterns, 32u);
  EXPECT_EQ(result.detected, result.classes);
  EXPECT_DOUBLE_EQ(result.coverage, 1.0);
  EXPECT_DOUBLE_EQ(result.masked_fraction, 0.0);
  EXPECT_DOUBLE_EQ(result.gate_overhead, 1.0);
}

TEST(FaultCampaign, CollapseChangesClassesNotCoverageRatio) {
  const Circuit c17 = gen::find_benchmark("c17").build();
  CampaignOptions collapsed;
  collapsed.exhaustive = true;
  CampaignOptions full = collapsed;
  full.collapse = false;
  const FaultCampaignResult a = run_campaign(c17, nullptr, collapsed);
  const FaultCampaignResult b = run_campaign(c17, nullptr, full);
  EXPECT_LT(a.classes, b.classes);
  EXPECT_EQ(b.classes, b.sites);
  // c17 is fully testable either way.
  EXPECT_DOUBLE_EQ(a.coverage, b.coverage);
}

TEST(FaultCampaign, NmrMaskingCampaignReportsOverheadAndMasking) {
  const Circuit base = gen::find_benchmark("c17").build();
  const Circuit nmr = ft::nmr_transform(base).circuit;
  CampaignOptions options;
  options.exhaustive = true;
  const FaultCampaignResult result = run_campaign(nmr, &base, options);
  // Triplication masks most faults but voter faults remain observable.
  EXPECT_GT(result.masked_fraction, 0.5);
  EXPECT_GT(result.detected, 0u);
  EXPECT_GT(result.gate_overhead, 3.0);
  EXPECT_GT(result.overhead_per_masked, result.gate_overhead);
  EXPECT_EQ(result.golden_gates, base.gate_count());
}

TEST(FaultCampaign, BatchMatchesDirectEvaluate) {
  const analysis::CompiledCircuit nmr = analysis::compile(
      ft::nmr_transform(gen::find_benchmark("c17").build()).circuit);
  const analysis::CompiledCircuit base =
      analysis::compile(gen::find_benchmark("c17").build());

  analysis::AnalysisRequest request;
  request.name = "fc";
  request.circuit = nmr;
  request.golden = base;
  analysis::FaultCampaignRequest spec;
  spec.options.patterns = 96;
  spec.options.shard_patterns = 16;
  spec.options.seed = 123;
  spec.options.drop = true;
  spec.options.sample = 80;
  request.options = spec;

  const FaultCampaignResult direct = run_campaign(
      nmr.circuit(), &base.circuit(), spec.options, exec::Parallelism::serial());

  exec::BatchEvaluator batch;
  batch.submit(request);
  const std::vector<analysis::AnalysisResult> results = batch.run();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  const auto* batch_payload = results[0].get<FaultCampaignResult>();
  ASSERT_NE(batch_payload, nullptr);
  EXPECT_EQ(*batch_payload, direct);
  analysis::AnalysisResult flattened;
  analysis::set_payload(flattened, direct);
  EXPECT_EQ(results[0].metrics, flattened.metrics);
}

TEST(FaultCampaign, BatchIsolatesInvalidCampaigns) {
  const analysis::CompiledCircuit c17 =
      analysis::compile(gen::find_benchmark("c17").build());
  exec::BatchEvaluator batch;

  analysis::AnalysisRequest bad;
  bad.name = "bad";
  bad.circuit = c17;
  analysis::FaultCampaignRequest bad_spec;
  bad_spec.options.patterns = 0;  // invalid: empty random budget
  bad.options = bad_spec;
  batch.submit(std::move(bad));

  analysis::AnalysisRequest good;
  good.name = "good";
  good.circuit = c17;
  analysis::FaultCampaignRequest good_spec;
  good_spec.options.patterns = 32;
  good.options = good_spec;
  batch.submit(std::move(good));

  const std::vector<analysis::AnalysisResult> results = batch.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("patterns"), std::string::npos);
  EXPECT_TRUE(results[1].ok) << results[1].error;
}

TEST(FaultCampaign, ManifestParsesFaultCampaignLines) {
  const analysis::CompiledCircuit c17 =
      analysis::compile(gen::find_benchmark("c17").build());
  std::istringstream manifest(
      "fc1 kind=fault-campaign circuit=c17 budget=64 seed=9\n"
      "fc2 kind=fault-campaign circuit=c17 mode=exhaustive\n"
      "fc3 kind=fault-campaign circuit=c17 mode=random budget=12\n"
      "fc4 kind=fault-campaign circuit=c17 budget=32 drop=1 sample=10\n");
  const std::vector<analysis::AnalysisRequest> requests =
      exec::parse_manifest_requests(manifest,
                                    [&](const std::string&) { return c17; });
  ASSERT_EQ(requests.size(), 4u);
  const auto& fc1 =
      std::get<analysis::FaultCampaignRequest>(requests[0].options);
  EXPECT_EQ(fc1.options.patterns, 64u);
  EXPECT_EQ(fc1.options.seed, 9u);
  EXPECT_FALSE(fc1.options.exhaustive);
  const auto& fc2 =
      std::get<analysis::FaultCampaignRequest>(requests[1].options);
  EXPECT_TRUE(fc2.options.exhaustive);
  const auto& fc3 =
      std::get<analysis::FaultCampaignRequest>(requests[2].options);
  EXPECT_FALSE(fc3.options.exhaustive);
  EXPECT_EQ(fc3.options.patterns, 12u);
  const auto& fc4 =
      std::get<analysis::FaultCampaignRequest>(requests[3].options);
  EXPECT_TRUE(fc4.options.drop);
  EXPECT_EQ(fc4.options.sample, 10u);
}

TEST(FaultCampaign, ManifestRejectsBadModes) {
  const analysis::CompiledCircuit c17 =
      analysis::compile(gen::find_benchmark("c17").build());
  const auto resolve = [&](const std::string&) { return c17; };
  std::istringstream bad_value(
      "fc kind=fault-campaign circuit=c17 mode=sometimes\n");
  EXPECT_THROW((void)exec::parse_manifest_requests(bad_value, resolve),
               std::invalid_argument);
  std::istringstream wrong_kind("p kind=profile circuit=c17 mode=random\n");
  EXPECT_THROW((void)exec::parse_manifest_requests(wrong_kind, resolve),
               std::invalid_argument);
  std::istringstream bad_drop(
      "fc kind=fault-campaign circuit=c17 budget=8 drop=2\n");
  EXPECT_THROW((void)exec::parse_manifest_requests(bad_drop, resolve),
               std::invalid_argument);
  std::istringstream drop_on_profile("p kind=profile circuit=c17 drop=1\n");
  EXPECT_THROW((void)exec::parse_manifest_requests(drop_on_profile, resolve),
               std::invalid_argument);
  std::istringstream sample_on_activity(
      "a kind=activity circuit=c17 sample=4\n");
  EXPECT_THROW((void)exec::parse_manifest_requests(sample_on_activity, resolve),
               std::invalid_argument);
}

TEST(FaultCampaign, CanonicalSpecIsValueComplete) {
  analysis::FaultCampaignRequest a;
  const std::string base = analysis::canonical_spec(a);
  EXPECT_NE(base.find("fault-campaign"), std::string::npos);
  analysis::FaultCampaignRequest b = a;
  b.options.seed ^= 1;
  EXPECT_NE(analysis::canonical_spec(b), base);
  analysis::FaultCampaignRequest c = a;
  c.options.exhaustive = true;
  EXPECT_NE(analysis::canonical_spec(c), base);
  analysis::FaultCampaignRequest d = a;
  d.options.shard_patterns /= 2;
  EXPECT_NE(analysis::canonical_spec(d), base);
  analysis::FaultCampaignRequest e = a;
  e.options.bundle_width = 3;
  EXPECT_NE(analysis::canonical_spec(e), base);
  analysis::FaultCampaignRequest f = a;
  f.options.collapse = false;
  EXPECT_NE(analysis::canonical_spec(f), base);
  analysis::FaultCampaignRequest g = a;
  g.options.drop = true;
  EXPECT_NE(analysis::canonical_spec(g), base);
  analysis::FaultCampaignRequest h = a;
  h.options.sample = 16;
  EXPECT_NE(analysis::canonical_spec(h), base);
}

TEST(FaultCampaign, DetectionTableAgreesWithAggregateCounts) {
  const Circuit circuit = gen::find_benchmark("parity8").build();
  CampaignOptions options;
  options.patterns = 48;
  options.shard_patterns = 16;
  const FaultUniverse universe = FaultUniverse::build(circuit);
  const DetectionTable serial_table = build_detection_table(
      circuit, circuit, universe, options, exec::Parallelism::serial());
  const DetectionTable wide_table = build_detection_table(
      circuit, circuit, universe, options, exec::Parallelism::dedicated(64));
  EXPECT_EQ(serial_table.patterns, wide_table.patterns);
  EXPECT_EQ(serial_table.detected, wide_table.detected);
  EXPECT_EQ(serial_table.counts.passes, wide_table.counts.passes);

  const FaultCampaignResult via_table = finalize_campaign(
      circuit, circuit, universe, options, serial_table.counts);
  const FaultCampaignResult direct = run_campaign(circuit, nullptr, options);
  EXPECT_EQ(via_table, direct);
}

TEST(FaultCampaign, AnsRowsCoverEveryNetAndExpandClasses) {
  const Circuit c17 = gen::find_benchmark("c17").build();
  CampaignOptions options;
  options.patterns = 2;
  options.shard_patterns = 2;
  const FaultUniverse universe = FaultUniverse::build(c17);
  const DetectionTable table =
      build_detection_table(c17, c17, universe, options);
  std::ostringstream out;
  write_ans(out, c17, universe, table);

  std::istringstream in(out.str());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "# pattern net sa0_eq sa1_eq");
  std::size_t rows = 0;
  std::string pattern, net;
  int sa0_eq = 0;
  int sa1_eq = 0;
  while (in >> pattern >> net >> sa0_eq >> sa1_eq) {
    ++rows;
    EXPECT_TRUE(sa0_eq == 0 || sa0_eq == 1);
    EXPECT_TRUE(sa1_eq == 0 || sa1_eq == 1);
  }
  EXPECT_EQ(rows, 2 * universe.num_nets());  // patterns x nets

  // Equivalent sites must print identical bits: re-derive one collapsed
  // pair and check the rows agree (expansion is exact by equivalence).
  // c17: input "1" feeds only NAND "10", so 1 sa0 == 10 sa1.
  const std::size_t site_in = 0;   // node 0 ("1") sa0
  const std::size_t site_out = 2 * 5 + 1;  // node 5 ("10") sa1
  ASSERT_EQ(universe.class_of(site_in), universe.class_of(site_out));
}

TEST(FaultCampaign, ValidatesInterfaceAndBudgets) {
  const Circuit c17 = gen::find_benchmark("c17").build();
  const Circuit rca8 = gen::find_benchmark("rca8").build();
  CampaignOptions options;
  EXPECT_THROW(validate_campaign_inputs(c17, rca8, options),
               std::invalid_argument);
  CampaignOptions zero_shard;
  zero_shard.shard_patterns = 0;
  EXPECT_THROW(validate_campaign_inputs(c17, c17, zero_shard),
               std::invalid_argument);
  CampaignOptions exhaustive;
  exhaustive.exhaustive = true;
  const Circuit wide = gen::find_benchmark("rca32").build();
  EXPECT_THROW(validate_campaign_inputs(wide, wide, exhaustive),
               std::invalid_argument);
}

TEST(FaultCampaign, ExhaustiveCapIsATypedError) {
  // The 20-input exhaustive cap surfaces as its own exception type carrying
  // the offending input count, so callers can distinguish "ask for random
  // patterns instead" from ordinary bad arguments.
  const Circuit wide = gen::find_benchmark("rca32").build();
  CampaignOptions exhaustive;
  exhaustive.exhaustive = true;
  try {
    validate_campaign_inputs(wide, wide, exhaustive);
    FAIL() << "expected ExhaustiveCapError";
  } catch (const ExhaustiveCapError& error) {
    EXPECT_EQ(error.logical_inputs(), wide.num_inputs());
    EXPECT_NE(std::string(error.what()).find("exhaustive"),
              std::string::npos);
  }
}

TEST(FaultCampaign, BatchIsolatesExhaustiveCapError) {
  // The typed cap error rides the batch error-isolation path like any other
  // per-request failure: the offending job reports ok=false with the cap
  // message while its neighbors complete.
  const analysis::CompiledCircuit rca32 =
      analysis::compile(gen::find_benchmark("rca32").build());
  exec::BatchEvaluator batch;

  analysis::AnalysisRequest capped;
  capped.name = "capped";
  capped.circuit = rca32;
  analysis::FaultCampaignRequest capped_spec;
  capped_spec.options.exhaustive = true;
  capped.options = capped_spec;
  batch.submit(std::move(capped));

  analysis::AnalysisRequest good;
  good.name = "good";
  good.circuit = rca32;
  analysis::FaultCampaignRequest good_spec;
  good_spec.options.patterns = 16;
  good.options = good_spec;
  batch.submit(std::move(good));

  const std::vector<analysis::AnalysisResult> results = batch.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("exhaustive"), std::string::npos);
  EXPECT_TRUE(results[1].ok) << results[1].error;
}

}  // namespace
}  // namespace enb::fault
