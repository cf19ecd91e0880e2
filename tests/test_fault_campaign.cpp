// Campaign engine: determinism across thread counts, batch-vs-direct
// equality for the FaultCampaignRequest kind, manifest parsing, the
// detection-table `.ans` view, and ft/ masking metrics.
#include "fault/campaign.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
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

// The pass counter adds up to the result's sim_passes whatever the task
// shape: class slices that retire detected classes (no dropping, no rows),
// one-block tasks under dropping, and one-block tasks filling rows; no
// slice counts the passes of another.
TEST(FaultCampaign, PassCounterMatchesSimPasses) {
  const Circuit c432 = gen::find_benchmark("c432").build();
  obs::Counter& passes =
      obs::Registry::global().counter("fault-sweep-passes-total");
  CampaignOptions options;
  options.patterns = 4096;
  for (const bool drop : {false, true}) {
    for (const bool with_rows : {false, true}) {
      options.drop = drop;
      DetectionTable rows;
      const std::uint64_t before = passes.value();
      const FaultCampaignResult result =
          run_campaign(c432, nullptr, options, exec::Parallelism::global_pool(),
                       with_rows ? &rows : nullptr);
      EXPECT_EQ(passes.value() - before, result.sim_passes)
          << "drop " << drop << ", rows " << with_rows;
      // Without dropping, every pattern costs a golden pass plus one per
      // 64 sampled classes, whoever grades them.
      if (!drop) {
        EXPECT_EQ(result.sim_passes,
                  result.patterns * (1 + (result.sampled + 63) / 64))
            << "rows " << with_rows;
      }
    }
  }
}

// A retiring campaign's event count is fixed by its class slices, not by
// the threads that grade them, and retiring saves most of full grading's
// events where early blocks detect most classes.
TEST(FaultCampaign, RetiringEventsAreThreadCountIndependentAndFewer) {
  obs::Counter& events =
      obs::Registry::global().counter("fault-sweep-events-total");
  const auto events_of = [&](const Circuit& circuit,
                             const CampaignOptions& options,
                             exec::Parallelism how, DetectionTable* rows) {
    const std::uint64_t before = events.value();
    (void)run_campaign(circuit, nullptr, options, how, rows);
    return events.value() - before;
  };
  CampaignOptions options;
  options.patterns = 4096;
  const Circuit c432 = gen::find_benchmark("c432").build();
  const std::uint64_t serial =
      events_of(c432, options, exec::Parallelism::serial(), nullptr);
  EXPECT_GT(serial, 0u);
  EXPECT_EQ(events_of(c432, options, exec::Parallelism::global_pool(), nullptr),
            serial);
  EXPECT_EQ(events_of(c432, options, exec::Parallelism::dedicated(64), nullptr),
            serial);

  const analysis::CompiledCircuit mult8 =
      analysis::compile(gen::find_benchmark("mult8").build()).mapped(3);
  DetectionTable rows;
  const std::uint64_t full = events_of(mult8.circuit(), options,
                                       exec::Parallelism::serial(), &rows);
  const std::uint64_t retired = events_of(mult8.circuit(), options,
                                          exec::Parallelism::serial(), nullptr);
  EXPECT_LE(4 * retired, full) << retired << " vs " << full;
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

// The rows ride the one campaign run: rows and result are identical at any
// thread count and with dropping on or off (only sim_passes moves with
// dropping), and the result equals the row-less run's.
TEST(FaultCampaign, OneRunFeedsRowsAndResult) {
  const Circuit circuit = gen::find_benchmark("parity8").build();
  CampaignOptions options;
  options.patterns = 48;
  options.shard_patterns = 16;
  DetectionTable reference_rows;
  const FaultCampaignResult reference = run_campaign(
      circuit, nullptr, options, exec::Parallelism::serial(), &reference_rows);
  ASSERT_EQ(reference_rows.patterns.size(), options.patterns);
  ASSERT_EQ(reference_rows.detected.size(), options.patterns);
  EXPECT_EQ(reference_rows.universe->num_classes(), reference.classes);
  for (const bool drop : {false, true}) {
    options.drop = drop;
    const FaultCampaignResult rowless = run_campaign(circuit, nullptr, options);
    for (const exec::Parallelism how :
         {exec::Parallelism::serial(), exec::Parallelism::dedicated(64)}) {
      DetectionTable rows;
      FaultCampaignResult result =
          run_campaign(circuit, nullptr, options, how, &rows);
      EXPECT_EQ(result, rowless) << "drop " << drop;
      EXPECT_EQ(rows.patterns, reference_rows.patterns) << "drop " << drop;
      EXPECT_EQ(rows.detected, reference_rows.detected) << "drop " << drop;
      if (drop) {
        EXPECT_LT(result.sim_passes, reference.sim_passes);
        result.sim_passes = reference.sim_passes;
      }
      EXPECT_EQ(result, reference) << "drop " << drop;
    }
  }
}

TEST(FaultCampaign, AnsRowsCoverEveryNetAndExpandClasses) {
  const Circuit c17 = gen::find_benchmark("c17").build();
  CampaignOptions options;
  options.patterns = 2;
  options.shard_patterns = 2;
  DetectionTable table;
  const FaultCampaignResult result =
      run_campaign(c17, nullptr, options, {}, &table);
  const FaultUniverse& universe = *table.universe;
  std::ostringstream out;
  write_ans(out, c17, result, table);

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

// A sampled run has no rows for its unsampled classes, so write_ans
// refuses it rather than print them as masked and undetected. Collapsed,
// c17 has exactly 16 classes; uncollapsed, each of its 22 sites is one.
TEST(FaultCampaign, AnsRefusesASampledRun) {
  const Circuit c17 = gen::find_benchmark("c17").build();
  CampaignOptions options;
  options.patterns = 8;
  options.collapse = false;
  options.sample = 16;
  DetectionTable table;
  const FaultCampaignResult result =
      run_campaign(c17, nullptr, options, {}, &table);
  ASSERT_EQ(result.sampled, 16u);
  ASSERT_LT(result.sampled, result.classes);
  std::ostringstream out;
  EXPECT_THROW(write_ans(out, c17, result, table), std::invalid_argument);
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
  // A shard fits one 512-pattern kernel block.
  CampaignOptions wide_shard;
  wide_shard.shard_patterns = sim::kBlockPatterns + 1;
  EXPECT_THROW(validate_campaign_inputs(c17, c17, wide_shard),
               std::invalid_argument);
  EXPECT_THROW((void)run_campaign(c17, nullptr, wide_shard),
               std::invalid_argument);
  wide_shard.shard_patterns = sim::kBlockPatterns;
  wide_shard.patterns = 600;
  EXPECT_NO_THROW(validate_campaign_inputs(c17, c17, wide_shard));
  const FaultCampaignResult whole_block =
      run_campaign(c17, nullptr, wide_shard);
  EXPECT_EQ(whole_block.patterns, 600u);
  EXPECT_EQ(whole_block.detected, whole_block.classes);
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

// Every public path that shifts by the logical input count refuses an
// exhaustive request over the cap before shifting: the shard plan (rca32's
// 65 inputs would shift a 64-bit word out of range) and the pattern stream.
// 21 inputs is the first count over the cap; 20 still plans 2^20 patterns.
TEST(FaultCampaign, ExhaustiveCapGuardsThePlanAndThePatternStream) {
  CampaignOptions exhaustive;
  exhaustive.exhaustive = true;
  const exec::Shard shard{0, 0, 4};
  for (const std::size_t width : {21u, 65u}) {
    Circuit wide("and" + std::to_string(width));
    std::vector<netlist::NodeId> ins;
    for (std::size_t i = 0; i < width; ++i) ins.push_back(wide.add_input());
    wide.add_output(wide.add_gate(netlist::GateType::kAnd, ins));
    EXPECT_THROW((void)campaign_shard_plan(wide, exhaustive),
                 ExhaustiveCapError)
        << width;
    EXPECT_THROW((void)shard_pattern_bits(width, exhaustive, shard),
                 ExhaustiveCapError)
        << width;
  }
  const Circuit rca32 = gen::find_benchmark("rca32").build();
  try {
    (void)campaign_shard_plan(rca32, exhaustive);
    FAIL() << "expected ExhaustiveCapError";
  } catch (const ExhaustiveCapError& error) {
    EXPECT_EQ(error.logical_inputs(), rca32.num_inputs());
  }
  EXPECT_THROW((void)run_campaign(rca32, nullptr, exhaustive),
               ExhaustiveCapError);

  Circuit at_cap("and20");
  std::vector<netlist::NodeId> ins;
  for (int i = 0; i < kMaxExhaustiveCampaignInputs; ++i) {
    ins.push_back(at_cap.add_input());
  }
  at_cap.add_output(at_cap.add_gate(netlist::GateType::kAnd, ins));
  EXPECT_EQ(campaign_shard_plan(at_cap, exhaustive).total(),
            std::size_t{1} << kMaxExhaustiveCampaignInputs);
  EXPECT_EQ(shard_pattern_bits(ins.size(), exhaustive, shard).size(), 4u);
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
