// Analysis-layer contract tests.
//
// The acceptance bar of the PR 3 redesign:
//   - a one-request batch on a handle, and the handle-cached profile and
//     bounds, are bit-identical to the circuit-based estimator calls
//     (compiled-vs-fresh);
//   - streaming run(ResultSink) delivers payloads bit-identical to the
//     blocking run() for threads in {1, 0 (global pool), 64 (oversubscribed
//     dedicated pool)};
//   - an N-point eps sweep over one CompiledCircuit performs zero
//     netlist::Circuit copies and exactly one profile extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "core/analyzer.hpp"
#include "core/profile.hpp"
#include "exec/batch.hpp"
#include "ft/nmr.hpp"
#include "gen/adders.hpp"
#include "gen/iscas.hpp"
#include "gen/suite.hpp"
#include "sim/reliability.hpp"

namespace enb::analysis {
namespace {

CompiledCircuit suite_handle(const std::string& name) {
  return compile(gen::find_benchmark(name).build());
}

// ---- compiled-vs-fresh bit-identity for every estimator -----------------

// The typed payload of a one-request batch on a handle, run serially.
template <typename T>
T evaluated(const CompiledCircuit& circuit, RequestOptions options,
            std::optional<CompiledCircuit> golden = std::nullopt) {
  AnalysisRequest request;
  request.circuit = circuit;
  request.golden = std::move(golden);
  request.options = std::move(options);
  const AnalysisResult result =
      exec::evaluate_requests({request}, exec::Parallelism::serial()).front();
  EXPECT_TRUE(result.ok) << result.error;
  return result.get<T>() != nullptr ? *result.get<T>() : T{};
}

TEST(Analysis, ReliabilityMatchesFreshCircuitCall) {
  const CompiledCircuit handle = suite_handle("c17");
  sim::ReliabilityOptions options;
  options.trials = 2000;
  options.shard_passes = 4;
  options.seed = 99;
  const sim::ReliabilityResult fresh = sim::estimate_reliability(
      handle.circuit(), 0.03, options, exec::Parallelism::serial());
  ReliabilityRequest spec;
  spec.epsilon = 0.03;
  spec.options = options;
  const auto compiled = evaluated<sim::ReliabilityResult>(handle, spec);
  EXPECT_EQ(compiled.delta_hat, fresh.delta_hat);
  EXPECT_EQ(compiled.ci_low, fresh.ci_low);
  EXPECT_EQ(compiled.ci_high, fresh.ci_high);
  EXPECT_EQ(compiled.failures, fresh.failures);
  EXPECT_EQ(compiled.trials, fresh.trials);
  EXPECT_EQ(compiled.requested_trials, fresh.requested_trials);
}

TEST(Analysis, ReliabilityVsGoldenMatchesFreshCircuitCall) {
  const CompiledCircuit golden = compile(gen::ripple_carry_adder(4));
  const CompiledCircuit noisy =
      compile(ft::nmr_transform(golden.circuit()).circuit);
  sim::ReliabilityOptions options;
  options.trials = 2048;
  options.shard_passes = 8;
  const sim::ReliabilityResult fresh = sim::estimate_reliability_vs(
      noisy.circuit(), golden.circuit(), 0.01, options,
      exec::Parallelism::serial());
  ReliabilityRequest spec;
  spec.epsilon = 0.01;
  spec.options = options;
  const auto compiled = evaluated<sim::ReliabilityResult>(noisy, spec, golden);
  EXPECT_EQ(compiled.delta_hat, fresh.delta_hat);
  EXPECT_EQ(compiled.failures, fresh.failures);
}

TEST(Analysis, WorstCaseMatchesFreshCircuitCall) {
  const CompiledCircuit handle = suite_handle("c17");
  sim::WorstCaseOptions options;
  options.num_inputs = 24;
  options.trials_per_input = 300;
  const sim::WorstCaseResult fresh = sim::estimate_worst_case_reliability(
      handle.circuit(), handle.circuit(), 0.05, options,
      exec::Parallelism::serial());
  WorstCaseRequest spec;
  spec.epsilon = 0.05;
  spec.options = options;
  const auto compiled = evaluated<sim::WorstCaseResult>(handle, spec, handle);
  EXPECT_EQ(compiled.worst.delta_hat, fresh.worst.delta_hat);
  EXPECT_EQ(compiled.worst.failures, fresh.worst.failures);
  EXPECT_EQ(compiled.average_delta, fresh.average_delta);
  EXPECT_EQ(compiled.worst_input, fresh.worst_input);
}

TEST(Analysis, ActivityMatchesFreshCircuitCall) {
  const CompiledCircuit handle = suite_handle("rca8");
  sim::ActivityOptions options;
  options.sample_pairs = 256;
  options.shard_pairs = 32;
  const sim::ActivityResult fresh = sim::estimate_activity(
      handle.circuit(), options, exec::Parallelism::serial());
  const auto compiled =
      evaluated<sim::ActivityResult>(handle, ActivityRequest{options});
  EXPECT_EQ(compiled.avg_gate_toggle_rate, fresh.avg_gate_toggle_rate);
  EXPECT_EQ(compiled.avg_gate_one_probability, fresh.avg_gate_one_probability);
  EXPECT_EQ(compiled.toggle_rate, fresh.toggle_rate);
}

TEST(Analysis, SensitivityMatchesFreshCircuitCall) {
  const CompiledCircuit handle = suite_handle("rca8");
  sim::SensitivityOptions options;
  options.max_exact_inputs = 8;  // rca8 has 17 inputs: sampled sweep
  options.sample_words = 64;
  options.shard_words = 8;
  const sim::SensitivityResult fresh = sim::compute_sensitivity(
      handle.circuit(), options, exec::Parallelism::serial());
  const auto compiled =
      evaluated<sim::SensitivityResult>(handle, SensitivityRequest{options});
  EXPECT_EQ(compiled.sensitivity, fresh.sensitivity);
  EXPECT_EQ(compiled.total_influence, fresh.total_influence);
  EXPECT_EQ(compiled.assignments, fresh.assignments);
  EXPECT_EQ(compiled.exact, fresh.exact);
}

TEST(Analysis, ProfileMatchesFreshCircuitCall) {
  core::ProfileOptions options;
  options.activity_pairs = 256;
  options.sensitivity_exact_max_inputs = 8;
  for (const char* name : {"rca8", "parity8"}) {  // sampled and exact routes
    const CompiledCircuit handle = suite_handle(name);
    const core::CircuitProfile fresh = core::extract_profile(
        handle.circuit(), options, exec::Parallelism::serial());
    const core::CircuitProfile& compiled =
        handle.profile(options, exec::Parallelism::serial());
    EXPECT_EQ(compiled.size_s0, fresh.size_s0) << name;
    EXPECT_EQ(compiled.depth_d0, fresh.depth_d0) << name;
    EXPECT_EQ(compiled.avg_fanin_k, fresh.avg_fanin_k) << name;
    EXPECT_EQ(compiled.avg_activity_sw0, fresh.avg_activity_sw0) << name;
    EXPECT_EQ(compiled.sensitivity_s, fresh.sensitivity_s) << name;
    EXPECT_EQ(compiled.sensitivity_exact, fresh.sensitivity_exact) << name;
  }
}

TEST(Analysis, AnalyzeMatchesCoreAnalyzeOnExtractedProfile) {
  const CompiledCircuit handle = suite_handle("mult4");
  core::ProfileOptions options;
  options.activity_pairs = 256;
  options.sensitivity_exact_max_inputs = 8;
  const core::CircuitProfile fresh = core::extract_profile(
      handle.circuit(), options, exec::Parallelism::serial());
  const core::BoundReport direct = core::analyze(fresh, 0.02, 0.05);
  EnergyBoundRequest spec;
  spec.epsilon = 0.02;
  spec.delta = 0.05;
  spec.profile = options;
  const auto compiled = evaluated<core::BoundReport>(handle, spec);
  EXPECT_EQ(compiled.energy.total_factor, direct.energy.total_factor);
  EXPECT_EQ(compiled.size_factor, direct.size_factor);
  EXPECT_EQ(compiled.metrics.delay, direct.metrics.delay);
  // The request read the profile through the handle cache: one extraction.
  EXPECT_EQ(handle.profile_extractions(), 1u);
}

// ---- one request through the batch, the one dispatcher ------------------

TEST(Analysis, EvaluateMatchesSpecificEntryPoints) {
  const CompiledCircuit handle = suite_handle("c17");
  AnalysisRequest request;
  request.name = "rel";
  request.circuit = handle;
  ReliabilityRequest spec;
  spec.epsilon = 0.02;
  spec.options.trials = 2048;
  spec.options.shard_passes = 8;
  request.options = spec;

  const AnalysisResult result =
      exec::evaluate_requests({request}, exec::Parallelism::serial()).front();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.kind, AnalysisKind::kReliability);
  const sim::ReliabilityResult direct = sim::estimate_reliability(
      handle.circuit(), spec.epsilon, spec.options,
      exec::Parallelism::serial());
  ASSERT_NE(result.get<sim::ReliabilityResult>(), nullptr);
  EXPECT_EQ(result.get<sim::ReliabilityResult>()->delta_hat, direct.delta_hat);
  EXPECT_EQ(result.metric("delta_hat"), direct.delta_hat);
}

TEST(Analysis, EvaluateIsolatesErrors) {
  AnalysisRequest request;
  request.name = "bad";
  request.circuit = compile(gen::c17());              // 5 inputs
  request.golden = compile(gen::ripple_carry_adder(4));  // 9 inputs: mismatch
  request.options = ReliabilityRequest{};
  const AnalysisResult result = exec::evaluate_requests({request}).front();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("mismatch"), std::string::npos) << result.error;
  EXPECT_TRUE(result.metrics.empty());
}

// ---- batch: streaming vs blocking, cache sharing, zero copies ------------

// A mixed request set over shared handles: every kind, including golden
// references and two profile consumers on one handle.
std::vector<AnalysisRequest> mixed_requests() {
  std::vector<AnalysisRequest> requests;
  const CompiledCircuit c17 = suite_handle("c17");
  const CompiledCircuit rca8 = suite_handle("rca8");
  const CompiledCircuit parity8 = suite_handle("parity8");
  const CompiledCircuit mult4 = suite_handle("mult4");

  {
    AnalysisRequest r;
    r.name = "c17/rel";
    r.circuit = c17;
    ReliabilityRequest spec;
    spec.epsilon = 0.02;
    spec.options.trials = 2048;
    spec.options.shard_passes = 8;
    r.options = spec;
    requests.push_back(std::move(r));
  }
  {
    AnalysisRequest r;
    r.name = "c17/worst";
    r.circuit = c17;
    WorstCaseRequest spec;
    spec.epsilon = 0.05;
    spec.options.num_inputs = 16;
    spec.options.trials_per_input = 256;
    r.options = spec;
    requests.push_back(std::move(r));
  }
  {
    AnalysisRequest r;
    r.name = "rca8/act";
    r.circuit = rca8;
    ActivityRequest spec;
    spec.options.sample_pairs = 256;
    spec.options.shard_pairs = 32;
    r.options = spec;
    requests.push_back(std::move(r));
  }
  {
    AnalysisRequest r;
    r.name = "rca8/sens";
    r.circuit = rca8;
    SensitivityRequest spec;
    spec.options.max_exact_inputs = 8;
    spec.options.sample_words = 64;
    spec.options.shard_words = 8;
    r.options = spec;
    requests.push_back(std::move(r));
  }
  {
    // Redundant implementation vs its golden reference.
    AnalysisRequest r;
    r.name = "tmr-rca4/rel";
    const CompiledCircuit golden = compile(gen::ripple_carry_adder(4));
    r.circuit = compile(ft::nmr_transform(golden.circuit()).circuit);
    r.golden = golden;
    ReliabilityRequest spec;
    spec.epsilon = 0.01;
    spec.options.trials = 2048;
    spec.options.shard_passes = 8;
    r.options = spec;
    requests.push_back(std::move(r));
  }
  // Two profile consumers (profile + energy-bound) sharing the mult4 handle
  // and key, plus a BDD-route profile on parity8.
  core::ProfileOptions profile_options;
  profile_options.activity_pairs = 256;
  profile_options.sensitivity_exact_max_inputs = 8;
  {
    AnalysisRequest r;
    r.name = "mult4/bound";
    r.circuit = mult4;
    EnergyBoundRequest spec;
    spec.epsilon = 0.01;
    spec.delta = 0.01;
    spec.profile = profile_options;
    r.options = spec;
    requests.push_back(std::move(r));
  }
  {
    AnalysisRequest r;
    r.name = "mult4/profile";
    r.circuit = mult4;
    ProfileRequest spec;
    spec.options = profile_options;
    r.options = spec;
    requests.push_back(std::move(r));
  }
  {
    AnalysisRequest r;
    r.name = "parity8/profile";
    r.circuit = parity8;
    r.options = ProfileRequest{};
    requests.push_back(std::move(r));
  }
  return requests;
}

using MetricsMap =
    std::map<std::string, std::vector<std::pair<std::string, double>>>;

MetricsMap metrics_by_name(const std::vector<AnalysisResult>& results) {
  MetricsMap map;
  for (const AnalysisResult& r : results) {
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    map.emplace(r.name, r.metrics);
  }
  return map;
}

TEST(AnalysisBatch, StreamingMatchesBlockingForAnyThreadCount) {
  // Reference: blocking run, serial.
  const MetricsMap reference = metrics_by_name(
      exec::evaluate_requests(mixed_requests(), exec::Parallelism::serial()));
  ASSERT_EQ(reference.size(), 8u);

  for (const unsigned threads : {1u, 0u, 64u}) {
    // Blocking.
    const MetricsMap blocking = metrics_by_name(exec::evaluate_requests(
        mixed_requests(), exec::Parallelism{threads}));
    EXPECT_EQ(blocking, reference) << "blocking threads=" << threads;

    // Streaming: collect through the sink (completion order unspecified,
    // indices recover submission order).
    exec::BatchEvaluator batch(exec::Parallelism{threads});
    std::vector<AnalysisRequest> requests = mixed_requests();
    const std::size_t count = requests.size();
    for (AnalysisRequest& r : requests) batch.submit(std::move(r));
    std::vector<AnalysisResult> streamed(count);
    std::vector<bool> seen(count, false);
    batch.run([&](AnalysisResult result) {
      ASSERT_LT(result.index, count);
      EXPECT_FALSE(seen[result.index]) << "duplicate index " << result.index;
      seen[result.index] = true;
      streamed[result.index] = std::move(result);
    });
    EXPECT_EQ(std::count(seen.begin(), seen.end(), false), 0)
        << "streaming threads=" << threads;
    EXPECT_EQ(metrics_by_name(streamed), reference)
        << "streaming threads=" << threads;
  }
}

TEST(AnalysisBatch, EpsSweepSharesOneExtractionAndNeverCopies) {
  // The acceptance criterion: N energy-bound requests over one handle
  // perform zero netlist::Circuit copies and exactly one profile
  // extraction, and every point equals a direct core::analyze on the
  // extracted profile.
  const CompiledCircuit circuit = suite_handle("mult4");
  core::ProfileOptions profile_options;
  profile_options.activity_pairs = 256;
  profile_options.sensitivity_exact_max_inputs = 8;

  const std::vector<double> grid = core::log_grid(1e-3, 0.2, 20);
  exec::BatchEvaluator batch;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    AnalysisRequest request;
    request.name = "eps_" + std::to_string(i);
    request.circuit = circuit;
    EnergyBoundRequest spec;
    spec.epsilon = grid[i];
    spec.delta = 0.01;
    spec.profile = profile_options;
    request.options = spec;
    batch.submit(std::move(request));
  }

  const std::uint64_t copies_before = netlist::Circuit::copies_made();
  const std::vector<AnalysisResult> results = batch.run();
  EXPECT_EQ(netlist::Circuit::copies_made(), copies_before)
      << "the sweep must not clone the netlist";
  EXPECT_EQ(circuit.profile_extractions(), 1u)
      << "the sweep must extract the profile exactly once";

  const core::CircuitProfile& profile = circuit.profile(profile_options);
  ASSERT_EQ(results.size(), grid.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].name << ": " << results[i].error;
    const core::BoundReport direct = core::analyze(profile, grid[i], 0.01);
    EXPECT_EQ(results[i].metric("total_factor"), direct.energy.total_factor);
    EXPECT_EQ(results[i].metric("size_factor"), direct.size_factor);
    EXPECT_EQ(results[i].metric("delay_factor"), direct.metrics.delay);
    ASSERT_TRUE(results[i].profile.has_value());
    EXPECT_EQ(results[i].profile->avg_activity_sw0, profile.avg_activity_sw0);
  }
}

TEST(AnalysisBatch, TwoProfileConsumersOnOneHandleExtractOnce) {
  const CompiledCircuit circuit = suite_handle("rca8");
  core::ProfileOptions profile_options;
  profile_options.activity_pairs = 256;
  profile_options.sensitivity_exact_max_inputs = 8;

  exec::BatchEvaluator batch;
  {
    AnalysisRequest request;
    request.name = "profile";
    request.circuit = circuit;
    ProfileRequest spec;
    spec.options = profile_options;
    request.options = spec;
    batch.submit(std::move(request));
  }
  {
    AnalysisRequest request;
    request.name = "bound";
    request.circuit = circuit;
    EnergyBoundRequest spec;
    spec.profile = profile_options;
    request.options = spec;
    batch.submit(std::move(request));
  }
  const std::vector<AnalysisResult> results = batch.run();
  ASSERT_EQ(results.size(), 2u);
  for (const AnalysisResult& r : results) {
    ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
    ASSERT_TRUE(r.profile.has_value()) << r.name;
  }
  EXPECT_EQ(circuit.profile_extractions(), 1u);
  // Both saw the same (bit-identical) profile, equal to a direct serial
  // extraction.
  const core::CircuitProfile direct = core::extract_profile(
      circuit.circuit(), profile_options, exec::Parallelism::serial());
  EXPECT_EQ(results[0].profile->avg_activity_sw0, direct.avg_activity_sw0);
  EXPECT_EQ(results[1].profile->avg_activity_sw0, direct.avg_activity_sw0);
  EXPECT_EQ(results[0].profile->sensitivity_s, direct.sensitivity_s);

  // A second batch over the same handle is pure cache hits.
  exec::BatchEvaluator again;
  AnalysisRequest request;
  request.name = "profile-again";
  request.circuit = circuit;
  ProfileRequest spec;
  spec.options = profile_options;
  request.options = spec;
  again.submit(std::move(request));
  const auto rerun = again.run();
  ASSERT_TRUE(rerun[0].ok) << rerun[0].error;
  EXPECT_EQ(circuit.profile_extractions(), 1u);
  EXPECT_EQ(rerun[0].profile->avg_activity_sw0, direct.avg_activity_sw0);
}

TEST(AnalysisBatch, FailedRequestIsIsolated) {
  exec::BatchEvaluator batch;
  {
    AnalysisRequest request;
    request.name = "bad";
    request.circuit = compile(gen::c17());
    request.golden = compile(gen::ripple_carry_adder(4));  // mismatch
    request.options = ReliabilityRequest{};
    batch.submit(std::move(request));
  }
  {
    AnalysisRequest request;
    request.name = "empty";
    request.circuit = compile(netlist::Circuit("no-gates"));
    request.options = ProfileRequest{};
    batch.submit(std::move(request));
  }
  {
    AnalysisRequest request;
    request.name = "good";
    request.circuit = compile(gen::c17());
    ActivityRequest spec;
    spec.options.sample_pairs = 64;
    request.options = spec;
    batch.submit(std::move(request));
  }
  const auto results = batch.run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("mismatch"), std::string::npos);
  EXPECT_FALSE(results[1].ok);
  EXPECT_TRUE(results[2].ok) << results[2].error;
  EXPECT_TRUE(results[2].metric("avg_gate_toggle_rate").has_value());
}

TEST(AnalysisBatch, ThrowingSinkDoesNotCancelTheBatch) {
  // Delivery is isolated like evaluation: a sink that throws on one result
  // must not starve the others. Every request is still evaluated and
  // offered; the first sink exception resurfaces after the queue drains.
  exec::BatchEvaluator batch;
  for (int i = 0; i < 4; ++i) {
    AnalysisRequest request;
    request.name = "act_" + std::to_string(i);
    request.circuit = compile(gen::c17());
    ActivityRequest spec;
    spec.options.sample_pairs = 64;
    request.options = spec;
    batch.submit(std::move(request));
  }
  std::vector<std::size_t> delivered;
  EXPECT_THROW(
      batch.run([&](AnalysisResult result) {
        delivered.push_back(result.index);
        if (delivered.size() == 1) throw std::runtime_error("sink broke");
      }),
      std::runtime_error);
  // All four results were offered despite the first throwing, and the queue
  // drained.
  EXPECT_EQ(delivered.size(), 4u);
  EXPECT_EQ(batch.pending(), 0u);
}

TEST(AnalysisRequestTest, KindTracksVariantAlternative) {
  AnalysisRequest request;
  request.options = ReliabilityRequest{};
  EXPECT_EQ(request.kind(), AnalysisKind::kReliability);
  request.options = EnergyBoundRequest{};
  EXPECT_EQ(request.kind(), AnalysisKind::kEnergyBound);
  request.options = ProfileRequest{};
  EXPECT_EQ(request.kind(), AnalysisKind::kProfile);
}

TEST(AnalysisResultTest, MakeResultFlattensPayload) {
  core::BoundReport report;
  report.epsilon = 0.01;
  report.delta = 0.02;
  report.energy.total_factor = 2.5;
  const AnalysisResult result = make_result("point", report);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.kind, AnalysisKind::kEnergyBound);
  EXPECT_EQ(result.metric("eps"), 0.01);
  EXPECT_EQ(result.metric("total_factor"), 2.5);
  ASSERT_NE(result.get<core::BoundReport>(), nullptr);
}

TEST(AnalysisKindTest, RoundTripsThroughNames) {
  for (const AnalysisKind kind :
       {AnalysisKind::kReliability, AnalysisKind::kWorstCase,
        AnalysisKind::kActivity, AnalysisKind::kSensitivity,
        AnalysisKind::kEnergyBound, AnalysisKind::kProfile}) {
    const auto parsed = parse_analysis_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(parse_analysis_kind("worst_case"), AnalysisKind::kWorstCase);
  EXPECT_FALSE(parse_analysis_kind("bogus").has_value());
}

TEST(AnalysisBatch, ManifestRequestsShareMemoizedHandles) {
  std::istringstream in(
      "p1 kind=profile circuit=mult4 budget=256\n"
      "b1 kind=energy-bound circuit=mult4 eps=0.01 budget=256\n"
      "b2 kind=energy-bound circuit=mult4 eps=0.05 budget=256\n");
  std::map<std::string, CompiledCircuit> handles;
  std::vector<AnalysisRequest> requests = exec::parse_manifest_requests(
      in, [&](const std::string& spec) {
        const auto it = handles.find(spec);
        if (it != handles.end()) return it->second;
        return handles.emplace(spec, suite_handle(spec)).first->second;
      });
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_TRUE(requests[0].circuit.same_handle(requests[1].circuit));
  EXPECT_TRUE(requests[1].circuit.same_handle(requests[2].circuit));

  const CompiledCircuit circuit = requests[0].circuit;
  const auto results = exec::evaluate_requests(std::move(requests));
  for (const AnalysisResult& r : results) {
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
  }
  // profile + both sweep points share one extraction (same budget => same
  // profile key).
  EXPECT_EQ(circuit.profile_extractions(), 1u);
}

}  // namespace
}  // namespace enb::analysis
