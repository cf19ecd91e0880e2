// BatchEvaluator contract tests over the typed analysis::AnalysisRequest
// API (the circuit-by-value BatchJob shims were removed after PR 3; see
// test_analysis.cpp for the handle-sharing coverage).
//
// The acceptance bar: a batch of >= 16 mixed requests (reliability,
// worst-case, activity, sensitivity, energy-bound, profile) produces
// bit-identical per-request results for threads in {1, 0 (global pool), 64
// (oversubscribed dedicated pool)} and for shuffled submission order — and
// every batched result equals the standalone estimator run with the same
// options, because the batch schedules the estimators' own shard-level
// building blocks.
#include "exec/batch.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "core/analyzer.hpp"
#include "core/profile.hpp"
#include "ft/nmr.hpp"
#include "gen/adders.hpp"
#include "gen/iscas.hpp"
#include "gen/suite.hpp"
#include "obs/metrics.hpp"
#include "sim/reliability.hpp"

namespace enb::exec {
namespace {

using analysis::AnalysisKind;
using analysis::AnalysisRequest;
using analysis::AnalysisResult;
using analysis::CompiledCircuit;

netlist::Circuit suite_circuit(const std::string& name) {
  return gen::find_benchmark(name).build();
}

CompiledCircuit compile_suite(const std::string& name) {
  return analysis::compile(suite_circuit(name));
}

AnalysisRequest make_request(std::string name, CompiledCircuit circuit,
                             analysis::RequestOptions options) {
  AnalysisRequest request;
  request.name = std::move(name);
  request.circuit = std::move(circuit);
  request.options = std::move(options);
  return request;
}

// A 20-request mixed workload over small suite circuits, with budgets
// chosen so every kind produces several shards (and both sensitivity sweeps
// — exact and sampled — are exercised). Each call compiles fresh handles,
// so repeated runs start from cold artifact caches.
std::vector<AnalysisRequest> mixed_requests() {
  std::vector<AnalysisRequest> requests;
  const char* circuits[] = {"c17", "parity8", "rca8", "mult4"};
  for (const char* name : circuits) {
    const CompiledCircuit circuit = compile_suite(name);
    {
      analysis::ReliabilityRequest spec;
      spec.epsilon = 0.02;
      spec.options.trials = 2048;
      spec.options.shard_passes = 8;
      requests.push_back(
          make_request(std::string(name) + "/rel", circuit, spec));
    }
    {
      analysis::WorstCaseRequest spec;
      spec.epsilon = 0.05;
      spec.options.num_inputs = 16;
      spec.options.trials_per_input = 256;
      requests.push_back(
          make_request(std::string(name) + "/worst", circuit, spec));
    }
    {
      analysis::ActivityRequest spec;
      spec.options.sample_pairs = 256;
      spec.options.shard_pairs = 32;
      requests.push_back(
          make_request(std::string(name) + "/act", circuit, spec));
    }
    {
      analysis::SensitivityRequest spec;
      spec.options.max_exact_inputs = 8;  // rca8 (17 inputs) samples
      spec.options.sample_words = 64;
      spec.options.shard_words = 8;
      requests.push_back(
          make_request(std::string(name) + "/sens", circuit, spec));
    }
  }
  {
    // Redundant implementation vs its golden reference.
    const CompiledCircuit golden =
        analysis::compile(gen::ripple_carry_adder(4));
    analysis::ReliabilityRequest spec;
    spec.epsilon = 0.01;
    spec.options.trials = 2048;
    spec.options.shard_passes = 8;
    AnalysisRequest request = make_request(
        "tmr-rca4/rel",
        analysis::compile(ft::nmr_transform(golden.circuit()).circuit), spec);
    request.golden = golden;
    requests.push_back(std::move(request));
  }
  {
    analysis::EnergyBoundRequest spec;
    spec.epsilon = 0.01;
    spec.delta = 0.01;
    spec.profile.activity_pairs = 256;
    spec.profile.sensitivity_exact_max_inputs = 8;
    requests.push_back(
        make_request("mult4/bound", compile_suite("mult4"), spec));
  }
  {
    // 17 inputs: Monte-Carlo activity shards + sampled sensitivity shards.
    analysis::ProfileRequest spec;
    spec.options.activity_pairs = 256;
    spec.options.sensitivity_exact_max_inputs = 8;
    requests.push_back(
        make_request("rca8/profile", compile_suite("rca8"), spec));
  }
  {
    // 8 inputs: exact (exhaustive) activity route + exact sensitivity sweep.
    requests.push_back(make_request("parity8/profile",
                                    compile_suite("parity8"),
                                    analysis::ProfileRequest{}));
  }
  return requests;
}

std::map<std::string, AnalysisResult> by_name(
    std::vector<AnalysisResult> results) {
  std::map<std::string, AnalysisResult> map;
  for (AnalysisResult& r : results) {
    map.emplace(r.name, std::move(r));
  }
  return map;
}

void expect_identical(const std::map<std::string, AnalysisResult>& reference,
                      const std::map<std::string, AnalysisResult>& candidate,
                      const std::string& label) {
  ASSERT_EQ(reference.size(), candidate.size()) << label;
  for (const auto& [name, ref] : reference) {
    const auto it = candidate.find(name);
    ASSERT_NE(it, candidate.end()) << label << ": missing request " << name;
    EXPECT_EQ(ref.ok, it->second.ok) << label << ": " << name;
    // Bit-identical: exact double equality on every metric, no tolerance.
    EXPECT_EQ(ref.metrics, it->second.metrics) << label << ": " << name;
  }
}

TEST(Batch, MixedRequestsBitIdenticalAcrossThreadCountsAndOrder) {
  const auto reference =
      by_name(evaluate_requests(mixed_requests(), Parallelism{1}));
  ASSERT_GE(reference.size(), 16u);
  for (const auto& [name, r] : reference) {
    EXPECT_TRUE(r.ok) << name << ": " << r.error;
  }

  // Global pool and a heavily oversubscribed dedicated pool.
  for (unsigned threads : {0u, 64u}) {
    const auto parallel =
        by_name(evaluate_requests(mixed_requests(), Parallelism{threads}));
    expect_identical(reference, parallel,
                     "threads=" + std::to_string(threads));
  }

  // Shuffled submission order (fixed permutation: stride 7 is coprime with
  // the request count, so it visits every index).
  std::vector<AnalysisRequest> requests = mixed_requests();
  std::vector<AnalysisRequest> shuffled;
  const std::size_t n = requests.size();
  ASSERT_EQ(std::gcd(n, std::size_t{7}), 1u);  // stride must stay coprime
  for (std::size_t i = 0; i < n; ++i) {
    shuffled.push_back(std::move(requests[(i * 7) % n]));
  }
  const auto reordered =
      by_name(evaluate_requests(std::move(shuffled), Parallelism{64}));
  expect_identical(reference, reordered, "shuffled order");
}

TEST(Batch, ReliabilityRequestMatchesDirectEstimatorCall) {
  const CompiledCircuit circuit = compile_suite("c17");
  analysis::ReliabilityRequest spec;
  spec.epsilon = 0.03;
  spec.options.trials = 2000;  // not a multiple of 64 on purpose
  spec.options.shard_passes = 4;
  spec.options.seed = 99;
  const sim::ReliabilityResult direct = sim::estimate_reliability(
      circuit.circuit(), spec.epsilon, spec.options, Parallelism::serial());

  std::vector<AnalysisRequest> requests;
  requests.push_back(make_request("rel", circuit, spec));
  const auto results = evaluate_requests(std::move(requests));
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].metric("delta_hat"), direct.delta_hat);
  EXPECT_EQ(results[0].metric("ci_low"), direct.ci_low);
  EXPECT_EQ(results[0].metric("ci_high"), direct.ci_high);
  EXPECT_EQ(results[0].metric("failures"),
            static_cast<double>(direct.failures));
  EXPECT_EQ(results[0].metric("trials"), 2048.0);
  EXPECT_EQ(results[0].metric("requested_trials"), 2000.0);
}

TEST(Batch, WorstCaseRequestMatchesDirectEstimatorCall) {
  const CompiledCircuit circuit = compile_suite("c17");
  analysis::WorstCaseRequest spec;
  spec.epsilon = 0.05;
  spec.options.num_inputs = 24;
  spec.options.trials_per_input = 300;
  const sim::WorstCaseResult direct = sim::estimate_worst_case_reliability(
      circuit.circuit(), circuit.circuit(), spec.epsilon, spec.options,
      Parallelism::serial());

  std::vector<AnalysisRequest> requests;
  requests.push_back(make_request("worst", circuit, spec));
  const auto results = evaluate_requests(std::move(requests));
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].metric("worst_delta_hat"), direct.worst.delta_hat);
  EXPECT_EQ(results[0].metric("worst_failures"),
            static_cast<double>(direct.worst.failures));
  EXPECT_EQ(results[0].metric("average_delta"), direct.average_delta);
  EXPECT_EQ(results[0].metric("trials_per_input"), 320.0);
  EXPECT_EQ(results[0].metric("requested_trials_per_input"), 300.0);
}

TEST(Batch, ProfileRequestMatchesExtractProfile) {
  core::ProfileOptions options;
  options.activity_pairs = 256;
  options.sensitivity_exact_max_inputs = 8;

  for (const char* name : {"rca8", "parity8"}) {  // sampled and exact routes
    const netlist::Circuit circuit = suite_circuit(name);
    const core::CircuitProfile direct =
        core::extract_profile(circuit, options, Parallelism::serial());

    std::vector<AnalysisRequest> requests;
    requests.push_back(make_request(name, analysis::compile(suite_circuit(name)),
                                    analysis::ProfileRequest{options}));
    const auto results = evaluate_requests(std::move(requests));
    ASSERT_TRUE(results[0].ok) << results[0].error;
    ASSERT_TRUE(results[0].profile.has_value());
    const core::CircuitProfile& p = *results[0].profile;
    EXPECT_EQ(p.num_inputs, direct.num_inputs) << name;
    EXPECT_EQ(p.size_s0, direct.size_s0) << name;
    EXPECT_EQ(p.depth_d0, direct.depth_d0) << name;
    EXPECT_EQ(p.avg_fanin_k, direct.avg_fanin_k) << name;
    EXPECT_EQ(p.avg_activity_sw0, direct.avg_activity_sw0) << name;
    EXPECT_EQ(p.sensitivity_s, direct.sensitivity_s) << name;
    EXPECT_EQ(p.sensitivity_exact, direct.sensitivity_exact) << name;
  }
}

TEST(Batch, EnergyBoundRequestMatchesAnalyze) {
  core::ProfileOptions options;
  options.activity_pairs = 256;
  options.sensitivity_exact_max_inputs = 8;
  const netlist::Circuit circuit = suite_circuit("mult4");
  const core::CircuitProfile profile =
      core::extract_profile(circuit, options, Parallelism::serial());
  const core::BoundReport direct = core::analyze(profile, 0.02, 0.05);

  // Once via extraction, once via the profile-override shortcut (empty
  // circuit handle).
  std::vector<AnalysisRequest> requests;
  {
    analysis::EnergyBoundRequest spec;
    spec.epsilon = 0.02;
    spec.delta = 0.05;
    spec.profile = options;
    requests.push_back(make_request("extracted",
                                    analysis::compile(suite_circuit("mult4")),
                                    spec));
  }
  {
    analysis::EnergyBoundRequest spec;
    spec.epsilon = 0.02;
    spec.delta = 0.05;
    spec.profile_override = profile;
    requests.push_back(make_request("override", CompiledCircuit{}, spec));
  }
  const auto results = evaluate_requests(std::move(requests));
  for (const AnalysisResult& r : results) {
    ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
    EXPECT_EQ(r.metric("total_factor"), direct.energy.total_factor) << r.name;
    EXPECT_EQ(r.metric("size_factor"), direct.size_factor) << r.name;
    EXPECT_EQ(r.metric("delay_factor"), direct.metrics.delay) << r.name;
  }
}

TEST(Batch, FailedRequestIsIsolated) {
  std::vector<AnalysisRequest> requests;
  {
    analysis::ReliabilityRequest spec;
    AnalysisRequest request =
        make_request("bad", analysis::compile(gen::c17()), spec);  // 5 inputs
    request.golden =
        analysis::compile(gen::ripple_carry_adder(4));  // 9 inputs: mismatch
    requests.push_back(std::move(request));
  }
  {
    requests.push_back(make_request(
        "empty", analysis::compile(netlist::Circuit("no-gates")),
        analysis::ProfileRequest{}));  // nothing to profile
  }
  {
    analysis::ActivityRequest spec;
    spec.options.sample_pairs = 64;
    requests.push_back(make_request("good", analysis::compile(gen::c17()),
                                    spec));
  }
  const auto results = evaluate_requests(std::move(requests));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("mismatch"), std::string::npos)
      << results[0].error;
  EXPECT_FALSE(results[1].ok);
  EXPECT_TRUE(results[2].ok) << results[2].error;
  EXPECT_TRUE(results[2].metric("avg_gate_toggle_rate").has_value());
}

TEST(Batch, EmptyQueueYieldsEmptyResults) {
  BatchEvaluator evaluator;
  EXPECT_EQ(evaluator.pending(), 0u);
  EXPECT_TRUE(evaluator.run().empty());
}

TEST(Batch, RunClearsTheQueue) {
  BatchEvaluator evaluator;
  analysis::ActivityRequest spec;
  spec.options.sample_pairs = 64;
  evaluator.submit(make_request("act", analysis::compile(gen::c17()), spec));
  EXPECT_EQ(evaluator.pending(), 1u);
  EXPECT_EQ(evaluator.run().size(), 1u);
  EXPECT_EQ(evaluator.pending(), 0u);
  EXPECT_TRUE(evaluator.run().empty());
}

TEST(Batch, JobKindRoundTrips) {
  for (AnalysisKind kind :
       {AnalysisKind::kReliability, AnalysisKind::kWorstCase,
        AnalysisKind::kActivity, AnalysisKind::kSensitivity,
        AnalysisKind::kEnergyBound, AnalysisKind::kProfile}) {
    const auto parsed =
        analysis::parse_analysis_kind(analysis::to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << analysis::to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(analysis::parse_analysis_kind("worst_case"),
            AnalysisKind::kWorstCase);
  EXPECT_EQ(analysis::parse_analysis_kind("energy_bound"),
            AnalysisKind::kEnergyBound);
  EXPECT_FALSE(analysis::parse_analysis_kind("bogus").has_value());
}

// Memoized handle resolution, like the CLI and the server use.
std::function<CompiledCircuit(const std::string&)> memoized_resolver(
    std::map<std::string, CompiledCircuit>& handles) {
  return [&handles](const std::string& spec) {
    const auto it = handles.find(spec);
    if (it != handles.end()) return it->second;
    return handles.emplace(spec, compile_suite(spec)).first->second;
  };
}

TEST(Manifest, ParsesRequestsWithCommentsAndDefaults) {
  std::istringstream in(
      "# comment line\n"
      "\n"
      "r1 kind=reliability circuit=c17 eps=0.02 budget=4096 seed=5\n"
      "w1 kind=worst-case circuit=parity8 budget=512\n"
      "e1 kind=energy-bound circuit=mult4 delta=0.1 leakage=0.25\n"
      "p1 circuit=rca8 kind=profile\n");
  std::map<std::string, CompiledCircuit> handles;
  const auto requests = parse_manifest_requests(in, memoized_resolver(handles));
  ASSERT_EQ(requests.size(), 4u);
  EXPECT_EQ(requests[0].name, "r1");
  EXPECT_EQ(requests[0].kind(), AnalysisKind::kReliability);
  const auto& rel =
      std::get<analysis::ReliabilityRequest>(requests[0].options);
  EXPECT_DOUBLE_EQ(rel.epsilon, 0.02);
  EXPECT_EQ(rel.options.trials, 4096u);
  EXPECT_EQ(rel.options.seed, 5u);
  EXPECT_EQ(requests[1].kind(), AnalysisKind::kWorstCase);
  EXPECT_EQ(std::get<analysis::WorstCaseRequest>(requests[1].options)
                .options.trials_per_input,
            512u);
  const auto& bound =
      std::get<analysis::EnergyBoundRequest>(requests[2].options);
  EXPECT_DOUBLE_EQ(bound.delta, 0.1);
  EXPECT_DOUBLE_EQ(bound.energy.leakage_fraction, 0.25);
  EXPECT_EQ(requests[3].kind(), AnalysisKind::kProfile);  // key order is free
  EXPECT_GT(requests[3].circuit.circuit().gate_count(), 0u);
}

TEST(Manifest, SharedSpecsShareHandles) {
  std::istringstream in(
      "a kind=activity circuit=c17 budget=64\n"
      "b kind=sensitivity circuit=c17\n"
      "c kind=profile circuit=rca8\n");
  std::map<std::string, CompiledCircuit> handles;
  const auto requests = parse_manifest_requests(in, memoized_resolver(handles));
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_TRUE(requests[0].circuit.same_handle(requests[1].circuit));
  EXPECT_FALSE(requests[0].circuit.same_handle(requests[2].circuit));
}

TEST(Manifest, RejectsMalformedLines) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    std::map<std::string, CompiledCircuit> handles;
    return parse_manifest_requests(in, memoized_resolver(handles));
  };
  EXPECT_THROW((void)parse("j1 kind=bogus circuit=c17"),
               std::invalid_argument);
  EXPECT_THROW((void)parse("j1 circuit=c17"), std::invalid_argument);
  EXPECT_THROW((void)parse("j1 kind=reliability"), std::invalid_argument);
  EXPECT_THROW((void)parse("j1 kind=reliability circuit=c17 eps=abc"),
               std::invalid_argument);
  EXPECT_THROW((void)parse("j1 kind=reliability circuit=c17 budget=12x"),
               std::invalid_argument);
  EXPECT_THROW((void)parse("j1 kind=reliability circuit=c17 frobnicate=1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse("j1 kind=reliability circuit=c17 noequals"),
               std::invalid_argument);
  // std::stoull would wrap "-1" to 2^64-1, whose rounded-up pass count
  // overflows to zero — a silent empty job reporting ok. Reject instead.
  EXPECT_THROW((void)parse("j1 kind=reliability circuit=c17 budget=-1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse("j1 kind=reliability circuit=c17 seed=-7"),
               std::invalid_argument);
}

TEST(Batch, ZeroSampledSensitivityBudgetFailsTheRequest) {
  // 17 inputs with max_exact_inputs=8 selects the sampled sweep; a zero
  // sample budget must fail the request, not report ok with NaN influence.
  analysis::SensitivityRequest spec;
  spec.options.max_exact_inputs = 8;
  spec.options.sample_words = 0;
  std::vector<AnalysisRequest> requests;
  requests.push_back(make_request("sens0", compile_suite("rca8"), spec));
  const auto results = evaluate_requests(std::move(requests));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("sample_words"), std::string::npos)
      << results[0].error;
}

// A NaN ε reaches the noisy simulator unchanged from the manifest, which
// must fail the request (the CLI's batch then exits 2), not report a
// reliability computed without noise.
TEST(Batch, NanEpsilonFailsTheRequest) {
  std::istringstream in(
      "r kind=reliability circuit=c17 eps=nan budget=2048\n"
      "w kind=worst-case circuit=c17 eps=nan budget=64\n");
  std::map<std::string, CompiledCircuit> handles;
  const auto results = evaluate_requests(
      parse_manifest_requests(in, memoized_resolver(handles)));
  ASSERT_EQ(results.size(), 2u);
  for (const AnalysisResult& result : results) {
    EXPECT_FALSE(result.ok) << result.name;
    EXPECT_NE(result.error.find("epsilon must be in [0, 0.5]"),
              std::string::npos)
        << result.name << ": " << result.error;
  }
}

// A harden request's nested sweep runs under the evaluator's Parallelism:
// a serial batch submits no parallel job to any pool, and its result JSON
// is the default pool's.
TEST(Batch, SerialHardenRequestSubmitsNoPoolJob) {
  const auto harden_json = [](Parallelism how, bool count_jobs) {
    std::istringstream in("h kind=harden circuit=c17 budget=64 style=tmr\n");
    std::map<std::string, CompiledCircuit> handles;
    auto requests = parse_manifest_requests(in, memoized_resolver(handles));
    obs::Counter& jobs =
        obs::Registry::global().counter("exec-parallel-jobs-total");
    const std::uint64_t before = jobs.value();
    const auto results = evaluate_requests(std::move(requests), how);
    if (count_jobs) {
      EXPECT_EQ(jobs.value(), before);
    }
    EXPECT_TRUE(results.at(0).ok) << results.at(0).error;
    std::ostringstream out;
    write_result_json(out, results.at(0));
    return out.str();
  };
  EXPECT_EQ(harden_json(Parallelism::serial(), true),
            harden_json(Parallelism{}, false));
}

TEST(Batch, ExtractionSecondsExcludeQueueing) {
  // A serial batch holding a long reliability job and a c17 profile. The
  // extraction histogram must record the profile's own extraction time, not
  // the reliability job's.
  analysis::ReliabilityRequest rel;
  rel.options.trials = std::uint64_t{1} << 22;
  std::vector<AnalysisRequest> requests;
  requests.push_back(make_request("rel-rca8", compile_suite("rca8"), rel));
  requests.push_back(make_request("prof-c17", compile_suite("c17"),
                                  analysis::ProfileRequest{}));
  obs::Histogram& seconds =
      obs::Registry::global().histogram("analysis-extraction-seconds");
  const obs::Histogram::Snapshot before = seconds.snapshot();
  const auto results =
      evaluate_requests(std::move(requests), Parallelism::serial());
  const obs::Histogram::Snapshot after = seconds.snapshot();
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  ASSERT_TRUE(results[1].ok) << results[1].error;
  EXPECT_EQ(after.count, before.count + 1);
  EXPECT_LT(after.sum - before.sum, 0.1 * results[0].elapsed_seconds);
}

TEST(Batch, ShardlessProfileExtractionCompletes) {
  // Without inputs, exact activity is one shard over a single one-lane
  // block and the sensitivity sweep is degenerate (no shards): the
  // extraction must still finish and answer both requests exactly as
  // core::extract_profile and core::analyze do (the bound fails: a constant
  // circuit has sw0 = 0).
  netlist::Circuit circuit("no-inputs");
  circuit.add_output(
      circuit.add_gate(netlist::GateType::kNot, circuit.add_const(true)), "y");
  const CompiledCircuit handle = analysis::compile(circuit);
  const std::vector<analysis::RequestOptions> specs = {
      analysis::ProfileRequest{}, analysis::EnergyBoundRequest{}};
  std::vector<AnalysisRequest> requests;
  for (const analysis::RequestOptions& spec : specs) {
    requests.push_back(make_request("job", handle, spec));
  }
  const auto results = evaluate_requests(std::move(requests));
  ASSERT_EQ(results.size(), specs.size());
  EXPECT_TRUE(results[0].ok) << results[0].error;

  std::vector<AnalysisResult> direct(specs.size());
  const core::CircuitProfile profile = core::extract_profile(circuit);
  direct[0].kind = AnalysisKind::kProfile;
  direct[0].ok = true;
  analysis::set_payload(direct[0], profile);
  direct[1].kind = AnalysisKind::kEnergyBound;
  try {
    analysis::set_payload(direct[1], core::analyze(profile, 0.01, 0.01));
    direct[1].ok = true;
  } catch (const std::exception& e) {
    direct[1].error = e.what();
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    direct[i].name = "job";
    std::ostringstream batched_json;
    std::ostringstream direct_json;
    write_result_json(batched_json, results[i]);
    write_result_json(direct_json, direct[i]);
    EXPECT_EQ(batched_json.str(), direct_json.str());
  }
  EXPECT_EQ(handle.profile_extractions(), 1u);
}

TEST(Batch, ConcurrentBatchesShareOneProfileExtraction) {
  // Two batches on two threads ask for the same (handle, profile key): the
  // handle's lock lets exactly one of them extract, the other reuses it.
  const CompiledCircuit handle = compile_suite("mult8");
  std::vector<AnalysisResult> results(2);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&handle, &results, t] {
      results[t] = evaluate_requests(
                       {make_request("prof", handle, analysis::ProfileRequest{})})
                       .front();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(handle.profile_extractions(), 1u);
  for (const AnalysisResult& result : results) {
    ASSERT_TRUE(result.ok) << result.error;
  }
  std::ostringstream first;
  std::ostringstream second;
  write_result_json(first, results[0]);
  write_result_json(second, results[1]);
  EXPECT_EQ(first.str(), second.str());
}

TEST(BatchOutput, JsonEmitsNullForNonFiniteMetrics) {
  // delay_factor is legitimately +inf past the Theorem 4 feasibility limit;
  // "inf"/"nan" are not JSON literals and must render as null.
  AnalysisResult r;
  r.name = "edge";
  r.kind = AnalysisKind::kEnergyBound;
  r.ok = true;
  r.metrics = {{"total_factor", 2.5},
               {"delay_factor", std::numeric_limits<double>::infinity()},
               {"avg_power_factor", std::numeric_limits<double>::quiet_NaN()}};
  std::ostringstream json;
  write_batch_json(json, {r});
  EXPECT_NE(json.str().find("\"total_factor\": 2.5"), std::string::npos);
  EXPECT_NE(json.str().find("\"delay_factor\": null"), std::string::npos);
  EXPECT_NE(json.str().find("\"avg_power_factor\": null"), std::string::npos);
  EXPECT_EQ(json.str().find("inf"), std::string::npos);
  EXPECT_EQ(json.str().find("nan"), std::string::npos);
}

TEST(BatchOutput, ResultJsonObjectMatchesBatchArrayLine) {
  // The per-result writer is the server's framing unit; the array writer
  // must be exactly "[\n  <object>(,\n  <object>)*\n]\n" around it.
  AnalysisResult r;
  r.name = "one";
  r.kind = AnalysisKind::kActivity;
  r.ok = true;
  r.metrics = {{"avg_gate_toggle_rate", 0.25}};
  std::ostringstream object;
  write_result_json(object, r);
  std::ostringstream array;
  write_batch_json(array, {r});
  EXPECT_EQ(array.str(), "[\n  " + object.str() + "\n]\n");
}

TEST(BatchOutput, CsvAndJsonShapes) {
  std::vector<AnalysisRequest> requests;
  {
    analysis::ActivityRequest spec;
    spec.options.sample_pairs = 64;
    requests.push_back(make_request("act", analysis::compile(gen::c17()),
                                    spec));
  }
  {
    AnalysisRequest request = make_request(
        "bad", analysis::compile(gen::c17()), analysis::ReliabilityRequest{});
    request.golden = analysis::compile(gen::ripple_carry_adder(4));
    requests.push_back(std::move(request));
  }
  const auto results = evaluate_requests(std::move(requests));

  std::ostringstream csv;
  write_batch_csv(csv, results);
  EXPECT_NE(csv.str().find("job,kind,ok,metric,value"), std::string::npos);
  EXPECT_NE(csv.str().find("act,activity,1,avg_gate_toggle_rate,"),
            std::string::npos);
  EXPECT_NE(csv.str().find("bad,reliability,0,error,"), std::string::npos);

  std::ostringstream json;
  write_batch_json(json, results);
  EXPECT_NE(json.str().find("\"name\": \"act\""), std::string::npos);
  EXPECT_NE(json.str().find("\"ok\": true"), std::string::npos);
  EXPECT_NE(json.str().find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.str().find("mismatch"), std::string::npos);
}

}  // namespace
}  // namespace enb::exec
