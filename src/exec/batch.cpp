#include "exec/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <iomanip>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "analysis/kinds.hpp"
#include "analysis/lint.hpp"
#include "bdd/bdd_analysis.hpp"
#include "exec/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_model.hpp"
#include "harden/pareto.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/csv.hpp"
#include "util/json.hpp"
#include "util/sync.hpp"

namespace enb::exec {

namespace {

using analysis::AnalysisKind;
using analysis::AnalysisRequest;
using analysis::AnalysisResult;
using analysis::CompiledCircuit;
using netlist::Circuit;

// Estimator options derived from profile-extraction knobs, mirroring
// core::extract_profile so batched profiles are bit-identical to direct
// extraction.
sim::ActivityOptions profile_activity_options(const core::ProfileOptions& p) {
  sim::ActivityOptions o;
  o.sample_pairs = p.activity_pairs;
  o.seed = p.seed;
  return o;
}

sim::SensitivityOptions profile_sensitivity_options(
    const core::ProfileOptions& p) {
  sim::SensitivityOptions o;
  o.max_exact_inputs = p.sensitivity_exact_max_inputs;
  o.sample_words = p.sensitivity_sample_words;
  o.seed = p.seed + 1;
  return o;
}

const Circuit& golden_of(const AnalysisRequest& request) {
  return request.golden.has_value() ? request.golden->circuit()
                                    : request.circuit.circuit();
}

// Profile extraction mirrors core::extract_profile: exact (BDD) activity
// when small enough — one task, with the silent Monte-Carlo fallback run
// inline — otherwise activity shards; plus sensitivity shards.
struct ProfilePlan {
  bool direct_activity = false;  // BDD route (task 0) instead of MC shards
  ShardPlan activity{0, 1};
  ShardPlan sensitivity{0, 1};
  std::size_t num_shards() const {
    return (direct_activity ? 1 : activity.num_shards()) +
           sensitivity.num_shards();
  }
};

// One profile extraction shared by every request in the batch that names the
// same (handle, profile key): its shards enter the flat task space exactly
// once and the assembled profile lands in the handle's cache. Accumulators
// merge commutatively, so shard completion order never reaches the profile.
struct ExtractionGroup {
  CompiledCircuit circuit;
  core::ProfileOptions options;  // the key's value-relevant knobs
  ProfilePlan plan;

  util::Mutex mutex;  // guards error, the accumulators, and the profile
  std::unique_ptr<sim::ActivityCounts> activity_counts
      ENB_PT_GUARDED_BY(mutex);
  std::unique_ptr<sim::SensitivityCounts> sensitivity_counts
      ENB_PT_GUARDED_BY(mutex);
  double exact_activity_sw0 ENB_GUARDED_BY(mutex) = 0.0;
  bool activity_is_direct ENB_GUARDED_BY(mutex) = false;

  std::atomic<std::size_t> remaining{0};
  std::atomic<bool> failed{false};
  // Stamped at group creation; assemble() observes the extraction histogram
  // and trace span from it, so the span covers the sharded extraction
  // wall-clock (queueing included) like the serial path's span does.
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
  std::string error ENB_GUARDED_BY(mutex);
  // Set once by assemble(); dependents read it under the lock in finalize.
  std::optional<core::CircuitProfile> profile ENB_GUARDED_BY(mutex);
  std::vector<std::size_t> dependents;  // request indices

  void record_error(const std::string& message) {
    const util::LockGuard lock(mutex);
    if (!failed.load(std::memory_order_relaxed)) error = message;
    failed.store(true, std::memory_order_relaxed);
  }

  std::string error_text() {
    const util::LockGuard lock(mutex);
    return error;
  }

  void run_shard(std::size_t shard) {
    const Circuit& c = circuit.circuit();
    const std::size_t activity_tasks =
        plan.direct_activity ? 1 : plan.activity.num_shards();
    if (shard < activity_tasks) {
      if (plan.direct_activity) {
        // The BDD route can still blow up on worst-case structures; fall
        // back silently to the serial Monte-Carlo estimate, exactly like
        // core::extract_profile.
        double sw0 = 0.0;
        try {
          sw0 = bdd::exact_activity_bdd(c).avg_gate_toggle_rate;
        } catch (const bdd::BddLimitExceeded&) {
          sw0 = sim::estimate_activity(c, profile_activity_options(options),
                                       Parallelism::serial())
                    .avg_gate_toggle_rate;
        }
        const util::LockGuard lock(mutex);
        exact_activity_sw0 = sw0;
        activity_is_direct = true;
      } else {
        const sim::ActivityCounts local = sim::activity_shard_counts(
            c, profile_activity_options(options), plan.activity.shard(shard));
        const util::LockGuard lock(mutex);
        activity_counts->merge(local);
      }
    } else {
      const sim::SensitivityCounts local = sim::sensitivity_shard_counts(
          c, profile_sensitivity_options(options),
          plan.sensitivity.shard(shard - activity_tasks));
      const util::LockGuard lock(mutex);
      sensitivity_counts->merge(local);
    }
  }

  // Serial reduction run by whichever worker finishes the last shard; the
  // result is stored both here (for this batch's dependents) and in the
  // handle's cache (for every later consumer of the handle).
  void assemble() {
    const Circuit& c = circuit.circuit();
    const netlist::CircuitStats& stats = circuit.stats();
    // Uncontended by construction — every shard has completed — but taken
    // anyway so the accumulator reads check out statically.
    const util::LockGuard lock(mutex);
    core::CircuitProfile p;
    p.name = c.name();
    p.num_inputs = static_cast<int>(stats.num_inputs);
    p.num_outputs = static_cast<int>(stats.num_outputs);
    p.size_s0 = static_cast<double>(stats.num_gates);
    p.depth_d0 = stats.depth;
    p.avg_fanin_k = stats.avg_fanin;
    p.max_fanin = stats.max_fanin;
    p.avg_activity_sw0 =
        activity_is_direct
            ? exact_activity_sw0
            : sim::finalize_activity(c, profile_activity_options(options),
                                     *activity_counts)
                  .avg_gate_toggle_rate;
    const sim::SensitivityResult sens = sim::finalize_sensitivity(
        c, profile_sensitivity_options(options), *sensitivity_counts);
    p.sensitivity_s = std::max(1, sens.sensitivity);
    p.sensitivity_exact = sens.exact;
    circuit.store_profile(options, p);
    profile = std::move(p);

    const auto end = std::chrono::steady_clock::now();
    static obs::Histogram& seconds =
        obs::Registry::global().histogram("analysis-extraction-seconds");
    seconds.observe(std::chrono::duration<double>(end - started).count());
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
      recorder.record("profile-extraction",
                      obs::SpanHandle{recorder.new_id()}, obs::SpanHandle{},
                      started, end, c.name());
    }
  }
};

// All per-request mutable state for one batch run. Accumulators merge
// commutatively (sums, max, slot-per-shard writes), so shard completion
// order never reaches the result.
struct JobState {
  const AnalysisRequest* request = nullptr;
  // Prepare-time stamp; emission computes the job's wall-clock elapsed from
  // it (observability only — never part of the result's serialized bytes).
  std::chrono::steady_clock::time_point start{};
  std::size_t num_tasks = 0;  // own tasks (excludes the extraction group's)
  std::function<void(JobState&, std::size_t)> run_task;
  std::function<void(JobState&, AnalysisResult&)> finalize;
  // Shared extraction this request waits on (one completion unit).
  ExtractionGroup* extraction = nullptr;
  // Completion units left: own tasks + (extraction ? 1 : 0). The thread that
  // takes this to zero finalizes and emits the result.
  std::atomic<std::size_t> pending{0};

  // Error isolation: the first failing task records the message and the
  // request's remaining tasks turn into no-ops; other requests are
  // unaffected.
  std::atomic<bool> failed{false};
  util::Mutex mutex;  // guards error and non-atomic accumulators
  std::string error ENB_GUARDED_BY(mutex);

  // kReliability
  std::atomic<std::uint64_t> failures{0};
  // kWorstCase: slot per sample (disjoint writes; no lock needed)
  std::vector<std::uint64_t> sample_failures;
  // kActivity
  std::unique_ptr<sim::ActivityCounts> activity_counts
      ENB_PT_GUARDED_BY(mutex);
  // kSensitivity
  std::unique_ptr<sim::SensitivityCounts> sensitivity_counts
      ENB_PT_GUARDED_BY(mutex);
  // kEnergyBound via override or cached profile: single writer (task 0).
  std::optional<core::BoundReport> report;
  // Profile found in the handle's cache at prepare time.
  std::optional<core::CircuitProfile> cached_profile;
  // kFaultCampaign: the universe is built once at prepare time and shared
  // (read-only) by every pattern shard; counts merge commutatively.
  std::shared_ptr<const fault::FaultUniverse> fault_universe;
  std::unique_ptr<fault::CampaignCounts> campaign_counts
      ENB_PT_GUARDED_BY(mutex);
  // kLint: single task, single writer.
  std::optional<analysis::LintReport> lint ENB_GUARDED_BY(mutex);
  // kCec: single task, single writer.
  std::optional<analysis::CecResult> cec ENB_GUARDED_BY(mutex);
  // kHarden: single task, single writer — the sweep drives its own nested
  // batch, which runs inline on this worker (pool reentrancy contract).
  std::optional<harden::ParetoResult> harden ENB_GUARDED_BY(mutex);

  void record_error(const std::string& message) {
    const util::LockGuard lock(mutex);
    if (!failed.load(std::memory_order_relaxed)) error = message;
    failed.store(true, std::memory_order_relaxed);
  }

  std::string error_text() {
    const util::LockGuard lock(mutex);
    return error;
  }
};

void finish_with_payload(AnalysisResult& result,
                         analysis::ResultPayload payload) {
  analysis::set_payload(result, std::move(payload));
}

// ---- per-kind preparation -------------------------------------------------
//
// Each prepare_* validates the request spec (throwing like the standalone
// estimator would), sizes the task space, and installs the task body and
// the finalize reduction. Task bodies only call the estimators' shard-level
// building blocks, which is what makes batched results bit-identical to
// direct calls.

void prepare_reliability(const AnalysisRequest& request,
                         const analysis::ReliabilityRequest& spec,
                         JobState& state) {
  sim::validate_reliability_inputs(request.circuit.circuit(),
                                   golden_of(request), spec.options);
  const ShardPlan plan = sim::reliability_shard_plan(spec.options);
  state.num_tasks = plan.num_shards();
  state.run_task = [plan, &spec](JobState& s, std::size_t shard) {
    s.failures.fetch_add(
        sim::reliability_shard_failures(
            s.request->circuit.circuit(), golden_of(*s.request), spec.epsilon,
            spec.options, plan.shard(shard)),
        std::memory_order_relaxed);
  };
  state.finalize = [plan, &spec](JobState& s, AnalysisResult& r) {
    sim::ReliabilityResult rel =
        sim::wilson_interval(s.failures.load(), plan.total() * sim::kWordBits);
    rel.requested_trials = spec.options.trials;
    finish_with_payload(r, std::move(rel));
  };
}

void prepare_worst_case(const AnalysisRequest& request,
                        const analysis::WorstCaseRequest& spec,
                        JobState& state) {
  sim::validate_worst_case_inputs(request.circuit.circuit(),
                                  golden_of(request), spec.options);
  state.sample_failures.assign(
      static_cast<std::size_t>(spec.options.num_inputs), 0);
  state.num_tasks = state.sample_failures.size();
  state.run_task = [&spec](JobState& s, std::size_t sample) {
    s.sample_failures[sample] = sim::worst_case_sample_failures(
        s.request->circuit.circuit(), golden_of(*s.request), spec.epsilon,
        spec.options, sample);
  };
  state.finalize = [&spec](JobState& s, AnalysisResult& r) {
    finish_with_payload(
        r, sim::finalize_worst_case(s.request->circuit.circuit(), spec.options,
                                    s.sample_failures));
  };
}

void prepare_activity(const AnalysisRequest& request,
                      const analysis::ActivityRequest& spec, JobState& state) {
  sim::validate_activity_inputs(spec.options);
  const ShardPlan plan = sim::activity_shard_plan(spec.options);
  state.activity_counts = std::make_unique<sim::ActivityCounts>(
      request.circuit.circuit().node_count());
  state.num_tasks = plan.num_shards();
  state.run_task = [plan, &spec](JobState& s, std::size_t shard) {
    const sim::ActivityCounts local = sim::activity_shard_counts(
        s.request->circuit.circuit(), spec.options, plan.shard(shard));
    const util::LockGuard lock(s.mutex);
    s.activity_counts->merge(local);
  };
  state.finalize = [&spec](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.mutex);
    finish_with_payload(
        r, sim::finalize_activity(s.request->circuit.circuit(), spec.options,
                                  *s.activity_counts));
  };
}

void prepare_sensitivity(const AnalysisRequest& request,
                         const analysis::SensitivityRequest& spec,
                         JobState& state) {
  sim::validate_sensitivity_inputs(request.circuit.circuit(), spec.options);
  const ShardPlan plan =
      sim::sensitivity_shard_plan(request.circuit.circuit(), spec.options);
  state.sensitivity_counts = std::make_unique<sim::SensitivityCounts>(
      request.circuit.circuit().num_inputs());
  state.num_tasks = plan.num_shards();
  state.run_task = [plan, &spec](JobState& s, std::size_t shard) {
    const sim::SensitivityCounts local = sim::sensitivity_shard_counts(
        s.request->circuit.circuit(), spec.options, plan.shard(shard));
    const util::LockGuard lock(s.mutex);
    s.sensitivity_counts->merge(local);
  };
  state.finalize = [&spec](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.mutex);
    finish_with_payload(
        r, sim::finalize_sensitivity(s.request->circuit.circuit(), spec.options,
                                     *s.sensitivity_counts));
  };
}

void prepare_fault_campaign(const AnalysisRequest& request,
                            const analysis::FaultCampaignRequest& spec,
                            JobState& state) {
  const Circuit& circuit = request.circuit.circuit();
  const Circuit& golden = golden_of(request);
  fault::validate_campaign_inputs(circuit, golden, spec.options);
  state.fault_universe = std::make_shared<const fault::FaultUniverse>(
      fault::FaultUniverse::build(circuit, spec.options.collapse,
                                  spec.options.prune_untestable));
  state.campaign_counts = std::make_unique<fault::CampaignCounts>(
      state.fault_universe->num_classes());
  const ShardPlan plan = fault::campaign_shard_plan(golden, spec.options);
  state.num_tasks = plan.num_shards();
  state.run_task = [plan, &spec](JobState& s, std::size_t shard) {
    const fault::CampaignCounts local = fault::campaign_shard_counts(
        s.request->circuit.circuit(), golden_of(*s.request),
        *s.fault_universe, spec.options, plan.shard(shard));
    const util::LockGuard lock(s.mutex);
    s.campaign_counts->merge(local);
  };
  state.finalize = [&spec](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.mutex);
    finish_with_payload(
        r, fault::finalize_campaign(s.request->circuit.circuit(),
                                    golden_of(*s.request), *s.fault_universe,
                                    spec.options, *s.campaign_counts));
  };
}

void prepare_lint(const AnalysisRequest& request,
                  const analysis::LintRequest& spec, JobState& state) {
  (void)request.circuit.circuit();  // throws on an empty handle, like the rest
  state.num_tasks = 1;
  state.run_task = [&spec](JobState& s, std::size_t) {
    analysis::LintReport report =
        analysis::lint_circuit(s.request->circuit.circuit(), spec.options);
    const util::LockGuard lock(s.mutex);
    s.lint = std::move(report);
  };
  state.finalize = [](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.mutex);
    finish_with_payload(r, std::move(*s.lint));
  };
}

void prepare_cec(const AnalysisRequest& request,
                 const analysis::CecRequest& spec, JobState& state) {
  (void)request.circuit.circuit();  // throws on an empty handle
  if (!request.golden.has_value()) {
    throw std::invalid_argument(
        "cec requires a golden circuit to compare against");
  }
  state.num_tasks = 1;
  state.run_task = [&spec](JobState& s, std::size_t) {
    analysis::CecResult result = analysis::check_equivalence(
        s.request->circuit.circuit(), s.request->golden->circuit(),
        spec.options);
    const util::LockGuard lock(s.mutex);
    s.cec = std::move(result);
  };
  state.finalize = [](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.mutex);
    finish_with_payload(r, std::move(*s.cec));
  };
}

void prepare_harden(const AnalysisRequest& request,
                    const analysis::HardenRequest& spec, JobState& state) {
  (void)request.circuit.circuit();  // throws on an empty handle
  state.num_tasks = 1;
  state.run_task = [&spec](JobState& s, std::size_t) {
    harden::ParetoResult result =
        harden::pareto_sweep(s.request->circuit, spec.options, Parallelism{});
    const util::LockGuard lock(s.mutex);
    s.harden = std::move(result);
  };
  state.finalize = [](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.mutex);
    finish_with_payload(r, std::move(*s.harden));
  };
}

// Finds or creates the extraction group for (request.circuit, options);
// validates on creation exactly like core::extract_profile.
ExtractionGroup& join_extraction_group(
    std::size_t job_index, const AnalysisRequest& request,
    const core::ProfileOptions& options, std::deque<ExtractionGroup>& groups) {
  const analysis::ProfileKey key = analysis::profile_key(options);
  for (ExtractionGroup& group : groups) {
    if (group.circuit.same_handle(request.circuit) &&
        analysis::profile_key(group.options) == key) {
      group.dependents.push_back(job_index);
      return group;
    }
  }

  const Circuit& circuit = request.circuit.circuit();
  if (circuit.gate_count() == 0) {
    throw std::invalid_argument(
        "extract_profile: circuit has no gates to profile");
  }
  ProfilePlan plan;
  plan.direct_activity =
      options.prefer_exact_activity &&
      static_cast<int>(circuit.num_inputs()) <=
          options.exact_activity_max_inputs;
  std::unique_ptr<sim::ActivityCounts> activity_counts;
  if (!plan.direct_activity) {
    const sim::ActivityOptions activity = profile_activity_options(options);
    sim::validate_activity_inputs(activity);
    plan.activity = sim::activity_shard_plan(activity);
    activity_counts =
        std::make_unique<sim::ActivityCounts>(circuit.node_count());
  }
  sim::validate_sensitivity_inputs(circuit,
                                   profile_sensitivity_options(options));
  plan.sensitivity = sim::sensitivity_shard_plan(
      circuit, profile_sensitivity_options(options));

  ExtractionGroup& group = groups.emplace_back();
  group.circuit = request.circuit;
  group.options = options;
  group.plan = plan;
  group.activity_counts = std::move(activity_counts);
  group.sensitivity_counts =
      std::make_unique<sim::SensitivityCounts>(circuit.num_inputs());
  group.remaining.store(plan.num_shards(), std::memory_order_relaxed);
  group.dependents.push_back(job_index);
  return group;
}

void prepare_energy_bound(std::size_t job_index, const AnalysisRequest& request,
                          const analysis::EnergyBoundRequest& spec,
                          JobState& state,
                          std::deque<ExtractionGroup>& groups) {
  const auto analyze_metrics = [](JobState& s, AnalysisResult& r) {
    finish_with_payload(r, *s.report);
    if (s.cached_profile.has_value()) r.profile = std::move(s.cached_profile);
  };

  if (spec.profile_override.has_value()) {
    state.num_tasks = 1;
    state.run_task = [&spec](JobState& s, std::size_t) {
      s.report = core::analyze(*spec.profile_override, spec.epsilon, spec.delta,
                               spec.energy);
    };
    state.finalize = analyze_metrics;
    return;
  }
  if (auto cached = request.circuit.cached_profile(spec.profile);
      cached.has_value()) {
    state.cached_profile = std::move(cached);
    state.num_tasks = 1;
    state.run_task = [&spec](JobState& s, std::size_t) {
      s.report = core::analyze(*s.cached_profile, spec.epsilon, spec.delta,
                               spec.energy);
    };
    state.finalize = analyze_metrics;
    return;
  }
  state.extraction = &join_extraction_group(job_index, request, spec.profile,
                                            groups);
  state.finalize = [&spec](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.extraction->mutex);
    const core::CircuitProfile& profile = *s.extraction->profile;
    finish_with_payload(
        r, core::analyze(profile, spec.epsilon, spec.delta, spec.energy));
    r.profile = profile;
  };
}

void prepare_profile(std::size_t job_index, const AnalysisRequest& request,
                     const analysis::ProfileRequest& spec, JobState& state,
                     std::deque<ExtractionGroup>& groups) {
  if (auto cached = request.circuit.cached_profile(spec.options);
      cached.has_value()) {
    state.cached_profile = std::move(cached);
    state.finalize = [](JobState& s, AnalysisResult& r) {
      finish_with_payload(r, std::move(*s.cached_profile));
    };
    return;
  }
  state.extraction =
      &join_extraction_group(job_index, request, spec.options, groups);
  state.finalize = [](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.extraction->mutex);
    finish_with_payload(r, *s.extraction->profile);
  };
}

void prepare(std::size_t job_index, const AnalysisRequest& request,
             JobState& state, std::deque<ExtractionGroup>& groups) {
  std::visit(
      [&](const auto& spec) {
        using Spec = std::decay_t<decltype(spec)>;
        if constexpr (std::is_same_v<Spec, analysis::ReliabilityRequest>) {
          prepare_reliability(request, spec, state);
        } else if constexpr (std::is_same_v<Spec, analysis::WorstCaseRequest>) {
          prepare_worst_case(request, spec, state);
        } else if constexpr (std::is_same_v<Spec, analysis::ActivityRequest>) {
          prepare_activity(request, spec, state);
        } else if constexpr (std::is_same_v<Spec,
                                            analysis::SensitivityRequest>) {
          prepare_sensitivity(request, spec, state);
        } else if constexpr (std::is_same_v<Spec,
                                            analysis::EnergyBoundRequest>) {
          prepare_energy_bound(job_index, request, spec, state, groups);
        } else if constexpr (std::is_same_v<Spec, analysis::ProfileRequest>) {
          prepare_profile(job_index, request, spec, state, groups);
        } else if constexpr (std::is_same_v<Spec,
                                            analysis::FaultCampaignRequest>) {
          prepare_fault_campaign(request, spec, state);
        } else if constexpr (std::is_same_v<Spec, analysis::LintRequest>) {
          prepare_lint(request, spec, state);
        } else if constexpr (std::is_same_v<Spec, analysis::CecRequest>) {
          prepare_cec(request, spec, state);
        } else {
          static_assert(std::is_same_v<Spec, analysis::HardenRequest>);
          prepare_harden(request, spec, state);
        }
      },
      request.options);
}

}  // namespace

std::size_t BatchEvaluator::submit(analysis::AnalysisRequest request) {
  requests_.push_back(std::move(request));
  return requests_.size() - 1;
}

void BatchEvaluator::run(const ResultSink& sink) {
  const std::size_t num_jobs = requests_.size();
  std::vector<JobState> states(num_jobs);
  std::deque<ExtractionGroup> groups;  // stable addresses
  const obs::Span batch_span("batch-run", {},
                             "jobs=" + std::to_string(num_jobs));
  static obs::Counter& jobs_total =
      obs::Registry::global().counter("batch-jobs-total");
  static obs::Counter& jobs_failed =
      obs::Registry::global().counter("batch-job-failures-total");

  // Phase 1 (serial, cheap): validate every request, size its task space,
  // and group shared profile extractions. A request that fails validation is
  // isolated into an error result and contributes no tasks.
  for (std::size_t j = 0; j < num_jobs; ++j) {
    states[j].request = &requests_[j];
    states[j].start = std::chrono::steady_clock::now();
    try {
      prepare(j, requests_[j], states[j], groups);
    } catch (const std::exception& e) {
      states[j].record_error(e.what());
      states[j].num_tasks = 0;
      states[j].extraction = nullptr;
    }
  }
  for (std::size_t j = 0; j < num_jobs; ++j) {
    states[j].pending.store(
        states[j].num_tasks + (states[j].extraction != nullptr ? 1 : 0),
        std::memory_order_relaxed);
  }

  // Emission: build the result (finalize or error), then hand it to the
  // sink under one lock — the sink sees results serially, in completion
  // order, from unspecified threads. A throwing sink must not cancel the
  // rest of the batch (per-request isolation extends to delivery): the
  // first sink exception is captured here and rethrown after every request
  // has been evaluated and offered to the sink.
  struct Delivery {
    util::Mutex mutex;
    std::exception_ptr error ENB_GUARDED_BY(mutex);
  } delivery;
  const auto emit = [&](std::size_t j) {
    JobState& state = states[j];
    AnalysisResult result;
    result.index = j;
    result.name = requests_[j].name;
    result.kind = requests_[j].kind();
    const bool group_failed =
        state.extraction != nullptr && state.extraction->failed.load();
    if (state.failed.load() || group_failed) {
      result.ok = false;
      result.error = state.failed.load() ? state.error_text()
                                         : state.extraction->error_text();
    } else {
      try {
        state.finalize(state, result);
        result.ok = true;
      } catch (const std::exception& e) {
        result.ok = false;
        result.error = e.what();
        result.metrics.clear();
        result.profile.reset();
        result.payload = std::monostate{};
      }
    }
    // Per-job wall-clock and trace event. Observational only: elapsed rides
    // a field the JSON/CSV writers never serialize, and the trace event is
    // recorded outside the result entirely.
    const auto end = std::chrono::steady_clock::now();
    result.elapsed_seconds =
        std::chrono::duration<double>(end - state.start).count();
    jobs_total.add(1);
    if (!result.ok) jobs_failed.add(1);
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
      recorder.record("batch-job", obs::SpanHandle{recorder.new_id()},
                      batch_span.handle(), state.start, end, result.name);
    }
    const util::LockGuard lock(delivery.mutex);
    try {
      sink(std::move(result));
    } catch (...) {
      if (delivery.error == nullptr) delivery.error = std::current_exception();
    }
  };
  const auto complete_unit = [&](std::size_t j) {
    if (states[j].pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      emit(j);
    }
  };

  // Requests with no pending work (validation failures, cache-hit profiles)
  // emit before the parallel phase.
  for (std::size_t j = 0; j < num_jobs; ++j) {
    if (states[j].pending.load(std::memory_order_relaxed) == 0) emit(j);
  }

  // Phase 2 (parallel): every request's own tasks plus every extraction
  // group's shards flattened into one task space over the pool. A worker
  // that completes a request's (or group's) last unit finalizes and emits
  // right there — that is what makes the sink stream.
  std::vector<std::size_t> job_offsets(num_jobs + 1, 0);
  for (std::size_t j = 0; j < num_jobs; ++j) {
    job_offsets[j + 1] = job_offsets[j] + states[j].num_tasks;
  }
  const std::size_t job_total = job_offsets[num_jobs];
  std::vector<std::size_t> group_offsets(groups.size() + 1, 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    group_offsets[g + 1] = group_offsets[g] + groups[g].plan.num_shards();
  }
  const std::size_t total = job_total + group_offsets[groups.size()];

  for_each_index(
      total,
      [&](std::size_t flat) {
        if (flat < job_total) {
          const std::size_t j = static_cast<std::size_t>(
              std::upper_bound(job_offsets.begin(), job_offsets.end(), flat) -
              job_offsets.begin() - 1);
          JobState& state = states[j];
          if (!state.failed.load(std::memory_order_relaxed)) {
            try {
              state.run_task(state, flat - job_offsets[j]);
            } catch (const std::exception& e) {
              state.record_error(e.what());
            } catch (...) {
              state.record_error("unknown error");
            }
          }
          complete_unit(j);
          return;
        }
        const std::size_t offset = flat - job_total;
        const std::size_t g = static_cast<std::size_t>(
            std::upper_bound(group_offsets.begin(), group_offsets.end(),
                             offset) -
            group_offsets.begin() - 1);
        ExtractionGroup& group = groups[g];
        if (!group.failed.load(std::memory_order_relaxed)) {
          try {
            group.run_shard(offset - group_offsets[g]);
          } catch (const std::exception& e) {
            group.record_error(e.what());
          } catch (...) {
            group.record_error("unknown error");
          }
        }
        if (group.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          if (!group.failed.load()) {
            try {
              group.assemble();
            } catch (const std::exception& e) {
              group.record_error(e.what());
            }
          }
          for (const std::size_t dependent : group.dependents) {
            complete_unit(dependent);
          }
        }
      },
      how_);

  requests_.clear();
  std::exception_ptr sink_error;
  {
    const util::LockGuard lock(delivery.mutex);
    sink_error = delivery.error;
  }
  if (sink_error != nullptr) std::rethrow_exception(sink_error);
}

std::vector<analysis::AnalysisResult> BatchEvaluator::run() {
  std::vector<analysis::AnalysisResult> results(requests_.size());
  run([&results](analysis::AnalysisResult result) {
    results[result.index] = std::move(result);
  });
  return results;
}

std::vector<analysis::AnalysisResult> evaluate_requests(
    std::vector<analysis::AnalysisRequest> requests, Parallelism how) {
  BatchEvaluator evaluator(how);
  for (analysis::AnalysisRequest& request : requests) {
    evaluator.submit(std::move(request));
  }
  return evaluator.run();
}

// ---- manifest / output plumbing ------------------------------------------

namespace {

// One manifest line after its name. kind=, circuit= and golden= belong to
// the request; every other key goes through the kind's table row, so the
// kind's key set, parsers and validation live in analysis/kinds alone. The
// circuit specs land in `circuit`/`golden` for the caller to resolve.
analysis::AnalysisRequest parse_manifest_line(std::string name,
                                              std::istream& tokens,
                                              std::string& circuit,
                                              std::string& golden) {
  std::optional<AnalysisKind> kind;
  std::vector<std::pair<std::string, std::string>> keys;
  std::string token;
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      throw std::invalid_argument("expected key=value, got '" + token + "'");
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (key == "kind") {
      kind = analysis::parse_analysis_kind(value);
      if (!kind.has_value()) {
        throw std::invalid_argument("unknown kind '" + value + "'");
      }
    } else if (key == "circuit") {
      circuit = std::move(value);
    } else if (key == "golden") {
      golden = std::move(value);
    } else {
      keys.emplace_back(std::move(key), std::move(value));
    }
  }
  if (!kind.has_value()) throw std::invalid_argument("missing kind=");
  if (circuit.empty()) throw std::invalid_argument("missing circuit=");
  analysis::AnalysisRequest request;
  request.name = std::move(name);
  request.options = analysis::kind_info(*kind).defaults;
  for (const auto& [key, value] : keys) {
    analysis::apply_key(request.options, key, value);
  }
  return request;
}

}  // namespace

std::vector<analysis::AnalysisRequest> parse_manifest_requests(
    std::istream& in,
    const std::function<CompiledCircuit(const std::string&)>& resolve) {
  // Every line is parsed and validated before any circuit is resolved, so a
  // malformed manifest never loads a circuit.
  std::vector<analysis::AnalysisRequest> requests;
  std::vector<std::pair<std::string, std::string>> specs;  // circuit, golden
  std::string text;
  for (std::size_t line_number = 1; std::getline(in, text); ++line_number) {
    std::istringstream tokens(text);
    std::string name;
    if (!(tokens >> name) || name.front() == '#') continue;
    auto& [circuit, golden] = specs.emplace_back();
    try {
      requests.push_back(
          parse_manifest_line(std::move(name), tokens, circuit, golden));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("manifest line " +
                                  std::to_string(line_number) + ": " +
                                  e.what());
    }
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].circuit = resolve(specs[i].first);
    if (!specs[i].second.empty()) requests[i].golden = resolve(specs[i].second);
  }
  return requests;
}

void write_batch_csv(std::ostream& out,
                     const std::vector<analysis::AnalysisResult>& results) {
  report::write_csv_row(out, {"job", "kind", "ok", "metric", "value"});
  std::ostringstream value;
  value << std::setprecision(17);
  for (const analysis::AnalysisResult& r : results) {
    if (!r.ok) {
      report::write_csv_row(
          out, {r.name, analysis::to_string(r.kind), "0", "error", ""});
      continue;
    }
    for (const auto& [metric, metric_value] : r.metrics) {
      value.str("");
      value << metric_value;
      report::write_csv_row(
          out, {r.name, analysis::to_string(r.kind), "1", metric, value.str()});
    }
  }
}

void write_result_json(std::ostream& out, const analysis::AnalysisResult& r) {
  out << std::setprecision(17) << "{\"name\": \"";
  util::json_escape(out, r.name);
  out << "\", \"kind\": \"" << analysis::to_string(r.kind) << "\", \"ok\": "
      << (r.ok ? "true" : "false") << ", \"error\": \"";
  util::json_escape(out, r.error);
  out << "\", \"metrics\": {";
  for (std::size_t m = 0; m < r.metrics.size(); ++m) {
    out << (m == 0 ? "" : ", ") << "\"" << r.metrics[m].first << "\": ";
    // NaN/inf are not valid JSON literals; emit null rather than a file
    // every parser rejects.
    if (std::isfinite(r.metrics[m].second)) {
      out << r.metrics[m].second;
    } else {
      out << "null";
    }
  }
  out << "}}";
}

void write_batch_json(std::ostream& out,
                      const std::vector<analysis::AnalysisResult>& results) {
  out << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << "  ";
    write_result_json(out, results[i]);
    out << (i + 1 == results.size() ? "" : ",") << "\n";
  }
  out << "]\n";
}

}  // namespace enb::exec
