#include "exec/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/kinds.hpp"
#include "analysis/lint.hpp"
#include "exec/thread_pool.hpp"
#include "fault/campaign.hpp"
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

const Circuit& golden_of(const AnalysisRequest& request) {
  return request.golden.has_value() ? request.golden->circuit()
                                    : request.circuit.circuit();
}

// All per-request state for one batch run, with error isolation: the first
// failing task records its message and the request's remaining tasks turn
// into no-ops; other requests are unaffected.
struct JobState {
  // Prepare-time stamp; emission computes the job's wall-clock elapsed from
  // it (observability only — never part of the result's serialized bytes).
  std::chrono::steady_clock::time_point start{};
  std::size_t num_tasks = 0;
  std::function<void(std::size_t)> run_task;
  std::function<void(AnalysisResult&)> finalize;
  // Tasks left; the thread that takes this to zero finalizes and emits the
  // result.
  std::atomic<std::size_t> pending{0};
  std::atomic<bool> failed{false};
  util::Mutex mutex;  // guards error
  std::string error ENB_GUARDED_BY(mutex);

  // Runs task i unless the request already failed.
  void run(std::size_t i) {
    if (failed.load(std::memory_order_relaxed)) return;
    try {
      run_task(i);
    } catch (const std::exception& e) {
      record_error(e.what());
    } catch (...) {
      record_error("unknown error");
    }
  }

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

// The batch adapter: a job's shards become the request's tasks and its
// finish() the request's payload.
template <typename R>
void adopt(JobState& state, ShardedJob<R> job) {
  state.num_tasks = job.num_shards;
  state.run_task = std::move(job.run_shard);
  state.finalize = [finish = std::move(job.finish)](AnalysisResult& r) {
    analysis::set_payload(r, finish());
  };
}

// Validates the request spec (throwing like the direct entry point would)
// and installs its tasks: the sharded kinds through their module's job
// factory, the rest as one task or none. Profile-reading kinds take the
// profile from the handle's cache right here, extracting it (in parallel
// over `how`) on a miss; the handle's lock makes that extraction happen once
// per (handle, profile key) across requests, batches and server sessions,
// and the request then needs no tasks.
void prepare(const AnalysisRequest& request, JobState& state,
             const Parallelism& how) {
  // Every kind but an overridden energy bound reads the circuit; an empty
  // handle throws on that read, before any task is queued.
  const auto circuit = [&request]() -> const Circuit& {
    return request.circuit.circuit();
  };
  std::visit(
      [&](const auto& spec) {
        using Spec = std::decay_t<decltype(spec)>;
        if constexpr (std::is_same_v<Spec, analysis::ReliabilityRequest>) {
          adopt(state, sim::reliability_job(circuit(), golden_of(request),
                                            spec.epsilon, spec.options));
        } else if constexpr (std::is_same_v<Spec, analysis::WorstCaseRequest>) {
          adopt(state, sim::worst_case_job(circuit(), golden_of(request),
                                           spec.epsilon, spec.options));
        } else if constexpr (std::is_same_v<Spec, analysis::ActivityRequest>) {
          adopt(state, sim::activity_job(circuit(), spec.options));
        } else if constexpr (std::is_same_v<Spec,
                                            analysis::SensitivityRequest>) {
          adopt(state, sim::sensitivity_job(circuit(), spec.options));
        } else if constexpr (std::is_same_v<Spec,
                                            analysis::FaultCampaignRequest>) {
          adopt(state, fault::campaign_job(circuit(), golden_of(request),
                                           spec.options));
        } else if constexpr (std::is_same_v<Spec,
                                            analysis::EnergyBoundRequest>) {
          if (spec.profile_override.has_value()) {
            adopt(state, single_job([&spec] {
                    return core::analyze(*spec.profile_override, spec.epsilon,
                                         spec.delta, spec.energy);
                  }));
            return;
          }
          const core::CircuitProfile& profile =
              request.circuit.profile(spec.profile, how);
          state.finalize = [&spec, &profile](AnalysisResult& r) {
            analysis::set_payload(r, core::analyze(profile, spec.epsilon,
                                                   spec.delta, spec.energy));
            r.profile = profile;
          };
        } else if constexpr (std::is_same_v<Spec, analysis::ProfileRequest>) {
          const core::CircuitProfile& profile =
              request.circuit.profile(spec.options, how);
          state.finalize = [&profile](AnalysisResult& r) {
            analysis::set_payload(r, profile);
          };
        } else if constexpr (std::is_same_v<Spec, analysis::LintRequest>) {
          const Circuit& c = circuit();
          adopt(state, single_job([&c, &spec] {
                  return analysis::lint_circuit(c, spec.options);
                }));
        } else if constexpr (std::is_same_v<Spec, analysis::CecRequest>) {
          const Circuit& c = circuit();
          if (!request.golden.has_value()) {
            throw std::invalid_argument(
                "cec requires a golden circuit to compare against");
          }
          const Circuit& golden = request.golden->circuit();
          adopt(state, single_job([&c, &golden, &spec] {
                  return analysis::check_equivalence(c, golden, spec.options);
                }));
        } else {
          static_assert(std::is_same_v<Spec, analysis::HardenRequest>);
          (void)circuit();
          // The sweep drives its own nested batches under the evaluator's
          // `how`: serial stays on the calling thread, and on the global
          // pool a nested loop from one of its workers runs inline.
          adopt(state, single_job([&request, &spec, how] {
                  return harden::pareto_sweep(request.circuit, spec.options,
                                              how);
                }));
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
  const obs::Span batch_span("batch-run", {},
                             "jobs=" + std::to_string(num_jobs));
  static obs::Counter& jobs_total =
      obs::Registry::global().counter("batch-jobs-total");
  static obs::Counter& jobs_failed =
      obs::Registry::global().counter("batch-job-failures-total");

  // Phase 1 (serial): validate every request, size its task space, and
  // read the profile of every profile-reading request from its handle's
  // cache (each miss is one extraction, itself parallel over the pool). A
  // request that fails here is isolated into an error result and contributes
  // no tasks.
  for (std::size_t j = 0; j < num_jobs; ++j) {
    states[j].start = std::chrono::steady_clock::now();
    try {
      prepare(requests_[j], states[j], how_);
    } catch (const std::exception& e) {
      states[j].record_error(e.what());
      states[j].num_tasks = 0;
    }
    states[j].pending.store(states[j].num_tasks, std::memory_order_relaxed);
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
    if (state.failed.load()) {
      result.ok = false;
      result.error = state.error_text();
    } else {
      try {
        state.finalize(result);
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

  // Requests with no tasks (validation failures, profile-reading kinds)
  // emit before the parallel phase.
  for (std::size_t j = 0; j < num_jobs; ++j) {
    if (states[j].num_tasks == 0) emit(j);
  }

  // Phase 2 (parallel): every request's tasks flattened into one task space
  // over the pool. A worker that completes a request's last task finalizes
  // and emits right there — that is what makes the sink stream.
  std::vector<std::size_t> offsets(num_jobs + 1, 0);
  for (std::size_t j = 0; j < num_jobs; ++j) {
    offsets[j + 1] = offsets[j] + states[j].num_tasks;
  }
  for_each_index(
      offsets[num_jobs],
      [&](std::size_t flat) {
        const auto j = static_cast<std::size_t>(
            std::upper_bound(offsets.begin(), offsets.end(), flat) -
            offsets.begin() - 1);
        states[j].run(flat - offsets[j]);
        if (states[j].pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          emit(j);
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
