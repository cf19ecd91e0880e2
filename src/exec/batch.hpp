// Batched multi-request evaluation: the server-workload front end of the
// parallel engine, redesigned (PR 3) around the analysis layer.
//
// A BatchEvaluator accepts a queue of typed analysis::AnalysisRequests —
// each a CompiledCircuit handle plus per-kind options — and schedules them
// over the shared ThreadPool with two-level parallelism: the Monte-Carlo
// shards of *every* request are flattened into one task space, so a long
// request's shards interleave with short requests instead of serializing
// behind them. It is the one dispatcher of the request vocabulary: a single
// request is evaluated as a one-request batch.
//
// Requests hold shared handles, so a hundred-point sweep over one design
// never clones the netlist. Profile-reading requests (energy-bound,
// profile) take their profile from the handle's cache
// (CompiledCircuit::profile) while the batch is prepared, before the
// parallel phase; a miss extracts there, itself parallel over the pool, and
// the handle's lock makes that happen once per (handle, profile key) across
// requests, batches and server sessions.
//
// Results can be consumed two ways:
//   run()            — blocking; results indexed by submission order.
//   run(ResultSink)  — streaming; each AnalysisResult is delivered as its
//                      request finishes. Completion order is unspecified,
//                      but every payload is bit-identical to the blocking
//                      form (and to a direct estimator call): which thread
//                      finishes first never reaches the numbers.
//
// Determinism contract: a request's result is a pure function of its own
// spec. A sharded request runs the very exec::ShardedJob its direct entry
// point runs (sim::*_job, fault::campaign_job, core::profile_job): every
// shard draws its randomness from the counter-based stream of (request
// seed, shard index) and merges through an order-insensitive reduction
// (integer sums, max, min, or slot-per-shard writes). Results are therefore
// bit-identical to a direct estimator call, and independent of the thread
// count, the submission order, and whatever else is co-scheduled.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "core/analyzer.hpp"
#include "core/energy_bound.hpp"
#include "core/profile.hpp"
#include "exec/thread_pool.hpp"
#include "netlist/circuit.hpp"
#include "sim/activity.hpp"
#include "sim/reliability.hpp"
#include "sim/sensitivity.hpp"

namespace enb::exec {

// Streaming consumer: invoked once per request, serially (an internal lock),
// from an unspecified thread, as each request finishes. result.index is the
// submission index. A throwing sink does not cancel the batch: every request
// is still evaluated and offered to the sink, and the first sink exception
// is rethrown from run() after the queue drains (and clears).
using ResultSink = std::function<void(analysis::AnalysisResult)>;

class BatchEvaluator {
 public:
  explicit BatchEvaluator(Parallelism how = {}) : how_(how) {}

  // Enqueues a request; returns its index (== result.index).
  std::size_t submit(analysis::AnalysisRequest request);

  [[nodiscard]] std::size_t pending() const noexcept {
    return requests_.size();
  }

  // Streaming form: evaluates every submitted request over the flattened
  // shard space and delivers each result through `sink` as its request
  // finishes, then clears the queue. Completion order is unspecified;
  // payloads are deterministic.
  void run(const ResultSink& sink);

  // Blocking form: thin wrapper over the streaming form that collects into
  // submission order.
  [[nodiscard]] std::vector<analysis::AnalysisResult> run();

 private:
  Parallelism how_;
  std::vector<analysis::AnalysisRequest> requests_;
};

// Convenience: submit + run in one call.
[[nodiscard]] std::vector<analysis::AnalysisResult> evaluate_requests(
    std::vector<analysis::AnalysisRequest> requests, Parallelism how = {});

// ---- manifest / output plumbing ------------------------------------------

// Parses a job-manifest stream: one request per non-blank, non-comment line,
//   <name> kind=<kind> circuit=<spec> [golden=<spec>] [key=value ...]
// The kinds, the keys each accepts, and their values are the kind table's
// (analysis/kinds.hpp). `resolve` maps a circuit spec (suite name or .bench
// path) to a compiled handle — memoize it to share handles (and profile
// extractions) across jobs naming the same spec; it runs only after every
// line parsed. Throws std::invalid_argument, naming the line, on malformed
// lines, unknown kinds or keys, and malformed values.
[[nodiscard]] std::vector<analysis::AnalysisRequest> parse_manifest_requests(
    std::istream& in,
    const std::function<analysis::CompiledCircuit(const std::string&)>&
        resolve);

// Long-format CSV: header "job,kind,ok,metric,value"; failed jobs emit a
// single row with metric "error" and an empty value (the message itself
// goes to the JSON writer).
void write_batch_csv(std::ostream& out,
                     const std::vector<analysis::AnalysisResult>& results);

// One result as a single-line JSON object {"name", "kind", "ok", "error",
// "metrics": {...}} — exactly the bytes write_batch_json places on the
// result's array line. The server daemon streams these objects per result
// and the client reassembles the array, which is what makes served batch
// output bit-identical to the offline writer by construction. Non-finite
// metric values render as null (not valid JSON literals). Sets the stream's
// precision (17 digits).
void write_result_json(std::ostream& out, const analysis::AnalysisResult& r);

// JSON array of write_result_json objects, in `results` order.
void write_batch_json(std::ostream& out,
                      const std::vector<analysis::AnalysisResult>& results);

}  // namespace enb::exec
