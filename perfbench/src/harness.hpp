// Shared plumbing of the repository benchmark: options, timers, quartile
// summaries, probes over the obs registry, and the report every workload
// fills.
//
// A workload measures from outside the library: it times calls into each
// layer's public functions and reads the existing obs counters and
// histograms before and after a phase. Nothing here feeds a library result.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;      // full JSON record written here
  std::string scratch;  // directory for the serve workload's socket
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Pool workers every workload runs with: one fewer than the cores, so the
// workers plus the submitting thread (which drains the queue too) never
// exceed nproc. Capped at 3 so the figure is the same on larger machines.
[[nodiscard]] unsigned pool_workers();
[[nodiscard]] unsigned hardware_threads();

// Per-workload seed derivation: the pattern / request-stream seed of
// workload stream `stream` under the benchmark seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

// Small deterministic generator for benchmark inputs (splitmix64), kept
// separate from the library's PRNG so inputs never move with library code.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  // Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

// Median and quartiles as Python's statistics.quantiles(values, n=4) gives
// them (the "exclusive" method), plus nearest-rank tails.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double max = 0.0;
};
[[nodiscard]] Summary summarize(std::vector<double> values);
[[nodiscard]] double median(std::vector<double> values);
// Nearest-rank quantile: the ceil(q * n)-th smallest value.
[[nodiscard]] double nearest_rank(std::vector<double> values, double q);

[[nodiscard]] double peak_rss_mb();

// Distinct threads the global pool runs tasks on, from a short probe loop.
[[nodiscard]] std::size_t probe_pool_concurrency();

// Counter / histogram deltas over a phase.
class CounterDelta {
 public:
  explicit CounterDelta(std::string_view name);
  [[nodiscard]] std::uint64_t delta() const;

 private:
  const enb::obs::Counter& counter_;
  std::uint64_t start_;
};

class HistogramDelta {
 public:
  explicit HistogramDelta(std::string_view name,
                          std::string_view label_key = {},
                          std::string_view label_value = {});
  [[nodiscard]] enb::obs::Histogram::Snapshot delta() const;

 private:
  const enb::obs::Histogram& histogram_;
  enb::obs::Histogram::Snapshot start_;
};

// Deltas of the counters every workload can move: fault sweeps, the pool,
// and the analysis profile cache. Per-layer rows are derived from these.
struct LayerCounters {
  CounterDelta passes{"fault-sweep-passes-total"};
  CounterDelta shards{"fault-sweep-shards-total"};
  CounterDelta dropped{"fault-dropped-classes-total"};
  CounterDelta lane_slots{"fault-lane-slots-total"};
  CounterDelta lane_slots_active{"fault-lane-slots-active-total"};
  CounterDelta tasks{"exec-tasks-total"};
  CounterDelta steals{"exec-steal-tasks-total"};
  CounterDelta extractions{"analysis-profile-extractions-total"};
  CounterDelta profile_hits{"analysis-profile-cache-hits-total"};
  HistogramDelta extraction_seconds{"analysis-extraction-seconds"};
  HistogramDelta task_seconds{"exec-task-seconds"};
};

enum class MetricKind { kEndToEnd, kExtra, kLayer };

struct Metric {
  MetricKind kind = MetricKind::kLayer;
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  std::vector<double> samples;  // the reported value is their median
  std::string note;
};

class Report {
 public:
  explicit Report(const Options& options);

  // End-to-end metric declared in BENCHMARK.json (untraced runs only).
  void end_to_end(std::string name, std::string unit, bool higher_is_better,
                  std::vector<double> samples, std::string note = {});
  // A user-visible figure that applies to this workload alone; printed and
  // recorded for compare.py, not part of the result line run.py prints.
  void extra(std::string name, std::string unit, bool higher_is_better,
             std::vector<double> samples, std::string note = {});
  // peak_rss_mb: the process's peak resident memory so far. Workloads call
  // it right after their timed phase, before any verification-only work.
  void peak_rss();
  // Per-layer metric from the traced run.
  void layer(std::string name, std::string unit, double value,
             std::string note = {});
  void layer_samples(std::string name, std::string unit,
                     std::vector<double> samples, std::string note = {});
  // Per-layer rows derived from registry counter deltas over `runs`
  // operations of the traced phase.
  void layer_counters(const LayerCounters& counters, double runs);

  // Machine / run context printed and recorded beside every result.
  void context(std::string key, std::string value);

  // Operations of the workload (campaigns, sweeps, requests, loads).
  void operations(std::uint64_t attempted, std::uint64_t failed = 0) {
    attempted_ += attempted;
    failed_ += failed;
  }
  // A correctness check; a failed one counts as a failed operation.
  void check(const std::string& name, bool ok, const std::string& detail = {});

  // Prints the tables, writes the record; returns the process exit code.
  int finish();

 private:
  void add(Metric metric);

  Options options_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<Metric> metrics_;
  std::vector<std::string> failed_checks_;
  std::size_t checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
