#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "exec/stream.hpp"
#include "exec/thread_pool.hpp"

#ifndef ENB_BENCH_COMPILER
#define ENB_BENCH_COMPILER "unknown"
#endif
#ifndef ENB_BENCH_BUILD_TYPE
#define ENB_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

// Every per-layer metric the traced run reports, in print order. A layer a
// workload does not reach reports 0 with a note saying so, so every traced
// run prints the same table.
struct LayerName {
  const char* name;
  const char* unit;
};
constexpr LayerName kLayerMetrics[] = {
    {"gen.build_s", "s"},
    {"netlist.parse_s", "s"},
    {"analysis.compile_s", "s"},
    {"fault.universe_s", "s"},
    {"fault.untestable_s", "s"},
    {"fault.shards", "count"},
    {"fault.shard_busy_s", "s"},
    {"fault.shard_p50_ms", "ms"},
    {"fault.shard_max_ms", "ms"},
    {"fault.finalize_s", "s"},
    {"fault.sim_passes", "count"},
    {"fault.passes_per_busy_s", "1/s"},
    {"fault.lane_occupancy", "fraction"},
    {"fault.dropped_classes", "count"},
    {"sim.good_machine_s", "s"},
    {"analysis.profile_s", "s"},
    {"analysis.profile_extractions", "count"},
    {"analysis.profile_cache_hit_frac", "fraction"},
    {"analysis.cec_s", "s"},
    {"analysis.lint_s", "s"},
    {"harden.transform_s", "s"},
    {"harden.candidates", "count"},
    {"harden.unattributed_s", "s"},
    {"exec.concurrency", "threads"},
    {"exec.busy_frac", "fraction"},
    {"exec.speedup", "x"},
    {"exec.shard_inflation", "x"},
    {"exec.tasks", "count"},
    {"exec.steal_tasks", "count"},
    {"serve.ping_p50_us", "us"},
    {"serve.server_hit_p50_ms", "ms"},
    {"serve.result_cache_hit_frac", "fraction"},
    {"serve.handle_loads", "count"},
    {"serve.handle_evictions", "count"},
    {"serve.bytes_out_per_req", "bytes"},
    {"obs.trace_overhead_frac", "fraction"},
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// Full precision: the record keeps every digit that was measured.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kEndToEnd:
      return "end_to_end";
    case MetricKind::kExtra:
      return "extra";
    case MetricKind::kLayer:
      return "per_layer";
  }
  return "per_layer";
}

}  // namespace

unsigned hardware_threads() {
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<unsigned>(online) : 1U;
}

unsigned pool_workers() {
  const unsigned cores = hardware_threads();
  return std::clamp(cores > 1 ? cores - 1 : 1U, 1U, 3U);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return enb::exec::stream_seed(seed ^ 0x9E3779B97F4A7C15ull, stream);
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.max = values.back();
  s.median = median(values);
  if (values.size() == 1) {
    s.q1 = s.q3 = values.front();
    return s;
  }
  // statistics.quantiles(data, n=4, method="exclusive").
  const std::size_t n = values.size();
  const std::size_t m = n + 1;
  double cuts[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cuts[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  s.q1 = cuts[0];
  s.q3 = cuts[2];
  return s;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, values.size());
  return values[index - 1];
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t probe_pool_concurrency() {
  std::mutex mutex;
  std::set<std::thread::id> threads;
  std::atomic<std::uint64_t> sink{0};
  enb::exec::for_each_index(
      256,
      [&](std::size_t i) {
        // ~100 us of work per task, so idle workers have time to join in.
        const auto start = Clock::now();
        std::uint64_t x = i;
        while (seconds_since(start) < 1e-4) x = x * 6364136223846793005ull + 1;
        sink.fetch_add(x, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
      },
      enb::exec::Parallelism::global_pool());
  return threads.size();
}

CounterDelta::CounterDelta(std::string_view name)
    : counter_(enb::obs::Registry::global().counter(name)),
      start_(counter_.value()) {}

std::uint64_t CounterDelta::delta() const { return counter_.value() - start_; }

HistogramDelta::HistogramDelta(std::string_view name,
                               std::string_view label_key,
                               std::string_view label_value)
    : histogram_(enb::obs::Registry::global().histogram(name, label_key,
                                                        label_value)),
      start_(histogram_.snapshot()) {}

enb::obs::Histogram::Snapshot HistogramDelta::delta() const {
  enb::obs::Histogram::Snapshot now = histogram_.snapshot();
  for (std::size_t i = 0; i < now.buckets.size(); ++i) {
    now.buckets[i] -= start_.buckets[i];
  }
  now.count -= start_.count;
  now.sum -= start_.sum;
  return now;
}

Report::Report(const Options& options) : options_(options) {
  context("nproc", std::to_string(hardware_threads()));
  context("pool_workers", std::to_string(pool_workers()));
  context("drainers", std::to_string(pool_workers() + 1) +
                          " (pool workers + the submitting thread)");
  context("compiler", ENB_BENCH_COMPILER);
  context("build_type", ENB_BENCH_BUILD_TYPE);
  context("commit", options.commit);
  context("source_sha256", options.source_digest);
}

void Report::add(Metric metric) {
  for (Metric& existing : metrics_) {
    if (existing.name == metric.name) {
      existing = std::move(metric);
      return;
    }
  }
  metrics_.push_back(std::move(metric));
}

void Report::end_to_end(std::string name, std::string unit,
                        bool higher_is_better, std::vector<double> samples,
                        std::string note) {
  add({MetricKind::kEndToEnd, std::move(name), std::move(unit),
       higher_is_better, std::move(samples), std::move(note)});
}

void Report::extra(std::string name, std::string unit, bool higher_is_better,
                   std::vector<double> samples, std::string note) {
  add({MetricKind::kExtra, std::move(name), std::move(unit), higher_is_better,
       std::move(samples), std::move(note)});
}

void Report::peak_rss() {
  end_to_end("peak_rss_mb", "MB", false, {peak_rss_mb()},
             "getrusage ru_maxrss after the timed phase");
}

void Report::layer(std::string name, std::string unit, double value,
                   std::string note) {
  layer_samples(std::move(name), std::move(unit), {value}, std::move(note));
}

void Report::layer_samples(std::string name, std::string unit,
                           std::vector<double> samples, std::string note) {
  add({MetricKind::kLayer, std::move(name), std::move(unit), false,
       std::move(samples), std::move(note)});
}

void Report::layer_counters(const LayerCounters& c, double runs) {
  const auto per_run = [runs](double total) {
    return runs > 0 ? total / runs : 0.0;
  };
  const std::string each = "per repetition, obs counter delta";
  layer("fault.shards", "count",
        per_run(static_cast<double>(c.shards.delta())), each);
  layer("fault.sim_passes", "count",
        per_run(static_cast<double>(c.passes.delta())), each);
  const double slots = static_cast<double>(c.lane_slots.delta());
  layer("fault.lane_occupancy", "fraction",
        slots > 0 ? static_cast<double>(c.lane_slots_active.delta()) / slots
                  : 0.0,
        "lane-slots-active / lane-slots");
  layer("fault.dropped_classes", "count",
        per_run(static_cast<double>(c.dropped.delta())), each);
  layer("exec.tasks", "count", per_run(static_cast<double>(c.tasks.delta())),
        each);
  layer("exec.steal_tasks", "count",
        per_run(static_cast<double>(c.steals.delta())), each);
  const double extractions = static_cast<double>(c.extractions.delta());
  const double hits = static_cast<double>(c.profile_hits.delta());
  layer("analysis.profile_extractions", "count", per_run(extractions), each);
  layer("analysis.profile_s", "s", per_run(c.extraction_seconds.delta().sum),
        "per repetition, analysis-extraction-seconds sum");
  layer("analysis.profile_cache_hit_frac", "fraction",
        hits + extractions > 0 ? hits / (hits + extractions) : 0.0,
        "profile cache hits / (hits + extractions)");
}

void Report::context(std::string key, std::string value) {
  for (auto& [k, v] : context_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  context_.emplace_back(std::move(key), std::move(value));
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  ++checks_;
  operations(1, ok ? 0 : 1);
  if (!ok) {
    failed_checks_.push_back(detail.empty() ? name : name + ": " + detail);
    std::cerr << "perfbench: check failed: " << failed_checks_.back() << "\n";
  }
}

int Report::finish() {
  if (options_.trace) {
    for (const LayerName& declared : kLayerMetrics) {
      const bool present = std::any_of(
          metrics_.begin(), metrics_.end(),
          [&](const Metric& m) { return m.name == declared.name; });
      if (!present) {
        layer(declared.name, declared.unit, 0.0,
              "not on this workload's path");
      }
    }
  }
  const bool correct = failed_checks_.empty();

  std::ostream& out = std::cout;
  out << "perfbench " << options_.workload << "  seed=" << options_.seed
      << "  trace=" << (options_.trace ? 1 : 0)
      << "  seconds=" << options_.seconds << "\n";
  for (const auto& [key, value] : context_) {
    out << "  " << key << ": " << value << "\n";
  }
  const auto print_table = [&](MetricKind kind, const char* title) {
    bool any = false;
    for (const Metric& m : metrics_) any = any || m.kind == kind;
    if (!any) return;
    out << title << "\n";
    char line[256];
    std::snprintf(line, sizeof line, "  %-32s %14s %14s %14s %5s  %-8s %s\n",
                  "metric", "median", "q1", "q3", "n", "unit", "note");
    out << line;
    for (const Metric& m : metrics_) {
      if (m.kind != kind) continue;
      const Summary s = summarize(m.samples);
      std::snprintf(line, sizeof line,
                    "  %-32s %14.6g %14.6g %14.6g %5zu  %-8s %s\n",
                    m.name.c_str(), s.median, s.q1, s.q3, s.n, m.unit.c_str(),
                    m.note.c_str());
      out << line;
    }
  };
  print_table(MetricKind::kEndToEnd,
              "end-to-end (untraced; BENCHMARK.json metrics):");
  print_table(MetricKind::kExtra, "workload figures (untraced):");
  print_table(MetricKind::kLayer, "per-layer (traced run):");
  out << "operations attempted " << attempted_ << ", failed " << failed_
      << "; checks " << checks_ << ", failed " << failed_checks_.size()
      << (correct ? " -- all correct" : " -- INCORRECT") << "\n";
  out.flush();

  if (!options_.out.empty()) {
    std::ofstream record(options_.out);
    record << "{\n  \"workload\": " << json_string(options_.workload)
           << ",\n  \"seed\": " << options_.seed
           << ",\n  \"trace\": " << (options_.trace ? 1 : 0)
           << ",\n  \"seconds\": " << json_number(options_.seconds)
           << ",\n  \"correct\": " << (correct ? "true" : "false")
           << ",\n  \"attempted\": " << attempted_
           << ",\n  \"failed\": " << failed_ << ",\n  \"failed_checks\": [";
    for (std::size_t i = 0; i < failed_checks_.size(); ++i) {
      record << (i == 0 ? "" : ", ") << json_string(failed_checks_[i]);
    }
    record << "],\n  \"context\": {";
    for (std::size_t i = 0; i < context_.size(); ++i) {
      record << (i == 0 ? "\n    " : ",\n    ")
             << json_string(context_[i].first) << ": "
             << json_string(context_[i].second);
    }
    record << "\n  },\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const Summary s = summarize(m.samples);
      record << (i == 0 ? "\n    " : ",\n    ") << json_string(m.name)
             << ": {\"kind\": \"" << kind_name(m.kind)
             << "\", \"unit\": " << json_string(m.unit)
             << ", \"better\": \"" << (m.higher_is_better ? "higher" : "lower")
             << "\", \"value\": " << json_number(s.median)
             << ", \"q1\": " << json_number(s.q1)
             << ", \"q3\": " << json_number(s.q3) << ", \"n\": " << s.n
             << ", \"note\": " << json_string(m.note) << ", \"samples\": [";
      for (std::size_t k = 0; k < m.samples.size(); ++k) {
        record << (k == 0 ? "" : ", ") << json_number(m.samples[k]);
      }
      record << "]}";
    }
    record << "\n  }\n}\n";
    if (!record) {
      std::cerr << "perfbench: cannot write " << options_.out << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace perfbench
