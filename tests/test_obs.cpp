// Observability layer contract tests: counters stay exact under concurrent
// writers, histogram quantiles bracket the exact values they summarize, the
// trace ring drops oldest and exports well-formed Chrome trace JSON, and —
// the invariant everything else in obs/ hangs off — tracing is purely
// observational: batch output bytes are identical with the recorder on or
// off, for any thread count (the determinism CI job reruns this under
// ENB_THREADS=64).
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "exec/batch.hpp"
#include "gen/suite.hpp"

namespace enb::obs {
namespace {

// ---- minimal JSON validity scanner ----------------------------------------
// Enough of RFC 8259 to prove the trace export parses: values, objects,
// arrays, strings with escapes, numbers. CI additionally runs the emitted
// file through `python3 -m json.tool`; this keeps the property pinned in
// unit tests too.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') return ++pos_, true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(
                                            text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* c = word; *c != '\0'; ++c, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *c) return false;
    }
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---- Counter --------------------------------------------------------------

TEST(ObsCounter, ConcurrentAddsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) counter.add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kAddsPerThread);
}

TEST(ObsCounter, AddWithIncrement) {
  Counter counter;
  counter.add(5);
  counter.add();
  counter.add(0);
  EXPECT_EQ(counter.value(), 6u);
}

// ---- Gauge ----------------------------------------------------------------

TEST(ObsGauge, SetIsLastWriteWins) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(2.5);
  EXPECT_EQ(gauge.value(), 2.5);
  gauge.set(-1.0);
  EXPECT_EQ(gauge.value(), -1.0);
}

TEST(ObsGauge, ConcurrentAddsSumExactly) {
  // Each delta is a power of two, so the CAS-looped double additions are
  // exact in any order — lost updates (the bug the loop exists to prevent)
  // would show up as a short total.
  Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kAddsPerThread; ++i) gauge.add(0.5);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(gauge.value(), kThreads * kAddsPerThread * 0.5);
}

// ---- Histogram ------------------------------------------------------------

TEST(ObsHistogram, BoundariesAreAscendingFourPerDecade) {
  const std::vector<double>& bounds = Histogram::boundaries();
  ASSERT_EQ(bounds.size(), 37u);
  EXPECT_NEAR(bounds.front(), 1e-7, 1e-12);
  EXPECT_NEAR(bounds.back(), 1e2, 1e-6);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
    // Log-uniform spacing: every step is one quarter decade.
    EXPECT_NEAR(bounds[i] / bounds[i - 1], std::pow(10.0, 0.25), 1e-9);
  }
}

TEST(ObsHistogram, EmptySnapshotIsZero) {
  const Histogram histogram;
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.quantile(0.5), 0.0);
}

TEST(ObsHistogram, CountDerivesFromBucketsAndSumAccumulates) {
  Histogram histogram;
  const std::vector<double> values = {1e-6, 5e-4, 0.01, 0.7, 3.0};
  double exact_sum = 0.0;
  for (const double v : values) {
    histogram.observe(v);
    exact_sum += v;
  }
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, values.size());
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(snap.count, bucket_total);
  // Sum is tracked in integer nanoseconds: exact to 1 ns per observation.
  EXPECT_NEAR(snap.sum, exact_sum, 1e-8 * static_cast<double>(values.size()));
}

// A quantile estimate must land inside the bucket that owns the exact
// quantile: the interpolation error is bounded by the bucket width.
TEST(ObsHistogram, QuantilesBracketExactValues) {
  Histogram histogram;
  // 90 fast requests at 1 ms, 10 slow ones at 1 s: p50 is exactly a fast
  // one, p99 a slow one.
  for (int i = 0; i < 90; ++i) histogram.observe(1e-3);
  for (int i = 0; i < 10; ++i) histogram.observe(1.0);
  const Histogram::Snapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.count, 100u);

  // Buckets are a quarter decade wide, so the estimate is within a quarter
  // decade of the exact value in log space. (The exact values sit on bucket
  // edges up to pow() rounding, so the owning bucket may be either
  // neighbor — the log-distance bound holds regardless.)
  const double p50 = snap.quantile(0.5);
  EXPECT_LE(std::abs(std::log10(p50) - std::log10(1e-3)), 0.25 + 1e-9);

  const double p99 = snap.quantile(0.99);
  EXPECT_LE(std::abs(std::log10(p99) - std::log10(1.0)), 0.25 + 1e-9);

  // Quantiles are monotone in q.
  double previous = 0.0;
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double estimate = snap.quantile(q);
    EXPECT_GE(estimate, previous) << "q = " << q;
    previous = estimate;
  }
}

TEST(ObsHistogram, OverflowAndClampedObservations) {
  Histogram histogram;
  histogram.observe(1e9);   // far beyond the last finite bucket
  histogram.observe(-4.0);  // clock skew clamps to zero
  histogram.observe(std::numeric_limits<double>::quiet_NaN());
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.buckets.back(), 1u);  // the +Inf bucket
  EXPECT_EQ(snap.buckets.front(), 2u);  // both clamped zeros
  // The overflow bucket reports its lower edge rather than inventing an
  // upper one.
  EXPECT_EQ(snap.quantile(1.0), Histogram::boundaries().back());
}

// ---- Registry -------------------------------------------------------------

TEST(ObsRegistry, SameNameAndLabelReturnsSameInstrument) {
  Registry registry;
  Counter& a = registry.counter("requests-total", "verb", "load");
  Counter& b = registry.counter("requests-total", "verb", "load");
  EXPECT_EQ(&a, &b);
  Counter& other = registry.counter("requests-total", "verb", "batch");
  EXPECT_NE(&a, &other);
}

TEST(ObsRegistry, KindAndLabelMismatchesThrow) {
  Registry registry;
  registry.counter("requests-total", "verb", "load");
  EXPECT_THROW(registry.gauge("requests-total", "verb", "load"),
               std::invalid_argument);
  // A new label value joining the family must keep the family's shape too.
  EXPECT_THROW(registry.histogram("requests-total", "verb", "other"),
               std::invalid_argument);
  EXPECT_THROW(registry.counter("requests-total", "kind", "load"),
               std::invalid_argument);
}

TEST(ObsRegistry, RejectsNonKebabNames) {
  Registry registry;
  EXPECT_THROW(registry.counter(""), std::invalid_argument);
  EXPECT_THROW(registry.counter("Uppercase-total"), std::invalid_argument);
  EXPECT_THROW(registry.counter("snake_case"), std::invalid_argument);
  EXPECT_THROW(registry.counter("-leading"), std::invalid_argument);
  EXPECT_THROW(registry.counter("trailing-"), std::invalid_argument);
  EXPECT_THROW(registry.counter("metric", "key"), std::invalid_argument);
}

TEST(ObsRegistry, PrometheusExposition) {
  Registry registry;
  registry.counter("test-requests-total", "verb", "load").add(3);
  registry.counter("test-requests-total", "verb", "batch").add(7);
  registry.gauge("test-queue-depth").set(2.5);
  registry.histogram("test-seconds").observe(1e-3);
  registry.histogram("test-seconds").observe(2.0);

  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("# TYPE enb_test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("enb_test_requests_total{verb=\"batch\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("enb_test_requests_total{verb=\"load\"} 3\n"),
            std::string::npos);
  // Entries within a family sort by label value: batch before load.
  EXPECT_LT(text.find("verb=\"batch\""), text.find("verb=\"load\""));
  EXPECT_NE(text.find("# TYPE enb_test_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("enb_test_queue_depth 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE enb_test_seconds histogram"), std::string::npos);
  // Cumulative buckets end at +Inf == count.
  EXPECT_NE(text.find("enb_test_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("enb_test_seconds_count 2\n"), std::string::npos);
  // One TYPE line per family, not per labeled entry.
  const std::string type_line = "# TYPE enb_test_requests_total";
  EXPECT_EQ(text.find(type_line), text.rfind(type_line));
}

TEST(ObsRegistry, GlobalCarriesTheProcessInstrumentNames) {
  // The wired-in hot paths register on first use; touching them here pins
  // the stable names the serve `metrics` verb and CI greps rely on.
  Registry& registry = Registry::global();
  registry.counter("exec-tasks-total");
  registry.counter("serve-requests-total", "verb", "batch");
  registry.histogram("serve-request-seconds", "verb", "batch");
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("enb_exec_tasks_total"), std::string::npos);
  EXPECT_NE(text.find("enb_serve_requests_total{verb=\"batch\"}"),
            std::string::npos);
  EXPECT_NE(text.find("enb_serve_request_seconds_bucket"), std::string::npos);
}

// ---- TraceRecorder --------------------------------------------------------

TEST(ObsTrace, SpanWhileDisabledIsInert) {
  TraceRecorder& recorder = TraceRecorder::global();
  recorder.disable();
  const std::uint64_t before = recorder.recorded();
  {
    const Span span("inert", {}, "nothing");
    EXPECT_FALSE(span.handle().valid());
  }
  EXPECT_EQ(recorder.recorded(), before);
}

TEST(ObsTrace, ChromeTraceIsWellFormedJson) {
  TraceRecorder& recorder = TraceRecorder::global();
  recorder.enable(64);
  {
    const Span parent("outer-op", {}, "detail with \"quotes\" and \\slash");
    EXPECT_TRUE(parent.handle().valid());
    const Span child("inner-op", parent.handle(), "child");
    (void)child;
  }
  recorder.disable();
  std::ostringstream out;
  recorder.write_chrome_trace(out);
  const std::string text = out.str();

  JsonScanner scanner(text);
  EXPECT_TRUE(scanner.valid()) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"outer-op\""), std::string::npos);
  EXPECT_NE(text.find("\"inner-op\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"droppedEvents\": 0"), std::string::npos);
  // The child's args carry the parent's id, so the causality chain survives
  // the export.
  EXPECT_NE(text.find("\"parent\": 1"), std::string::npos);
}

TEST(ObsTrace, SetDetailOverridesConstructionDetail) {
  TraceRecorder& recorder = TraceRecorder::global();
  recorder.enable(16);
  {
    Span span("op", {}, "before");
    span.set_detail("after");
  }
  recorder.disable();
  std::ostringstream out;
  recorder.write_chrome_trace(out);
  EXPECT_NE(out.str().find("\"detail\": \"after\""), std::string::npos);
  EXPECT_EQ(out.str().find("\"detail\": \"before\""), std::string::npos);
}

TEST(ObsTrace, RingDropsOldestAndKeepsNewest) {
  TraceRecorder& recorder = TraceRecorder::global();
  recorder.enable(8);
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::string> details;
  for (int i = 0; i < 20; ++i) {
    details.push_back("event-" + std::to_string(i));
    recorder.record("ring-test", SpanHandle{recorder.new_id()}, {}, now, now,
                    details.back());
  }
  recorder.disable();
  EXPECT_EQ(recorder.recorded(), 20u);
  EXPECT_EQ(recorder.dropped(), 12u);

  std::ostringstream out;
  recorder.write_chrome_trace(out);
  const std::string text = out.str();
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(text.find("\"event-" + std::to_string(i) + "\""),
              std::string::npos)
        << "dropped event " << i << " leaked into the export";
  }
  for (int i = 12; i < 20; ++i) {
    EXPECT_NE(text.find("\"event-" + std::to_string(i) + "\""),
              std::string::npos)
        << "retained event " << i << " missing from the export";
  }
  EXPECT_NE(text.find("\"droppedEvents\": 12"), std::string::npos);
  JsonScanner scanner(text);
  EXPECT_TRUE(scanner.valid()) << text;
}

TEST(ObsTrace, ConcurrentWritersNeverLoseTheirSlotClaim) {
  TraceRecorder& recorder = TraceRecorder::global();
  recorder.enable(16);  // deliberately smaller than the event count: laps
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 5000;
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, now] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        recorder.record("concurrent", SpanHandle{recorder.new_id()}, {}, now,
                        now, "x");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  recorder.disable();
  EXPECT_EQ(recorder.recorded(), kThreads * kEventsPerThread);
  EXPECT_EQ(recorder.dropped(), kThreads * kEventsPerThread - 16u);
  std::ostringstream out;
  recorder.write_chrome_trace(out);
  const std::string text = out.str();  // the scanner keeps a reference
  JsonScanner scanner(text);
  EXPECT_TRUE(scanner.valid());
}

// ---- the no-perturbation invariant ----------------------------------------

std::vector<analysis::AnalysisRequest> perturbation_requests() {
  std::vector<analysis::AnalysisRequest> requests;
  for (const char* name : {"c17", "parity8", "rca8"}) {
    const analysis::CompiledCircuit circuit =
        analysis::compile(gen::find_benchmark(name).build());
    {
      analysis::EnergyBoundRequest spec;
      spec.epsilon = 0.01;
      spec.delta = 0.01;
      analysis::AnalysisRequest request;
      request.name = std::string(name) + "/bound";
      request.circuit = circuit;
      request.options = spec;
      requests.push_back(std::move(request));
    }
    {
      analysis::ProfileRequest spec;
      analysis::AnalysisRequest request;
      request.name = std::string(name) + "/profile";
      request.circuit = circuit;
      request.options = spec;
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

std::string run_batch_json(unsigned threads) {
  exec::BatchEvaluator batch(exec::Parallelism{threads});
  for (analysis::AnalysisRequest& request : perturbation_requests()) {
    batch.submit(std::move(request));
  }
  const std::vector<analysis::AnalysisResult> results = batch.run();
  std::ostringstream out;
  exec::write_batch_json(out, results);
  return out.str();
}

// Observability is purely observational: the serialized batch output is
// byte-identical with tracing off, with tracing on, and after the ring has
// wrapped — for serial, dedicated-pool, and global-pool (ENB_THREADS-
// honoring) execution alike.
TEST(ObsDeterminism, TracingDoesNotPerturbBatchOutput) {
  TraceRecorder& recorder = TraceRecorder::global();
  recorder.disable();
  for (const unsigned threads : {1u, 4u, 0u}) {
    const std::string untraced = run_batch_json(threads);
    recorder.enable(32);  // small ring: wrap handling is on the traced path
    const std::string traced = run_batch_json(threads);
    recorder.disable();
    EXPECT_EQ(untraced, traced) << "threads = " << threads;
    EXPECT_FALSE(untraced.empty());
  }
}

}  // namespace
}  // namespace enb::obs
