// End-to-end daemon tests over a real Unix domain socket: round-trip
// output identity with the offline batch writer, cross-request result-cache
// semantics, protocol-robustness behaviour at the session level (malformed
// verbs, truncated frames, oversized payloads, mid-stream disconnects), and
// concurrent-client isolation/sharing. The server runs in-process so the
// tests can read its registry/cache counters directly.
#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/kinds.hpp"
#include "analysis/request.hpp"
#include "exec/batch.hpp"
#include "gen/suite.hpp"
#include "report/table.hpp"
#include "serve/client.hpp"

namespace enb::serve {
namespace {

// A fast mixed manifest: two circuits, shared profile key between the
// energy-bound and profile jobs over mult4 (one extraction by
// construction).
constexpr const char* kManifest =
    "rel kind=reliability circuit=c17 eps=0.02 budget=512 seed=5\n"
    "act kind=activity circuit=c17 budget=128\n"
    "bound kind=energy-bound circuit=mult4 eps=0.02 budget=256\n"
    "prof kind=profile circuit=mult4 budget=256\n";

// Offline reference with the server's resolution rule: compile + map to the
// default fanin-3 library, memoized per spec.
std::vector<analysis::AnalysisResult> offline_results(
    const std::string& manifest_text) {
  std::map<std::string, analysis::CompiledCircuit> handles;
  std::istringstream in(manifest_text);
  std::vector<analysis::AnalysisRequest> requests =
      exec::parse_manifest_requests(in, [&](const std::string& spec) {
        const auto it = handles.find(spec);
        if (it != handles.end()) return it->second;
        analysis::CompiledCircuit handle =
            analysis::compile(gen::find_benchmark(spec).build()).mapped(3);
        return handles.emplace(spec, std::move(handle)).first->second;
      });
  return exec::evaluate_requests(std::move(requests));
}

std::string offline_json(const std::string& manifest_text) {
  std::ostringstream out;
  exec::write_batch_json(out, offline_results(manifest_text));
  return out.str();
}

std::string served_json(const QueryOutcome& outcome) {
  std::ostringstream out;
  outcome.assemble_json(out);
  return out.str();
}

int raw_connect(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

void raw_send(int fd, const std::string& bytes) {
  FdStream stream(fd);
  stream.write_all(bytes.data(), bytes.size());
}

class ServeServerTest : public ::testing::Test {
 protected:
  void start(ServerOptions options = {}) {
    static std::atomic<int> counter{0};
    options.socket_path = "/tmp/enb_srv_" + std::to_string(::getpid()) + "_" +
                          std::to_string(counter.fetch_add(1)) + ".sock";
    server_.emplace(std::move(options));
    server_->bind();
    runner_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    if (server_.has_value()) server_->request_stop();
    if (runner_.joinable()) runner_.join();
  }

  [[nodiscard]] const std::string& path() const {
    return server_->socket_path();
  }

  // Waits (bounded) for a server-side counter condition — used where a
  // session runs past its client's lifetime.
  template <typename Predicate>
  bool wait_for(Predicate&& predicate, int timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (predicate()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  std::optional<Server> server_;
  std::thread runner_;
};

TEST_F(ServeServerTest, BatchRoundTripIsByteIdenticalToOffline) {
  start();
  Client client(path());
  std::vector<std::string> stream_order;
  const QueryOutcome outcome =
      client.batch(kManifest, [&](const ResultRecord& record) {
        stream_order.push_back(record.name);
      });
  EXPECT_EQ(outcome.total, 4u);
  EXPECT_EQ(outcome.failed, 0u);
  EXPECT_EQ(outcome.cached, 0u);
  EXPECT_EQ(stream_order.size(), 4u);  // streamed per result, not en bloc
  EXPECT_EQ(served_json(outcome), offline_json(kManifest));
}

TEST_F(ServeServerTest, RepeatedBatchIsServedEntirelyFromTheResultCache) {
  start();
  Client client(path());
  const QueryOutcome cold = client.batch(kManifest);
  EXPECT_EQ(cold.cached, 0u);
  const std::uint64_t extractions_after_cold =
      server_->registry_stats().profile_extractions;
  EXPECT_EQ(extractions_after_cold, 1u);  // bound+prof share one key

  const QueryOutcome warm = client.batch(kManifest);
  EXPECT_EQ(warm.cached, 4u);
  EXPECT_EQ(served_json(warm), served_json(cold));
  // Zero additional evaluations: no new extraction, four cache hits.
  EXPECT_EQ(server_->registry_stats().profile_extractions,
            extractions_after_cold);
  const ResultCacheStats cache = server_->cache_stats();
  EXPECT_EQ(cache.hits, 4u);
  EXPECT_EQ(cache.entries, 4u);
}

TEST_F(ServeServerTest, FaultCampaignRidesBatchServeAndResultCache) {
  // The new request kind must flow manifest -> batch -> serve with zero
  // special-casing: byte-identical to the offline writer, and a repeat run
  // served entirely from the result cache via the extended canonical spec.
  start();
  Client client(path());
  const std::string manifest =
      "fc-c17 kind=fault-campaign circuit=c17 budget=64 seed=11\n"
      "fc-x   kind=fault-campaign circuit=c17 mode=exhaustive\n"
      "fc-rca kind=fault-campaign circuit=rca8 budget=32\n";
  const QueryOutcome cold = client.batch(manifest);
  EXPECT_EQ(cold.total, 3u);
  EXPECT_EQ(cold.failed, 0u);
  EXPECT_EQ(cold.cached, 0u);
  EXPECT_EQ(served_json(cold), offline_json(manifest));

  const QueryOutcome warm = client.batch(manifest);
  EXPECT_EQ(warm.cached, 3u);
  EXPECT_EQ(served_json(warm), served_json(cold));

  // The analyze verb shares the manifest grammar (mode= included) and, with
  // equal options over the same content, the same cache key — the display
  // name is not part of it.
  const QueryOutcome analyzed = client.analyze(
      "c17", "fault-campaign", {"mode=exhaustive", "name=renamed"});
  ASSERT_EQ(analyzed.results.size(), 1u);
  EXPECT_TRUE(analyzed.results[0].ok);
  EXPECT_EQ(analyzed.cached, 1u);
}

TEST_F(ServeServerTest, FaultCampaignCacheKeysIncludeDropAndSample) {
  // drop= and sample= change what a campaign computes, so each is its own
  // cache entry, and a repeated request is a hit.
  start();
  Client client(path());
  const QueryOutcome cold = client.analyze(
      "rca8", "fault-campaign", {"budget=48", "name=fc"});
  ASSERT_EQ(cold.results.size(), 1u);
  ASSERT_TRUE(cold.results[0].ok);
  EXPECT_EQ(cold.cached, 0u);

  const QueryOutcome dropped = client.analyze(
      "rca8", "fault-campaign", {"budget=48", "drop=1", "name=fc"});
  ASSERT_TRUE(dropped.results[0].ok);
  EXPECT_EQ(dropped.cached, 0u);  // dropping changes sim_passes

  const QueryOutcome sampled = client.analyze(
      "rca8", "fault-campaign", {"budget=48", "sample=20", "name=fc"});
  ASSERT_TRUE(sampled.results[0].ok);
  EXPECT_EQ(sampled.cached, 0u);  // sampling changes the graded universe

  const QueryOutcome sampled_again = client.analyze(
      "rca8", "fault-campaign", {"budget=48", "sample=20", "name=fc"});
  ASSERT_TRUE(sampled_again.results[0].ok);
  EXPECT_EQ(sampled_again.cached, 1u);
  EXPECT_EQ(served_json(sampled_again), served_json(sampled));
}

TEST_F(ServeServerTest, LintRidesServeAndTheResultCache) {
  start();
  Client client(path());
  const std::string manifest = "chk kind=lint circuit=c17\n";
  const QueryOutcome cold = client.batch(manifest);
  ASSERT_EQ(cold.results.size(), 1u);
  EXPECT_TRUE(cold.results[0].ok);
  EXPECT_EQ(cold.cached, 0u);
  EXPECT_EQ(served_json(cold), offline_json(manifest));

  const QueryOutcome warm = client.batch(manifest);
  EXPECT_EQ(warm.cached, 1u);
  EXPECT_EQ(served_json(warm), served_json(cold));

  const QueryOutcome analyzed =
      client.analyze("c17", "lint", {"name=renamed"});
  ASSERT_EQ(analyzed.results.size(), 1u);
  EXPECT_TRUE(analyzed.results[0].ok);
  EXPECT_EQ(analyzed.cached, 1u);  // display name is not part of the key
}

TEST_F(ServeServerTest, HardenRidesServeAndTheResultCache) {
  // kind=harden flows manifest -> batch -> serve with no new cache plumbing:
  // byte-identical to the offline writer, repeats served from the result
  // cache, and the sweep-shaping keys are part of the canonical spec.
  start();
  Client client(path());
  const std::string manifest =
      "hd kind=harden circuit=c17 budget=64 style=tmr\n";
  const QueryOutcome cold = client.batch(manifest);
  ASSERT_EQ(cold.results.size(), 1u);
  EXPECT_TRUE(cold.results[0].ok);
  EXPECT_EQ(cold.cached, 0u);
  EXPECT_EQ(served_json(cold), offline_json(manifest));

  const QueryOutcome warm = client.batch(manifest);
  EXPECT_EQ(warm.cached, 1u);
  EXPECT_EQ(served_json(warm), served_json(cold));

  // The analyze verb shares the grammar and the key; the display name is
  // not part of it.
  const QueryOutcome analyzed = client.analyze(
      "c17", "harden", {"budget=64", "style=tmr", "name=renamed"});
  ASSERT_EQ(analyzed.results.size(), 1u);
  EXPECT_TRUE(analyzed.results[0].ok);
  EXPECT_EQ(analyzed.cached, 1u);

  // Pinning a granularity sweeps a different candidate set: its own entry.
  const QueryOutcome pinned = client.analyze(
      "c17", "harden",
      {"budget=64", "style=tmr", "granularity=output", "name=hd"});
  ASSERT_EQ(pinned.results.size(), 1u);
  EXPECT_TRUE(pinned.results[0].ok);
  EXPECT_EQ(pinned.cached, 0u);
}

TEST_F(ServeServerTest, ServedCecCarriesTheOfflineHeadline) {
  // Served result frames and the offline batch table read one headline
  // metric from the kind table; for cec that is `equivalent`.
  start();
  Client client(path());
  const std::string manifest = "eq kind=cec circuit=c17 golden=c17\n";
  const QueryOutcome served = client.batch(manifest);
  ASSERT_EQ(served.results.size(), 1u);
  ASSERT_TRUE(served.results[0].ok);
  EXPECT_EQ(served_json(served), offline_json(manifest));

  const std::vector<analysis::AnalysisResult> offline =
      offline_results(manifest);
  ASSERT_EQ(offline.size(), 1u);
  const char* metric = analysis::headline_metric(offline[0].kind);
  EXPECT_STREQ(metric, "equivalent");
  const std::optional<double> value = offline[0].metric(metric);
  ASSERT_TRUE(value.has_value());
  // The client's headline is "<hmetric> = <hvalue>" from the frame.
  EXPECT_EQ(served.results[0].headline,
            "equivalent = " + report::format_double(*value, 6));

  const QueryOutcome analyzed =
      client.analyze("c17", "cec", {"golden=c17", "name=eq"});
  ASSERT_EQ(analyzed.results.size(), 1u);
  EXPECT_EQ(analyzed.cached, 1u);
  EXPECT_EQ(analyzed.results[0].headline, served.results[0].headline);
}

TEST_F(ServeServerTest, AnalyzeRejectsKeysTheKindDoesNotTake) {
  // The analyze verb forwards its arguments to the kind table instead of a
  // whitelist: unknown keys and keys of other kinds are errors, and the
  // session survives them.
  start();
  Client client(path());
  EXPECT_THROW((void)client.analyze("c17", "lint", {"bogus=1"}), ServerError);
  EXPECT_THROW((void)client.analyze("c17", "lint", {"drop=1"}), ServerError);
  try {
    (void)client.analyze("c17", "fault-campaign", {"lanes=64"});
    ADD_FAILURE() << "lanes=64 was accepted";
  } catch (const ServerError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key 'lanes'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)client.analyze("c17", "lint", {"circuit=c17"}),
               ServerError);
  EXPECT_THROW((void)client.analyze("c17", "harden", {"style=quad"}),
               ServerError);
  EXPECT_THROW((void)client.analyze("c17", "nosuchkind"), ServerError);
  EXPECT_EQ(client.ping().verb, "ok");
  const QueryOutcome ok = client.analyze("c17", "lint", {"eps=0.1"});
  ASSERT_EQ(ok.results.size(), 1u);
  EXPECT_TRUE(ok.results[0].ok);
}

TEST_F(ServeServerTest, ShutdownUnderLoadJoinsEverySession) {
  start();
  // Several clients keep the server busy with real evaluations while the
  // stop lands mid-flight. Every in-flight session must be joined by run()
  // — not detached — so no session thread outlives the Server object
  // (TearDown destroys it right after this returns).
  std::vector<std::thread> workers;
  std::atomic<int> completed{0};
  for (int i = 0; i < 4; ++i) {
    workers.emplace_back([&] {
      try {
        for (int round = 0; round < 8; ++round) {
          Client client(path());
          const QueryOutcome outcome = client.batch(kManifest);
          if (outcome.failed == 0) completed.fetch_add(1);
        }
      } catch (const std::exception&) {
        // Expected once the server stops: refused connections or sessions
        // closed mid-reply. The assertion is the clean join below.
      }
    });
  }
  ASSERT_TRUE(wait_for([&] { return completed.load() >= 2; }));
  server_->request_stop();
  if (runner_.joinable()) runner_.join();  // drains + joins the sessions
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(server_->stats().sessions_active, 0u);
}

TEST_F(ServeServerTest, ResultCacheSurvivesHandleEviction) {
  start();
  Client client(path());
  const QueryOutcome cold = client.batch(kManifest);
  const Frame evicted = client.evict();
  EXPECT_EQ(evicted.arg("evicted"), "2");  // c17 + mult4
  EXPECT_EQ(server_->registry_stats().handles, 0u);

  // Fingerprint-keyed: reloading the same content hits the warm cache.
  const QueryOutcome warm = client.batch(kManifest);
  EXPECT_EQ(warm.cached, 4u);
  EXPECT_EQ(served_json(warm), served_json(cold));
}

TEST_F(ServeServerTest, AnalyzeVerbMatchesABatchOfOne) {
  start();
  Client client(path());
  const Frame loaded = client.load("mult4");
  EXPECT_EQ(loaded.arg("handle"), "mult4");
  EXPECT_EQ(loaded.arg("fingerprint").value_or("").size(), 16u);

  const QueryOutcome analyzed = client.analyze(
      "mult4", "energy-bound", {"eps=0.02", "budget=256", "name=bound"});
  ASSERT_EQ(analyzed.results.size(), 1u);
  EXPECT_TRUE(analyzed.results[0].ok);

  const std::string one_line =
      "bound kind=energy-bound circuit=mult4 eps=0.02 budget=256\n";
  EXPECT_EQ(served_json(analyzed), offline_json(one_line));
}

TEST_F(ServeServerTest, LoadReportsContentFingerprintIndependentOfName) {
  start();
  Client client(path());
  const Frame a = client.load("c17", "first");
  const Frame b = client.load("c17", "second");
  EXPECT_EQ(a.arg("fingerprint"), b.arg("fingerprint"));
  EXPECT_EQ(server_->registry_stats().handles, 2u);
  EXPECT_EQ(a.arg("gates"), b.arg("gates"));
}

TEST_F(ServeServerTest, LoadRejectsMapValuesOutsideTheRule) {
  start();
  Client client(path());
  // A value wider than an int must not wrap (4294967298 would map at fanin
  // 2, 2147483648 would load as-is), and fanin 1 is no library: each gets
  // an error frame naming the argument.
  for (const char* map : {"1", "2147483648", "4294967298"}) {
    Frame load{"load", {}, {}};
    load.add("circuit", "c17").add("map", map);
    try {
      (void)client.call(load);
      ADD_FAILURE() << "map=" << map << " was accepted";
    } catch (const ServerError& e) {
      EXPECT_NE(std::string(e.what()).find("map="), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(server_->registry_stats().handles, 0u);
  // The session serves its next request.
  const Frame loaded = client.load("c17", "c17", 2);
  EXPECT_EQ(loaded.verb, "ok");
  EXPECT_EQ(server_->registry_stats().handles, 1u);
}

TEST_F(ServeServerTest, FailedJobsAreReportedNotCached) {
  start();
  Client client(path());
  const std::string manifest =
      "bad kind=reliability circuit=c17 golden=mult4 budget=128\n"  // mismatch
      "good kind=activity circuit=c17 budget=128\n";
  const QueryOutcome outcome = client.batch(manifest);
  EXPECT_EQ(outcome.total, 2u);
  EXPECT_EQ(outcome.failed, 1u);
  EXPECT_FALSE(outcome.results[0].ok);
  EXPECT_TRUE(outcome.results[1].ok);
  EXPECT_EQ(server_->cache_stats().entries, 1u);  // only the ok result

  // The failure repeats on resubmission (never memoized as ok).
  const QueryOutcome again = client.batch(manifest);
  EXPECT_EQ(again.failed, 1u);
  EXPECT_EQ(again.cached, 1u);
}

TEST_F(ServeServerTest, UnknownVerbAndBadArgumentsKeepTheSessionUsable) {
  start();
  Client client(path());
  EXPECT_THROW((void)client.call(Frame{"frobnicate", {}, {}}), ServerError);
  EXPECT_THROW((void)client.call(Frame{"load", {}, {}}), ServerError);
  EXPECT_THROW((void)client.batch("job kind=bogus circuit=c17\n"),
               ServerError);
  EXPECT_THROW((void)client.batch("job kind=profile circuit=nosuch\n"),
               ServerError);
  EXPECT_THROW((void)client.batch("# only comments\n"), ServerError);
  // The framing stayed intact through every failure: the session still
  // answers.
  EXPECT_EQ(client.ping().verb, "ok");
  const QueryOutcome outcome = client.batch(kManifest);
  EXPECT_EQ(outcome.failed, 0u);
}

TEST_F(ServeServerTest, TruncatedFrameEndsOnlyThatSession) {
  start();
  const int fd = raw_connect(path());
  raw_send(fd, "batch payload=100\nonly a few bytes");
  ::shutdown(fd, SHUT_WR);  // EOF inside the declared payload
  // The server reports the framing error (best effort) and hangs up.
  FdStream stream(fd);
  FrameReader reader(stream);
  const auto reply = reader.read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->verb, "error");
  EXPECT_NE(reply->payload.find("truncated"), std::string::npos);
  EXPECT_FALSE(reader.read_frame().has_value());  // closed
  ::close(fd);

  // Other sessions are untouched.
  Client client(path());
  EXPECT_EQ(client.ping().verb, "ok");
}

TEST_F(ServeServerTest, OversizedPayloadDeclarationEndsOnlyThatSession) {
  start();
  const int fd = raw_connect(path());
  raw_send(fd, "batch payload=1099511627776\n");
  FdStream stream(fd);
  FrameReader reader(stream);
  const auto reply = reader.read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->verb, "error");
  EXPECT_NE(reply->payload.find("exceeds"), std::string::npos);
  EXPECT_FALSE(reader.read_frame().has_value());
  ::close(fd);

  Client client(path());
  EXPECT_EQ(client.ping().verb, "ok");
}

TEST_F(ServeServerTest, ClientDisconnectMidStreamWarmsTheCacheAnyway) {
  start();
  {
    // Submit and vanish: the server must survive the failed result writes,
    // finish evaluating, and keep the results.
    const int fd = raw_connect(path());
    Frame frame;
    frame.verb = "batch";
    frame.payload = kManifest;
    FdStream stream(fd);
    write_frame(stream, frame);
    ::close(fd);
  }
  ASSERT_TRUE(wait_for([this] { return server_->cache_stats().stores >= 4; }))
      << "server never finished the abandoned batch";

  Client client(path());
  const QueryOutcome outcome = client.batch(kManifest);
  EXPECT_EQ(outcome.failed, 0u);
  EXPECT_EQ(outcome.cached, 4u);  // the abandoned run's results persisted
  EXPECT_EQ(served_json(outcome), offline_json(kManifest));
}

TEST_F(ServeServerTest, ConcurrentClientsShareOneExtractionAndStayIsolated) {
  start();
  const std::string manifest =
      "bound kind=energy-bound circuit=mult4 eps=0.02 budget=2048\n"
      "prof kind=profile circuit=mult4 budget=2048\n";
  std::vector<std::thread> workers;
  std::vector<QueryOutcome> outcomes(4);
  for (int i = 0; i < 4; ++i) {
    workers.emplace_back([&, i] {
      Client client(path());
      outcomes[static_cast<std::size_t>(i)] = client.batch(manifest);
    });
  }
  for (std::thread& worker : workers) worker.join();

  const std::string reference = served_json(outcomes[0]);
  for (const QueryOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.total, 2u);
    EXPECT_EQ(outcome.failed, 0u);
    EXPECT_EQ(served_json(outcome), reference);
  }
  // One handle, one extraction — shared by construction across sessions.
  EXPECT_EQ(server_->registry_stats().profile_extractions, 1u);
  EXPECT_EQ(server_->registry_stats().loads, 1u);
}

TEST_F(ServeServerTest, LruRegistryEvictionKeepsServingCorrectResults) {
  ServerOptions options;
  options.max_handles = 1;  // pathological: every other spec evicts
  start(options);
  Client client(path());
  const QueryOutcome outcome = client.batch(kManifest);
  EXPECT_EQ(outcome.failed, 0u);
  EXPECT_EQ(served_json(outcome), offline_json(kManifest));
  EXPECT_EQ(server_->registry_stats().handles, 1u);
  EXPECT_GE(server_->registry_stats().evictions, 1u);
}

TEST_F(ServeServerTest, StatsVerbExposesTheCounters) {
  start();
  Client client(path());
  (void)client.batch(kManifest);
  const Frame stats = client.stats();
  EXPECT_EQ(stats.uint_arg("handles"), 2u);
  EXPECT_EQ(stats.uint_arg("result_entries"), 4u);
  EXPECT_EQ(stats.uint_arg("result_misses"), 4u);
  EXPECT_EQ(stats.uint_arg("profile_extractions"), 1u);
  EXPECT_EQ(stats.uint_arg("queries"), 1u);
  EXPECT_EQ(stats.uint_arg("results"), 4u);
  EXPECT_EQ(stats.uint_arg("sessions_active"), 1u);
}

TEST_F(ServeServerTest, StatsVerbReportsUptimeAndPerVerbCounters) {
  start();
  Client client(path());
  (void)client.ping();
  (void)client.ping();
  (void)client.batch(kManifest);
  const Frame stats = client.stats();
  EXPECT_EQ(stats.uint_arg("requests_ping"), 2u);
  EXPECT_EQ(stats.uint_arg("requests_batch"), 1u);
  // The stats request itself is dispatched (and counted) before the reply
  // is assembled.
  EXPECT_EQ(stats.uint_arg("requests_stats"), 1u);
  const auto uptime = stats.arg("uptime_seconds");
  ASSERT_TRUE(uptime.has_value());
  EXPECT_GT(std::stod(*uptime), 0.0);
}

// First numeric value on the line starting with `prefix`, or -1.0 when the
// line is absent. The process-global registry accumulates across the tests
// in this binary, so counter assertions are lower bounds, not equalities.
double metric_value(const std::string& text, const std::string& prefix) {
  // Anchor at a line start so a bare family name cannot match its own
  // "# TYPE <name> <kind>" line (every metric line follows a TYPE line,
  // so a preceding '\n' always exists).
  const std::size_t line = text.find("\n" + prefix);
  if (line == std::string::npos) return -1.0;
  return std::stod(text.substr(line + 1 + prefix.size()));
}

TEST_F(ServeServerTest, MetricsVerbRendersPrometheusExposition) {
  start();
  Client client(path());
  (void)client.batch(kManifest);
  const Frame reply = client.metrics();
  const std::string& text = reply.payload;
  ASSERT_FALSE(text.empty());
  // Per-verb session counters, with this session's own requests included.
  EXPECT_GE(metric_value(text, "enb_serve_requests_total{verb=\"batch\"} "),
            1.0);
  EXPECT_GE(metric_value(text, "enb_serve_requests_total{verb=\"metrics\"} "),
            1.0);
  // The batch request's latency landed in the per-verb histogram.
  EXPECT_NE(text.find("enb_serve_request_seconds_bucket{verb=\"batch\",le="),
            std::string::npos);
  EXPECT_GE(
      metric_value(text, "enb_serve_request_seconds_count{verb=\"batch\"} "),
      1.0);
  // Scrape-time mirrors of the shared stores and session table: these read
  // this server instance's stats, so they are exact.
  EXPECT_EQ(metric_value(text, "enb_serve_result_cache_entries "), 4.0);
  EXPECT_EQ(metric_value(text, "enb_serve_handle_registry_handles "), 2.0);
  EXPECT_EQ(metric_value(text, "enb_serve_sessions_active "), 1.0);
  EXPECT_GT(metric_value(text, "enb_serve_uptime_seconds "), 0.0);
  // Session byte meters saw real traffic in both directions.
  EXPECT_GT(metric_value(text, "enb_serve_bytes_in_total "), 0.0);
  EXPECT_GT(metric_value(text, "enb_serve_bytes_out_total "), 0.0);
  // Exec instrumentation rode along: the batch ran pool tasks.
  EXPECT_GT(metric_value(text, "enb_exec_tasks_total "), 0.0);
  // The profile cache's counters are exposed, derived fills next to
  // extractions (the batch's energy bound extracted mult4's profile).
  EXPECT_GE(metric_value(text, "enb_analysis_profile_extractions_total "),
            1.0);
  EXPECT_GE(metric_value(text, "enb_analysis_profile_derived_total "), 0.0);
}

TEST_F(ServeServerTest, MetricsVerbExposesFaultSweepEvents) {
  start();
  Client client(path());
  (void)client.batch("fc kind=fault-campaign circuit=c17 budget=64\n");
  const std::string text = client.metrics().payload;
  EXPECT_GT(metric_value(text, "enb_fault_sweep_events_total "), 0.0);
  EXPECT_GT(metric_value(text, "enb_fault_sweep_passes_total "), 0.0);
}

TEST_F(ServeServerTest, ShutdownVerbStopsTheRunLoop) {
  start();
  {
    Client client(path());
    (void)client.shutdown_server();
  }
  if (runner_.joinable()) runner_.join();
  // The socket file is gone: new connections are refused.
  EXPECT_THROW(Client{path()}, std::runtime_error);
}

}  // namespace
}  // namespace enb::serve
