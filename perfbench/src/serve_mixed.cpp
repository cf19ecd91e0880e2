// Workload serve-mixed: a closed loop of 2 client connections, each on its
// own thread, sending `analyze` requests to an in-process serve::Server
// over a Unix socket. Each connection owns two handles (connection 0:
// mult8 and c432; connection 1: alu8 and rca32), so the two spec streams
// are disjoint.
//
// A request stream is a seeded mix: in every block of 5 requests, 3 repeat
// a spec from the connection's kWindow most recently used specs
// (result-cache hits) and 2 are fresh energy-bound, reliability,
// fault-campaign (drop=1) or lint specs (computed misses). Every
// kReloadEvery requests a connection evicts and reloads one of its handles,
// which forces a profile re-extraction on the next energy-bound miss.
//
// The server's result cache holds kCacheEntries, so memory plateaus and
// eviction is on the path. The designed hit count stays exact: between two
// touches of a window spec, its connection touches fewer than kWindow other
// specs, hence fewer than 2.5 * kWindow + 5 requests; the round barrier
// keeps the other connection within kRoundRequests requests of that, so it
// touches at most kWindow window specs plus ~kWindow + 25 fresh ones. Fewer
// than 3 * kWindow + 30 < kCacheEntries distinct entries are touched in
// between, so LRU never evicts a window spec.
//
// One repetition is a round: both connections complete kRoundRequests
// requests. Untraced: rounds for the time budget. Traced: rounds with
// tracing on, then a ping burst and a hit-only burst read against the
// server's own request histogram.
#include <unistd.h>

#include <array>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "exec/batch.hpp"
#include "exec/thread_pool.hpp"
#include "gen/suite.hpp"
#include "netlist/bench_io.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace enb;

constexpr int kConnections = 2;
constexpr std::size_t kRoundRequests = 48;
constexpr std::uint64_t kReloadEvery = 200;
constexpr std::size_t kWindow = 256;
constexpr std::size_t kCacheEntries = 2048;
static_assert(3 * kWindow + 30 < kCacheEntries);
constexpr int kMapFanin = 3;
constexpr int kSetups = 5;
constexpr std::size_t kMaxSampled = 8;
constexpr int kPings = 2000;
constexpr std::size_t kHitBurst = 400;
constexpr std::array<std::array<const char*, 2>, kConnections> kCircuits = {
    {{"mult8", "c432"}, {"alu8", "rca32"}}};

std::string handle_name(int connection, int handle) {
  return "c" + std::to_string(connection) + "-" + kCircuits[connection][handle];
}

struct Spec {
  int handle = 0;
  std::string kind;
  std::vector<std::string> tokens;
};

// The seeded request stream of one connection: which slots of each block
// of 5 are fresh, the fresh specs, and which window spec a repeat reuses.
// A spec's identity is its circuit, kind and arguments — what the server's
// content-keyed result cache keys on.
class RequestStream {
 public:
  RequestStream(int connection, std::uint64_t seed)
      : connection_(connection),
        rng_(derive_seed(seed, 2 + static_cast<std::uint64_t>(connection))) {}

  struct Next {
    Spec spec;
    bool expect_hit = false;
  };

  Next next() {
    if (slot_ == 0) {
      fresh_slots_[0] = rng_.below(5);
      fresh_slots_[1] = (fresh_slots_[0] + 1 + rng_.below(4)) % 5;
    }
    const bool fresh_slot =
        slot_ == fresh_slots_[0] || slot_ == fresh_slots_[1];
    slot_ = (slot_ + 1) % 5;
    Next n;
    n.expect_hit = !fresh_slot && !window_.empty();
    n.spec = n.expect_hit ? window_[rng_.below(window_.size())] : fresh();
    touch(n.spec);
    return n;
  }

  // The specs a repeat may reuse, most recently used first.
  [[nodiscard]] const std::vector<Spec>& window() const { return window_; }

 private:
  std::string key(const Spec& spec) const {
    std::string k = std::string(kCircuits[connection_][spec.handle]) + " " +
                    spec.kind;
    for (const std::string& token : spec.tokens) k += " " + token;
    return k;
  }

  void touch(const Spec& spec) {
    const std::string k = key(spec);
    for (std::size_t i = 0; i < window_.size(); ++i) {
      if (key(window_[i]) == k) {
        window_.erase(window_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    window_.insert(window_.begin(), spec);
    if (window_.size() > kWindow) window_.pop_back();
  }

  // A spec this connection never sent before. Lint takes no arguments, so
  // it is fresh once per circuit; later lint draws pick another kind.
  Spec fresh() {
    Spec s;
    s.handle = static_cast<int>(rng_.below(2));
    const std::uint64_t k = ++fresh_count_;
    std::uint64_t pick = rng_.below(100);
    if (pick >= 90 && !linted_.insert(s.handle).second) pick = rng_.below(90);
    if (pick < 30) {
      char eps[32];
      std::snprintf(eps, sizeof eps, "eps=%.7f",
                    0.001 + static_cast<double>(k) * 1e-7);
      s.kind = "energy-bound";
      s.tokens = {eps};
    } else if (pick < 60) {
      s.kind = "reliability";
      s.tokens = {"eps=0.01", "budget=4096", "seed=" + std::to_string(k)};
    } else if (pick < 90) {
      s.kind = "fault-campaign";
      s.tokens = {"budget=256", "drop=1", "seed=" + std::to_string(k)};
    } else {
      s.kind = "lint";
    }
    return s;
  }

  int connection_;
  InputRng rng_;
  std::uint64_t fresh_count_ = 0;
  std::uint64_t slot_ = 0;
  std::uint64_t fresh_slots_[2] = {0, 0};
  std::vector<Spec> window_;
  std::set<int> linted_;
};

struct Sampled {
  int handle = 0;
  Spec spec;
  std::string json;
};

// One client connection and everything its thread records. Only its own
// thread touches it while rounds run.
struct Connection {
  Connection(int index_, const std::string& socket, std::uint64_t seed)
      : index(index_), client(socket), stream(index_, seed) {}

  int index;
  serve::Client client;
  RequestStream stream;
  std::uint64_t requests = 0;
  std::uint64_t since_reload = 0;
  std::uint64_t reloads = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t hits_expected = 0;
  std::uint64_t hits_seen = 0;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<Sampled> sampled;
  std::vector<std::string> errors;
  bool dead = false;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }

  // One analyze request against this connection's handle.
  serve::QueryOutcome analyze(const Spec& spec) {
    return client.analyze(handle_name(index, spec.handle), spec.kind,
                          spec.tokens);
  }

  void reload() {
    const int handle = static_cast<int>(reloads++ % 2);
    ops += 2;
    const serve::Frame evicted = client.evict(handle_name(index, handle));
    if (evicted.arg("evicted").value_or("") != "1") fail("evict did not evict");
    (void)client.load(kCircuits[index][handle], handle_name(index, handle));
  }

  void step() {
    if (dead) return;
    try {
      if (since_reload == kReloadEvery) {
        since_reload = 0;
        reload();
      }
      const RequestStream::Next next = stream.next();
      ++ops;
      const auto start = Clock::now();
      const serve::QueryOutcome out = analyze(next.spec);
      const double ms = seconds_since(start) * 1e3;
      ++requests;
      ++since_reload;
      (next.expect_hit ? hit_ms : miss_ms).push_back(ms);
      hits_expected += next.expect_hit ? 1 : 0;
      hits_seen += out.cached;
      const bool ok = out.total == 1 && out.failed == 0 &&
                      out.results.size() == 1 && out.results[0].ok;
      if (!ok) {
        fail("request not ok: " + next.spec.kind);
      } else if ((out.cached == 1) != next.expect_hit) {
        fail("cache outcome differs from design: " + next.spec.kind);
      } else if (requests % 53 == 7 && sampled.size() < kMaxSampled) {
        sampled.push_back({next.spec.handle, next.spec, out.results[0].json});
      }
    } catch (const serve::ServerError& e) {
      fail(std::string("server error: ") + e.what());
    } catch (const std::exception& e) {
      fail(std::string("connection lost: ") + e.what());
      dead = true;
    }
  }
};

// A running server plus its client connections.
struct Instance {
  std::unique_ptr<serve::Server> server;
  std::thread runner;
  std::vector<std::unique_ptr<Connection>> connections;

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() { stop(); }

  void stop() {
    if (!runner.joinable()) return;
    try {
      if (!connections.empty()) (void)connections.front()->client.shutdown_server();
    } catch (const std::exception&) {
      server->request_stop();
    }
    runner.join();
    connections.clear();
  }
};

// Server start, handle loads and the first profile extraction of every
// handle (an energy-bound request at an eps the streams never use).
std::unique_ptr<Instance> start_instance(const Options& options, int index,
                                         Report& report) {
  auto instance = std::make_unique<Instance>();
  serve::ServerOptions server_options;
  server_options.socket_path = options.scratch + "/serve-" +
                               std::to_string(::getpid()) + "-" +
                               std::to_string(index) + ".sock";
  server_options.max_results = kCacheEntries;
  server_options.default_map_fanin = kMapFanin;
  server_options.how = exec::Parallelism::global_pool();
  instance->server = std::make_unique<serve::Server>(server_options);
  instance->server->bind();
  serve::Server* server = instance->server.get();
  instance->runner = std::thread([server] { server->run(); });
  for (int c = 0; c < kConnections; ++c) {
    instance->connections.push_back(std::make_unique<Connection>(
        c, server_options.socket_path, options.seed));
    Connection& connection = *instance->connections.back();
    for (int h = 0; h < 2; ++h) {
      (void)connection.client.load(kCircuits[c][h], handle_name(c, h));
      const serve::QueryOutcome out =
          connection.analyze({h, "energy-bound", {"eps=0.25"}});
      report.operations(1, out.failed == 0 && out.cached == 0 ? 0 : 1);
    }
  }
  return instance;
}

struct Rounds {
  std::vector<double> round_s;
  double elapsed = 0.0;
  std::uint64_t requests = 0;
};

// Closed-loop rounds until `seconds` pass: every round, each connection
// thread sends kRoundRequests requests back to back.
Rounds run_rounds(Instance& instance, double seconds, int min_rounds) {
  Rounds rounds;
  std::uint64_t before = 0;
  for (const auto& c : instance.connections) before += c->requests;
  std::barrier sync(kConnections + 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (const auto& c : instance.connections) {
    Connection* connection = c.get();
    workers.emplace_back([&sync, &stop, connection] {
      for (;;) {
        sync.arrive_and_wait();
        if (stop.load()) return;
        for (std::size_t i = 0; i < kRoundRequests; ++i) connection->step();
        sync.arrive_and_wait();
      }
    });
  }
  const auto start = Clock::now();
  while (static_cast<int>(rounds.round_s.size()) < min_rounds ||
         seconds_since(start) < seconds) {
    const auto t = Clock::now();
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    rounds.round_s.push_back(seconds_since(t));
  }
  rounds.elapsed = seconds_since(start);
  stop.store(true);
  sync.arrive_and_wait();
  for (std::thread& worker : workers) worker.join();
  for (const auto& c : instance.connections) rounds.requests += c->requests;
  rounds.requests -= before;
  return rounds;
}

// Sampled served results must be byte-identical to the same requests
// evaluated offline (fresh compile + map, one batch).
void check_offline(const Instance& instance, Report& report) {
  std::map<std::string, analysis::CompiledCircuit> handles;
  std::ostringstream manifest;
  std::vector<const Sampled*> samples;
  for (const auto& c : instance.connections) {
    for (const Sampled& s : c->sampled) {
      const std::string name = handle_name(c->index, s.handle);
      if (handles.count(name) == 0) {
        handles[name] =
            analysis::compile(
                gen::build_circuit_spec(kCircuits[c->index][s.handle]))
                .mapped(kMapFanin);
      }
      manifest << name << " kind=" << s.spec.kind << " circuit=" << name;
      for (const std::string& token : s.spec.tokens) manifest << " " << token;
      manifest << "\n";
      samples.push_back(&s);
    }
  }
  report.check("sampled served results exist", !samples.empty());
  std::istringstream in(manifest.str());
  const std::vector<analysis::AnalysisResult> offline = exec::evaluate_requests(
      exec::parse_manifest_requests(
          in, [&](const std::string& name) { return handles.at(name); }),
      exec::Parallelism::global_pool());
  std::size_t identical = 0;
  for (std::size_t i = 0; i < offline.size() && i < samples.size(); ++i) {
    std::ostringstream json;
    exec::write_result_json(json, offline[i]);
    identical += json.str() == samples[i]->json ? 1 : 0;
  }
  report.check("served result JSON == offline evaluation",
               offline.size() == samples.size() && identical == samples.size(),
               std::to_string(identical) + "/" +
                   std::to_string(samples.size()) + " identical");
}

void check_connections(const Instance& instance, Report& report) {
  for (const auto& c : instance.connections) {
    const std::string who = "connection " + std::to_string(c->index);
    report.operations(c->ops, c->failed);
    std::string detail;
    for (const std::string& e : c->errors) detail += e + "; ";
    report.check(who + ": every frame ok", c->failed == 0 && !c->dead, detail);
    report.check(who + ": cache hits == designed count",
                 c->hits_seen == c->hits_expected,
                 std::to_string(c->hits_seen) + " vs " +
                     std::to_string(c->hits_expected));
  }
}

std::vector<double> joined(const Instance& instance,
                           std::vector<double> Connection::*field) {
  std::vector<double> all;
  for (const auto& c : instance.connections) {
    const std::vector<double>& part = (*c).*field;
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

void report_latency(Report& report, const std::string& name,
                    const std::vector<double>& ms) {
  const std::string n = "n=" + std::to_string(ms.size());
  report.extra(name + "_p50_ms", "ms", false, {nearest_rank(ms, 0.5)}, n);
  report.extra(name + "_p99_ms", "ms", false, {nearest_rank(ms, 0.99)}, n);
}

}  // namespace

void run_serve_mixed(const Options& options, Report& report) {
  report.context("workload_shape",
                 "2 closed-loop connections, " +
                     std::to_string(kRoundRequests) +
                     " analyze requests each per round; 3 of 5 repeat one of "
                     "the last " + std::to_string(kWindow) +
                     " specs; result cache " + std::to_string(kCacheEntries) +
                     " entries; handles mult8+c432 / alu8+rca32 mapped K=3");
  std::vector<double> setup_s;
  std::unique_ptr<Instance> instance;
  for (int i = 0; i < kSetups; ++i) {
    if (instance) instance->stop();
    const auto t = Clock::now();
    instance = start_instance(options, i, report);
    setup_s.push_back(seconds_since(t));
  }
  report.context("concurrency", std::to_string(probe_pool_concurrency()) +
                                    " threads ran pool tasks (probe)");

  if (!options.trace) {
    const Rounds rounds = run_rounds(*instance, options.seconds, 3);
    report.end_to_end("setup_s", "s", false, setup_s,
                      "server start + 4 handle loads + first extractions");
    report.end_to_end("run_s", "s", false, rounds.round_s,
                      "one round of 2 x " + std::to_string(kRoundRequests) +
                          " requests");
    report.end_to_end("req_per_s", "1/s", true,
                      {static_cast<double>(rounds.requests) / rounds.elapsed},
                      "analyze requests completed per second");
    report.peak_rss();
    report_latency(report, "hit", joined(*instance, &Connection::hit_ms));
    report_latency(report, "miss", joined(*instance, &Connection::miss_ms));
    check_connections(*instance, report);
    check_offline(*instance, report);
    instance->stop();
    return;
  }

  // Per-layer setup costs, replayed outside the server for the 4 circuits.
  std::vector<double> gen_s, parse_s, compile_s;
  for (int i = 0; i < kSetups; ++i) {
    double g = 0.0, p = 0.0, k = 0.0;
    for (const auto& pair : kCircuits) {
      for (const char* spec : pair) {
        auto t = Clock::now();
        const netlist::Circuit built = gen::build_circuit_spec(spec);
        g += seconds_since(t);
        const std::string text = netlist::write_bench_string(built);
        t = Clock::now();
        netlist::Circuit parsed = netlist::read_bench_string(text, spec);
        p += seconds_since(t);
        t = Clock::now();
        (void)analysis::compile(std::move(parsed)).mapped(kMapFanin);
        k += seconds_since(t);
      }
    }
    gen_s.push_back(g);
    parse_s.push_back(p);
    compile_s.push_back(k);
  }
  report.layer_samples("gen.build_s", "s", gen_s, "4 circuits");
  report.layer_samples("netlist.parse_s", "s", parse_s, "4 circuits");
  report.layer_samples("analysis.compile_s", "s", compile_s,
                       "4 circuits compile + map");

  const Rounds untraced = run_rounds(*instance, options.seconds / 2, 1);
  obs::TraceRecorder::global().enable();
  const serve::ResultCacheStats cache_before = instance->server->cache_stats();
  const serve::RegistryStats registry_before =
      instance->server->registry_stats();
  Rounds traced;
  {
    const LayerCounters counters;
    const CounterDelta bytes_out("serve-bytes-out-total");
    traced = run_rounds(*instance, options.seconds / 2, 1);
    report.layer_counters(counters,
                          static_cast<double>(traced.round_s.size()));
    report.layer("serve.bytes_out_per_req", "bytes",
                 static_cast<double>(bytes_out.delta()) /
                     static_cast<double>(traced.requests),
                 "serve-bytes-out-total / requests");
    report.layer("exec.busy_frac", "fraction",
                 counters.task_seconds.delta().sum /
                     (traced.elapsed * (pool_workers() + 1.0)),
                 "exec-task-seconds / (elapsed x drainers)");
  }
  const serve::ResultCacheStats cache_after = instance->server->cache_stats();
  const serve::RegistryStats registry_after =
      instance->server->registry_stats();
  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double misses =
      static_cast<double>(cache_after.misses - cache_before.misses);
  const std::string phase = "traced phase, " +
                            std::to_string(traced.requests) + " requests";
  report.layer("serve.result_cache_hit_frac", "fraction",
               hits / (hits + misses), phase);
  report.layer("serve.handle_loads", "count",
               static_cast<double>(registry_after.loads - registry_before.loads),
               phase);
  report.layer("serve.handle_evictions", "count",
               static_cast<double>(registry_after.evictions -
                                   registry_before.evictions),
               phase);
  const double untraced_rate =
      static_cast<double>(untraced.requests) / untraced.elapsed;
  const double traced_rate =
      static_cast<double>(traced.requests) / traced.elapsed;
  report.layer("obs.trace_overhead_frac", "fraction",
               untraced_rate / traced_rate - 1.0,
               "untraced req_per_s / traced req_per_s - 1");

  // The socket/protocol floor, then a hit-only burst timed on both sides.
  Connection& probe = *instance->connections.front();
  std::vector<double> ping_us;
  for (int i = 0; i < kPings; ++i) {
    const auto t = Clock::now();
    (void)probe.client.ping();
    ping_us.push_back(seconds_since(t) * 1e6);
  }
  report.layer("serve.ping_p50_us", "us", nearest_rank(ping_us, 0.5),
               "client-side, n=" + std::to_string(ping_us.size()));
  std::vector<double> client_hit_ms;
  std::size_t burst_hits = 0;
  {
    const HistogramDelta server_side("serve-request-seconds", "verb",
                                     "analyze");
    const std::vector<Spec> window = probe.stream.window();
    for (std::size_t i = 0; i < kHitBurst; ++i) {
      const auto t = Clock::now();
      const serve::QueryOutcome out = probe.analyze(window[i % window.size()]);
      client_hit_ms.push_back(seconds_since(t) * 1e3);
      burst_hits += out.cached;
    }
    const enb::obs::Histogram::Snapshot served = server_side.delta();
    report.layer("serve.server_hit_p50_ms", "ms", served.quantile(0.5) * 1e3,
                 "serve-request-seconds{verb=analyze}, hit-only burst, n=" +
                     std::to_string(served.count) + "; client-side p50 " +
                     std::to_string(nearest_rank(client_hit_ms, 0.5)) + " ms");
  }
  obs::TraceRecorder::global().disable();
  report.check("hit-only burst was served from the cache",
               burst_hits == kHitBurst, std::to_string(burst_hits));
  report.layer("exec.concurrency", "threads",
               static_cast<double>(probe_pool_concurrency()),
               "probe: distinct threads running pool tasks");
  check_connections(*instance, report);
  check_offline(*instance, report);
  instance->stop();
}

}  // namespace perfbench
