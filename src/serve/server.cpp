#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/kinds.hpp"
#include "exec/batch.hpp"
#include "gen/suite.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/table.hpp"

namespace enb::serve {

namespace {

// Known verbs get their own metric label; everything else aggregates under
// "other" so a hostile client cannot grow the label space unboundedly.
const char* metric_verb(const std::string& verb) {
  static const char* const known[] = {"ping",  "load",    "analyze",
                                      "batch", "stats",   "metrics",
                                      "evict", "shutdown"};
  for (const char* v : known) {
    if (verb == v) return v;
  }
  return "other";
}

// Per-request observability: a span under the session span, an admission
// counter, and the per-verb latency histogram observed on every exit path
// (ok, error reply, disconnect).
class RequestObservation {
 public:
  RequestObservation(const std::string& verb, obs::SpanHandle session)
      : span_("serve-request", session, verb),
        histogram_(obs::Registry::global().histogram("serve-request-seconds",
                                                     "verb",
                                                     metric_verb(verb))),
        start_(std::chrono::steady_clock::now()) {
    obs::Registry::global()
        .counter("serve-requests-total", "verb", metric_verb(verb))
        .add(1);
  }

  ~RequestObservation() {
    histogram_.observe(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
  }

  RequestObservation(const RequestObservation&) = delete;
  RequestObservation& operator=(const RequestObservation&) = delete;

 private:
  obs::Span span_;
  obs::Histogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

std::string hex16(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << std::setfill('0') << std::setw(16) << value;
  return out.str();
}

void send_frame(ByteStream& stream, const Frame& frame) {
  write_frame(stream, frame);
}

void send_ok(ByteStream& stream) { send_frame(stream, Frame{"ok", {}, {}}); }

void send_error(ByteStream& stream, const std::string& message) {
  Frame frame;
  frame.verb = "error";
  frame.payload = message;
  send_frame(stream, frame);
}

// Header values must be printable ASCII without spaces; job names come from
// user manifests and may not be (UTF-8 bytes survive the offline path).
// The header copy is display-only — the result's exact name rides in the
// JSON payload — so degrade unrepresentable bytes instead of failing the
// frame write mid-stream.
std::string header_token(const std::string& text) {
  std::string token = text;
  for (char& c : token) {
    if (c <= ' ' || c > '~') c = '?';
  }
  if (token.empty()) token = "-";
  return token;
}

Frame result_frame(const analysis::AnalysisResult& result, bool cached) {
  Frame frame;
  frame.verb = "result";
  frame.add("index", std::to_string(result.index));
  frame.add("name", header_token(result.name));
  frame.add("kind", analysis::to_string(result.kind));
  frame.add("ok", result.ok ? "1" : "0");
  frame.add("cached", cached ? "1" : "0");
  // The headline, so a client can print a summary table without parsing
  // JSON (the same one the offline batch table leads with).
  if (const auto headline = analysis::headline(result)) {
    frame.add("hmetric", headline->first);
    frame.add("hvalue", report::format_double(headline->second, 6));
  }
  std::ostringstream payload;
  exec::write_result_json(payload, result);
  frame.payload = payload.str();
  return frame;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      registry_(options_.max_handles),
      cache_(options_.max_results) {}

Server::~Server() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
}

bool Server::stopping() const {
  return stop_.load(std::memory_order_relaxed) ||
         (options_.external_stop != nullptr &&
          options_.external_stop->load(std::memory_order_relaxed));
}

void Server::request_stop() { stop_.store(true, std::memory_order_relaxed); }

void Server::bind() {
  if (options_.socket_path.empty()) {
    throw std::runtime_error("serve: socket path must not be empty");
  }
  sockaddr_un addr{};
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long (limit " +
                             std::to_string(sizeof(addr.sun_path) - 1) +
                             " bytes): " + options_.socket_path);
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("serve: socket() failed: ") +
                             std::strerror(errno));
  }
  // A previous daemon that exited uncleanly leaves its socket file behind;
  // rebinding the path is this tool's "restart" story.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string message = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot bind " + options_.socket_path +
                             ": " + message);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string message = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: listen() failed: " + message);
  }
}

void Server::run() {
  if (listen_fd_ < 0) {
    throw std::logic_error("serve: run() before bind()");
  }
  while (!stopping()) {
    pollfd poll_fd{};
    poll_fd.fd = listen_fd_;
    poll_fd.events = POLLIN;
    // Short poll timeout: the loop re-checks the stop flags (the shutdown
    // verb or the CLI's signal handler) between accepts.
    const int ready = ::poll(&poll_fd, 1, 50);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    if (stopping()) {
      // Raced with a stop request: the connection is turned away unserved.
      static obs::Counter& rejected =
          obs::Registry::global().counter("serve-admission-rejected-total");
      rejected.add(1);
      ::close(fd);
      break;
    }
    {
      // Spawn while holding the lock: the session's own end-of-life erase
      // needs this same lock, so its thread handle is registered in
      // sessions_ before the session can possibly retire.
      const util::LockGuard lock(mutex_);
      sessions_.emplace(fd, std::thread(&Server::session, this, fd));
      ++sessions_total_;
    }
    // Join sessions that ended since the last accept, so idle churn does
    // not accumulate finished thread handles.
    reap_retired();
  }

  // Stop accepted: force open sessions off their sockets (in-flight
  // evaluations finish; subsequent reads see EOF), wait for the session
  // table to drain, then join every session thread.
  {
    const util::LockGuard lock(mutex_);
    for (const auto& [fd, thread] : sessions_) ::shutdown(fd, SHUT_RDWR);
  }
  {
    util::UniqueLock lock(mutex_);
    idle_cv_.wait(lock, [this] {
      mutex_.assert_held();
      return sessions_.empty();
    });
  }
  reap_retired();

  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
}

void Server::session(int fd) {
  static obs::Counter& sessions_counter =
      obs::Registry::global().counter("serve-sessions-total");
  static obs::Counter& bytes_in =
      obs::Registry::global().counter("serve-bytes-in-total");
  static obs::Counter& bytes_out =
      obs::Registry::global().counter("serve-bytes-out-total");
  static obs::Gauge& sessions_gauge =
      obs::Registry::global().gauge("serve-sessions-active");
  sessions_counter.add(1);
  sessions_gauge.add(1.0);
  const obs::Span session_span("serve-session", {},
                               "fd=" + std::to_string(fd));
  FdStream socket(fd);
  CountingStream stream(
      socket, [](std::size_t n) { bytes_in.add(n); },
      [](std::size_t n) { bytes_out.add(n); });
  FrameReader reader(stream);
  bool ending = false;
  while (!ending) {
    std::optional<Frame> frame;
    try {
      frame = reader.read_frame();
    } catch (const ProtocolError& e) {
      // The stream cannot be resynchronized after a framing violation:
      // report once (best effort) and hang up.
      try {
        send_error(stream, std::string("protocol error: ") + e.what());
      } catch (const ConnectionClosed&) {
      }
      break;
    } catch (const ConnectionClosed&) {
      break;
    }
    if (!frame.has_value()) break;  // clean EOF
    const RequestObservation observe(frame->verb, session_span.handle());
    try {
      ending = dispatch(*frame, stream);
    } catch (const ConnectionClosed&) {
      break;  // peer vanished mid-reply; session is over
    } catch (const std::exception& e) {
      // Application-level failure (bad arguments, unknown verb, unreadable
      // circuit): the framing is intact, so report and keep the session.
      try {
        send_error(stream, e.what());
      } catch (const ConnectionClosed&) {
        break;
      }
    }
  }
  {
    // Unregister *before* closing: once fd is closed the kernel may hand
    // the same number to a newly accepted connection, and erasing later
    // would drop that live session from the table (letting run() return —
    // and the server be destroyed — under it). A session thread cannot
    // join itself, so it parks its own handle in retired_ for run() to
    // reap. Move, erase and notify under one lock, and touch no Server
    // state after it releases.
    const util::LockGuard lock(mutex_);
    const auto it = sessions_.find(fd);
    if (it != sessions_.end()) {
      retired_.push_back(std::move(it->second));
      sessions_.erase(it);
    }
    idle_cv_.notify_all();
  }
  ::close(fd);
  sessions_gauge.add(-1.0);
}

void Server::reap_retired() {
  std::vector<std::thread> retired;
  {
    const util::LockGuard lock(mutex_);
    retired.swap(retired_);
  }
  // Join outside the lock: a retiring session is past its last Server
  // access, but may still be inside ::close().
  for (std::thread& thread : retired) thread.join();
}

bool Server::dispatch(const Frame& frame, ByteStream& stream) {
  {
    const util::LockGuard lock(mutex_);
    ++frames_;
    ++verb_counts_[metric_verb(frame.verb)];
  }
  if (frame.verb == "ping") {
    send_ok(stream);
    return false;
  }
  if (frame.verb == "load") {
    cmd_load(frame, stream);
    return false;
  }
  if (frame.verb == "analyze") {
    cmd_analyze(frame, stream);
    return false;
  }
  if (frame.verb == "batch") {
    cmd_batch(frame, stream);
    return false;
  }
  if (frame.verb == "stats") {
    cmd_stats(stream);
    return false;
  }
  if (frame.verb == "metrics") {
    cmd_metrics(stream);
    return false;
  }
  if (frame.verb == "evict") {
    cmd_evict(frame, stream);
    return false;
  }
  if (frame.verb == "shutdown") {
    send_ok(stream);
    request_stop();
    return true;
  }
  throw std::invalid_argument("unknown verb '" + frame.verb + "'");
}

analysis::CompiledCircuit Server::resolve_spec(const std::string& spec) {
  return registry_
      .get_or_load(spec,
                   [&] {
                     analysis::CompiledCircuit handle =
                         analysis::compile(gen::build_circuit_spec(spec));
                     if (options_.default_map_fanin > 0) {
                       handle = handle.mapped(options_.default_map_fanin);
                     }
                     return handle;
                   })
      .circuit;
}

void Server::cmd_load(const Frame& frame, ByteStream& stream) {
  const std::string spec = frame.required_arg("circuit");
  const std::string name = frame.arg("name").value_or(spec);
  int map_fanin = options_.default_map_fanin;
  if (const auto map = frame.uint_arg("map"); map.has_value()) {
    if (*map == 1 ||
        *map > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      throw std::invalid_argument(
          "load: argument 'map=' must be 0 (load as-is) or a fanin >= 2 "
          "that fits an int, got '" + std::to_string(*map) + "'");
    }
    map_fanin = static_cast<int>(*map);
  }
  analysis::CompiledCircuit handle =
      analysis::compile(gen::build_circuit_spec(spec));
  if (map_fanin > 0) handle = handle.mapped(map_fanin);
  // Copy, don't reference: once the handle moves into the registry another
  // session's evict can drop the last owner while this reply is built.
  const netlist::CircuitStats stats = handle.stats();
  const std::uint64_t fingerprint = handle.content_fingerprint();
  registry_.put(name, std::move(handle));

  Frame reply;
  reply.verb = "ok";
  reply.add("handle", name);
  reply.add("fingerprint", hex16(fingerprint));
  reply.add("gates", std::to_string(stats.num_gates));
  reply.add("inputs", std::to_string(stats.num_inputs));
  reply.add("outputs", std::to_string(stats.num_outputs));
  reply.add("depth", std::to_string(stats.depth));
  send_frame(stream, reply);
}

void Server::cmd_analyze(const Frame& frame, ByteStream& stream) {
  {
    const util::LockGuard lock(mutex_);
    ++queries_;
  }
  const std::string handle = frame.required_arg("handle");
  const std::string kind_name = frame.required_arg("kind");
  const auto kind = analysis::parse_analysis_kind(kind_name);
  if (!kind.has_value()) {
    throw std::invalid_argument("analyze: unknown kind '" + kind_name + "'");
  }
  // The request a one-line manifest would build: golden= is the request's
  // own key, every other argument goes through the kind's table row.
  analysis::AnalysisRequest request;
  request.name = frame.arg("name").value_or(handle);
  request.options = analysis::kind_info(*kind).defaults;
  std::optional<std::string> golden;
  for (const auto& [key, value] : frame.args) {
    if (key == "handle" || key == "kind" || key == "name") continue;
    if (key == "golden") {
      golden = value;
    } else {
      analysis::apply_key(request.options, key, value);
    }
  }
  request.circuit = resolve_spec(handle);
  if (golden.has_value()) request.golden = resolve_spec(*golden);
  std::vector<analysis::AnalysisRequest> requests;
  requests.push_back(std::move(request));
  run_requests(std::move(requests), stream);
}

void Server::cmd_batch(const Frame& frame, ByteStream& stream) {
  {
    const util::LockGuard lock(mutex_);
    ++queries_;
  }
  if (frame.payload.empty()) {
    throw std::invalid_argument("batch: manifest payload is empty");
  }
  std::istringstream in(frame.payload);
  std::vector<analysis::AnalysisRequest> requests =
      exec::parse_manifest_requests(in, [this](const std::string& spec) {
        return resolve_spec(spec);
      });
  if (requests.empty()) {
    throw std::invalid_argument("batch: manifest holds no jobs");
  }
  run_requests(std::move(requests), stream);
}

void Server::run_requests(std::vector<analysis::AnalysisRequest> requests,
                          ByteStream& stream) {
  const std::size_t total = requests.size();
  std::vector<std::string> keys(total);
  std::size_t cached_count = 0;
  std::size_t failed = 0;

  // Cache probe: every hit streams before any evaluation work starts — a
  // mostly-warm batch delivers its hits instantly instead of waiting
  // behind a cold request's extraction.
  exec::BatchEvaluator evaluator(options_.how);
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < total; ++i) {
    keys[i] = result_cache_key(requests[i]);
    if (auto hit = cache_.find(keys[i], requests[i].name, i)) {
      ++cached_count;
      {
        const util::LockGuard lock(mutex_);
        ++results_;
      }
      send_frame(stream, result_frame(*hit, /*cached=*/true));
      continue;
    }
    misses.push_back(i);
  }

  // Misses enter the evaluator's flattened shard space. Their profiles come
  // from the handle cache while the batch is prepared, which extracts once
  // per (handle, key) server-wide: a concurrent session asking for the same
  // profile waits on the handle's lock and reuses the extraction (distinct
  // keys extract in sequence, each itself parallel over the pool).
  std::vector<std::size_t> original_index;  // by evaluator submission index
  for (const std::size_t i : misses) {
    original_index.push_back(i);
    evaluator.submit(std::move(requests[i]));
  }

  // The socket-backed sink: results stream per-request in completion order.
  // The cache fill happens before the write, so a client that disconnects
  // mid-stream still warms the cache for the next one (its evaluation
  // finishes either way — the evaluator drains before rethrowing sink
  // errors).
  evaluator.run([&](analysis::AnalysisResult result) {
    result.index = original_index[result.index];
    if (result.ok) {
      cache_.store(keys[result.index], result);
    } else {
      ++failed;
    }
    {
      const util::LockGuard lock(mutex_);
      ++results_;
    }
    send_frame(stream, result_frame(result, /*cached=*/false));
  });

  Frame done;
  done.verb = "done";
  done.add("total", std::to_string(total));
  done.add("failed", std::to_string(failed));
  done.add("cached", std::to_string(cached_count));
  send_frame(stream, done);
}

void Server::cmd_stats(ByteStream& stream) {
  const RegistryStats registry = registry_.stats();
  const ResultCacheStats cache = cache_.stats();
  const ServerStats server = stats();

  Frame reply;
  reply.verb = "ok";
  reply.add("handles", std::to_string(registry.handles));
  reply.add("handle_loads", std::to_string(registry.loads));
  reply.add("handle_hits", std::to_string(registry.hits));
  reply.add("handle_evictions", std::to_string(registry.evictions));
  reply.add("profile_extractions",
            std::to_string(registry.profile_extractions));
  reply.add("result_entries", std::to_string(cache.entries));
  reply.add("result_hits", std::to_string(cache.hits));
  reply.add("result_misses", std::to_string(cache.misses));
  reply.add("result_stores", std::to_string(cache.stores));
  reply.add("result_evictions", std::to_string(cache.evictions));
  reply.add("sessions_total", std::to_string(server.sessions_total));
  reply.add("sessions_active", std::to_string(server.sessions_active));
  reply.add("frames", std::to_string(server.frames));
  reply.add("queries", std::to_string(server.queries));
  reply.add("results", std::to_string(server.results));
  reply.add("uptime_seconds", report::format_double(server.uptime_seconds, 3));
  for (const auto& [verb, count] : server.verbs) {
    reply.add("requests_" + verb, std::to_string(count));
  }
  send_frame(stream, reply);
}

void Server::cmd_metrics(ByteStream& stream) {
  // Mirror the shared-store and session counters into the registry as
  // gauges at scrape time, so one exposition covers the process-wide obs
  // instruments (serve verbs, exec shards, fault sweeps, analysis caches)
  // and the server's own stores. Gauges, not counters: these are samples of
  // state owned elsewhere.
  obs::Registry& reg = obs::Registry::global();
  const RegistryStats registry = registry_.stats();
  const ResultCacheStats cache = cache_.stats();
  const ServerStats server = stats();
  reg.gauge("serve-uptime-seconds").set(server.uptime_seconds);
  reg.gauge("serve-handle-registry-handles")
      .set(static_cast<double>(registry.handles));
  reg.gauge("serve-handle-registry-loads")
      .set(static_cast<double>(registry.loads));
  reg.gauge("serve-handle-registry-hits")
      .set(static_cast<double>(registry.hits));
  reg.gauge("serve-handle-registry-evictions")
      .set(static_cast<double>(registry.evictions));
  reg.gauge("serve-result-cache-entries")
      .set(static_cast<double>(cache.entries));
  reg.gauge("serve-result-cache-hits").set(static_cast<double>(cache.hits));
  reg.gauge("serve-result-cache-misses")
      .set(static_cast<double>(cache.misses));
  reg.gauge("serve-result-cache-stores")
      .set(static_cast<double>(cache.stores));
  reg.gauge("serve-result-frames").set(static_cast<double>(server.results));
  // serve-sessions-active is NOT mirrored here: session() up/down-tracks
  // that gauge live, and a scrape-time set() would stomp the tracking.

  Frame reply;
  reply.verb = "ok";
  reply.payload = reg.render_prometheus();
  send_frame(stream, reply);
}

void Server::cmd_evict(const Frame& frame, ByteStream& stream) {
  std::size_t evicted = 0;
  if (const auto handle = frame.arg("handle"); handle.has_value()) {
    evicted = registry_.evict(*handle) ? 1 : 0;
  } else {
    evicted = registry_.clear();
  }
  Frame reply;
  reply.verb = "ok";
  reply.add("evicted", std::to_string(evicted));
  send_frame(stream, reply);
}

ServerStats Server::stats() const {
  const util::LockGuard lock(mutex_);
  ServerStats s;
  s.sessions_total = sessions_total_;
  s.sessions_active = sessions_.size();
  s.frames = frames_;
  s.queries = queries_;
  s.results = results_;
  s.uptime_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started_)
                         .count();
  s.verbs.assign(verb_counts_.begin(), verb_counts_.end());
  return s;
}

}  // namespace enb::serve
