// enbound_served: the long-lived analysis daemon.
//
// The paper's workflow is "one design, many bound queries": sweeps over
// (eps, delta) and redundancy points repeatedly analyze the same compiled
// circuit. The offline CLI pays compile + profile extraction on every
// invocation; the server keeps both alive across requests — compiled
// handles in a named LRU registry, finished results in a cross-request
// cache — so a repeated sweep point costs one cache lookup and concurrent
// clients share one extraction by construction.
//
// One server owns one Unix domain socket. Each accepted connection becomes
// a session thread speaking the framed protocol (serve/protocol.hpp);
// sessions share the registry, the result cache, and the process-wide
// thread pool, and are otherwise isolated — a protocol violation or
// disconnect on one connection never disturbs another.
//
// Session verbs (client -> server):
//   load    circuit=<spec> [name=<id>] [map=K]
//           Compile (and map; K=0 -> as-is, default the server's fanin) a
//           suite circuit or .bench path and register it under `name`
//           (default: the spec). Reply:
//           ok handle=<id> fingerprint=<hex> gates=N inputs=N outputs=N
//              depth=N
//   analyze handle=<id> kind=<kind> [name=<id>] [golden=<spec>]
//           [key=value ...]
//           One request against a held handle — the manifest-line
//           vocabulary with circuit= replaced by handle=; every other
//           argument goes through the kind table (analysis/kinds.hpp), so
//           unknown keys are rejected there. Streams one `result` frame,
//           then `done`.
//   batch   payload=<manifest bytes>
//           A full job manifest. circuit=/golden= specs resolve against the
//           registry first and auto-load (with the server's default
//           mapping) on a miss. Streams a `result` frame per job as it
//           finishes — cache hits first — then `done`.
//   stats   Reply: ok with the registry / result-cache / session counters,
//           uptime_seconds, and per-verb request counters.
//   metrics Reply: ok whose payload is the Prometheus-style text exposition
//           of the process metrics registry (serve verbs, exec shards,
//           fault sweeps, analysis caches), with the registry/result-cache/
//           session counters mirrored in as gauges at scrape time.
//   evict   [handle=<id>]   Drop one named handle (reply ok evicted=0|1) or,
//           with no argument, every handle (reply ok evicted=<count>).
//   ping    Reply: ok.
//   shutdown
//           Reply ok, then stop the server: the accept loop exits, open
//           sessions are closed, run() returns.
//
// Server -> client frames:
//   result index=<i> name=<n> kind=<k> ok=0|1 cached=0|1
//          payload=<JSON object>
//          The payload is exactly exec::write_result_json's bytes — the
//          line the offline batch writer would emit — so a client
//          reassembling frames in index order reproduces `enbound_cli
//          batch --json` byte for byte.
//   done   total=<n> failed=<n> cached=<n>
//   ok     [key=value...]
//   error  payload=<message>
//
// Results stream in completion order (cached results immediately); payloads
// are bit-identical to the offline evaluator's by the determinism contract.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "util/sync.hpp"

namespace enb::serve {

struct ServerOptions {
  std::string socket_path;
  std::size_t max_handles = 64;
  std::size_t max_results = 4096;
  // Mapping applied when a circuit spec auto-loads (0 = analyze as-is);
  // matches the offline CLI's --map default so served batches reproduce
  // offline output byte for byte.
  int default_map_fanin = 3;
  exec::Parallelism how{};
  // Optional external stop request (the CLI's signal flag); polled by the
  // accept loop.
  const std::atomic<bool>* external_stop = nullptr;
};

struct ServerStats {
  std::uint64_t sessions_total = 0;
  std::uint64_t sessions_active = 0;
  std::uint64_t frames = 0;    // dispatched request frames
  std::uint64_t queries = 0;   // analyze + batch verbs
  std::uint64_t results = 0;   // result frames streamed
  double uptime_seconds = 0.0;  // since construction
  // Dispatched request frames by verb, sorted by verb name (unknown verbs
  // aggregate under "other").
  std::vector<std::pair<std::string, std::uint64_t>> verbs;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Creates, binds and listens on the Unix domain socket (replacing a stale
  // socket file at that path). Throws std::runtime_error on failure.
  // Separate from run() so callers can report readiness before blocking.
  void bind();

  // Accept loop: serves sessions until a `shutdown` verb, request_stop(),
  // or the external stop flag. Joins every session before returning and
  // removes the socket file. Call bind() first.
  void run();

  // Asks run() to return: stops accepting and closes open sessions (their
  // in-flight evaluations finish first). Callable from any thread.
  void request_stop();

  [[nodiscard]] const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }

  // Shared-store and session counters (the `stats` verb's numbers).
  [[nodiscard]] RegistryStats registry_stats() const {
    return registry_.stats();
  }
  [[nodiscard]] ResultCacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] ServerStats stats() const;

 private:
  void session(int fd);
  // Dispatches one frame; returns true when the session must end
  // (shutdown). Throws ConnectionClosed if the peer vanishes mid-reply and
  // std::exception for application errors (sent back as `error` frames by
  // the caller).
  bool dispatch(const Frame& frame, ByteStream& stream);

  void cmd_load(const Frame& frame, ByteStream& stream);
  void cmd_analyze(const Frame& frame, ByteStream& stream);
  void cmd_batch(const Frame& frame, ByteStream& stream);
  void cmd_stats(ByteStream& stream);
  // Prometheus-style text exposition of the process metrics registry, with
  // the registry/result-cache/session counters mirrored in as gauges at
  // scrape time. Reply: ok frame whose payload is the exposition text.
  void cmd_metrics(ByteStream& stream);
  void cmd_evict(const Frame& frame, ByteStream& stream);

  // Shared by analyze/batch: probe the cache, evaluate the misses, stream
  // `result` frames (cached first) and the closing `done` frame.
  void run_requests(std::vector<analysis::AnalysisRequest> requests,
                    ByteStream& stream);

  // Registry-first circuit spec resolution with auto-load.
  [[nodiscard]] analysis::CompiledCircuit resolve_spec(const std::string& spec);

  [[nodiscard]] bool stopping() const;

  // Joins every thread a finished session has parked in retired_. Runs in
  // the accept loop (so handles do not pile up) and once after the session
  // table drains.
  void reap_retired();

  ServerOptions options_;
  HandleRegistry registry_;
  ResultCache cache_;

  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};

  mutable util::Mutex mutex_;
  util::CondVar idle_cv_;
  // Live sessions by fd, each owning its thread. A session thread cannot
  // join itself, so at end-of-life it moves its own handle to retired_ for
  // the accept loop to reap; run() returns only after sessions_ drains and
  // retired_ is joined — no thread ever outlives the server.
  std::unordered_map<int, std::thread> sessions_ ENB_GUARDED_BY(mutex_);
  std::vector<std::thread> retired_ ENB_GUARDED_BY(mutex_);
  std::uint64_t sessions_total_ ENB_GUARDED_BY(mutex_) = 0;
  std::uint64_t frames_ ENB_GUARDED_BY(mutex_) = 0;
  std::uint64_t queries_ ENB_GUARDED_BY(mutex_) = 0;
  std::uint64_t results_ ENB_GUARDED_BY(mutex_) = 0;
  std::map<std::string, std::uint64_t> verb_counts_ ENB_GUARDED_BY(mutex_);
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

}  // namespace enb::serve
