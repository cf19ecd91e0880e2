// Chunked thread pool with a blocking parallel_for.
//
// The pool hands loop indices to workers through a shared atomic cursor, so
// a worker that finishes its chunk immediately steals the next unclaimed one
// — load balance without per-index task objects. Combined with the
// counter-based PRNG streams in exec/stream.hpp this gives the Monte-Carlo
// estimators a parallel engine whose results do not depend on the thread
// count: each shard's randomness is a pure function of (seed, shard index),
// and shard accumulators combine through order-insensitive integer sums.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "exec/stream.hpp"
#include "util/sync.hpp"

namespace enb::exec {

// Worker count for the global pool: the ENB_THREADS environment variable
// when set to a positive integer, otherwise std::thread::hardware_concurrency
// (minimum 1).
[[nodiscard]] unsigned default_thread_count();

class ThreadPool {
 public:
  // Spawns `threads` workers (at least 1).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  // Runs fn(i) for every i in [0, count), distributing indices across the
  // workers plus the calling thread, and blocks until all are done. The
  // first exception thrown by any fn is rethrown in the caller. Reentrant
  // calls from inside a worker run the loop inline (no deadlock).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  // Process-wide shared pool, created on first use with
  // default_thread_count() workers.
  static ThreadPool& global();

 private:
  struct Job;

  void worker_loop();

  std::vector<std::thread> workers_;
  util::Mutex mutex_;
  util::CondVar work_cv_;  // workers wait here for a job
  util::CondVar done_cv_;  // parallel_for waits here for drain
  util::Mutex submit_mutex_;  // serializes concurrent parallel_fors
  Job* job_ ENB_GUARDED_BY(mutex_) = nullptr;
  bool stop_ ENB_GUARDED_BY(mutex_) = false;
};

// How a parallel loop maps onto threads — the single knob every layer routes
// through (the estimator overloads, the batch evaluator, the analysis front
// door). Per-estimator `Options::threads` members are deprecated in favour of
// passing one of these explicitly.
//   threads == 0: use the global pool (default);
//   threads == 1: run serially on the calling thread;
//   threads >= 2: run on a dedicated transient pool of that many workers
//                 (mainly for thread-count-independence tests).
// Results never depend on the choice: the Monte-Carlo substrates are
// bit-identical for any thread count.
struct Parallelism {
  unsigned threads = 0;

  [[nodiscard]] static constexpr Parallelism serial() noexcept { return {1}; }
  [[nodiscard]] static constexpr Parallelism global_pool() noexcept {
    return {0};
  }
  [[nodiscard]] static constexpr Parallelism dedicated(unsigned n) noexcept {
    return {n};
  }
};

// parallel_for under a policy. Serial execution visits indices in order;
// parallel execution visits them in an arbitrary order, so the body must
// only combine into shared state commutatively (or slot results by index).
void for_each_index(std::size_t count,
                    const std::function<void(std::size_t)>& fn,
                    const Parallelism& policy = {});

// The estimators' common idiom: run body(shard) for every shard of `plan`.
// The body owns its shard-local state (simulators, accumulators, a PRNG
// seeded from stream_seed(seed, shard.index)) and must merge into shared
// totals commutatively.
inline void for_each_shard(const ShardPlan& plan,
                           const std::function<void(const Shard&)>& body,
                           const Parallelism& policy = {}) {
  for_each_index(
      plan.num_shards(), [&](std::size_t i) { body(plan.shard(i)); }, policy);
}

}  // namespace enb::exec
