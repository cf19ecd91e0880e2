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
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
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
// through (the estimator entry points, the batch evaluator, the handle's
// profile cache).
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

// One sharded estimator, written once. run_shard(i) computes shard i and
// merges it into the job's own state (under the job's lock, or into a slot
// of its own); finish() reduces the merged state into the result once every
// shard has run, and is called at most once. Serial work belongs in
// finish() too: exec::run calls it on the calling thread after the pool job
// returns, so it never holds the pool. Each module has one factory that
// validates its inputs and builds the job (sim::activity_job,
// fault::campaign_job, core::profile_job, ...). exec::run drives a job
// directly; the batch evaluator interleaves its shards with other requests'
// in one task space. Both paths run the same shard bodies and the same
// reduction, so they are bit-identical by construction. The job holds
// references to the circuits it was built from, which must outlive it.
template <typename R>
struct ShardedJob {
  std::size_t num_shards = 0;
  std::function<void(std::size_t)> run_shard;
  std::function<R()> finish;
};

// Runs every shard of `job` under `how`, then finishes it.
template <typename R>
R run(const ShardedJob<R>& job, const Parallelism& how = {}) {
  for_each_index(job.num_shards, job.run_shard, how);
  return job.finish();
}

// The common job shape: shard(i) returns its Counts, which merge into a
// running total started from `zero` under one lock; finish(total) turns the
// merged counts into the result. Counts needs a merge(const Counts&) member
// that is commutative, so shard completion order never reaches the total.
template <typename Counts, typename ShardFn, typename FinishFn>
auto merging_job(std::size_t num_shards, Counts zero, ShardFn shard,
                 FinishFn finish)
    -> ShardedJob<std::invoke_result_t<FinishFn&, Counts>> {
  struct Total {
    explicit Total(Counts start) : counts(std::move(start)) {}
    util::Mutex mutex;
    Counts counts ENB_GUARDED_BY(mutex);
  };
  auto total = std::make_shared<Total>(std::move(zero));
  return {num_shards,
          [total, shard = std::move(shard)](std::size_t i) {
            const Counts local = shard(i);
            const util::LockGuard lock(total->mutex);
            total->counts.merge(local);
          },
          [total, finish = std::move(finish)] {
            util::UniqueLock lock(total->mutex);
            Counts merged = std::move(total->counts);
            lock.unlock();
            return finish(std::move(merged));
          }};
}

// A one-shard job whose shard computes the whole result. The shard's write
// and finish()'s read are ordered by whoever runs the job (the pool's join,
// or the batch's completion count).
template <typename F>
auto single_job(F compute) -> ShardedJob<std::invoke_result_t<F&>> {
  using R = std::invoke_result_t<F&>;
  auto slot = std::make_shared<std::optional<R>>();
  return {1,
          [slot, compute = std::move(compute)](std::size_t) {
            *slot = compute();
          },
          [slot] { return std::move(**slot); }};
}

}  // namespace enb::exec
