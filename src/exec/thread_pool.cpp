#include "exec/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/metrics.hpp"

namespace enb::exec {

namespace {

// The pool whose job the current thread is executing, if any. A reentrant
// parallel_for on the *same* pool runs inline instead of re-entering
// submit_mutex_ (self-deadlock); a nested call on a *different* pool (e.g. a
// dedicated Parallelism{N} pool created inside a global-pool job) still runs
// parallel — the two pools have disjoint workers, so progress is guaranteed.
thread_local const ThreadPool* t_current_pool = nullptr;

// Execution metrics, shared by every pool in the process. "Steals" are
// indices drained by pool workers — work the submitting thread posted and
// did not run inline itself. Queue depth counts submitted-but-undrained
// indices across in-flight jobs (balanced exactly even on error paths,
// because it moves per job, not per task).
struct PoolMetrics {
  obs::Counter& tasks = obs::Registry::global().counter("exec-tasks-total");
  obs::Counter& steals =
      obs::Registry::global().counter("exec-steal-tasks-total");
  obs::Counter& jobs =
      obs::Registry::global().counter("exec-parallel-jobs-total");
  obs::Gauge& queue_depth = obs::Registry::global().gauge("exec-queue-depth");
  obs::Histogram& task_seconds =
      obs::Registry::global().histogram("exec-task-seconds");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics metrics;
  return metrics;
}

// Runs one task index under the duration histogram. A throwing task is not
// observed — its caller's catch handles accounting for the job.
void timed_task(const std::function<void(std::size_t)>& fn, std::size_t i,
                bool stolen) {
  PoolMetrics& metrics = pool_metrics();
  const auto start = std::chrono::steady_clock::now();
  fn(i);
  const auto end = std::chrono::steady_clock::now();
  metrics.tasks.add(1);
  if (stolen) metrics.steals.add(1);
  metrics.task_seconds.observe(
      std::chrono::duration<double>(end - start).count());
}

void run_serial(std::size_t count, const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < count; ++i) timed_task(fn, i, /*stolen=*/false);
}

}  // namespace

unsigned default_thread_count() {
  if (const char* env = std::getenv("ENB_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<unsigned>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

struct ThreadPool::Job {
  std::atomic<std::size_t> next{0};
  std::size_t count = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<unsigned> running{0};  // workers currently inside the drain loop
  // First failure. Guarded by the pool's mutex_ — a relationship the
  // thread-safety analysis cannot express for a struct that outlives no
  // particular lock scope, so it is documented rather than annotated (the
  // TSan lane checks it dynamically).
  std::exception_ptr error;
};

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const util::LockGuard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      util::UniqueLock lock(mutex_);
      // Only wake for a job that still has unclaimed indices: once the range
      // is exhausted the predicate goes false again, so workers that finish
      // early block here instead of busy-spinning through the drain loop
      // while the submitter runs its last chunk.
      work_cv_.wait(lock, [&] {
        mutex_.assert_held();
        return stop_ ||
               (job_ != nullptr &&
                job_->next.load(std::memory_order_relaxed) < job_->count);
      });
      if (stop_) return;
      job = job_;
      job->running.fetch_add(1, std::memory_order_relaxed);
    }
    t_current_pool = this;
    for (;;) {
      const std::size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job->count) break;
      try {
        timed_task(*job->fn, i, /*stolen=*/true);
      } catch (...) {
        const util::LockGuard lock(mutex_);
        if (!job->error) job->error = std::current_exception();
        job->next.store(job->count, std::memory_order_relaxed);
      }
    }
    t_current_pool = nullptr;
    {
      // Decrement under the mutex so the submitter's running == 0 check
      // cannot miss the wakeup.
      const util::LockGuard lock(mutex_);
      job->running.fetch_sub(1, std::memory_order_acq_rel);
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1 || size() == 0 || t_current_pool == this) {
    run_serial(count, fn);
    return;
  }

  const util::LockGuard submit_lock(submit_mutex_);
  pool_metrics().jobs.add(1);
  pool_metrics().queue_depth.add(static_cast<double>(count));
  Job job;
  job.count = count;
  job.fn = &fn;
  {
    const util::LockGuard lock(mutex_);
    job_ = &job;
  }
  work_cv_.notify_all();

  // The submitting thread drains indices too, so progress never depends on
  // workers being scheduled promptly. While draining it counts as being in
  // this pool's job: a nested parallel_for on the same pool from the body
  // must run inline rather than re-enter submit_mutex_ (self-deadlock).
  const ThreadPool* previous_pool = t_current_pool;
  t_current_pool = this;
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) break;
    try {
      timed_task(fn, i, /*stolen=*/false);
    } catch (...) {
      const util::LockGuard lock(mutex_);
      if (!job.error) job.error = std::current_exception();
      job.next.store(job.count, std::memory_order_relaxed);
    }
  }
  t_current_pool = previous_pool;

  std::exception_ptr error;
  {
    util::UniqueLock lock(mutex_);
    job_ = nullptr;  // stop new workers from picking the job up
    done_cv_.wait(lock, [&] {
      return job.running.load(std::memory_order_acquire) == 0;
    });
    error = job.error;
  }
  pool_metrics().queue_depth.add(-static_cast<double>(count));
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

void for_each_index(std::size_t count,
                    const std::function<void(std::size_t)>& fn,
                    const Parallelism& policy) {
  if (policy.threads == 1) {
    run_serial(count, fn);
  } else if (policy.threads == 0) {
    ThreadPool::global().parallel_for(count, fn);
  } else {
    ThreadPool dedicated(policy.threads);
    dedicated.parallel_for(count, fn);
  }
}

}  // namespace enb::exec
