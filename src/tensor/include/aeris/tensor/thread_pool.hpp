#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aeris {

/// Fixed-size worker pool with a chunk-counter `parallel_for`.
///
/// Compute kernels (GEMM, attention, elementwise) split their iteration
/// space into chunks claimed from a shared atomic counter; the calling
/// thread participates, so a pool of size 1 degenerates to serial
/// execution with no synchronization overhead. Dispatch publishes a single
/// job descriptor and bumps an epoch — no per-chunk queue or mutex — so
/// the fork-join cost is one notify plus one atomic claim per chunk. The
/// `grain` parameter lets small kernels run inline instead of paying even
/// that.
///
/// The pool runs one job at a time. A dispatcher that finds it busy —
/// another thread is mid-job, or a chunk body dispatches recursively —
/// runs its range inline on its own thread, so any number of threads may
/// call parallel_for concurrently.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }

  /// Runs fn(begin, end) over [0, n) split into chunks of at least
  /// min(grain, n) iterations, blocking until all chunks complete.
  /// Exceptions from chunks propagate (the first one captured is rethrown
  /// on the caller). When n <= grain, the pool has one thread or another
  /// job holds the pool, the call runs inline.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t, std::int64_t)>& fn,
                    std::int64_t grain = 1);

  /// Process-wide pool sized from std::thread::hardware_concurrency().
  static ThreadPool& global();

 private:
  void worker_loop();
  // Claims and runs chunks of the current job until it is exhausted.
  void run_chunks();

  std::vector<std::thread> workers_;
  std::atomic<bool> busy_{false};  // a job is published and not yet joined
  std::mutex mutex_;  // guards job publication + epoch/stop signaling
  std::condition_variable cv_;       // workers: "a new job was published"
  std::condition_variable done_cv_;  // caller: "the last chunk finished"
  std::uint64_t epoch_ = 0;          // guarded by mutex_
  bool stop_ = false;                // guarded by mutex_

  // Current job descriptor. Written under mutex_ before the epoch bump;
  // workers that claim a chunk id below job_limit_ are guaranteed (by the
  // acquire load of job_limit_) to observe these writes.
  const std::function<void(std::int64_t, std::int64_t)>* job_fn_ = nullptr;
  std::int64_t job_n_ = 0;
  std::int64_t job_chunk_ = 0;
  std::int64_t job_base_ = 0;  // first global chunk id of this job

  // Chunk ids are global and monotonic across jobs: a straggler observing
  // a stale job_limit_ simply sees "no work" and never consumes a chunk
  // that belongs to the next job.
  std::atomic<std::int64_t> next_chunk_{0};
  std::atomic<std::int64_t> done_chunks_{0};
  std::atomic<std::int64_t> job_limit_{0};

  std::exception_ptr error_;  // first chunk exception (guarded by err_mutex_)
  std::mutex err_mutex_;
};

/// Convenience wrapper over the global pool.
void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& fn,
                  std::int64_t grain = 1);

/// Grain for a memory-bound loop whose iterations each read and write
/// `bytes_per_item` bytes: every chunk touches at least 1 MiB, so a pass
/// touching less (a norm over one 32x64 member at dim 64, any pass over a
/// small serving pack) runs inline and only larger passes pay a pool
/// wake-up.
std::int64_t grain_for_bytes(std::int64_t bytes_per_item);

/// While alive on a thread, every parallel_for issued from that thread runs
/// inline on the caller instead of dispatching to the pool.
///
/// Application-level threading (e.g. the parallel ensemble engine, whose
/// workers each run whole forward passes) uses it to keep every kernel on
/// its own thread instead of racing the other workers for the pool.
/// Results are unchanged: kernels split only independent output rows
/// across chunks (GEMM M-strips, attention (batch, head) problems, norm
/// rows), so inline execution is bitwise-identical to pooled execution.
///
/// Guards nest; the region ends when the outermost guard is destroyed.
class SerialRegionGuard {
 public:
  SerialRegionGuard();
  ~SerialRegionGuard();
  SerialRegionGuard(const SerialRegionGuard&) = delete;
  SerialRegionGuard& operator=(const SerialRegionGuard&) = delete;
};

/// True while the calling thread is inside a SerialRegionGuard.
bool in_serial_region();

}  // namespace aeris
