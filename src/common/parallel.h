// The parallel execution core: a fixed-size thread pool plus the
// ParallelFor / ParallelReduce helpers every parallel code path in the
// library is written against.
//
// Design notes:
//   * The pool is deliberately work-stealing-free: tasks go through one
//     mutex-guarded queue. Every hot loop in this library is a flat range
//     (vertices, CL-tree nodes, keyword candidates) that ParallelFor chops
//     into chunks claimed from a single atomic cursor, so queue contention
//     is one enqueue per worker per loop, not per item.
//   * The calling thread participates: ParallelFor claims chunks on the
//     caller too, so a loop makes progress even when every worker is busy
//     with someone else's loop, and a pool of 0 threads degenerates to the
//     plain sequential loop.
//   * Nested ParallelFor calls run inline on the worker that issued them
//     (detected via a thread-local flag). This cannot deadlock: a worker
//     never blocks waiting for pool capacity.
//   * Determinism: chunk boundaries depend only on (range, grain), never on
//     thread count or timing, so ParallelReduce combines per-chunk results
//     in ascending chunk order and yields bit-identical results for any
//     pool size — including floating-point reductions.
//
// Exception propagation rules:
//   * A body passed to ParallelFor / ParallelReduce may throw. The FIRST
//     exception (in completion order) is captured; the loop stops claiming
//     new chunks, drains already-running chunks, and rethrows the captured
//     exception on the calling thread. Later exceptions are swallowed.
//   * Work submitted directly through ThreadPool::Submit must not throw:
//     there is nowhere to deliver the exception, so the task wrapper
//     terminates the process (fail fast beats silent loss).
//
// Pool sizing: DefaultPool() is a process-wide lazily-created pool sized by
// the CEXPLORER_THREADS environment variable when it is a number (0 or 1
// disables parallelism), else std::thread::hardware_concurrency(), capped
// at kMaxDefaultThreads.

#ifndef CEXPLORER_COMMON_PARALLEL_H_
#define CEXPLORER_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cexplorer {

/// Fixed-size thread pool. Construction spawns the workers; destruction
/// drains the queue and joins them. Thread-safe.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. 0 is valid: Submit still works (tasks
  /// run... never — callers must check num_threads(); ParallelFor does and
  /// runs inline instead).
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Waits for queued tasks to finish, then joins the workers.
  ~ThreadPool();

  /// Number of worker threads.
  std::size_t num_threads() const { return threads_.size(); }

  /// Enqueues a task. The task must not throw (see the exception rules in
  /// the file header). Safe to call from any thread, including workers.
  void Submit(std::function<void()> task);

  /// True iff the calling thread is a worker of ANY ThreadPool. Used to
  /// run nested parallel loops inline instead of deadlocking on pool
  /// capacity.
  static bool InWorker();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

/// The process-wide default pool, created on first use and never destroyed
/// (workers are idle when unused; tearing a pool down during static
/// destruction races with late tasks). Sized by CEXPLORER_THREADS when set,
/// else hardware_concurrency(). Returns nullptr when that size is <= 1 —
/// callers treat nullptr as "run sequentially".
ThreadPool* DefaultPool();

/// The thread count DefaultPool() was (or would be) sized with.
std::size_t DefaultThreadCount();

/// Ceiling on the default pool size, whatever CEXPLORER_THREADS or the
/// hardware report.
inline constexpr std::size_t kMaxDefaultThreads = 256;

/// The default pool size for a CEXPLORER_THREADS value (`text`, nullptr
/// when unset): the value when the whole string is a non-negative decimal
/// number, else `fallback`; either way clamped to kMaxDefaultThreads.
std::size_t ThreadCountFromSetting(const char* text, std::size_t fallback);

namespace internal {

/// Runs fn(lo, hi) over [begin, end) split into chunks of at most
/// `chunk_size`, on `pool` with caller participation. Rethrows the first
/// body exception. `fn` must be safe to invoke concurrently.
void ParallelForChunked(std::size_t begin, std::size_t end,
                        std::size_t chunk_size, ThreadPool* pool,
                        const std::function<void(std::size_t, std::size_t)>& fn);

/// Chunk size for n items: at least `grain`, and coarse enough that the
/// range yields a bounded number of chunks (amortizing the atomic claim).
/// Depends only on (n, grain) — NEVER on thread count — which is what
/// makes ParallelReduce's chunking (and thus floating-point reductions)
/// identical across pool sizes.
std::size_t PickChunkSize(std::size_t n, std::size_t grain);

}  // namespace internal

/// Parallel loop over [begin, end): body(i) for every index, any order.
/// Runs inline when `pool` is null, has no workers, the range is tiny, or
/// the caller is itself a pool worker (nested loop). Blocks until every
/// index is done; rethrows the first exception thrown by `body`.
template <typename Body>
void ParallelFor(std::size_t begin, std::size_t end, ThreadPool* pool,
                 Body&& body, std::size_t grain = 1) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n == 0) return;
  if (pool == nullptr || pool->num_threads() == 0 || n <= grain ||
      ThreadPool::InWorker()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t chunk = internal::PickChunkSize(n, grain);
  internal::ParallelForChunked(begin, end, chunk, pool,
                               [&body](std::size_t lo, std::size_t hi) {
                                 for (std::size_t i = lo; i < hi; ++i) body(i);
                               });
}

/// Parallel reduction over [begin, end): `map`(lo, hi) produces one partial
/// result per chunk, combined left-to-right in chunk order by
/// `reduce`(acc, partial) starting from `identity`. Chunking depends only
/// on the range and `grain`, so the result is identical for every pool
/// size (sequential included). Rethrows the first exception from `map`.
template <typename T, typename MapFn, typename ReduceFn>
T ParallelReduce(std::size_t begin, std::size_t end, T identity, MapFn&& map,
                 ReduceFn&& reduce, ThreadPool* pool, std::size_t grain = 1) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n == 0) return identity;
  const std::size_t threads = pool == nullptr ? 0 : pool->num_threads();
  const std::size_t chunk = internal::PickChunkSize(n, grain);
  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  if (threads == 0 || num_chunks <= 1 || ThreadPool::InWorker()) {
    T acc = std::move(identity);
    for (std::size_t lo = begin; lo < end; lo += chunk) {
      acc = reduce(std::move(acc), map(lo, std::min(lo + chunk, end)));
    }
    return acc;
  }
  std::vector<T> partials(num_chunks, identity);
  internal::ParallelForChunked(
      begin, end, chunk, pool,
      [&](std::size_t lo, std::size_t hi) {
        partials[(lo - begin) / chunk] = map(lo, hi);
      });
  T acc = std::move(identity);
  for (auto& partial : partials) acc = reduce(std::move(acc), std::move(partial));
  return acc;
}

}  // namespace cexplorer

#endif  // CEXPLORER_COMMON_PARALLEL_H_
