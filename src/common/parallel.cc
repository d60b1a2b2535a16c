#include "common/parallel.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>

namespace cexplorer {

namespace {

/// Set while the current thread is executing a pool task.
thread_local bool t_in_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::InWorker() { return t_in_worker; }

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: a ParallelFor caller may be
      // blocked on chunks that are still queued.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // must not throw (see header); an escape terminates
  }
}

std::size_t ThreadCountFromSetting(const char* text, std::size_t fallback) {
  std::size_t count = fallback;
  if (text != nullptr) {
    const std::string_view s(text);
    std::size_t parsed = 0;
    const auto [end, ec] =
        std::from_chars(s.data(), s.data() + s.size(), parsed);
    // from_chars takes no sign or whitespace; a number too large for
    // size_t is still a number, and clamps like any other.
    if (end == s.data() + s.size() && ec != std::errc::invalid_argument) {
      count = ec == std::errc() ? parsed : kMaxDefaultThreads;
    }
  }
  return std::min(count, kMaxDefaultThreads);
}

std::size_t DefaultThreadCount() {
  static const std::size_t count = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return ThreadCountFromSetting(std::getenv("CEXPLORER_THREADS"),
                                  hw == 0 ? 1 : hw);
  }();
  return count;
}

ThreadPool* DefaultPool() {
  // Leaked on purpose: workers must outlive every static-destruction-order
  // user, and an idle pool costs nothing but its stacks.
  static ThreadPool* pool = [] {
    const std::size_t threads = DefaultThreadCount();
    return threads <= 1 ? nullptr : new ThreadPool(threads);
  }();
  return pool;
}

namespace internal {

std::size_t PickChunkSize(std::size_t n, std::size_t grain) {
  if (grain == 0) grain = 1;
  // ~64 chunks per loop: enough slack for load balancing on any sane pool
  // size while keeping claim overhead negligible. Intentionally NOT a
  // function of thread count — see the determinism note in the header.
  const std::size_t target = n / 64 + 1;
  return std::max(grain, target);
}

void ParallelForChunked(
    std::size_t begin, std::size_t end, std::size_t chunk_size,
    ThreadPool* pool,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  struct State {
    std::atomic<std::size_t> next;
    std::size_t end;
    std::size_t chunk;
    const std::function<void(std::size_t, std::size_t)>* fn;

    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t inflight_workers = 0;
    std::exception_ptr error;

    /// Claims and runs chunks until the range (or an error) exhausts them.
    void Drain() {
      for (;;) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (error != nullptr) return;  // stop claiming after a throw
        }
        const std::size_t lo = next.fetch_add(chunk, std::memory_order_relaxed);
        if (lo >= end) return;
        const std::size_t hi = std::min(lo + chunk, end);
        try {
          (*fn)(lo, hi);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (error == nullptr) error = std::current_exception();
          return;
        }
      }
    }
  };

  State state;
  state.next.store(begin, std::memory_order_relaxed);
  state.end = end;
  state.chunk = chunk_size;
  state.fn = &fn;

  const std::size_t n = end - begin;
  const std::size_t num_chunks = (n + chunk_size - 1) / chunk_size;
  // One helper task per worker, capped by chunk count (the caller is the
  // +1st participant). Tasks that arrive after the cursor is exhausted
  // return immediately.
  const std::size_t helpers =
      std::min(pool->num_threads(), num_chunks > 0 ? num_chunks - 1 : 0);
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.inflight_workers = helpers;
  }
  for (std::size_t i = 0; i < helpers; ++i) {
    pool->Submit([&state] {
      state.Drain();
      std::lock_guard<std::mutex> lock(state.mu);
      if (--state.inflight_workers == 0) state.done_cv.notify_all();
    });
  }

  state.Drain();

  std::unique_lock<std::mutex> lock(state.mu);
  state.done_cv.wait(lock, [&state] { return state.inflight_workers == 0; });
  if (state.error != nullptr) std::rethrow_exception(state.error);
}

}  // namespace internal

}  // namespace cexplorer
