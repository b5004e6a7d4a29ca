// Fixed-size thread pool for fanning out independent simulation probes.
//
// Deliberately simple -- no work stealing, no priorities, no resizing: the
// experiment layer's tasks are coarse (one discrete-event simulation each),
// so a single locked queue is nowhere near contention.  Guarantees:
//
//   * Submit() returns a std::future carrying the task's result; an
//     exception thrown by the task is captured and rethrown from get().
//   * The destructor drains the queue: every task submitted before
//     destruction runs to completion before the workers join.
//   * ParallelMap(n, jobs, fn) evaluates fn(0..n-1) on up to `jobs`
//     threads and returns the results ordered by index, so the output is
//     bit-identical to the serial loop for any thread count (fn must be a
//     pure function of its index).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace pe {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to at least one).
  explicit ThreadPool(std::size_t num_threads);

  // Drains all pending tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `fn` for execution.  The returned future yields fn's result,
  // or rethrows the exception fn exited with.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  // std::thread::hardware_concurrency(), floored at 1 (the standard allows
  // it to report 0 when the core count is unknowable).
  static std::size_t DefaultThreads();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

// Evaluates fn(i) for i in [0, n) with up to `jobs` threads and returns
// the results in index order.  jobs <= 1 (or n <= 1) runs inline with no
// pool at all, so the serial path stays allocation- and thread-free.  The
// first exception (by index order) propagates to the caller.
template <typename Fn>
auto ParallelMap(std::size_t n, int jobs, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(!std::is_void_v<R>, "ParallelMap requires a non-void result");
  std::vector<R> results;
  results.reserve(n);
  if (n <= 1 || jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) results.push_back(fn(i));
    return results;
  }
  ThreadPool pool(std::min(static_cast<std::size_t>(jobs), n));
  std::vector<std::future<R>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.Submit([&fn, i] { return fn(i); }));
  }
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

}  // namespace pe
