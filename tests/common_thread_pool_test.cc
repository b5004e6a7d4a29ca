#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pe {
namespace {

TEST(ThreadPool, RunsSubmittedTasksToCompletion) {
  std::atomic<int> counter{0};
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter, i] {
      counter.fetch_add(1, std::memory_order_relaxed);
      return i;
    }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ClampsZeroThreadsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.Submit([] { return 42; }).get(), 42);
}

TEST(ThreadPool, PropagatesTaskExceptionsThroughFutures) {
  std::future<int> ok;
  std::future<int> bad;
  {
    // Joined before the futures are read, so each worker is done with its
    // task before this thread touches the exception.  libstdc++ shares the
    // exception object through a refcount inside the (uninstrumented)
    // library, so ThreadSanitizer cannot see that ordering when a worker
    // drops its reference concurrently, and reports a false race.
    ThreadPool pool(2);
    ok = pool.Submit([] { return 1; });
    bad = pool.Submit(
        []() -> int { throw std::runtime_error("probe exploded"); });
  }
  EXPECT_EQ(ok.get(), 1);
  try {
    bad.get();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "probe exploded");
  }
}

TEST(ThreadPool, ExceptionDoesNotKillWorkers) {
  ThreadPool pool(1);
  pool.Submit([]() -> int { throw std::logic_error("boom"); });
  // The single worker survives the throw and runs the next task.
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&completed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        completed.fetch_add(1, std::memory_order_relaxed);
        return 0;
      });
    }
    // Destruction must wait for all 32, not discard the backlog.
  }
  EXPECT_EQ(completed.load(), 32);
}

TEST(ThreadPool, DefaultThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
}

TEST(ParallelMap, PreservesIndexOrder) {
  const auto squares =
      ParallelMap(50, 4, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 50u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ParallelMap, SerialAndParallelResultsAreIdentical) {
  auto fn = [](std::size_t i) { return 1.0 / (1.0 + static_cast<double>(i)); };
  const auto serial = ParallelMap(64, 1, fn);
  const auto parallel = ParallelMap(64, 8, fn);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelMap, EmptyInputYieldsEmptyOutput) {
  EXPECT_TRUE(ParallelMap(0, 4, [](std::size_t i) { return i; }).empty());
}

TEST(ParallelMap, PropagatesFirstExceptionByIndex) {
  try {
    ParallelMap(16, 4, [](std::size_t i) -> int {
      if (i % 2 == 1) {
        throw std::runtime_error("bad index " + std::to_string(i));
      }
      return static_cast<int>(i);
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "bad index 1");
  }
}

}  // namespace
}  // namespace pe
