// ThreadPool shutdown semantics. The concurrency tests here are the TSan
// regression suite for concurrent submit vs. shutdown: shutdown() is the
// exact code path the destructor runs, but keeps the object alive so racing
// submitters stay well-defined while the stop propagates.
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sched.h>

#include <gtest/gtest.h>

#include "dynsched/util/error.hpp"
#include "dynsched/util/thread_pool.hpp"

namespace dynsched::util {
namespace {

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] { return 1; }), CheckError);
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), CheckError);
}

TEST(ThreadPool, QueuedTasksDrainBeforeShutdownReturns) {
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  std::vector<std::future<void>> futures;
  futures.reserve(64);
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  pool.shutdown();
  EXPECT_EQ(ran.load(), 64);
  for (auto& f : futures) f.get();  // every accepted task ran
}

TEST(ThreadPool, ConcurrentSubmitDuringShutdown) {
  // Submitters hammer the pool while the main thread shuts it down. Every
  // submit must either hand back a future that becomes ready (task accepted
  // before the stop) or throw CheckError (stop won) — never hang or race.
  ThreadPool pool(4);
  std::atomic<bool> go{false};
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<int>>> futures(4);
  submitters.reserve(futures.size());
  for (std::size_t t = 0; t < futures.size(); ++t) {
    submitters.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < 200; ++i) {
        try {
          futures[t].push_back(pool.submit([i] { return i; }));
          accepted.fetch_add(1, std::memory_order_relaxed);
        } catch (const CheckError&) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          break;  // the pool is stopping; further submits also throw
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  pool.shutdown();
  for (auto& thread : submitters) thread.join();

  int completed = 0;
  for (auto& perThread : futures) {
    for (auto& f : perThread) {
      f.get();  // would block forever if an accepted task were dropped
      ++completed;
    }
  }
  EXPECT_EQ(completed, accepted.load());
}

TEST(ThreadPool, ParallelForJoinsAllTasksWhenOneThrows) {
  // Regression (found annotating the pool for -Wthread-safety): the old
  // parallelFor rethrew the first task exception mid-wait-loop, unwinding
  // the caller while later queued tasks still referenced its lambda and
  // data — a use-after-scope that ASan/TSan flag here if it comes back.
  // With 2 workers and 256 slow tasks the queue is guaranteed non-empty
  // when task 0's exception surfaces.
  ThreadPool pool(2);
  auto data = std::make_unique<std::vector<int>>(256, 0);
  std::atomic<int> ran{0};
  try {
    pool.parallelFor(256, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("boom");
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      (*data)[i] = 1;  // dangles if parallelFor unwound past live tasks
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected the task exception to be rethrown";
  } catch (const std::runtime_error&) {
  }
  // Safe to free only because parallelFor joined every accepted task.
  data.reset();
  EXPECT_EQ(ran.load(), 255);
}

TEST(ThreadPool, ParallelForJoinsAcceptedTasksWhenShutdownRaces) {
  // A shutdown racing the submit loop makes a later submit throw
  // CheckError; the tasks accepted before the stop keep draining on the
  // workers, so parallelFor must wait for them before rethrowing. The race
  // window is probabilistic — iterate; TSan/ASan catch any interleaving
  // where the old code unwound early.
  for (int iteration = 0; iteration < 20; ++iteration) {
    ThreadPool pool(2);
    auto data = std::make_unique<std::vector<int>>(512, 0);
    std::thread stopper([&pool] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      pool.shutdown();
    });
    try {
      pool.parallelFor(512, [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        (*data)[i] = 1;
      });
    } catch (const CheckError&) {
      // The stop won the race for some submit; every accepted task still
      // finished before the throw reached us.
    }
    data.reset();
    stopper.join();
  }
}

TEST(ThreadPool, ParallelForSurvivesConcurrentUse) {
  // Two threads drive parallelFor on the same pool concurrently — the
  // self-tuning step's usage pattern once steps run in parallel.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> drivers;
  drivers.reserve(2);
  for (int t = 0; t < 2; ++t) {
    drivers.emplace_back([&] {
      pool.parallelFor(100, [&total](std::size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& thread : drivers) thread.join();
  EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPool, WorkersStartAfterTheCreatorsCpu) {
  const std::vector<int> four{0, 1, 2, 3};
  // A pool made on CPU 1 puts its workers on 2, 3, 0, then back on 1.
  EXPECT_EQ(workerStartCpu(four, 1, 0), 2);
  EXPECT_EQ(workerStartCpu(four, 1, 1), 3);
  EXPECT_EQ(workerStartCpu(four, 1, 2), 0);
  EXPECT_EQ(workerStartCpu(four, 1, 3), 1);
  EXPECT_EQ(workerStartCpu(four, 1, 4), 2);
  // Gaps in the allowed set, and a creator outside it or unknown (-1).
  const std::vector<int> sparse{2, 5, 7};
  EXPECT_EQ(workerStartCpu(sparse, 5, 0), 7);
  EXPECT_EQ(workerStartCpu(sparse, 6, 0), 7);
  EXPECT_EQ(workerStartCpu(sparse, 7, 0), 2);
  EXPECT_EQ(workerStartCpu(sparse, -1, 0), 2);
  EXPECT_EQ(workerStartCpu(std::vector<int>{3}, 3, 5), 3);
}

TEST(ThreadPool, WorkersAreNotLeftPinned) {
  // A worker moves to its start CPU and then gets back every CPU its
  // creator may use.
  cpu_set_t creator;
  CPU_ZERO(&creator);
  ASSERT_EQ(sched_getaffinity(0, sizeof creator, &creator), 0);
  ThreadPool pool(4);
  std::vector<int> same(8, 0);
  pool.parallelFor(same.size(), [&](std::size_t i) {
    cpu_set_t worker;
    CPU_ZERO(&worker);
    same[i] = sched_getaffinity(0, sizeof worker, &worker) == 0 &&
              CPU_EQUAL(&worker, &creator);
  });
  EXPECT_EQ(same, std::vector<int>(8, 1));
}

}  // namespace
}  // namespace dynsched::util
