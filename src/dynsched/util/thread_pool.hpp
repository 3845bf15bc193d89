// Fixed-size thread pool.
//
// Used where the framework has parallel work: running independent ILP
// instances of an offline study, and handling the server's connections
// (each solves its request on the worker). The design follows the C++ Core
// Guidelines concurrency rules: RAII joins all workers (CP.23-style joining
// threads), tasks communicate results via futures rather than shared
// mutable state.
//
// Workers start spread over the CPUs the process may use, beginning after
// the creating thread's CPU (workerStartCpu). A new thread otherwise starts
// on its creator's CPU, and where the kernel does not balance load (a
// cpuset with sched_load_balance off) all workers stay there and run one
// at a time. Each worker moves to its CPU once and then allows every CPU
// again, so it is placed, not pinned.
//
// Locking discipline (checked by -Wthread-safety): `mutex_` guards the task
// queue and the stop flag; it is never held while running a task or joining
// a worker, and no other dynsched capability is ever acquired under it.
#pragma once

#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <vector>

#include "dynsched/util/error.hpp"
#include "dynsched/util/mutex.hpp"
#include "dynsched/util/thread_annotations.hpp"

namespace dynsched::util {

/// The CPU a pool's index-th worker starts on: `allowed` (ascending,
/// non-empty) taken in order from the first CPU above `creatorCpu`, wrapping
/// around, so the creator's own CPU comes last.
int workerStartCpu(const std::vector<int>& allowed, int creatorCpu,
                   unsigned index);

class ThreadPool {
 public:
  /// Spawns `threads` workers (>=1). Default: hardware concurrency.
  explicit ThreadPool(unsigned threads = std::thread::hardware_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Drains the queue and joins all workers. Idempotent; racing submitters
  /// get a CheckError instead of a task that silently never runs. Must not
  /// be called from a worker thread (it would join itself).
  void shutdown() DYNSCHED_EXCLUDES(mutex_);

  /// Enqueues a task; the returned future yields its result (or exception).
  /// Throws CheckError once shutdown has begun — a task accepted after the
  /// stop would hold a future that never becomes ready.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>>
      DYNSCHED_EXCLUDES(mutex_) {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> result = packaged->get_future();
    {
      const MutexLock lock(mutex_);
      DYNSCHED_CHECK_MSG(!stopping_, "ThreadPool::submit after shutdown");
      queue_.emplace_back([packaged] { (*packaged)(); });
    }
    wake_.notify_one();
    return result;
  }

  /// Runs fn(i) for i in [0, count) on the pool and waits for completion.
  /// Every accepted task has finished by the time this returns — including
  /// the exceptional paths (a task threw, or a racing shutdown() rejected a
  /// later submit): queued tasks capture `fn` by reference, so unwinding
  /// past a live task would leave the workers calling a dangling callable.
  /// Exceptions from tasks are rethrown (the first one encountered, after
  /// all tasks finished); a submit rejection rethrows only when no task
  /// failed.
  void parallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn)
      DYNSCHED_EXCLUDES(mutex_);

 private:
  void workerLoop() DYNSCHED_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::deque<std::function<void()>> queue_ DYNSCHED_GUARDED_BY(mutex_);
  CondVar wake_;
  bool stopping_ DYNSCHED_GUARDED_BY(mutex_) = false;
};

}  // namespace dynsched::util
