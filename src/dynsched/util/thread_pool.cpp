#include "dynsched/util/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include <sched.h>

namespace dynsched::util {

namespace {

/// The CPUs the calling thread may run on, ascending; empty when unknown.
std::vector<int> allowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Moves the calling thread to `cpu`, then allows it every CPU it was
/// allowed before.
void moveTo(int cpu) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) == 0) {
    (void)sched_setaffinity(0, sizeof allowed, &allowed);
  }
}

}  // namespace

int workerStartCpu(const std::vector<int>& allowed, int creatorCpu,
                   unsigned index) {
  DYNSCHED_CHECK(!allowed.empty());
  const auto first = static_cast<std::size_t>(
      std::upper_bound(allowed.begin(), allowed.end(), creatorCpu) -
      allowed.begin());
  return allowed[(first + index) % allowed.size()];
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = std::max(1u, threads);
  workers_.reserve(n);
  const std::vector<int> cpus = allowedCpus();
  const int creatorCpu = sched_getcpu();  // -1 when unknown
  for (unsigned i = 0; i < n; ++i) {
    const int cpu =
        cpus.size() > 1 ? workerStartCpu(cpus, creatorCpu, i) : -1;
    workers_.emplace_back([this, cpu] {
      if (cpu >= 0) moveTo(cpu);
      workerLoop();
    });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::workerLoop() {
  while (true) {
    std::function<void()> task;
    {
      const MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) wake_.wait(mutex_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  std::exception_ptr submitError;
  for (std::size_t i = 0; i < count; ++i) {
    try {
      futures.push_back(submit([&fn, i] { fn(i); }));
    } catch (...) {
      // A racing shutdown() rejected this task. The ones already accepted
      // still reference `fn` (and through it the caller's frame); they keep
      // draining on the workers, so this frame must not unwind past them.
      submitError = std::current_exception();
      break;
    }
  }
  // Wait for every accepted task before letting any exception escape — the
  // pre-fix code rethrew the first task failure mid-loop, unwinding while
  // later tasks still ran against the caller's (now destroyed) state.
  std::exception_ptr taskError;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (taskError == nullptr) taskError = std::current_exception();
    }
  }
  if (taskError != nullptr) std::rethrow_exception(taskError);
  if (submitError != nullptr) std::rethrow_exception(submitError);
}

}  // namespace dynsched::util
