//===- engine/ThreadPool.cpp - Fixed-size worker pool ---------------------===//

#include "engine/ThreadPool.h"

#include <algorithm>

using namespace eco;

namespace {

/// Which pool's task, on which lane, the current thread is running.
struct LaneBinding {
  const ThreadPool *Pool = nullptr;
  int Lane = -1;
};
thread_local LaneBinding CurrentBinding;

/// Binds the current thread to (Pool, Lane) for one task's duration.
class ScopedLane {
public:
  ScopedLane(const ThreadPool *Pool, int Lane) : Prev(CurrentBinding) {
    CurrentBinding = {Pool, Lane};
  }
  ~ScopedLane() { CurrentBinding = Prev; }
  ScopedLane(const ScopedLane &) = delete;
  ScopedLane &operator=(const ScopedLane &) = delete;

private:
  LaneBinding Prev;
};

} // namespace

ThreadPool::ThreadPool(int Jobs) : NumJobs(std::max(Jobs, 1)) {
  Workers.reserve(static_cast<size_t>(NumJobs) - 1);
  // Lane 0 is reserved for the submitting thread.
  for (int W = 1; W < NumJobs; ++W)
    Workers.emplace_back([this, W] { workerLoop(W); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock Lock(M);
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

size_t ThreadPool::drainQueue(int Lane) {
  size_t Ran = 0;
  MutexLock Lock(M);
  while (Batch && NextTask < Batch->size()) {
    size_t Task = NextTask++;
    const auto &Fn = (*Batch)[Task];
    Lock.unlock();
    {
      ScopedLane Bind(this, Lane);
      Fn(Lane);
    }
    ++Ran;
    Lock.lock();
    if (--Pending == 0) {
      Batch = nullptr;
      BatchDone.notify_all();
    }
  }
  return Ran;
}

void ThreadPool::workerLoop(int Lane) {
  while (true) {
    {
      MutexLock Lock(M);
      while (!Stopping && !(Batch && NextTask < Batch->size()))
        WorkReady.wait(Lock);
      if (Stopping)
        return;
    }
    drainQueue(Lane);
  }
}

void ThreadPool::runBatch(
    const std::vector<std::function<void(int)>> &Tasks) {
  if (Tasks.empty())
    return;
  int Outer = currentLane();
  if (NumJobs == 1 || Outer >= 0) {
    // Sequential pool, or a nested batch: Batch/Pending belong to the
    // in-flight outer batch, so run inline on this lane.
    int Lane = std::max(Outer, 0);
    ScopedLane Bind(this, Lane);
    for (const auto &Fn : Tasks)
      Fn(Lane);
    return;
  }
  {
    MutexLock Lock(M);
    Batch = &Tasks;
    NextTask = 0;
    Pending = Tasks.size();
  }
  WorkReady.notify_all();
  drainQueue(/*Lane=*/0);
  MutexLock Lock(M);
  while (Pending != 0)
    BatchDone.wait(Lock);
}

int ThreadPool::currentLane() const {
  return CurrentBinding.Pool == this ? CurrentBinding.Lane : -1;
}
