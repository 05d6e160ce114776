//===- engine/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool shaped for the evaluation engine's workload:
/// the search thread repeatedly submits a *batch* of independent candidate
/// evaluations and blocks until the whole batch finishes (the next search
/// decision depends on the costs). runBatch() lets the calling thread work
/// through the queue alongside the workers, so a pool built with N jobs
/// applies N-way parallelism with only N-1 resident worker threads.
///
/// The engine also runs whole variant searches as one batch, and a search
/// submits warm batches of its own; a runBatch() issued from inside a
/// running task therefore runs inline on the calling lane instead of
/// touching the in-flight batch.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_ENGINE_THREADPOOL_H
#define ECO_ENGINE_THREADPOOL_H

#include "support/Sync.h"

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace eco {

/// Runs batches of tasks on a fixed set of worker threads.
class ThreadPool {
public:
  /// \p Jobs: total parallelism (including the submitting thread).
  /// Jobs <= 1 creates no workers; batches then run inline.
  explicit ThreadPool(int Jobs);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total parallelism (workers + the batch-submitting thread).
  int jobs() const { return NumJobs; }

  /// Runs every task and returns when all have finished. The calling
  /// thread participates. Tasks receive a dense lane index in
  /// [0, jobs()) identifying which of the concurrent executors is
  /// running them — the engine uses it to pick a per-thread backend.
  /// A call from inside a task of this pool (a nested batch) runs its
  /// tasks inline, in order, on the calling task's lane: every lane may
  /// already be busy with the outer batch, and the lane index stays
  /// exclusive to one thread. Outside a task, only one thread may
  /// submit at a time.
  void runBatch(const std::vector<std::function<void(int)>> &Tasks);

  /// The lane of the calling thread while it runs a task of this pool
  /// (including inline batches), or -1 outside one.
  int currentLane() const;

private:
  void workerLoop(int Lane);
  /// Claims and runs queue entries until the queue drains; returns the
  /// number of tasks this call executed.
  size_t drainQueue(int Lane);

  int NumJobs;
  std::vector<std::thread> Workers;

  Mutex M{"engine.pool"};
  CondVar WorkReady; ///< workers wait for a batch
  CondVar BatchDone; ///< submitter waits for completion
  const std::vector<std::function<void(int)>> *Batch ECO_GUARDED_BY(M) =
      nullptr;
  size_t NextTask ECO_GUARDED_BY(M) = 0; ///< next unclaimed in *Batch
  /// Tasks claimed or unclaimed, not yet finished.
  size_t Pending ECO_GUARDED_BY(M) = 0;
  bool Stopping ECO_GUARDED_BY(M) = false;
};

} // namespace eco

#endif // ECO_ENGINE_THREADPOOL_H
