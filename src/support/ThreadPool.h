//===- support/ThreadPool.h - Shared-index thread pool ---------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small thread pool for the parallel PRE pipeline, which fans out one
/// task per function.
///
/// The scheduling unit is a `parallelFor(N, Body)` call. Every
/// participant claims the next unclaimed index of [0, N) from one shared
/// atomic counter, so a long task never strands short ones behind it.
/// The calling thread always participates, so a parallelFor issued from
/// inside another's body cannot deadlock: the inner caller drains its own
/// job even when every pool thread is busy elsewhere. One pool may serve
/// several concurrent callers (the daemon's request workers); each call
/// is its own job, and idle threads help every active job.
///
/// Determinism contract: the pool itself makes no ordering promises —
/// which thread runs which index is racy by design. Callers obtain
/// deterministic results by writing each index's output into its own
/// slot and reducing the slots in index order afterwards (see
/// pre/ParallelDriver.cpp and docs/PARALLELISM.md).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_SUPPORT_THREADPOOL_H
#define SPECPRE_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace specpre {

class ThreadPool {
public:
  /// \p Workers is the total parallelism of a parallelFor, counting the
  /// calling thread; the pool spawns Workers - 1 threads. Workers <= 1
  /// spawns nothing and runs every parallelFor inline, bit-identically
  /// to a plain loop.
  explicit ThreadPool(unsigned Workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned workers() const { return NumWorkers; }

  /// std::thread::hardware_concurrency, clamped to at least 1.
  static unsigned hardwareWorkers();

  /// Runs Body(I) for every I in [0, N) and returns when all calls have
  /// completed. The calling thread participates. Body must tolerate
  /// concurrent invocations on distinct indices. Safe to call from
  /// inside another parallelFor body (nested fan-out).
  ///
  /// Exceptions: a throwing Body(I) does not kill the batch — every
  /// other index still runs, and once all indices have completed the
  /// exception of the *smallest* failing index is rethrown on the
  /// calling thread (the deterministic choice: jobs=1 and jobs=N report
  /// the same error). Without this, an escaping exception on a worker
  /// thread would std::terminate the process.
  void parallelFor(size_t N, const std::function<void(size_t)> &Body);

private:
  /// One in-flight parallelFor: the shared next index plus completion
  /// accounting.
  struct Job {
    const std::function<void(size_t)> *Body = nullptr;
    size_t N = 0;
    std::atomic<size_t> Next{0}; ///< next unclaimed index
    std::mutex DoneM;
    std::condition_variable DoneCv;
    size_t ItemsDone = 0; ///< under DoneM
    /// First (smallest-index) exception thrown by Body, rethrown by
    /// parallelFor after the batch completes. Under DoneM.
    std::exception_ptr FirstError;
    size_t FirstErrorIndex = 0; ///< under DoneM, valid when FirstError
  };

  /// Claims and runs work from \p J until no index is claimable.
  /// Returns true if it ran at least one index.
  static bool participate(Job &J);

  void workerLoop();

  unsigned NumWorkers;
  std::vector<std::thread> Threads;

  std::mutex QueueM;
  std::condition_variable QueueCv;
  std::vector<std::shared_ptr<Job>> ActiveJobs; ///< under QueueM
  uint64_t QueueVersion = 0;                    ///< under QueueM
  bool Stopping = false;                        ///< under QueueM
};

} // namespace specpre

#endif // SPECPRE_SUPPORT_THREADPOOL_H
