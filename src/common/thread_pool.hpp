// Fork-join thread pool: parallelFor over an index range.
//
// The harness parallelises *independent* units: one recording per index
// across a dataset sweep (the bench grids), one session drain per index
// in NodeSupervisor::pump, one participant per thread in runRecording's
// chain schedule.  Each unit owns all of its mutable state and writes
// results into its own pre-allocated slot, so which thread runs which
// index never changes the result: determinism is by construction.
//
// parallelFor(n, fn) queues one helper ticket per extra thread and then
// claims indices itself, in guided chunks through an atomic counter; a
// thread that takes a ticket claims chunks of the same call until the
// range is exhausted.  When the caller runs out of indices it takes back
// the tickets no thread picked up and waits for the helpers still
// running, running other queued tickets meanwhile, so a body may call
// parallelFor again on the same pool.
//
// Scheduling: one queue of tickets guarded by one mutex; threads take
// from its front.  An idle thread spins on an atomic count of queued
// tickets (no lock while idle), then parks on one condition variable; it
// parks only after re-checking, under the mutex, that it still has
// nothing to do.  Queuing tickets and a helper finishing its ticket wake
// the parked threads.
//
// The calling thread participates, so ThreadPool(1) spawns no workers and
// parallelFor degenerates to a plain in-order loop.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.hpp"

namespace ebbiot {

class ThreadPool {
 public:
  /// A pool that runs work on up to `threads` threads (>= 1; the caller
  /// counts as one, so `threads - 1` workers are spawned).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Invoke fn(i) once for every i in [0, n), distributed over the pool;
  /// blocks until all invocations finished.  fn must be safe to call
  /// concurrently for distinct i.  If any invocation throws, the first
  /// recorded exception is rethrown here after every index either
  /// completed or was abandoned (indices not yet started when the
  /// exception surfaced are skipped).  Reentrant: fn may call
  /// parallelFor on the same pool, and several threads may call it at
  /// once.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Total threads contributing work (workers + the calling thread).
  [[nodiscard]] int threadCount() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// `threads` config values <= 0 mean "one per hardware thread".
  [[nodiscard]] static int resolveThreadCount(int configured);

 private:
  /// One parallelFor call; lives on its caller's stack.
  struct Job;

  void workerLoop() EBBIOT_EXCLUDES(mutex_);
  /// Run the front queued ticket if there is one; returns whether one ran.
  bool helpOnce() EBBIOT_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;

  Mutex mutex_;
  /// Parked workers and waiters sleep here.
  CondVar wake_;
  /// Helper tickets, one entry per ticket.  A vector rather than a deque:
  /// once it has grown to the deepest nesting it never allocates again.
  std::vector<Job*> queue_ EBBIOT_GUARDED_BY(mutex_);
  bool shutdown_ EBBIOT_GUARDED_BY(mutex_) = false;
  /// Threads parked on wake_.
  int parked_ EBBIOT_GUARDED_BY(mutex_) = 0;
  /// queue_.size(), readable without the mutex so idle probes never lock.
  std::atomic<std::size_t> queued_{0};
};

/// Process-wide pool sized to the hardware, for sharding coarse
/// independent jobs (dataset sweeps, bench grids) without every binary
/// re-growing its own batching scaffold.  Lazily constructed on first
/// use; lives for the remainder of the process.
ThreadPool& globalThreadPool();

}  // namespace ebbiot
