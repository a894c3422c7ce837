// Single-queue task scheduler for deterministic fan-out and stage graphs.
//
// The evaluation harness parallelises *independent* units — one pipeline
// per task within a frame (runRecording), one recording per task across a
// dataset sweep (the bench grids).  Each unit owns all of its mutable
// state and writes results into its own pre-allocated slot, so which
// worker runs which task never changes the result: determinism is by
// construction, and the scheduler needs no ordering guarantees beyond the
// dependency edges the caller declares.
//
// Two layers share one pool of workers:
//   * parallelFor(n, fn) — the data-parallel API, handed out in guided
//     chunks through an atomic counter; reentrant (a task body may call
//     parallelFor or submit again — the waiting thread helps run queued
//     tasks).
//   * submit(fn, deps) / wait(handle) — a task-graph API: a task becomes
//     runnable when every dependency has *completed* (succeeded or
//     threw), so a pipeline of unevenly-priced stages keeps every worker
//     busy instead of idling at a per-stage barrier.
//
// Scheduling: one queue guarded by one mutex.  Submitted tasks join its
// back; tasks released by a finished dependency join its front, most
// recently released first, so a task graph runs depth-first like a
// work-first scheduler.  Every worker and helping waiter takes from the
// front.  An idle thread spins on an atomic count of queued tasks (no
// lock while idle), then parks on one condition variable; it parks only
// after re-checking, under the mutex, that it still has nothing to do,
// and every enqueue and every completion wakes the parked threads.  The
// workloads run one or two threads with a handful of tasks per window,
// so there is nothing for per-worker queues or stealing to win.
//
// The calling thread participates in the work while waiting, so
// ThreadPool(1) spawns no workers, parallelFor degenerates to a plain
// in-order loop and submitted tasks run inline inside wait().
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <initializer_list>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.hpp"

namespace ebbiot {

class ThreadPool;

namespace detail {

struct TaskNode;

/// A task's successors in registration order, the order in which
/// execute() releases them.  The first kInline live in the node and the
/// rest in a vector: runRecording's front-end task registers 8 per frame
/// (one per pipeline plus the next front end) and each pipeline task 1,
/// so its dependency edges allocate nothing.
class SuccessorList {
 public:
  static constexpr std::size_t kInline = 8;

  void push(TaskNode* node) {
    if (size_ < kInline) {
      inline_[size_] = node;
    } else {
      overflow_.push_back(node);
    }
    ++size_;
  }

  template <typename Fn>
  void forEach(Fn&& fn) const {
    const std::size_t inlineCount = std::min(size_, kInline);
    for (std::size_t i = 0; i < inlineCount; ++i) {
      fn(inline_[i]);
    }
    for (TaskNode* node : overflow_) {
      fn(node);
    }
  }

 private:
  std::array<TaskNode*, kInline> inline_{};
  std::size_t size_ = 0;
  std::vector<TaskNode*> overflow_;
};

/// One node of the task graph.  Intrusively refcounted: the returned
/// TaskHandle, the scheduler (from submit until the task finished and its
/// successors were dispatched) and every predecessor's successor list
/// each hold one reference.
struct TaskNode {
  std::function<void()> fn;
  ThreadPool* pool = nullptr;
  std::atomic<std::uint32_t> refs{1};
  /// Unmet dependencies + 1 submission guard; the task is enqueued when
  /// this reaches zero.
  std::atomic<std::uint32_t> unmet{1};
  /// Set after fn ran and `error` is in place; wait() helps until it
  /// observes this, and re-checks it under the pool mutex before parking.
  std::atomic<bool> done{false};
  std::exception_ptr error;

  Mutex mutex;
  /// Mirrors `done` for successor registration.
  bool completed EBBIOT_GUARDED_BY(mutex) = false;
  /// Each entry holds a reference.
  SuccessorList successors EBBIOT_GUARDED_BY(mutex);

  // Runs only when the last reference dies, so `successors` has a single
  // owner and needs no lock — which the analysis cannot see.
  ~TaskNode() EBBIOT_NO_THREAD_SAFETY_ANALYSIS;
  static void retain(TaskNode* node) {
    node->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void release(TaskNode* node) {
    if (node->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete node;
    }
  }
};

}  // namespace detail

/// Shared handle to a submitted task; cheap to copy.  A default-
/// constructed handle is empty and is ignored as a dependency.
class TaskHandle {
 public:
  TaskHandle() = default;
  ~TaskHandle();
  TaskHandle(const TaskHandle& other);
  TaskHandle& operator=(const TaskHandle& other);
  TaskHandle(TaskHandle&& other) noexcept;
  TaskHandle& operator=(TaskHandle&& other) noexcept;

  [[nodiscard]] bool valid() const { return node_ != nullptr; }
  /// True once the task ran to completion (or threw).
  [[nodiscard]] bool done() const;

 private:
  friend class ThreadPool;
  explicit TaskHandle(detail::TaskNode* node) : node_(node) {}
  detail::TaskNode* node_ = nullptr;
};

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
  /// parallelFor or submit on the same pool.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Enqueue fn to run once every handle in `deps` has completed (empty
  /// or invalid handles are ignored; a dependency that already completed
  /// counts as met).  Dependencies express *completion*, not success: a
  /// throwing dependency still releases its successors, and its
  /// exception surfaces from wait() on its own handle.
  TaskHandle submit(std::function<void()> fn);
  TaskHandle submit(std::function<void()> fn,
                    std::initializer_list<TaskHandle> deps);
  TaskHandle submit(std::function<void()> fn, const TaskHandle* deps,
                    std::size_t depCount);

  /// Block until the task completed, contributing to queued work while
  /// waiting (safe to call from inside a task).  Rethrows the task's
  /// exception if it threw; safe to call repeatedly and on empty handles.
  void wait(const TaskHandle& handle);

  /// Total threads contributing work (workers + the calling thread).
  [[nodiscard]] int threadCount() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// `threads` config values <= 0 mean "one per hardware thread".
  [[nodiscard]] static int resolveThreadCount(int configured);

 private:
  friend struct detail::TaskNode;

  void workerLoop() EBBIOT_EXCLUDES(mutex_);
  /// Queue a runnable task: at the front if a finished dependency
  /// `released` it, else (a submission) at the back.
  void enqueue(detail::TaskNode* node, bool released)
      EBBIOT_EXCLUDES(mutex_);
  /// Drop one unmet dependency; enqueues the task when none is left.
  void makeRunnable(detail::TaskNode* node, bool released);
  void execute(detail::TaskNode* node) EBBIOT_EXCLUDES(mutex_);
  /// Run the front queued task if there is one; returns whether one ran.
  bool helpOnce() EBBIOT_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;

  Mutex mutex_;
  /// Parked workers and waiters sleep here; enqueue() and completions
  /// wake them.
  CondVar wake_;
  /// Runnable tasks; threads take from the front.
  std::deque<detail::TaskNode*> queue_ EBBIOT_GUARDED_BY(mutex_);
  bool shutdown_ EBBIOT_GUARDED_BY(mutex_) = false;
  /// queue_.size(), readable without the mutex so idle probes never lock.
  std::atomic<std::size_t> queued_{0};
  /// Threads parked on wake_ or about to park (incremented under mutex_).
  std::atomic<int> parked_{0};
};

/// Process-wide pool sized to the hardware, for sharding coarse
/// independent jobs (dataset sweeps, bench grids) without every binary
/// re-growing its own batching scaffold.  Lazily constructed on first
/// use; lives for the remainder of the process.
ThreadPool& globalThreadPool();

}  // namespace ebbiot
