#include "src/common/thread_pool.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace ebbiot {

namespace {

/// Empty probes an idle thread spins through before it parks.
constexpr int kSpinsBeforePark = 64;

}  // namespace

namespace detail {

TaskNode::~TaskNode() {
  // Only non-empty when the pool shut down with this task still queued.
  // Resolve each successor's dependency by abandonment, mirroring
  // execute(): when the last unmet dependency resolves, the successor
  // would have been enqueued — the pool is gone, so drop its scheduler
  // reference instead (cascades through abandoned chains).  Successors
  // with other still-pending abandoned dependencies are handled by
  // whichever dependency node dies last.
  for (TaskNode* successor : successors) {
    std::uint32_t drop = 1;  // the successor-list reference
    if (successor->unmet.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ++drop;  // the scheduler reference, never dropped by execute()
    }
    if (successor->refs.fetch_sub(drop, std::memory_order_acq_rel) == drop) {
      delete successor;
    }
  }
}

}  // namespace detail

TaskHandle::~TaskHandle() {
  if (node_ != nullptr) {
    detail::TaskNode::release(node_);
  }
}

TaskHandle::TaskHandle(const TaskHandle& other) : node_(other.node_) {
  if (node_ != nullptr) {
    detail::TaskNode::retain(node_);
  }
}

TaskHandle& TaskHandle::operator=(const TaskHandle& other) {
  if (this != &other) {
    if (other.node_ != nullptr) {
      detail::TaskNode::retain(other.node_);
    }
    if (node_ != nullptr) {
      detail::TaskNode::release(node_);
    }
    node_ = other.node_;
  }
  return *this;
}

TaskHandle::TaskHandle(TaskHandle&& other) noexcept : node_(other.node_) {
  other.node_ = nullptr;
}

TaskHandle& TaskHandle::operator=(TaskHandle&& other) noexcept {
  if (this != &other) {
    if (node_ != nullptr) {
      detail::TaskNode::release(node_);
    }
    node_ = other.node_;
    other.node_ = nullptr;
  }
  return *this;
}

bool TaskHandle::done() const {
  return node_ == nullptr || node_->done.load(std::memory_order_acquire);
}

ThreadPool::ThreadPool(int threads) {
  EBBIOT_ASSERT(threads >= 1);
  const auto workerCount = static_cast<std::size_t>(threads - 1);
  workers_.reserve(workerCount);
  for (std::size_t i = 0; i < workerCount; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    shutdown_ = true;
  }
  wake_.notifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  // Abandon whatever is still queued (no waiters can exist by contract:
  // destroying a pool with un-waited tasks abandons them).  Releasing
  // the scheduler references frees the nodes; a node's destructor drops
  // its never-dispatched successor references in turn.
  const MutexLock lock(mutex_);
  for (detail::TaskNode* task : queue_) {
    detail::TaskNode::release(task);
  }
}

int ThreadPool::resolveThreadCount(int configured) {
  if (configured >= 1) {
    return configured;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, static_cast<int>(hw));
}

void ThreadPool::workerLoop() {
  int idle = 0;
  for (;;) {
    if (helpOnce()) {
      idle = 0;
      continue;
    }
    if (++idle < kSpinsBeforePark) {
      std::this_thread::yield();
      continue;
    }
    idle = 0;
    MutexLock lock(mutex_);
    parked_.fetch_add(1, std::memory_order_relaxed);
    while (queue_.empty() && !shutdown_) {
      wake_.wait(lock);
    }
    parked_.fetch_sub(1, std::memory_order_relaxed);
    if (shutdown_) {
      return;
    }
  }
}

void ThreadPool::enqueue(detail::TaskNode* node, bool released) {
  bool wake = false;
  {
    const MutexLock lock(mutex_);
    // Released tasks first: the thread that finished their dependency
    // usually takes one next, with its inputs still in cache, and the
    // successor registered last (the runner's next front-end window)
    // runs before its siblings.  With every task at the back,
    // BM_RunRecordingRegistry ran ~23 % slower on 2 and on 4 threads.
    if (released) {
      queue_.push_front(node);
    } else {
      queue_.push_back(node);
    }
    queued_.store(queue_.size(), std::memory_order_relaxed);
    // Parkers register under the mutex, so this read sees every thread
    // that re-checked the queue before the push.
    wake = parked_.load(std::memory_order_relaxed) > 0;
  }
  if (wake) {
    wake_.notifyAll();
  }
}

void ThreadPool::makeRunnable(detail::TaskNode* node, bool released) {
  if (node->unmet.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    enqueue(node, released);
  }
}

void ThreadPool::execute(detail::TaskNode* node) {
  try {
    node->fn();
  } catch (...) {
    node->error = std::current_exception();
  }
  node->fn = nullptr;  // drop captures before waiters resume
  std::vector<detail::TaskNode*> successors;
  {
    const MutexLock lock(node->mutex);
    node->completed = true;
    successors.swap(node->successors);
  }
  // A waiter registers in parked_ and then reads `done`; this thread
  // stores `done` and then reads parked_.  Both pairs are seq_cst, so at
  // least one side sees the other: the waiter skips parking, or the wake
  // below finds it.  Holding the mutex means a registered waiter is
  // inside wake_.wait() by the time of the notify.
  node->done.store(true, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) > 0) {
    const MutexLock lock(mutex_);
    wake_.notifyAll();
  }
  for (detail::TaskNode* successor : successors) {
    makeRunnable(successor, /*released=*/true);
    detail::TaskNode::release(successor);  // the successor-list reference
  }
  detail::TaskNode::release(node);  // the scheduler reference
}

bool ThreadPool::helpOnce() {
  if (queued_.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  detail::TaskNode* task = nullptr;
  {
    const MutexLock lock(mutex_);
    if (queue_.empty() || shutdown_) {
      return false;
    }
    task = queue_.front();
    queue_.pop_front();
    queued_.store(queue_.size(), std::memory_order_relaxed);
  }
  execute(task);
  return true;
}

TaskHandle ThreadPool::submit(std::function<void()> fn) {
  return submit(std::move(fn), nullptr, 0);
}

TaskHandle ThreadPool::submit(std::function<void()> fn,
                              std::initializer_list<TaskHandle> deps) {
  return submit(std::move(fn), deps.begin(), deps.size());
}

TaskHandle ThreadPool::submit(std::function<void()> fn,
                              const TaskHandle* deps, std::size_t depCount) {
  EBBIOT_ASSERT(fn != nullptr);
  auto* node = new detail::TaskNode;
  node->fn = std::move(fn);
  node->pool = this;
  // One reference for the returned handle, one for the scheduler (held
  // from here until execute() dispatched the successors).
  node->refs.store(2, std::memory_order_relaxed);
  // node->unmet starts at 1: a guard that keeps the task from becoming
  // runnable while dependencies are still being wired up.
  for (std::size_t i = 0; i < depCount; ++i) {
    detail::TaskNode* dep = deps[i].node_;
    if (dep == nullptr) {
      continue;
    }
    const MutexLock lock(dep->mutex);
    if (!dep->completed) {
      detail::TaskNode::retain(node);
      dep->successors.push_back(node);
      node->unmet.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Drop the guard; enqueues if all deps were met.
  makeRunnable(node, /*released=*/false);
  return TaskHandle(node);
}

void ThreadPool::wait(const TaskHandle& handle) {
  detail::TaskNode* node = handle.node_;
  if (node == nullptr) {
    return;
  }
  EBBIOT_ASSERT(node->pool == this);
  int idle = 0;
  while (!node->done.load(std::memory_order_acquire)) {
    if (helpOnce()) {
      idle = 0;
      continue;
    }
    if (++idle < kSpinsBeforePark) {
      std::this_thread::yield();
      continue;
    }
    idle = 0;
    MutexLock lock(mutex_);
    parked_.fetch_add(1, std::memory_order_seq_cst);
    while (queue_.empty() && !node->done.load(std::memory_order_seq_cst)) {
      wake_.wait(lock);
    }
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (node->error) {
    std::rethrow_exception(node->error);
  }
}

namespace {

/// Shared state of one parallelFor call; lives on the caller's stack
/// (every drainer is waited on before parallelFor returns).
struct ParallelJob {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t chunkDivisor = 1;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  Mutex errorMutex;
  std::exception_ptr firstError EBBIOT_GUARDED_BY(errorMutex);
};

/// Claim guided chunks off the shared counter until the range (or the
/// job, on error) is exhausted.  Chunks shrink as the range drains so
/// skewed per-index costs still balance across threads.
void drainJob(ParallelJob& job) {
  for (;;) {
    if (job.abort.load(std::memory_order_relaxed)) {
      return;
    }
    const std::size_t seen = job.next.load(std::memory_order_relaxed);
    if (seen >= job.n) {
      return;
    }
    const std::size_t chunk =
        std::max<std::size_t>(1, (job.n - seen) / job.chunkDivisor);
    const std::size_t begin =
        job.next.fetch_add(chunk, std::memory_order_relaxed);
    if (begin >= job.n) {
      return;
    }
    const std::size_t end = std::min(job.n, begin + chunk);
    try {
      for (std::size_t i = begin; i < end; ++i) {
        (*job.fn)(i);
      }
    } catch (...) {
      const MutexLock lock(job.errorMutex);
      if (!job.firstError) {
        job.firstError = std::current_exception();
      }
      job.abort.store(true, std::memory_order_relaxed);
    }
  }
}

}  // namespace

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (threadCount() == 1) {
    // No workers: a plain in-order loop with the same contract (the
    // first exception propagates, the rest of the range is abandoned).
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  ParallelJob job;
  job.n = n;
  job.fn = &fn;
  const std::size_t width =
      std::min(static_cast<std::size_t>(threadCount()), n);
  job.chunkDivisor = 4 * width;
  std::vector<TaskHandle> drainers;
  drainers.reserve(width - 1);
  for (std::size_t i = 1; i < width; ++i) {
    drainers.push_back(submit([&job] { drainJob(job); }));
  }
  drainJob(job);
  for (const TaskHandle& drainer : drainers) {
    wait(drainer);  // never throws: drainJob catches everything
  }
  // Every drainer has finished, so the lock is uncontended; it satisfies
  // the analysis, which cannot see the quiescence.
  const MutexLock lock(job.errorMutex);
  if (job.firstError) {
    std::rethrow_exception(job.firstError);
  }
}

ThreadPool& globalThreadPool() {
  static ThreadPool pool(ThreadPool::resolveThreadCount(0));
  return pool;
}

}  // namespace ebbiot
