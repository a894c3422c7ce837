#include "src/common/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "src/common/error.hpp"

namespace ebbiot {

namespace {

/// Empty probes an idle thread spins through before it parks.
constexpr int kSpinsBeforePark = 64;

}  // namespace

struct ThreadPool::Job {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t chunkDivisor = 1;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  /// Tickets taken off the queue whose drain has not finished.  Changed
  /// only under the pool's mutex, so a caller parked on that mutex cannot
  /// miss the last decrement; read without it while the caller spins.
  std::atomic<std::size_t> running{0};
  Mutex errorMutex;
  std::exception_ptr firstError EBBIOT_GUARDED_BY(errorMutex);

  /// Claim guided chunks off the shared counter until the range (or the
  /// job, on error) is exhausted.  Chunks shrink as the range drains so
  /// skewed per-index costs still balance across threads.  Never throws.
  void drain() {
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) {
        return;
      }
      const std::size_t seen = next.load(std::memory_order_relaxed);
      if (seen >= n) {
        return;
      }
      const std::size_t chunk =
          std::max<std::size_t>(1, (n - seen) / chunkDivisor);
      const std::size_t begin =
          next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) {
        return;
      }
      const std::size_t end = std::min(n, begin + chunk);
      try {
        for (std::size_t i = begin; i < end; ++i) {
          (*fn)(i);
        }
      } catch (...) {
        const MutexLock lock(errorMutex);
        if (!firstError) {
          firstError = std::current_exception();
        }
        abort.store(true, std::memory_order_relaxed);
      }
    }
  }
};

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
    ++parked_;
    while (queue_.empty() && !shutdown_) {
      wake_.wait(lock);
    }
    --parked_;
    if (shutdown_) {
      return;
    }
  }
}

bool ThreadPool::helpOnce() {
  if (queued_.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  Job* job = nullptr;
  {
    const MutexLock lock(mutex_);
    if (queue_.empty() || shutdown_) {
      return false;
    }
    job = queue_.front();
    queue_.erase(queue_.begin());
    queued_.store(queue_.size(), std::memory_order_relaxed);
    job->running.fetch_add(1, std::memory_order_relaxed);
  }
  job->drain();
  bool wake = false;
  {
    const MutexLock lock(mutex_);
    // After this decrement the job's caller may return and destroy it.
    job->running.fetch_sub(1, std::memory_order_release);
    wake = parked_ > 0;
  }
  if (wake) {
    wake_.notifyAll();
  }
  return true;
}

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
  Job job;
  job.n = n;
  job.fn = &fn;
  const std::size_t width =
      std::min(static_cast<std::size_t>(threadCount()), n);
  job.chunkDivisor = 4 * width;
  bool wake = false;
  {
    const MutexLock lock(mutex_);
    queue_.insert(queue_.end(), width - 1, &job);
    queued_.store(queue_.size(), std::memory_order_relaxed);
    wake = parked_ > 0;
  }
  if (wake) {
    wake_.notifyAll();
  }
  job.drain();
  {
    const MutexLock lock(mutex_);
    std::erase(queue_, &job);  // the tickets no thread picked up
    queued_.store(queue_.size(), std::memory_order_relaxed);
  }
  int idle = 0;
  while (job.running.load(std::memory_order_acquire) != 0) {
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
    ++parked_;
    while (queue_.empty() &&
           job.running.load(std::memory_order_acquire) != 0) {
      wake_.wait(lock);
    }
    --parked_;
  }
  // Every helper has finished, so the lock is uncontended; it satisfies
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
