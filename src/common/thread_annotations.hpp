// Clang Thread Safety Analysis annotations + annotated lock primitives.
//
// The scheduler and the pipelined runner rely on two kinds of concurrency
// discipline: lock-protected shared state (the task queue, the task
// nodes' successor lists) and lock-free ownership by construction (each
// accumulator touched by exactly one task chain).  The first kind is
// checkable at compile time: Clang's -Wthread-safety analysis proves that
// every access to a GUARDED_BY field happens with its capability held,
// turning "we always take the lock here" from convention into a build
// break.  The static-analysis CI leg compiles the tree with Clang and
// -Wthread-safety -Werror; on GCC (the default local toolchain) every
// macro expands to nothing and the wrappers degrade to the std types.
//
// Use the annotated `Mutex` / `MutexLock` / `CondVar` wrappers below for
// any new lock: plain std::mutex is invisible to the analysis, so fields
// it guards are never checked.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define EBBIOT_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define EBBIOT_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

/// Marks a class as a capability (lockable) type.
#define EBBIOT_CAPABILITY(x) EBBIOT_THREAD_ANNOTATION(capability(x))
/// Marks an RAII class whose lifetime acquires/releases a capability.
#define EBBIOT_SCOPED_CAPABILITY EBBIOT_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only with the capability held.
#define EBBIOT_GUARDED_BY(x) EBBIOT_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is guarded by the capability.
#define EBBIOT_PT_GUARDED_BY(x) EBBIOT_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function requires the capability to be held on entry (and keeps it).
#define EBBIOT_REQUIRES(...) \
  EBBIOT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the capability and holds it on return.
#define EBBIOT_ACQUIRE(...) \
  EBBIOT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability (held on entry).
#define EBBIOT_RELEASE(...) \
  EBBIOT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability only when returning `value`.
#define EBBIOT_TRY_ACQUIRE(value, ...) \
  EBBIOT_THREAD_ANNOTATION(try_acquire_capability(value, __VA_ARGS__))
/// Caller must NOT hold the capability (non-reentrant acquisition).
#define EBBIOT_EXCLUDES(...) \
  EBBIOT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define EBBIOT_RETURN_CAPABILITY(x) EBBIOT_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch for code the analysis cannot model (destructors of
/// sole-owner state, test scaffolding).  Every use carries a rationale.
#define EBBIOT_NO_THREAD_SAFETY_ANALYSIS \
  EBBIOT_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace ebbiot {

/// std::mutex with the capability annotation the analysis needs.  Same
/// cost and semantics; `GUARDED_BY(member_)` only checks when the guard
/// is an annotated type.
class EBBIOT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() EBBIOT_ACQUIRE() { mutex_.lock(); }
  void unlock() EBBIOT_RELEASE() { mutex_.unlock(); }
  bool tryLock() EBBIOT_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mutex_;
};

/// Scoped lock of a Mutex (std::lock_guard with the scoped-capability
/// annotation).  Also the handle CondVar waits on.
class EBBIOT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) EBBIOT_ACQUIRE(mutex)
      : lock_(mutex.mutex_) {}
  ~MutexLock() EBBIOT_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable over an annotated Mutex.  Waiting takes the
/// MutexLock by reference, so "the lock is held across the wait" is
/// enforced structurally; the analysis does not model the temporary
/// release inside wait (the capability is held on entry and on return,
/// which is what callers may rely on).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notifyOne() { cv_.notify_one(); }
  void notifyAll() { cv_.notify_all(); }

  /// Block until notified (or woken spuriously): callers re-check their
  /// condition under the lock in a loop.
  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

 private:
  std::condition_variable cv_;
};

}  // namespace ebbiot
