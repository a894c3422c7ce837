#include "src/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ebbiot {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threadCount(), 4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threadCount(), 1);
  std::vector<int> order;
  pool.parallelFor(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // no data race: no workers
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp) {
  ThreadPool pool(3);
  bool ran = false;
  pool.parallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(10, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 45U);
  }
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallelFor(8,
                       [](std::size_t i) {
                         if (i == 3) {
                           throw std::runtime_error("boom");
                         }
                       }),
      std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> count{0};
  pool.parallelFor(4, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::resolveThreadCount(3), 3);
  EXPECT_EQ(ThreadPool::resolveThreadCount(1), 1);
  EXPECT_GE(ThreadPool::resolveThreadCount(0), 1);
  EXPECT_GE(ThreadPool::resolveThreadCount(-2), 1);
}

TEST(ThreadPoolTest, MultiThrowRethrowsFirstRecordedAndAbandonsRest) {
  // Every index throws a distinct exception.  Contract: the first
  // *recorded* exception is rethrown after every index either completed
  // or was abandoned — single-threaded that is deterministically index
  // 0, and abandonment means not all 64 indices ran.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  std::string message;
  try {
    pool.parallelFor(64, [&](std::size_t i) {
      ++ran;
      throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected parallelFor to throw";
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_EQ(message, "0");
  EXPECT_EQ(ran.load(), 1);  // indices 1..63 abandoned
}

TEST(ThreadPoolTest, MultiThrowAcrossThreadsSurvivesAndRethrowsOne) {
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    std::atomic<int> ran{0};
    std::string message;
    try {
      pool.parallelFor(128, [&](std::size_t i) {
        ++ran;
        throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected parallelFor to throw";
    } catch (const std::runtime_error& e) {
      message = e.what();
    }
    // The rethrown exception is one of the thrown ones, and at least one
    // index ran; the abandoned remainder never started.
    const int thrown = std::stoi(message);
    EXPECT_GE(thrown, 0);
    EXPECT_LT(thrown, 128);
    EXPECT_GE(ran.load(), 1);
    EXPECT_LE(ran.load(), 128);
  }
  // The pool survives repeated throwing jobs.
  std::atomic<int> count{0};
  pool.parallelFor(16, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, StealHeavyStressSkewedCosts) {
  // Heavily skewed per-index costs: a handful of indices dominate, so
  // the guided chunks of the fast indices must go to whichever threads
  // are idle for the pool to finish at all promptly.
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 512;
  std::vector<std::uint64_t> out(kTasks, 0);
  pool.parallelFor(kTasks, [&](std::size_t i) {
    std::uint64_t acc = i;
    const int spins = (i % 64 == 0) ? 20000 : 20;
    for (int s = 0; s < spins; ++s) {
      acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    out[i] = acc | 1;  // every slot written exactly once, nonzero
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_NE(out[i], 0U) << "index " << i << " never ran";
  }
}

TEST(ThreadPoolTest, NestedParallelForFromTasks) {
  // parallelFor is reentrant: task bodies fan out again on the same
  // pool, and the waiting thread helps instead of deadlocking.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallelFor(8, [&](std::size_t) {
    pool.parallelFor(32, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 8 * 32);
}

TEST(ThreadPoolTest, NestedSubmitRecursiveTree) {
  // Tasks submit subtasks and block on them: a binary tree of depth 6,
  // counted at every node.  Waiting inside a worker must help-execute
  // queued tasks for the tree to complete.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::function<void(int)> node = [&](int depth) {
    ++count;
    if (depth == 0) {
      return;
    }
    const TaskHandle left = pool.submit([&node, depth] { node(depth - 1); });
    const TaskHandle right = pool.submit([&node, depth] { node(depth - 1); });
    pool.wait(left);
    pool.wait(right);
  };
  const TaskHandle root = pool.submit([&node] { node(6); });
  pool.wait(root);
  EXPECT_EQ(count.load(), (1 << 7) - 1);
}

TEST(TaskGraphTest, DependenciesOrderDiamond) {
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::mutex mutex;
    std::vector<char> order;
    auto record = [&](char who) {
      const std::lock_guard<std::mutex> lock(mutex);
      order.push_back(who);
    };
    const TaskHandle a = pool.submit([&] { record('a'); });
    const TaskHandle b = pool.submit([&] { record('b'); }, {a});
    const TaskHandle c = pool.submit([&] { record('c'); }, {a});
    const TaskHandle d = pool.submit([&] { record('d'); }, {b, c});
    pool.wait(d);
    ASSERT_EQ(order.size(), 4U);
    EXPECT_EQ(order.front(), 'a');
    EXPECT_EQ(order.back(), 'd');
    EXPECT_TRUE(a.done() && b.done() && c.done() && d.done());
  }
}

TEST(TaskGraphTest, DependencyOnCompletedTaskRunsImmediately) {
  ThreadPool pool(2);
  const TaskHandle first = pool.submit([] {});
  pool.wait(first);
  ASSERT_TRUE(first.done());
  std::atomic<bool> ran{false};
  const TaskHandle second = pool.submit([&] { ran = true; }, {first});
  pool.wait(second);
  EXPECT_TRUE(ran.load());
}

TEST(TaskGraphTest, EmptyHandleDependencyIsIgnored) {
  ThreadPool pool(2);
  const TaskHandle empty;
  EXPECT_TRUE(empty.done());
  pool.wait(empty);  // no-op
  std::atomic<bool> ran{false};
  const TaskHandle task = pool.submit([&] { ran = true; }, {empty});
  pool.wait(task);
  EXPECT_TRUE(ran.load());
}

TEST(TaskGraphTest, ThrowingTaskStillReleasesSuccessors) {
  ThreadPool pool(2);
  std::atomic<bool> successorRan{false};
  const TaskHandle bad =
      pool.submit([] { throw std::runtime_error("stage failed"); });
  const TaskHandle after = pool.submit([&] { successorRan = true; }, {bad});
  pool.wait(after);  // dependencies express completion, not success
  EXPECT_TRUE(successorRan.load());
  EXPECT_THROW(pool.wait(bad), std::runtime_error);
  EXPECT_THROW(pool.wait(bad), std::runtime_error);  // rethrows repeatedly
}

TEST(TaskGraphTest, LongChainCompletesInOrder) {
  // A frame-chain shape: each link depends on its predecessor and bumps
  // a sequence counter; any reordering would break the equality.
  ThreadPool pool(4);
  constexpr int kLinks = 200;
  std::vector<int> sequence;
  sequence.reserve(kLinks);
  TaskHandle prev;
  for (int i = 0; i < kLinks; ++i) {
    prev = pool.submit([&sequence, i] { sequence.push_back(i); }, {prev});
  }
  pool.wait(prev);
  ASSERT_EQ(sequence.size(), static_cast<std::size_t>(kLinks));
  for (int i = 0; i < kLinks; ++i) {
    EXPECT_EQ(sequence[i], i);
  }
}

// --- Shutdown / teardown edges -----------------------------------------
//
// Contract under test (see ~ThreadPool): destroying a pool with
// un-waited tasks *abandons* them — they never run, their handles stay
// valid and report done() == false, and the whole graph is freed (the
// ASan CI leg turns a missed release into a leak report here).
// ThreadPool(1) makes abandonment deterministic: it spawns no workers,
// so a submitted-but-never-waited task cannot have started.

TEST(TaskGraphTest, DestructorAbandonsQueuedTasks) {
  std::atomic<int> ran{0};
  TaskHandle first;
  TaskHandle last;
  {
    ThreadPool pool(1);
    first = pool.submit([&] { ++ran; });
    last = pool.submit([&] { ++ran; }, {first});
    // No wait(): `first` is still queued, and `last` still waits on it,
    // when the pool dies.
  }
  EXPECT_EQ(ran.load(), 0);
  EXPECT_TRUE(first.valid());
  EXPECT_TRUE(last.valid());
  EXPECT_FALSE(first.done());
  EXPECT_FALSE(last.done());
}

TEST(TaskGraphTest, DestructorAbandonsLongDependencyChain) {
  // A deep never-dispatched chain: each node holds a reference to its
  // successor, and only the head sits in the queue.  The destructor's
  // release must cascade down the whole chain (ASan checks the frees).
  std::atomic<int> ran{0};
  TaskHandle tail;
  {
    ThreadPool pool(1);
    TaskHandle prev;
    for (int i = 0; i < 100; ++i) {
      prev = pool.submit([&] { ++ran; }, {prev});
    }
    tail = prev;
  }
  EXPECT_EQ(ran.load(), 0);
  EXPECT_FALSE(tail.done());
}

TEST(TaskGraphTest, HandlesOutliveThePool) {
  // A completed task's handle must keep answering done() == true after
  // the pool is gone: the handle's node reference, not the pool, owns
  // the completion state.  Copies and moves of a dead-pool handle must
  // also stay safe.
  TaskHandle finished;
  TaskHandle abandoned;
  {
    ThreadPool pool(1);
    finished = pool.submit([] {});
    pool.wait(finished);
    abandoned = pool.submit([] {});
  }
  EXPECT_TRUE(finished.done());
  EXPECT_FALSE(abandoned.done());
  TaskHandle copy = finished;
  EXPECT_TRUE(copy.done());
  const TaskHandle moved = std::move(copy);
  EXPECT_TRUE(moved.done());
  copy = abandoned;  // NOLINT(bugprone-use-after-move): reassignment
  EXPECT_FALSE(copy.done());
}

TEST(TaskGraphTest, AbandonedTaskIsUsableAsDependencyInAnotherPool) {
  // Dependencies express completion; an abandoned handle from a dead
  // pool is a *never-completing* dependency, so it must not be handed to
  // a live pool.  What IS allowed: a completed handle from a dead pool
  // gating work in a new pool (sweep harnesses rebuild pools per grid
  // point but cache result handles).
  TaskHandle fromOldPool;
  {
    ThreadPool old(1);
    fromOldPool = old.submit([] {});
    old.wait(fromOldPool);
  }
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  const TaskHandle task = pool.submit([&] { ran = true; }, {fromOldPool});
  pool.wait(task);
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ImmediateDestructionIsClean) {
  // Construct-and-destroy with no work: workers park and must all
  // observe shutdown promptly.  Looped to shake the race between a
  // worker's re-check under the pool mutex and the destructor's
  // shutdown store.
  for (int i = 0; i < 50; ++i) {
    ThreadPool pool(4);
  }
}

// --- Parking ------------------------------------------------------------
//
// An idle thread parks untimed, so only a wake-up gets it going again.
// These tests hang (and ctest's timeout fails them) if a wake-up is lost.

TEST(ThreadPoolTest, ParkedWorkerWakesForQueuedTask) {
  // After the sleep the worker is parked.  A spins until B has run, so
  // whichever thread takes A, the other must be woken to run B.
  ThreadPool pool(2);
  for (int round = 0; round < 4; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::atomic<bool> flag{false};
    const TaskHandle a = pool.submit([&flag] {
      while (!flag.load()) {
        std::this_thread::yield();
      }
    });
    const TaskHandle b = pool.submit([&flag] { flag = true; });
    pool.wait(a);
    pool.wait(b);
    EXPECT_TRUE(flag.load());
  }
}

TEST(ThreadPoolTest, ParkedWaiterWakesOnCompletion) {
  // The task starts on the worker before the caller waits (the caller
  // does not help until wait()), and sleeps past the caller's spin
  // phase: the caller parks, and the completion must wake it.
  ThreadPool pool(2);
  for (int round = 0; round < 4; ++round) {
    std::atomic<bool> started{false};
    std::thread::id runner;
    const TaskHandle slow = pool.submit([&] {
      runner = std::this_thread::get_id();
      started = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });
    while (!started.load()) {
      std::this_thread::yield();
    }
    pool.wait(slow);
    EXPECT_TRUE(slow.done());
    EXPECT_NE(runner, std::this_thread::get_id());
  }
}

TEST(TaskGraphTest, GlobalPoolShardsIndependentJobs) {
  ThreadPool& pool = globalThreadPool();
  EXPECT_GE(pool.threadCount(), 1);
  std::vector<int> slots(64, 0);
  pool.parallelFor(slots.size(),
                   [&](std::size_t i) { slots[i] = static_cast<int>(i); });
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], static_cast<int>(i));
  }
  // Same instance on every call.
  EXPECT_EQ(&globalThreadPool(), &pool);
}

}  // namespace
}  // namespace ebbiot
