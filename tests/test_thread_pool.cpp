#include "src/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
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
  // parallelFor is reentrant: bodies fan out again on the same pool, and
  // the waiting thread helps instead of deadlocking.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallelFor(8, [&](std::size_t) {
    pool.parallelFor(32, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 8 * 32);
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
  // After the sleep the worker is parked.  Index 0 spins until index 1
  // has run, so whichever thread claims index 0, the other must claim
  // index 1: the queued ticket must wake the parked worker.
  ThreadPool pool(2);
  for (int round = 0; round < 4; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::atomic<bool> flag{false};
    pool.parallelFor(2, [&flag](std::size_t i) {
      if (i == 1) {
        flag = true;
        return;
      }
      while (!flag.load()) {
        std::this_thread::yield();
      }
    });
    EXPECT_TRUE(flag.load());
  }
}

TEST(ThreadPoolTest, ParkedWaiterWakesOnCompletion) {
  // The caller's index returns once the worker has started the other
  // one, which sleeps past the caller's spin phase: the caller parks
  // waiting for the worker's ticket, and its completion must wake it.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 4; ++round) {
    std::atomic<bool> started{false};
    std::atomic<bool> finished{false};
    pool.parallelFor(2, [&](std::size_t) {
      if (std::this_thread::get_id() == caller) {
        while (!started.load()) {
          std::this_thread::yield();
        }
        return;
      }
      started = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      finished = true;
    });
    EXPECT_TRUE(finished.load());
  }
}

TEST(ThreadPoolTest, HelperThrowsAfterCallerParked) {
  // As above, but the worker's index throws after the caller has parked:
  // the caller must still be woken, and rethrow it.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 4; ++round) {
    std::atomic<bool> started{false};
    EXPECT_THROW(pool.parallelFor(2,
                                  [&](std::size_t) {
                                    if (std::this_thread::get_id() == caller) {
                                      while (!started.load()) {
                                        std::this_thread::yield();
                                      }
                                      return;
                                    }
                                    started = true;
                                    std::this_thread::sleep_for(
                                        std::chrono::milliseconds(50));
                                    throw std::runtime_error("late");
                                  }),
                 std::runtime_error);
  }
}

TEST(ThreadPoolTest, TwoExternalCallersShareOnePool) {
  // Two threads outside the pool call parallelFor on it at once: each
  // call runs its own range exactly once, whichever threads help it.
  ThreadPool pool(3);
  constexpr std::size_t kIndices = 300;
  std::vector<std::atomic<int>> hitsA(kIndices);
  std::vector<std::atomic<int>> hitsB(kIndices);
  auto caller = [&pool](std::vector<std::atomic<int>>& hits) {
    for (int round = 0; round < 50; ++round) {
      pool.parallelFor(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
    }
  };
  std::thread a(caller, std::ref(hitsA));
  std::thread b(caller, std::ref(hitsB));
  a.join();
  b.join();
  for (std::size_t i = 0; i < kIndices; ++i) {
    EXPECT_EQ(hitsA[i].load(), 50);
    EXPECT_EQ(hitsB[i].load(), 50);
  }
}

TEST(ThreadPoolTest, GlobalPoolShardsIndependentJobs) {
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
