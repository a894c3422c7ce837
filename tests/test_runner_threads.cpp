// Determinism of the multithreaded runner: the chain schedule must
// reproduce the serial RunResult *exactly* (counts, ops, stream stats,
// every pipeline of the full variant registry) for every thread count,
// because each accumulator is owned by exactly one chain and updated in
// frame order — only which OS thread executes a step varies.  Also pins
// the schedule's slot-ring bound and its error path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/runner.hpp"
#include "src/sim/event_synth.hpp"
#include "src/sim/scene.hpp"

namespace ebbiot {
namespace {

struct Fixture {
  Fixture() : scene(240, 180) {
    scene.addLinear(ObjectClass::kCar, BBox{-48, 60, 48, 22}, Vec2f{60, 0},
                    0, secondsToUs(20.0));
    scene.addLinear(ObjectClass::kVan, BBox{240, 100, 60, 28},
                    Vec2f{-45, 0}, secondsToUs(1.0), secondsToUs(20.0));
    EventSynthConfig config;
    config.backgroundActivityHz = 0.3;
    config.seed = 31;
    synth = std::make_unique<FastEventSynth>(scene, config);
  }
  ScriptedScene scene;
  std::unique_ptr<FastEventSynth> synth;
};

void expectPipelineStatsEqual(const PipelineRunStats& a,
                              const PipelineRunStats& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.totalOps, b.totalOps);
  EXPECT_EQ(a.filteredEventsPerFrame, b.filteredEventsPerFrame);
  ASSERT_EQ(a.counts.size(), b.counts.size());
  for (std::size_t t = 0; t < a.counts.size(); ++t) {
    EXPECT_EQ(a.counts[t].truePositives, b.counts[t].truePositives);
    EXPECT_EQ(a.counts[t].predictions, b.counts[t].predictions);
    EXPECT_EQ(a.counts[t].groundTruths, b.counts[t].groundTruths);
  }
}

void expectRunResultsEqual(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.thresholds, b.thresholds);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.gtTracks, b.gtTracks);
  EXPECT_EQ(a.gtBoxes, b.gtBoxes);
  EXPECT_EQ(a.streamEvents, b.streamEvents);
  EXPECT_EQ(a.latchedEvents, b.latchedEvents);
  EXPECT_EQ(a.meanAlpha, b.meanAlpha);
  EXPECT_EQ(a.meanBeta, b.meanBeta);
  EXPECT_EQ(a.meanEventsPerFrame, b.meanEventsPerFrame);
  ASSERT_EQ(a.pipelines.size(), b.pipelines.size());
  for (std::size_t i = 0; i < a.pipelines.size(); ++i) {
    expectPipelineStatsEqual(a.pipelines[i], b.pipelines[i]);
  }
}

TEST(RunnerThreadsTest, EveryThreadCountAndModeReproducesSerialExactly) {
  // Full registry: all named variants run in one call, maximising the
  // chance any cross-pipeline interference would surface.  Sweep
  // {1, 2, 3, 4, 0 = hardware} threads against the serial baseline —
  // every cell must be bit-identical.
  constexpr double kSeconds = 2.0;
  RunnerConfig serial = makeRegistryRunnerConfig(240, 180);
  serial.threads = 1;

  Fixture fixSerial;
  const RunResult baseline = runRecording(*fixSerial.synth, fixSerial.scene,
                                          secondsToUs(kSeconds), serial);
  ASSERT_GT(baseline.pipelines.size(), 1U);

  for (const int threads : {1, 2, 3, 4, 0}) {
    RunnerConfig config = serial;
    config.threads = threads;
    Fixture fix;
    const RunResult run = runRecording(*fix.synth, fix.scene,
                                       secondsToUs(kSeconds), config);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    expectRunResultsEqual(baseline, run);
  }
}

TEST(RunnerThreadsTest, ThreadsZeroMeansHardwareConcurrency) {
  Fixture fixA;
  RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  config.threads = 0;  // resolves to >= 1 without changing results
  const RunResult a =
      runRecording(*fixA.synth, fixA.scene, secondsToUs(1.0), config);
  Fixture fixB;
  config.threads = 1;
  const RunResult b =
      runRecording(*fixB.synth, fixB.scene, secondsToUs(1.0), config);
  expectRunResultsEqual(a, b);
}

TEST(RunnerThreadsTest, MoreThreadsThanPipelinesIsFine) {
  Fixture fix;
  RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  config.variants = {"EBBIOT"};
  config.threads = 16;  // 1 pipeline; the fan-out clamps to useful width
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(1.0), config);
  ASSERT_EQ(result.pipelines.size(), 1U);
  EXPECT_GT(result.pipelines[0].frames, 0U);
}

TEST(RunnerThreadsTest, PipelineErrorRethrowsAtEveryThreadCount) {
  // A pipeline sized for a smaller sensor fails on the first window of
  // the 240x180 fixture.  The serial loop throws directly; the chain
  // schedule lets the running steps of the other chains finish, then
  // rethrows the same error — it must neither hang nor swallow it.
  for (const int threads : {1, 2, 4}) {
    Fixture fix;
    RunnerConfig config = makeDefaultRunnerConfig(240, 180);
    config.threads = threads;
    config.extraPipelines.push_back([] {
      EbbiotPipelineConfig small;
      small.width = 120;
      small.height = 90;
      return std::make_unique<EbbiotPipeline>(small, "EBBIOT-120x90");
    });
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    EXPECT_THROW(
        (void)runRecording(*fix.synth, fix.scene, secondsToUs(1.0), config),
        LogicError);
  }
}

// --- Chain schedule ------------------------------------------------------

/// EBBIOT under its own name, calling `hook(frame)` before each window
/// and counting finished windows into `*finished`, if given.
class HookedPipeline final : public Pipeline {
 public:
  HookedPipeline(std::string name, std::function<void(std::size_t)> hook,
                 std::atomic<std::size_t>* finished = nullptr)
      : inner_(EbbiotPipelineConfig{}, std::move(name)),
        hook_(std::move(hook)),
        finished_(finished) {}

  Tracks processWindow(const EventPacket& packet) override {
    hook_(frame_++);
    Tracks tracks = inner_.processWindow(packet);
    if (finished_ != nullptr) {
      ++*finished_;
    }
    return tracks;
  }
  [[nodiscard]] OpCounts lastOps() const override { return inner_.lastOps(); }
  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }
  [[nodiscard]] InputDomain inputDomain() const override {
    return inner_.inputDomain();
  }
  void resetState() override { inner_.resetState(); }

 private:
  EbbiotPipeline inner_;
  std::function<void(std::size_t)> hook_;
  std::atomic<std::size_t>* finished_;
  std::size_t frame_ = 0;
};

/// Forwards to another source, calling `hook(window)` before each draw.
class HookedSource final : public EventSource {
 public:
  HookedSource(EventSource& inner, std::function<void(std::size_t)> hook)
      : inner_(inner), hook_(std::move(hook)) {}

  [[nodiscard]] EventPacket nextWindow(TimeUs duration) override {
    hook_(window_++);
    return inner_.nextWindow(duration);
  }
  [[nodiscard]] TimeUs now() const override { return inner_.now(); }
  [[nodiscard]] int width() const override { return inner_.width(); }
  [[nodiscard]] int height() const override { return inner_.height(); }

 private:
  EventSource& inner_;
  std::function<void(std::size_t)> hook_;
  std::size_t window_ = 0;
};

std::string threadsName(const ::testing::TestParamInfo<int>& info) {
  return "threads" + std::to_string(info.param);
}

class RunnerThreadsSlotRingTest : public ::testing::TestWithParam<int> {};

TEST_P(RunnerThreadsSlotRingTest, FrontEndStaysWithinThreeFramesOfSlowest) {
  // A pipeline that sleeps 2 ms a window is the slowest chain by far.
  // The source reads how many windows it has finished at every draw: the
  // front end may fill a slot only once every pipeline is done with the
  // frame that last used it, so it runs at most 3 windows ahead — and
  // with the other chains this fast, it gets there.
  Fixture fix;
  std::atomic<std::size_t> slowFinished{0};
  std::size_t maxLead = 0;  // written only by the front-end chain
  HookedSource source(*fix.synth, [&](std::size_t window) {
    maxLead = std::max(maxLead, window + 1 - slowFinished.load());
  });
  RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  config.threads = GetParam();
  config.extraPipelines.push_back([&slowFinished] {
    return std::make_unique<HookedPipeline>(
        "EBBIOT-slow",
        [](std::size_t) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        },
        &slowFinished);
  });
  const RunResult result =
      runRecording(source, fix.scene, secondsToUs(2.0), config);
  ASSERT_EQ(result.frames, 30U);
  EXPECT_EQ(maxLead, 3U);
}

INSTANTIATE_TEST_SUITE_P(Threads, RunnerThreadsSlotRingTest,
                         ::testing::Values(2, 4), threadsName);

class RunnerThreadsErrorTest : public ::testing::TestWithParam<int> {};

TEST_P(RunnerThreadsErrorTest, SourceErrorAtLaterWindowRethrows) {
  // The source fails mid-run, while pipeline steps of earlier windows
  // may still be running or queued behind the slot ring.
  Fixture fix;
  HookedSource source(*fix.synth, [](std::size_t window) {
    if (window == 7) {
      throw std::runtime_error("source failed");
    }
  });
  RunnerConfig config = makeRegistryRunnerConfig(240, 180);
  config.threads = GetParam();
  EXPECT_THROW((void)runRecording(source, fix.scene, secondsToUs(2.0), config),
               std::runtime_error);
}

TEST_P(RunnerThreadsErrorTest, PipelineErrorAtLaterFrameRethrows) {
  // One pipeline fails mid-run while the front end and the other chains
  // are ahead of it or behind it.
  Fixture fix;
  RunnerConfig config = makeRegistryRunnerConfig(240, 180);
  config.threads = GetParam();
  config.extraPipelines.push_back([] {
    return std::make_unique<HookedPipeline>("EBBIOT-faulty",
                                            [](std::size_t frame) {
                                              if (frame == 9) {
                                                throw std::runtime_error(
                                                    "pipeline failed");
                                              }
                                            });
  });
  EXPECT_THROW(
      (void)runRecording(*fix.synth, fix.scene, secondsToUs(2.0), config),
      std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Threads, RunnerThreadsErrorTest,
                         ::testing::Values(1, 2, 4), threadsName);

class RunnerThreadsJitterTest : public ::testing::TestWithParam<int> {};

TEST_P(RunnerThreadsJitterTest, RandomPipelineSleepsReproduceSerialExactly) {
  // Seeded random sleeps of 0-400 us per window in three extra pipelines
  // shuffle which chain is ahead, which thread runs which step, and when
  // threads park; the RunResult must not notice.
  auto jittered = [](int threads) {
    RunnerConfig config = makeDefaultRunnerConfig(240, 180);
    config.threads = threads;
    for (const std::uint64_t seed : {11U, 12U, 13U}) {
      config.extraPipelines.push_back([seed] {
        auto rng = std::make_shared<Rng>(seed);
        return std::make_unique<HookedPipeline>(
            "EBBIOT-jitter" + std::to_string(seed), [rng](std::size_t) {
              std::this_thread::sleep_for(
                  std::chrono::microseconds(rng->uniformInt(0, 400)));
            });
      });
    }
    Fixture fix;
    return runRecording(*fix.synth, fix.scene, secondsToUs(2.0), config);
  };
  const RunResult serial = jittered(1);
  ASSERT_EQ(serial.pipelines.size(), 6U);
  expectRunResultsEqual(serial, jittered(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Threads, RunnerThreadsJitterTest,
                         ::testing::Values(2, 3, 4), threadsName);

}  // namespace
}  // namespace ebbiot
