// Determinism of the multithreaded runner: the stage graph must reproduce
// the serial RunResult *exactly* (counts, ops, stream stats, every
// pipeline of the full variant registry) for every thread count, because
// each accumulator is owned by exactly one task chain and updated in
// frame order — only which OS thread executes a task varies.
#include <gtest/gtest.h>

#include <memory>

#include "src/common/error.hpp"
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
  // {1, 2, 4, 0 = hardware} threads against the serial baseline — every
  // cell must be bit-identical.
  constexpr double kSeconds = 2.0;
  RunnerConfig serial = makeRegistryRunnerConfig(240, 180);
  serial.threads = 1;

  Fixture fixSerial;
  const RunResult baseline = runRecording(*fixSerial.synth, fixSerial.scene,
                                          secondsToUs(kSeconds), serial);
  ASSERT_GT(baseline.pipelines.size(), 1U);

  for (const int threads : {1, 2, 4, 0}) {
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
  // the 240x180 fixture.  The serial loop throws directly; the stage
  // graph drains every outstanding task of the other chains first, then
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

}  // namespace
}  // namespace ebbiot
