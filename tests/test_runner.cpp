#include "src/core/runner.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "src/common/error.hpp"
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

TEST(RunnerTest, RunsAllPipelinesAndCountsFrames) {
  Fixture fix;
  const RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(8.0), config);
  const auto expectedFrames =
      static_cast<std::size_t>(secondsToUs(8.0) / kDefaultFramePeriodUs);
  EXPECT_EQ(result.frames, expectedFrames);
  ASSERT_EQ(result.pipelines.size(), 3U);
  for (const PipelineRunStats& stats : result.pipelines) {
    EXPECT_EQ(stats.frames, expectedFrames) << stats.name;
  }
  EXPECT_EQ(result.thresholds, config.iouThresholds);
  EXPECT_GT(result.streamEvents, 0U);
  EXPECT_GT(result.latchedEvents, 0U);
  EXPECT_LE(result.latchedEvents, result.streamEvents);
  EXPECT_EQ(result.gtTracks, 2U);
  EXPECT_GT(result.gtBoxes, 0U);
}

TEST(RunnerTest, EbbiotAchievesGoodRecallOnEasyScene) {
  Fixture fix;
  const RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(8.0), config);
  // At IoU 0.3 on two clean vehicles, EBBIOT should recall most boxes.
  const PrCounts& counts = result.stats("EBBIOT")->counts[2];  // IoU 0.3
  EXPECT_GT(counts.recall(), 0.6);
  EXPECT_GT(counts.precision(), 0.6);
}

TEST(RunnerTest, PipelinesCanBeDisabled) {
  Fixture fix;
  RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  config.variants = {"EBBIOT"};
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(2.0), config);
  EXPECT_NE(result.stats("EBBIOT"), nullptr);
  EXPECT_EQ(result.stats("EBBI+KF"), nullptr);
  EXPECT_EQ(result.stats("EBMS"), nullptr);
}

TEST(RunnerTest, StatsKeyedByPipelineName) {
  Fixture fix;
  const RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(2.0), config);
  ASSERT_EQ(result.pipelines.size(), 3U);
  EXPECT_EQ(result.pipelines[0].name, "EBBIOT");
  EXPECT_EQ(result.pipelines[1].name, "EBBI+KF");
  EXPECT_EQ(result.pipelines[2].name, "EBMS");
  ASSERT_NE(result.stats("EBBIOT"), nullptr);
  ASSERT_NE(result.stats("EBBI+KF"), nullptr);
  ASSERT_NE(result.stats("EBMS"), nullptr);
  EXPECT_EQ(result.stats("nonesuch"), nullptr);
}

TEST(RunnerTest, ExtraPipelineRegistersInOneLine) {
  Fixture fix;
  RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  config.variants = {"EBBIOT"};
  EbbiotPipelineConfig ccaVariant;
  ccaVariant.rpnKind = RpnKind::kCca;
  ccaVariant.cca.minComponentPixels = 6;
  config.extraPipelines.push_back([ccaVariant] {
    return std::make_unique<EbbiotPipeline>(ccaVariant, "EBBIOT-cca");
  });
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(4.0), config);
  ASSERT_EQ(result.pipelines.size(), 2U);
  const PipelineRunStats* cca = result.stats("EBBIOT-cca");
  ASSERT_NE(cca, nullptr);
  EXPECT_EQ(cca->frames, result.frames);
  EXPECT_GT(cca->totalOps.total(), 0U);
  // Both variants see the same recording; the CCA variant tracks too.
  EXPECT_GT(cca->counts[0].recall(), 0.3);
}

TEST(RunnerTest, DuplicatePipelineNamesRejected) {
  Fixture fix;
  RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  // A customised built-in must replace its registry key, not join it.
  config.extraPipelines.push_back(
      [] { return std::make_unique<EbbiotPipeline>(EbbiotPipelineConfig{}); });
  EXPECT_THROW(
      (void)runRecording(*fix.synth, fix.scene, secondsToUs(1.0), config),
      LogicError);
}

TEST(RunnerTest, MaxFramesLimitsWork) {
  Fixture fix;
  RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  config.maxFrames = 5;
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(8.0), config);
  EXPECT_EQ(result.frames, 5U);
}

TEST(RunnerTest, MeanStatsPopulated) {
  Fixture fix;
  const RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(4.0), config);
  EXPECT_GT(result.meanAlpha, 0.0);
  EXPECT_LT(result.meanAlpha, 0.2);
  EXPECT_GE(result.meanBeta, 1.0);
  EXPECT_GT(result.meanEventsPerFrame, 0.0);
  const PipelineRunStats* ebms = result.stats("EBMS");
  ASSERT_NE(ebms, nullptr);
  EXPECT_GT(ebms->filteredEventsPerFrame, 0.0);
  EXPECT_LT(ebms->filteredEventsPerFrame, result.meanEventsPerFrame);
  EXPECT_EQ(result.stats("EBBIOT")->filteredEventsPerFrame, 0.0);
  EXPECT_GT(result.stats("EBBIOT")->meanOpsPerFrame(), 0.0);
}

TEST(RunnerTest, ToRecordingResultCarriesWeights) {
  Fixture fix;
  const RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  const RunResult result =
      runRecording(*fix.synth, fix.scene, secondsToUs(4.0), config);
  const RecordingResult rec =
      result.toRecordingResult(*result.stats("EBBIOT"), "unit");
  EXPECT_EQ(rec.name, "unit");
  EXPECT_EQ(rec.gtTracks, result.gtTracks);
  EXPECT_EQ(rec.thresholds, result.thresholds);
  EXPECT_EQ(rec.counts.size(), result.thresholds.size());
}

TEST(RunnerTest, GeometryMismatchRejected) {
  Fixture fix;
  ScriptedScene other(120, 90);
  const RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  EXPECT_THROW(
      (void)runRecording(*fix.synth, other, secondsToUs(1.0), config),
      LogicError);
}

// A config sized for another sensor is rejected before any pipeline is
// built: a smaller source would otherwise be scored with the config's
// frame size, and a larger one would fail mid-run.
TEST(RunnerTest, SourceSmallerThanConfigRejected) {
  ScriptedScene scene(128, 128);
  FastEventSynth synth(scene, EventSynthConfig{});
  const RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  EXPECT_THROW((void)runRecording(synth, scene, secondsToUs(1.0), config),
               ConfigError);
}

TEST(RunnerTest, SourceLargerThanConfigRejected) {
  ScriptedScene scene(320, 240);
  FastEventSynth synth(scene, EventSynthConfig{});
  const RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  EXPECT_THROW((void)runRecording(synth, scene, secondsToUs(1.0), config),
               ConfigError);
}

TEST(RunnerTest, ZeroDurationRejected) {
  Fixture fix;
  const RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  EXPECT_THROW((void)runRecording(*fix.synth, fix.scene, 0, config),
               LogicError);
}

TEST(RunnerConfigTest, DefaultIsValid) {
  EXPECT_NO_THROW(RunnerConfig{}.validate());
  EXPECT_NO_THROW(makeDefaultRunnerConfig(240, 180).validate());
}

TEST(RunnerConfigTest, BadValuesThrowConfigError) {
  {
    RunnerConfig config = makeDefaultRunnerConfig(240, 180);
    config.framePeriod = 0;
    EXPECT_THROW(config.validate(), ConfigError);
  }
  {
    RunnerConfig config = makeDefaultRunnerConfig(240, 180);
    config.framePeriod = -66'000;
    EXPECT_THROW(config.validate(), ConfigError);
  }
  {
    RunnerConfig config = makeDefaultRunnerConfig(240, 180);
    config.iouThresholds.clear();
    EXPECT_THROW(config.validate(), ConfigError);
  }
  {
    RunnerConfig config = makeDefaultRunnerConfig(240, 180);
    config.iouThresholds = {0.5f, 1.5f};
    EXPECT_THROW(config.validate(), ConfigError);
  }
  {
    RunnerConfig config = makeDefaultRunnerConfig(240, 180);
    config.iouThresholds = {-0.1f};
    EXPECT_THROW(config.validate(), ConfigError);
  }
}

TEST(RunnerConfigTest, RunRecordingValidatesUpFront) {
  Fixture fix;
  RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  config.iouThresholds.clear();
  EXPECT_THROW(
      (void)runRecording(*fix.synth, fix.scene, secondsToUs(1.0), config),
      ConfigError);
}

}  // namespace
}  // namespace ebbiot
