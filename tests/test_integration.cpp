// Cross-module integration tests: full recordings through all three
// pipelines, reproducing the *direction* of the paper's findings on
// short synthetic traffic (the full-scale reproduction lives in bench/).
#include <gtest/gtest.h>

#include <memory>
#include <string_view>

#include "src/common/error.hpp"
#include "src/core/runner.hpp"
#include "src/resource/cost_model.hpp"
#include "src/sim/recording.hpp"

namespace ebbiot {
namespace {

/// ~40 s of SyntheticENG traffic through every pipeline.
class EngShortRun : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const RecordingSpec spec = scaledRecording(makeSyntheticEng(3), 0.027);
    recording_ = new Recording(openRecording(spec));
    RunnerConfig config = makeDefaultRunnerConfig(240, 180);
    // Same evaluation protocol as bench_fig4: annotate objects once a
    // tenth is visible so entering vehicles score against their tracks.
    config.gtOptions.minVisibleFraction = 0.10F;
    result_ = new RunResult(runRecording(
        *recording_->source, *recording_->scenario,
        secondsToUs(spec.durationS), config));
  }

  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
    delete recording_;
    recording_ = nullptr;
  }

  /// Stats of one of the three pipelines every test here runs.
  static const PipelineRunStats& stats(std::string_view name) {
    const PipelineRunStats* found = result_->stats(name);
    EBBIOT_ASSERT(found != nullptr);
    return *found;
  }

  static Recording* recording_;
  static RunResult* result_;
};

Recording* EngShortRun::recording_ = nullptr;
RunResult* EngShortRun::result_ = nullptr;

TEST_F(EngShortRun, AllPipelinesProduceTracks) {
  // At the loosest threshold every tracker must find a healthy share of
  // the ground truth.
  EXPECT_GT(stats("EBBIOT").counts[0].recall(), 0.4);
  EXPECT_GT(stats("EBBI+KF").counts[0].recall(), 0.3);
  EXPECT_GT(stats("EBMS").counts[0].recall(), 0.15);
}

TEST_F(EngShortRun, EbbiotBeatsEbmsOnF1) {
  // Fig. 4's headline: EBBIOT outperforms EBMS.  Compare mid-sweep
  // (IoU 0.3 and 0.4) F1.
  for (std::size_t i : {2U, 3U}) {
    const double ours = stats("EBBIOT").counts[i].f1();
    const double ebms = stats("EBMS").counts[i].f1();
    EXPECT_GT(ours, ebms)
        << "threshold " << result_->thresholds[i];
  }
}

TEST_F(EngShortRun, EbbiotAtLeastMatchesKalman) {
  // Fig. 4: EBBIOT >= KF overall (they share the front end; the OT's
  // fragmentation/occlusion handling is the differentiator).
  double oursSum = 0.0;
  double kfSum = 0.0;
  for (std::size_t i = 0; i < result_->thresholds.size(); ++i) {
    oursSum += stats("EBBIOT").counts[i].f1();
    kfSum += stats("EBBI+KF").counts[i].f1();
  }
  EXPECT_GE(oursSum, kfSum * 0.95);
}

TEST_F(EngShortRun, EbbiotStablestAcrossThresholds) {
  // "EBBIOT ... shows more stable precision and recall values for varying
  // thresholds": the drop from the loosest to IoU 0.5 is the smallest.
  auto dropOf = [&](const PipelineRunStats& s) {
    const double first = s.counts[0].recall();
    const double mid = s.counts[4].recall();  // threshold 0.5
    return first > 0.0 ? (first - mid) / first : 1.0;
  };
  const double oursDrop = dropOf(stats("EBBIOT"));
  const double ebmsDrop = dropOf(stats("EBMS"));
  EXPECT_LE(oursDrop, ebmsDrop + 0.05);
}

TEST_F(EngShortRun, MeasuredOpsFollowFig5Structure) {
  // The Fig. 5 *model* comparison at the measured operating point: the
  // EBMS chain (Eq. 2 + Eq. 8) costs a multiple of the EBBIOT chain
  // (Eq. 1 + 5 + 6).  (The measured EBMS ops sit below Eq. (8)'s — our
  // reimplementation is leaner than the jAER-style tracker the paper
  // modelled; see EXPERIMENTS.md — so the model is compared at the
  // measured alpha/beta/NF, and the measured assertions below check the
  // structural claims that are implementation-independent.)
  PipelineCostParams params;
  params.ebbi.alpha = result_->meanAlpha;
  params.nnFilt.alpha = result_->meanAlpha;
  params.nnFilt.beta = std::max(1.0, result_->meanBeta);
  params.ebms.nF = stats("EBMS").filteredEventsPerFrame;
  const double modelOurs = ebbiotPipelineCost(params).computesPerFrame;
  const double modelEbms = ebmsPipelineCost(params).computesPerFrame;
  EXPECT_GT(modelEbms / modelOurs, 2.0);

  // Measured, implementation-independent structure:
  //  * EBBIOT's cost is frame-dominated — within 25% of its model;
  const double oursOps = stats("EBBIOT").meanOpsPerFrame();
  EXPECT_NEAR(oursOps / modelOurs, 1.0, 0.25);
  //  * the front-end-dominated KF pipeline costs about the same as ours;
  const double kfOps = stats("EBBI+KF").meanOpsPerFrame();
  EXPECT_NEAR(kfOps / oursOps, 1.0, 0.25);
  //  * the event-domain chain pays at least the NN-filt floor of
  //    2(p^2-1)+Bt = 32 ops per raw event (Eq. 2).
  const double ebmsOps = stats("EBMS").meanOpsPerFrame();
  EXPECT_GT(ebmsOps, result_->meanEventsPerFrame * 32.0 * 0.9);
}

TEST_F(EngShortRun, MeasuredAlphaBetaNearModelDefaults) {
  // The cost models assume alpha <= 0.1 and beta ~= 2; the synthetic
  // traffic must actually operate in that regime.
  EXPECT_LT(result_->meanAlpha, 0.1);
  EXPECT_GT(result_->meanAlpha, 0.001);
  EXPECT_GT(result_->meanBeta, 1.0);
  EXPECT_LT(result_->meanBeta, 3.0);
}

TEST(IntegrationTest, Lt4SmallObjectsStillTracked) {
  const RecordingSpec spec = scaledRecording(makeSyntheticLt4(5), 0.03);
  Recording rec = openRecording(spec);
  RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  config.variants.clear();
  // Smaller objects at the 6 mm lens: relax the seed gate.
  config.extraPipelines.push_back([] {
    EbbiotPipelineConfig ebbiot;
    ebbiot.tracker.minSeedArea = 6.0F;
    return std::make_unique<EbbiotPipeline>(ebbiot);
  });
  const RunResult result =
      runRecording(*rec.source, *rec.scenario, secondsToUs(spec.durationS),
                   config);
  ASSERT_NE(result.stats("EBBIOT"), nullptr);
  EXPECT_GT(result.stats("EBBIOT")->counts[0].recall(), 0.3);
}

TEST(IntegrationTest, RoeSuppressesDistractorFalsePositives) {
  // A fluttering tree with and without a Region of Exclusion.
  auto runWith = [](bool useRoe) {
    ScriptedScene scene(240, 180);
    scene.addLinear(ObjectClass::kCar, BBox{-48, 60, 48, 22}, Vec2f{60, 0},
                    0, secondsToUs(12.0));
    EventSynthConfig synthConfig;
    synthConfig.backgroundActivityHz = 0.2;
    synthConfig.seed = 9;
    synthConfig.distractors.push_back(
        DistractorRegion{BBox{190, 130, 40, 40}, 6'000.0});
    FastEventSynth synth(scene, synthConfig);
    RunnerConfig config = makeDefaultRunnerConfig(240, 180);
    config.variants.clear();
    config.extraPipelines.push_back([useRoe] {
      EbbiotPipelineConfig ebbiot;
      if (useRoe) {
        ebbiot.tracker.regionsOfExclusion.push_back(BBox{185, 125, 50, 50});
      }
      return std::make_unique<EbbiotPipeline>(ebbiot);
    });
    return runRecording(synth, scene, secondsToUs(12.0), config);
  };
  const RunResult without = runWith(false);
  const RunResult with = runWith(true);
  // The ROE strictly improves precision (fewer distractor tracks) without
  // hurting recall.
  const PrCounts& p0 = without.stats("EBBIOT")->counts[1];
  const PrCounts& p1 = with.stats("EBBIOT")->counts[1];
  EXPECT_GT(p1.precision(), p0.precision());
  EXPECT_GE(p1.recall() + 0.02, p0.recall());
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  auto runOnce = [] {
    const RecordingSpec spec = scaledRecording(makeSyntheticEng(11), 0.004);
    Recording rec = openRecording(spec);
    RunnerConfig config = makeDefaultRunnerConfig(240, 180);
    config.variants = {"EBBIOT", "EBBI+KF"};
    return runRecording(*rec.source, *rec.scenario,
                        secondsToUs(spec.durationS), config);
  };
  const RunResult a = runOnce();
  const RunResult b = runOnce();
  EXPECT_EQ(a.streamEvents, b.streamEvents);
  EXPECT_EQ(a.gtBoxes, b.gtBoxes);
  ASSERT_EQ(a.pipelines.size(), 2U);
  ASSERT_EQ(b.pipelines.size(), 2U);
  for (std::size_t p = 0; p < a.pipelines.size(); ++p) {
    for (std::size_t i = 0; i < a.thresholds.size(); ++i) {
      EXPECT_EQ(a.pipelines[p].counts[i].truePositives,
                b.pipelines[p].counts[i].truePositives);
    }
  }
  EXPECT_EQ(a.stats("EBBIOT")->totalOps, b.stats("EBBIOT")->totalOps);
}

TEST(IntegrationTest, AnalyticModelsTrackMeasuredOpsWithinFactorTwo) {
  // Eq. (1)+(5)+(6) vs the instrumented pipeline on ENG-like traffic:
  // same order of magnitude (the models are architectural estimates, the
  // measurement is exact).
  const RecordingSpec spec = scaledRecording(makeSyntheticEng(13), 0.004);
  Recording rec = openRecording(spec);
  RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  config.variants = {"EBBIOT"};
  const RunResult result = runRecording(
      *rec.source, *rec.scenario, secondsToUs(spec.durationS), config);
  const double measured = result.stats("EBBIOT")->meanOpsPerFrame();
  const double model = ebbiotPipelineCost().computesPerFrame;
  EXPECT_GT(measured / model, 0.5);
  EXPECT_LT(measured / model, 2.0);
}

}  // namespace
}  // namespace ebbiot
