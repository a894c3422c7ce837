#include "src/core/pipeline.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/rng.hpp"
#include "src/sim/davis.hpp"
#include "src/sim/event_synth.hpp"
#include "src/sim/scene.hpp"

namespace ebbiot {
namespace {

/// Latched packets for a scripted car crossing the frame.
class CarFixture {
 public:
  CarFixture()
      : scene_(240, 180) {
    scene_.addLinear(ObjectClass::kCar, BBox{10, 60, 48, 22}, Vec2f{60, 0},
                     0, secondsToUs(10.0));
    EventSynthConfig config;
    config.backgroundActivityHz = 0.3;
    config.seed = 21;
    synth_ = std::make_unique<FastEventSynth>(scene_, config);
  }

  EventPacket nextStream() { return synth_->nextWindow(kDefaultFramePeriodUs); }
  EventPacket nextLatched() {
    return latchReadout(nextStream(), 240, 180);
  }
  const ScriptedScene& scene() const { return scene_; }

 private:
  ScriptedScene scene_;
  std::unique_ptr<FastEventSynth> synth_;
};

TEST(EbbiotPipelineTest, TracksScriptedCar) {
  CarFixture fix;
  EbbiotPipeline pipeline{EbbiotPipelineConfig{}};
  Tracks tracks;
  for (int f = 0; f < 20; ++f) {
    tracks = pipeline.processWindow(fix.nextLatched());
  }
  ASSERT_GE(tracks.size(), 1U);
  // The car at t ~= 20*66 ms is near x = 10 + 60*1.32 = 89.
  const BBox carBox{10.0F + 60.0F * 1.32F, 60, 48, 22};
  EXPECT_GT(iou(tracks[0].box, carBox), 0.3F);
}

TEST(EbbiotPipelineTest, IntermediatesPopulated) {
  CarFixture fix;
  EbbiotPipeline pipeline{EbbiotPipelineConfig{}};
  (void)pipeline.processWindow(fix.nextLatched());
  EXPECT_GT(pipeline.lastEbbi().popcount(), 0U);
  // Median filtering strictly reduces or keeps the pixel count on noisy
  // frames.
  EXPECT_LE(pipeline.lastFiltered().popcount(),
            pipeline.lastEbbi().popcount());
}

TEST(EbbiotPipelineTest, StageOpsPlausibleAgainstModels) {
  CarFixture fix;
  EbbiotPipeline pipeline{EbbiotPipelineConfig{}};
  for (int f = 0; f < 5; ++f) {
    (void)pipeline.processWindow(fix.nextLatched());
  }
  const StageOps& ops = pipeline.stageOps();
  // Median filter: exactly Eq. (1)'s fixed 2*A*B compute floor (majority
  // compare + write per pixel), activity-independent; the ~p^2*A*B patch
  // fetches land in memReads (border patches clamp smaller).
  EXPECT_EQ(ops.frontEnd.medianFilter.total(), 2U * 240U * 180U);
  EXPECT_GT(ops.frontEnd.medianFilter.memReads, 8U * 240U * 180U);
  EXPECT_LT(ops.frontEnd.medianFilter.memReads, 9U * 240U * 180U);
  // RPN: near A*B + 2*A*B/18.
  EXPECT_GT(ops.frontEnd.rpn.total(), 45'000U);
  EXPECT_LT(ops.frontEnd.rpn.total(), 55'000U);
  // Tracker: hundreds of ops, not thousands (Eq. (6) order).
  EXPECT_LT(ops.tracker.total(), 5'000U);
}

TEST(EbbiotPipelineTest, CcaRpnVariantAlsoTracks) {
  CarFixture fix;
  EbbiotPipelineConfig config;
  config.rpnKind = RpnKind::kCca;
  config.cca.minComponentPixels = 6;
  EbbiotPipeline pipeline(config);
  Tracks tracks;
  for (int f = 0; f < 20; ++f) {
    tracks = pipeline.processWindow(fix.nextLatched());
  }
  ASSERT_GE(tracks.size(), 1U);
  const BBox carBox{10.0F + 60.0F * 1.32F, 60, 48, 22};
  EXPECT_GT(iou(tracks[0].box, carBox), 0.3F);
}

TEST(KalmanPipelineTest, TracksScriptedCar) {
  CarFixture fix;
  KalmanPipeline pipeline{KalmanPipelineConfig{}};
  Tracks tracks;
  for (int f = 0; f < 20; ++f) {
    tracks = pipeline.processWindow(fix.nextLatched());
  }
  ASSERT_GE(tracks.size(), 1U);
  const BBox carBox{10.0F + 60.0F * 1.32F, 60, 48, 22};
  EXPECT_GT(iou(tracks[0].box, carBox), 0.25F);
}

TEST(EbmsPipelineTest, TracksScriptedCarFromStream) {
  CarFixture fix;
  EbmsPipeline pipeline{EbmsPipelineConfig{}};
  Tracks tracks;
  for (int f = 0; f < 20; ++f) {
    tracks = pipeline.processWindow(fix.nextStream());
  }
  ASSERT_GE(tracks.size(), 1U);
  // EBMS boxes are centroid+extent estimates; demand centre proximity
  // rather than tight IoU.
  const BBox carBox{10.0F + 60.0F * 1.32F, 60, 48, 22};
  const Vec2f c = tracks[0].box.center();
  const Vec2f truth = carBox.center();
  EXPECT_LT((c - truth).norm(), 25.0F);
}

TEST(EbmsPipelineTest, NnFilterReducesEventCount) {
  CarFixture fix;
  EbmsPipeline pipeline{EbmsPipelineConfig{}};
  const EventPacket stream = fix.nextStream();
  (void)pipeline.processWindow(stream);
  EXPECT_LT(pipeline.lastFilteredEventCount(), stream.size());
  EXPECT_GT(pipeline.lastFilteredEventCount(), 0U);
}

TEST(EbmsPipelineTest, OpsDominatedByPerEventWork) {
  CarFixture fix;
  EbmsPipeline pipeline{EbmsPipelineConfig{}};
  (void)pipeline.processWindow(fix.nextStream());
  const EbmsStageOps& ops = pipeline.stageOps();
  EXPECT_GT(ops.nnFilter.total(), 0U);
  EXPECT_GT(ops.ebms.total(), 0U);
}

TEST(EbmsPipelineTest, OptionalRefractoryStageThinsTheStream) {
  // With the refractory stage enabled, the NN filter sees at most one
  // event per pixel per period — fewer (never more) events than the
  // bare pipeline — while the default config keeps the old shape.
  CarFixture bareFix;
  CarFixture refrFix;
  EbmsPipeline bare{EbmsPipelineConfig{}};
  EbmsPipelineConfig withRefractory;
  withRefractory.refractoryPeriod = 20'000;
  EbmsPipeline refr{withRefractory};
  for (int f = 0; f < 5; ++f) {
    (void)bare.processWindow(bareFix.nextStream());
    (void)refr.processWindow(refrFix.nextStream());
    EXPECT_LE(refr.stageOps().nnFilter.total(),
              bare.stageOps().nnFilter.total())
        << "frame " << f;
  }
  // Snapshot round-trip carries the refractory map along.
  auto snap = refr.makeSnapshot();
  ASSERT_TRUE(refr.saveState(*snap));
  EXPECT_TRUE(refr.restoreState(*snap));
  // A refractory-less pipeline refuses a refractory-ful snapshot.
  EXPECT_FALSE(bare.restoreState(*snap));
}

TEST(PipelineInterfaceTest, AllThreePipelinesDriveUniformly) {
  // The three paper pipelines behind one vtable: names, input domains,
  // and processWindow all reachable through Pipeline*.
  CarFixture fix;
  std::vector<std::unique_ptr<Pipeline>> pipelines;
  pipelines.push_back(
      std::make_unique<EbbiotPipeline>(EbbiotPipelineConfig{}));
  pipelines.push_back(
      std::make_unique<KalmanPipeline>(KalmanPipelineConfig{}));
  pipelines.push_back(std::make_unique<EbmsPipeline>(EbmsPipelineConfig{}));
  EXPECT_EQ(pipelines[0]->name(), "EBBIOT");
  EXPECT_EQ(pipelines[1]->name(), "EBBI+KF");
  EXPECT_EQ(pipelines[2]->name(), "EBMS");
  EXPECT_EQ(pipelines[0]->inputDomain(), InputDomain::kLatchedFrame);
  EXPECT_EQ(pipelines[1]->inputDomain(), InputDomain::kLatchedFrame);
  EXPECT_EQ(pipelines[2]->inputDomain(), InputDomain::kEventStream);

  for (int f = 0; f < 5; ++f) {
    const EventPacket stream = fix.nextStream();
    const EventPacket latched = latchReadout(stream, 240, 180);
    for (auto& p : pipelines) {
      const EventPacket& input =
          p->inputDomain() == InputDomain::kLatchedFrame ? latched : stream;
      (void)p->processWindow(input);
      EXPECT_GT(p->lastOps().total(), 0U) << p->name();
    }
  }
  // Only the event-domain pipeline reports a filtered event count.
  EXPECT_EQ(pipelines[0]->lastFilteredEventCount(), 0U);
  EXPECT_GT(pipelines[2]->lastFilteredEventCount(), 0U);
}

TEST(PipelineInterfaceTest, CustomNameOverridesDefault) {
  EbbiotPipelineConfig config;
  config.rpnKind = RpnKind::kCca;
  EbbiotPipeline pipeline(config, "EBBIOT-cca");
  EXPECT_EQ(pipeline.name(), "EBBIOT-cca");
}

TEST(PipelineComparisonTest, EbbiotCheaperThanEbmsPerFrameWhenBusy) {
  // The measured Fig. 5 direction: at the paper's operating point (a busy
  // junction, thousands of events per frame) the event-domain chain costs
  // more ops per frame than the whole EBBIOT chain.  EBBIOT's cost is
  // frame-dominated (~constant); the EBMS chain's scales with event rate.
  auto makeBusyScene = [](ScriptedScene& scene) {
    scene.addLinear(ObjectClass::kBus, BBox{-60, 40, 120, 38}, Vec2f{45, 0},
                    0, secondsToUs(20.0));
    scene.addLinear(ObjectClass::kBus, BBox{240, 85, 120, 38},
                    Vec2f{-40, 0}, 0, secondsToUs(20.0));
    scene.addLinear(ObjectClass::kCar, BBox{-48, 130, 48, 22}, Vec2f{70, 0},
                    0, secondsToUs(20.0));
  };
  EventSynthConfig synthConfig;
  synthConfig.backgroundActivityHz = 1.0;
  synthConfig.seed = 77;

  ScriptedScene sceneA(240, 180);
  makeBusyScene(sceneA);
  FastEventSynth synthA(sceneA, synthConfig);
  EbbiotPipeline ours{EbbiotPipelineConfig{}};
  std::uint64_t oursOps = 0;

  ScriptedScene sceneB(240, 180);
  makeBusyScene(sceneB);
  FastEventSynth synthB(sceneB, synthConfig);
  EbmsPipeline theirs{EbmsPipelineConfig{}};
  std::uint64_t theirsOps = 0;

  for (int f = 0; f < 30; ++f) {
    const EventPacket stream = synthA.nextWindow(kDefaultFramePeriodUs);
    (void)ours.processWindow(latchReadout(stream, 240, 180));
    oursOps += ours.lastOps().total();
    (void)theirs.processWindow(synthB.nextWindow(kDefaultFramePeriodUs));
    theirsOps += theirs.lastOps().total();
  }
  EXPECT_LT(oursOps, theirsOps);
}

}  // namespace
}  // namespace ebbiot
