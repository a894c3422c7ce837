#include "src/detect/region_filter.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/pipeline.hpp"
#include "src/sim/davis.hpp"
#include "src/sim/event_synth.hpp"
#include "src/sim/scene.hpp"

namespace ebbiot {
namespace {

BinaryImage imageWithBlock(int w, int h, const BBox& block) {
  BinaryImage img(w, h);
  for (int y = static_cast<int>(block.bottom());
       y < static_cast<int>(block.top()); ++y) {
    for (int x = static_cast<int>(block.left());
         x < static_cast<int>(block.right()); ++x) {
      img.set(x, y, true);
    }
  }
  return img;
}

RegionProposal proposalOf(const BBox& box) {
  return RegionProposal{box, static_cast<std::uint64_t>(box.area())};
}

TEST(RegionFilterTest, AcceptsDenseVehicleLikePatch) {
  const BBox car{50, 60, 40, 20};
  const BinaryImage img = imageWithBlock(240, 180, car);
  RegionFilter filter{RegionFilterConfig{}};
  EXPECT_GT(filter.score(img, proposalOf(car)), 0);
  const RegionProposals out = filter.apply(img, {proposalOf(car)});
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].box, car);
  EXPECT_EQ(filter.lastRejectedCount(), 0U);
}

TEST(RegionFilterTest, RejectsSparseNoisePatch) {
  // A 12x12 proposal holding a handful of scattered survivors — the
  // distractor class EBBINNOT's classifier removes.
  BinaryImage img(240, 180);
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    img.set(100 + static_cast<int>(rng.uniformInt(0, 11)),
            100 + static_cast<int>(rng.uniformInt(0, 11)), true);
  }
  RegionFilter filter{RegionFilterConfig{}};
  const RegionProposal noise = proposalOf(BBox{100, 100, 12, 12});
  EXPECT_LE(filter.score(img, noise), 0);
  const RegionProposals out = filter.apply(img, {noise});
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(filter.lastRejectedCount(), 1U);
}

TEST(RegionFilterTest, KeepsOrderAndDropsOnlyRejected) {
  const BBox carA{20, 60, 40, 20};
  const BBox carB{120, 100, 48, 22};
  BinaryImage img = imageWithBlock(240, 180, carA);
  const BinaryImage imgB = imageWithBlock(240, 180, carB);
  img.orWith(imgB);
  img.set(200, 30, true);  // lone survivor inside the noise proposal
  RegionFilter filter{RegionFilterConfig{}};
  const RegionProposals out = filter.apply(
      img,
      {proposalOf(carA), proposalOf(BBox{195, 25, 10, 10}), proposalOf(carB)});
  ASSERT_EQ(out.size(), 2U);
  EXPECT_EQ(out[0].box, carA);
  EXPECT_EQ(out[1].box, carB);
  EXPECT_EQ(filter.lastRejectedCount(), 1U);
}

TEST(RegionFilterTest, EmptyBoxesAreDropped) {
  BinaryImage img(240, 180);
  RegionFilter filter{RegionFilterConfig{}};
  const RegionProposals out = filter.apply(img, {proposalOf(BBox{})});
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(filter.lastRejectedCount(), 1U);
}

TEST(RegionFilterTest, OpsScaleWithProposalCountNotActivity) {
  const BBox box{50, 60, 32, 16};
  const BinaryImage blank = imageWithBlock(240, 180, BBox{});
  const BinaryImage full = imageWithBlock(240, 180, box);
  RegionFilter filter{RegionFilterConfig{}};
  (void)filter.apply(blank, {proposalOf(box)});
  const OpCounts one = filter.lastOps();
  EXPECT_GT(one.total(), 0U);
  EXPECT_GT(one.memReads, 0U);  // patch fetches + weight fetches
  // Same box over a set patch: identical work (reads are unconditional).
  (void)filter.apply(full, {proposalOf(box)});
  EXPECT_EQ(filter.lastOps(), one);
  // Two proposals: exactly double.
  (void)filter.apply(full, {proposalOf(box), proposalOf(box)});
  const OpCounts two = filter.lastOps();
  EXPECT_EQ(two.multiplies, 2 * one.multiplies);
  EXPECT_EQ(two.adds, 2 * one.adds);
  EXPECT_EQ(two.memReads, 2 * one.memReads);
  // No proposals: the stage is free.
  (void)filter.apply(full, {});
  EXPECT_EQ(filter.lastOps().total(), 0U);
}

TEST(RegionFilterTest, DeterministicAcrossInstancesAndSeeds) {
  const BBox car{50, 60, 40, 20};
  const BinaryImage img = imageWithBlock(240, 180, car);
  RegionFilter a{RegionFilterConfig{}};
  RegionFilter b{RegionFilterConfig{}};
  EXPECT_EQ(a.score(img, proposalOf(car)), b.score(img, proposalOf(car)));
  // The structural gates dominate: a different mixing seed may move the
  // logit but not the decision on a clear-cut patch.
  RegionFilterConfig other;
  other.weightSeed = 0xDEADBEEFU;
  RegionFilter c{other};
  EXPECT_GT(c.score(img, proposalOf(car)), 0);
}

TEST(RegionFilterTest, InvalidConfigRejected) {
  RegionFilterConfig bad;
  bad.patchGrid = 0;
  EXPECT_THROW(RegionFilter{bad}, LogicError);
  RegionFilterConfig bad2;
  bad2.hiddenUnits = 2;
  EXPECT_THROW(RegionFilter{bad2}, LogicError);
  RegionFilterConfig bad3;
  bad3.referenceArea = 0.0F;
  EXPECT_THROW(RegionFilter{bad3}, LogicError);
}

// --- End-to-end: the EBBINNOT-style pipeline still tracks the vehicle.

TEST(RegionFilterPipelineTest, NnFilteredPipelineStillTracksCar) {
  ScriptedScene scene(240, 180);
  scene.addLinear(ObjectClass::kCar, BBox{10, 60, 48, 22}, Vec2f{60, 0}, 0,
                  secondsToUs(10.0));
  EventSynthConfig synthConfig;
  synthConfig.backgroundActivityHz = 0.3;
  synthConfig.seed = 21;
  FastEventSynth synth(scene, synthConfig);

  EbbiotPipelineConfig config;
  config.regionFilter = RegionFilterConfig{};
  EbbiotPipeline pipeline(config, "EBBINNOT");
  Tracks tracks;
  for (int f = 0; f < 20; ++f) {
    tracks = pipeline.processWindow(
        latchReadout(synth.nextWindow(kDefaultFramePeriodUs), 240, 180));
  }
  ASSERT_GE(tracks.size(), 1U);
  const BBox carBox{10.0F + 60.0F * 1.32F, 60, 48, 22};
  EXPECT_GT(iou(tracks[0].box, carBox), 0.3F);
  // The stage metered its work and it shows up in the pipeline total.
  EXPECT_GT(pipeline.stageOps().regionFilter.total(), 0U);
  EXPECT_EQ(pipeline.stageOps().total().total(),
            pipeline.lastOps().total());
  // Survivors are what the tracker saw.
  EXPECT_LE(pipeline.lastTrackedProposals().size(),
            pipeline.lastProposals().size());
}

TEST(RegionFilterPipelineTest, NoFilterMeansZeroStageOps) {
  ScriptedScene scene(240, 180);
  scene.addLinear(ObjectClass::kCar, BBox{10, 60, 48, 22}, Vec2f{60, 0}, 0,
                  secondsToUs(10.0));
  EventSynthConfig synthConfig;
  synthConfig.seed = 21;
  FastEventSynth synth(scene, synthConfig);
  EbbiotPipeline pipeline{EbbiotPipelineConfig{}};
  (void)pipeline.processWindow(
      latchReadout(synth.nextWindow(kDefaultFramePeriodUs), 240, 180));
  EXPECT_EQ(pipeline.stageOps().regionFilter, OpCounts{});
  EXPECT_EQ(&pipeline.lastTrackedProposals(), &pipeline.lastProposals());
}

}  // namespace
}  // namespace ebbiot
