#include "src/detect/histogram_rpn.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace ebbiot {
namespace {

void fillBlock(BinaryImage& img, int x0, int y0, int w, int h) {
  for (int y = y0; y < y0 + h; ++y) {
    for (int x = x0; x < x0 + w; ++x) {
      img.set(x, y, true);
    }
  }
}

HistogramRpnConfig paperConfig() {
  return HistogramRpnConfig{};  // s1=6, s2=3, threshold=1
}

TEST(HistogramRpnTest, EmptyImageNoProposals) {
  HistogramRpn rpn(paperConfig());
  const BinaryImage img(240, 180);
  EXPECT_TRUE(rpn.propose(img).empty());
}

TEST(HistogramRpnTest, SingleObjectSingleProposal) {
  HistogramRpn rpn(paperConfig());
  BinaryImage img(240, 180);
  fillBlock(img, 60, 60, 48, 24);
  const RegionProposals props = rpn.propose(img);
  ASSERT_EQ(props.size(), 1U);
  const BBox& b = props[0].box;
  // Proposal covers the object (downsampling can pad to block boundaries).
  EXPECT_LE(b.left(), 60.0F);
  EXPECT_GE(b.right(), 108.0F);
  EXPECT_LE(b.bottom(), 60.0F);
  EXPECT_GE(b.top(), 84.0F);
  // But not grossly oversized: within one block on each side.
  EXPECT_GE(b.left(), 60.0F - 6.0F);
  EXPECT_LE(b.right(), 108.0F + 6.0F);
  EXPECT_GE(b.bottom(), 60.0F - 3.0F);
  EXPECT_LE(b.top(), 84.0F + 3.0F);
}

TEST(HistogramRpnTest, FragmentedObjectMergedByCoarseHistogram) {
  // The Fig. 3 phenomenon: a vehicle with a sparse mid-section splits
  // into two blobs at full resolution, but the coarse X histogram bridges
  // the gap when the gap is smaller than one downsample block.
  HistogramRpn rpn(paperConfig());
  BinaryImage img(240, 180);
  fillBlock(img, 60, 60, 20, 24);   // front of the bus
  fillBlock(img, 84, 60, 20, 24);   // rear (4 px gap < s1 = 6)
  const RegionProposals props = rpn.propose(img);
  ASSERT_EQ(props.size(), 1U);
  EXPECT_GE(props[0].box.w, 40.0F);
}

TEST(HistogramRpnTest, TwoSeparatedObjectsTwoProposals) {
  HistogramRpn rpn(paperConfig());
  BinaryImage img(240, 180);
  fillBlock(img, 20, 60, 30, 20);
  fillBlock(img, 150, 61, 30, 20);  // same Y band, far in X
  const RegionProposals props = rpn.propose(img);
  EXPECT_EQ(props.size(), 2U);
}

TEST(HistogramRpnTest, DiagonalObjectsValidityCheckSuppressesGhosts) {
  // Two objects in different X *and* Y bands create 4 X-run x Y-run
  // intersections; the two empty "ghost" corners must be rejected by the
  // original-image validity check (Section II-B).
  HistogramRpnConfig config = paperConfig();
  config.minValidPixels = 4;
  HistogramRpn rpn(config);
  BinaryImage img(240, 180);
  fillBlock(img, 20, 30, 30, 20);
  fillBlock(img, 150, 120, 30, 20);
  const RegionProposals props = rpn.propose(img);
  ASSERT_EQ(props.size(), 2U);
  for (const RegionProposal& p : props) {
    EXPECT_GE(p.support, 4U);
  }
}

TEST(HistogramRpnTest, GhostsSurviveWithoutValidation) {
  // Control for the test above: with validation forced off via a huge
  // run threshold... instead check alwaysValidate=false but single-axis
  // ambiguity: two objects sharing a Y band produce no ghosts.
  HistogramRpn rpn(paperConfig());
  BinaryImage img(240, 180);
  fillBlock(img, 20, 60, 30, 20);
  fillBlock(img, 150, 60, 30, 20);
  const RegionProposals props = rpn.propose(img);
  // Single Y-run: 2 proposals, no validation needed.
  EXPECT_EQ(props.size(), 2U);
  EXPECT_EQ(rpn.lastRunsY().size(), 1U);
  EXPECT_EQ(rpn.lastRunsX().size(), 2U);
}

TEST(HistogramRpnTest, SparseNoisePixelFormsTinyProposal) {
  // A single pixel passes threshold 1; downstream the tracker's
  // minSeedArea guards against it.  The RPN itself reports it, tightened
  // to the pixel.
  HistogramRpn rpn(paperConfig());
  BinaryImage img(240, 180);
  img.set(100, 100, true);
  const RegionProposals props = rpn.propose(img);
  ASSERT_EQ(props.size(), 1U);
  EXPECT_EQ(props[0].box, (BBox{100, 100, 1, 1}));
}

TEST(HistogramRpnTest, UntightenedBoxesPadToBlocks) {
  HistogramRpnConfig config = paperConfig();
  config.tightenBoxes = false;
  HistogramRpn rpn(config);
  BinaryImage img(240, 180);
  img.set(100, 100, true);
  const RegionProposals props = rpn.propose(img);
  ASSERT_EQ(props.size(), 1U);
  EXPECT_FLOAT_EQ(props[0].box.w, 6.0F);   // one block
  EXPECT_FLOAT_EQ(props[0].box.h, 3.0F);
}

TEST(HistogramRpnTest, HigherThresholdSuppressesThinRows) {
  HistogramRpnConfig config = paperConfig();
  config.threshold = 3;
  HistogramRpn rpn(config);
  BinaryImage img(240, 180);
  img.set(100, 100, true);  // mass 1 per histogram bin < 3
  EXPECT_TRUE(rpn.propose(img).empty());
}

TEST(HistogramRpnTest, IntermediatesExposed) {
  HistogramRpn rpn(paperConfig());
  BinaryImage img(240, 180);
  fillBlock(img, 60, 60, 12, 6);
  (void)rpn.propose(img);
  EXPECT_EQ(rpn.lastDownsampled().width(), 40);
  EXPECT_EQ(rpn.lastDownsampled().height(), 60);
  EXPECT_EQ(rpn.lastHistograms().hx.size(), 40U);
  EXPECT_EQ(rpn.lastHistograms().hy.size(), 60U);
  EXPECT_EQ(rpn.lastRunsX().size(), 1U);
  EXPECT_EQ(rpn.lastRunsY().size(), 1U);
}

TEST(HistogramRpnTest, IntermediatesMatchStandaloneStages) {
  // propose() runs Downsampler then HistogramBuilder; its intermediates
  // must equal the two stages run on their own, frame after frame
  // through the RPN's reused buffers, and its ops include theirs.
  for (const auto& [s1, s2] :
       {std::pair{6, 3}, std::pair{24, 12}, std::pair{65, 2}}) {
    HistogramRpnConfig config = paperConfig();
    config.s1 = s1;
    config.s2 = s2;
    HistogramRpn rpn(config);
    Downsampler down(s1, s2);
    HistogramBuilder hist;
    CountImage counts;
    HistogramPair pair;
    Rng rng(static_cast<std::uint64_t>(s1 * 100 + s2));
    for (int frame = 0; frame < 6; ++frame) {
      BinaryImage img(240, 180);
      for (int b = 0; b < frame % 4; ++b) {
        const int x0 = static_cast<int>(rng.uniformInt(0, 200));
        const int y0 = static_cast<int>(rng.uniformInt(0, 150));
        fillBlock(img, x0, y0, static_cast<int>(rng.uniformInt(3, 40)),
                  static_cast<int>(rng.uniformInt(3, 30)));
      }
      for (int i = 0; i < 200; ++i) {
        img.set(static_cast<int>(rng.uniformInt(0, 239)),
                static_cast<int>(rng.uniformInt(0, 179)), true);
      }
      (void)rpn.propose(img);
      down.downsampleInto(img, counts);
      hist.buildInto(counts, pair);
      EXPECT_EQ(rpn.lastDownsampled(), counts) << s1 << "x" << s2;
      EXPECT_EQ(rpn.lastHistograms().hx, pair.hx) << s1 << "x" << s2;
      EXPECT_EQ(rpn.lastHistograms().hy, pair.hy) << s1 << "x" << s2;
      EXPECT_GE(rpn.lastOps().adds,
                down.lastOps().adds + hist.lastOps().adds);
    }
  }
}

TEST(HistogramRpnTest, OpsOrderMatchesEq5) {
  // Eq. (5): C_RPN = A*B + 2*A*B/(s1*s2) = 48 kops at the paper point.
  // The measured count includes run-finding comparisons (~100), so it
  // should land within a few percent of the model.
  HistogramRpn rpn(paperConfig());
  BinaryImage img(240, 180);
  fillBlock(img, 60, 60, 48, 24);
  (void)rpn.propose(img);
  const double measured = static_cast<double>(rpn.lastOps().total());
  const double model = 240.0 * 180.0 + 2.0 * 240.0 * 180.0 / 18.0;
  EXPECT_NEAR(measured / model, 1.0, 0.10);
}

TEST(HistogramRpnTest, MaxGapBridgesWiderFragmentation) {
  HistogramRpnConfig config = paperConfig();
  config.maxGap = 2;
  HistogramRpn rpn(config);
  BinaryImage img(240, 180);
  fillBlock(img, 60, 60, 18, 24);
  fillBlock(img, 90, 60, 18, 24);  // 12 px gap = 2 blocks
  const RegionProposals props = rpn.propose(img);
  ASSERT_EQ(props.size(), 1U);
  EXPECT_GE(props[0].box.w, 48.0F);
}

TEST(HistogramRpnTest, InvalidConfigRejected) {
  HistogramRpnConfig bad = paperConfig();
  bad.threshold = 0;
  EXPECT_THROW(HistogramRpn{bad}, LogicError);
  HistogramRpnConfig bad2 = paperConfig();
  bad2.minValidPixels = 0;
  EXPECT_THROW(HistogramRpn{bad2}, LogicError);
}

// Property: every proposal lies inside the frame and contains at least
// one set pixel when validation is on.
class RpnContainmentProperty : public ::testing::TestWithParam<int> {};

TEST_P(RpnContainmentProperty, ProposalsValidAndInFrame) {
  const int seed = GetParam();
  HistogramRpnConfig config;
  config.alwaysValidate = true;
  HistogramRpn rpn(config);
  BinaryImage img(240, 180);
  std::uint64_t s = static_cast<std::uint64_t>(seed) * 2654435761ULL + 1;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (int b = 0; b < 4; ++b) {
    const int x0 = static_cast<int>(next() % 200);
    const int y0 = static_cast<int>(next() % 150);
    const int w = 8 + static_cast<int>(next() % 40);
    const int h = 6 + static_cast<int>(next() % 25);
    fillBlock(img, x0, y0, std::min(w, 240 - x0), std::min(h, 180 - y0));
  }
  for (const RegionProposal& p : rpn.propose(img)) {
    EXPECT_GE(p.box.left(), 0.0F);
    EXPECT_GE(p.box.bottom(), 0.0F);
    EXPECT_LE(p.box.right(), 240.0F);
    EXPECT_LE(p.box.top(), 180.0F);
    EXPECT_TRUE(img.anySetInRegion(p.box));
    EXPECT_GE(p.support, 1U);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpnContainmentProperty,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace ebbiot
