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
  return HistogramRpnConfig{};  // s1=6, s2=3
}

/// The unclamped candidate box of one X-run x Y-run intersection.
BBox candidateBox(const HistogramRpn& rpn, const HistogramRun& rx,
                  const HistogramRun& ry) {
  const auto s1 = static_cast<float>(rpn.config().s1);
  const auto s2 = static_cast<float>(rpn.config().s2);
  return BBox{static_cast<float>(rx.begin) * s1,
              static_cast<float>(ry.begin) * s2,
              static_cast<float>(rx.length()) * s1,
              static_cast<float>(ry.length()) * s2};
}

/// The ops propose() charges, rebuilt from its runs: the downsample and
/// histogram passes and one compare per bin; then per candidate box its
/// validity check (one add per pixel of the box and one compare) when
/// `validated`, and its tightening scan (one read and one compare per
/// pixel of the box) unless the check found the box empty.
OpCounts expectedOps(const HistogramRpn& rpn, const BinaryImage& img,
                     bool validated) {
  Downsampler down(rpn.config().s1, rpn.config().s2);
  CountImage counts;
  down.downsampleInto(img, counts);
  HistogramBuilder hist;
  HistogramPair pair;
  hist.buildInto(counts, pair);
  OpCounts ops = down.lastOps() + hist.lastOps();
  ops.compares += pair.hx.size() + pair.hy.size();
  for (const HistogramRun& rx : rpn.lastRunsX()) {
    for (const HistogramRun& ry : rpn.lastRunsY()) {
      const BBox box =
          clampToFrame(candidateBox(rpn, rx, ry), img.width(), img.height());
      const auto area = static_cast<std::uint64_t>(box.area());
      if (validated) {
        ops.adds += area;
        ops.compares += 1;
        if (img.popcountInRegion(box) == 0) {
          continue;
        }
      }
      ops.memReads += area;
      ops.compares += area;
    }
  }
  return ops;
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
  HistogramRpn rpn(paperConfig());
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
  // Control for the test above: ambiguity on one axis only, two objects
  // sharing a Y band, produces no ghosts.
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
  // A single pixel makes its bins non-zero; downstream the tracker's
  // minSeedArea guards against it.  The RPN itself reports it, tightened
  // to the pixel.
  HistogramRpn rpn(paperConfig());
  BinaryImage img(240, 180);
  img.set(100, 100, true);
  const RegionProposals props = rpn.propose(img);
  ASSERT_EQ(props.size(), 1U);
  EXPECT_EQ(props[0].box, (BBox{100, 100, 1, 1}));
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

TEST(HistogramRpnTest, InvalidConfigRejected) {
  HistogramRpnConfig bad = paperConfig();
  bad.s1 = 0;
  EXPECT_THROW(HistogramRpn{bad}, LogicError);
  HistogramRpnConfig bad2 = paperConfig();
  bad2.s2 = 0;
  EXPECT_THROW(HistogramRpn{bad2}, LogicError);
}

TEST(HistogramRpnTest, ValidationRunsOnlyWhenBothAxesHoldSeveralRuns) {
  // The validity check charges one add per pixel of each candidate box,
  // so the ops hold those areas exactly when both axes are ambiguous.
  struct Scene {
    const char* name;
    std::vector<BBox> blocks;
    std::size_t runsX;
    std::size_t runsY;
  };
  const Scene scenes[] = {
      {"one object", {BBox{60, 60, 48, 24}}, 1, 1},
      {"side by side", {BBox{20, 60, 30, 20}, BBox{150, 60, 30, 20}}, 2, 1},
      {"stacked", {BBox{60, 20, 30, 20}, BBox{60, 120, 30, 20}}, 1, 2},
      {"diagonal", {BBox{20, 30, 30, 20}, BBox{150, 120, 30, 20}}, 2, 2},
      {"three corners",
       {BBox{20, 30, 30, 20}, BBox{150, 30, 30, 20}, BBox{20, 120, 30, 20}},
       2, 2},
  };
  for (const Scene& scene : scenes) {
    SCOPED_TRACE(scene.name);
    HistogramRpn rpn(paperConfig());
    BinaryImage img(240, 180);
    for (const BBox& b : scene.blocks) {
      fillBlock(img, static_cast<int>(b.x), static_cast<int>(b.y),
                static_cast<int>(b.w), static_cast<int>(b.h));
    }
    (void)rpn.propose(img);
    ASSERT_EQ(rpn.lastRunsX().size(), scene.runsX);
    ASSERT_EQ(rpn.lastRunsY().size(), scene.runsY);
    const bool ambiguous = scene.runsX > 1 && scene.runsY > 1;
    EXPECT_EQ(rpn.lastOps(), expectedOps(rpn, img, ambiguous));
    EXPECT_NE(rpn.lastOps(), expectedOps(rpn, img, !ambiguous));
  }
}

TEST(HistogramRpnTest, SupportIsPixelCountWhenValidatedElseSmallerRunMass) {
  // Three corners of a 2 x 2 run grid: the fourth intersection is a ghost,
  // and the bottom-left object shares its X-run and its Y-run with the
  // others, so its pixel count (600) is below both run masses (1200).
  BinaryImage corners(240, 180);
  fillBlock(corners, 18, 30, 30, 20);
  fillBlock(corners, 150, 30, 30, 20);
  fillBlock(corners, 18, 120, 30, 20);
  // One Y-run: no validation.
  BinaryImage row(240, 180);
  fillBlock(row, 18, 60, 30, 20);
  fillBlock(row, 150, 60, 12, 10);
  for (const BinaryImage* img : {&corners, &row}) {
    HistogramRpn rpn(paperConfig());
    const RegionProposals& props = rpn.propose(*img);
    const bool validated =
        rpn.lastRunsX().size() > 1 && rpn.lastRunsY().size() > 1;
    std::size_t matched = 0;
    for (const HistogramRun& rx : rpn.lastRunsX()) {
      for (const HistogramRun& ry : rpn.lastRunsY()) {
        const BBox candidate = candidateBox(rpn, rx, ry);
        const std::size_t pixels = img->popcountInRegion(candidate);
        for (const RegionProposal& p : props) {
          if (iou(p.box, candidate) <= 0.0F) {
            continue;  // another intersection's proposal
          }
          ++matched;
          EXPECT_EQ(p.support,
                    validated ? pixels : std::min(rx.mass, ry.mass));
        }
      }
    }
    EXPECT_EQ(matched, props.size());
    EXPECT_EQ(props.size(), validated ? 3U : 2U);
  }
  HistogramRpn rpn(paperConfig());
  EXPECT_EQ(rpn.propose(corners)[0].support, 600U);
  EXPECT_EQ(rpn.lastRunsX()[0].mass, 1200U);
  EXPECT_EQ(rpn.lastRunsY()[0].mass, 1200U);
}

// Property: every proposal lies inside the frame and, tightened to its
// set pixels, contains at least one.
class RpnContainmentProperty : public ::testing::TestWithParam<int> {};

TEST_P(RpnContainmentProperty, ProposalsValidAndInFrame) {
  const int seed = GetParam();
  HistogramRpn rpn(paperConfig());
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
    EXPECT_GT(img.popcountInRegion(p.box), 0U);
    EXPECT_GE(p.support, 1U);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpnContainmentProperty,
                         ::testing::Range(1, 13));

// Property: on random scenes of blocks and noise, every proposal is the
// tight bounding box of the set pixels it holds.
class RpnTightBoxProperty : public ::testing::TestWithParam<int> {};

TEST_P(RpnTightBoxProperty, ProposalIsTightBoxOfItsPixels) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  HistogramRpn rpn(paperConfig());
  for (int frame = 0; frame < 8; ++frame) {
    BinaryImage img(240, 180);
    const int blocks = static_cast<int>(rng.uniformInt(0, 5));
    for (int b = 0; b < blocks; ++b) {
      const int x0 = static_cast<int>(rng.uniformInt(0, 230));
      const int y0 = static_cast<int>(rng.uniformInt(0, 170));
      fillBlock(img, x0, y0,
                std::min(static_cast<int>(rng.uniformInt(1, 50)), 240 - x0),
                std::min(static_cast<int>(rng.uniformInt(1, 30)), 180 - y0));
    }
    const int noise = static_cast<int>(rng.uniformInt(0, 60));
    for (int i = 0; i < noise; ++i) {
      img.set(static_cast<int>(rng.uniformInt(0, 239)),
              static_cast<int>(rng.uniformInt(0, 179)), true);
    }
    for (const RegionProposal& p : rpn.propose(img)) {
      ASSERT_FALSE(p.box.empty());
      const BBox tight = img.tightBoundingBoxInRegion(
          static_cast<int>(p.box.left()), static_cast<int>(p.box.bottom()),
          static_cast<int>(p.box.right()), static_cast<int>(p.box.top()));
      EXPECT_EQ(p.box, tight) << "frame " << frame;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpnTightBoxProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace ebbiot
