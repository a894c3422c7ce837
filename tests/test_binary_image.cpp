#include "src/ebbi/binary_image.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace ebbiot {
namespace {

TEST(BinaryImageTest, StartsCleared) {
  const BinaryImage img(240, 180);
  EXPECT_EQ(img.width(), 240);
  EXPECT_EQ(img.height(), 180);
  EXPECT_EQ(img.popcount(), 0U);
}

TEST(BinaryImageTest, SetGetRoundTrip) {
  BinaryImage img(100, 50);
  img.set(3, 7, true);
  EXPECT_TRUE(img.get(3, 7));
  EXPECT_FALSE(img.get(4, 7));
  img.set(3, 7, false);
  EXPECT_FALSE(img.get(3, 7));
}

TEST(BinaryImageTest, WordBoundaryPixels) {
  BinaryImage img(130, 4);  // crosses two 64-bit words per row
  for (int x : {0, 63, 64, 127, 128, 129}) {
    img.set(x, 2, true);
  }
  for (int x : {0, 63, 64, 127, 128, 129}) {
    EXPECT_TRUE(img.get(x, 2)) << "x=" << x;
  }
  EXPECT_EQ(img.popcount(), 6U);
  // Neighbours untouched.
  EXPECT_FALSE(img.get(1, 2));
  EXPECT_FALSE(img.get(65, 2));
  EXPECT_FALSE(img.get(129, 1));
}

TEST(BinaryImageTest, OutOfBoundsThrows) {
  BinaryImage img(10, 10);
  EXPECT_THROW((void)img.get(10, 0), LogicError);
  EXPECT_THROW((void)img.get(0, 10), LogicError);
  EXPECT_THROW(img.set(-1, 0, true), LogicError);
}

TEST(BinaryImageTest, ClearResetsAllBits) {
  BinaryImage img(64, 64);
  for (int i = 0; i < 64; ++i) {
    img.set(i, i, true);
  }
  EXPECT_EQ(img.popcount(), 64U);
  img.clear();
  EXPECT_EQ(img.popcount(), 0U);
}

TEST(BinaryImageTest, PopcountInRegion) {
  BinaryImage img(20, 20);
  img.set(5, 5, true);
  img.set(6, 5, true);
  img.set(15, 15, true);
  EXPECT_EQ(img.popcountInRegion(BBox{5, 5, 3, 3}), 2U);
  EXPECT_EQ(img.popcountInRegion(BBox{0, 0, 20, 20}), 3U);
  EXPECT_EQ(img.popcountInRegion(BBox{0, 0, 4, 4}), 0U);
  // Region partly outside the frame is clamped, not an error; the
  // half-open right edge at x = 6 excludes pixel (6, 5).
  EXPECT_EQ(img.popcountInRegion(BBox{-10, -10, 16, 16}), 1U);
  EXPECT_EQ(img.popcountInRegion(BBox{-10, -10, 17, 16}), 2U);
}

TEST(BinaryImageTest, PopcountInRegionAroundOnePixel) {
  BinaryImage img(20, 20);
  img.set(10, 10, true);
  EXPECT_EQ(img.popcountInRegion(BBox{9, 9, 3, 3}), 1U);
  EXPECT_EQ(img.popcountInRegion(BBox{0, 0, 5, 5}), 0U);
  EXPECT_EQ(img.popcountInRegion(BBox{100, 100, 5, 5}), 0U);  // clamped empty
}

TEST(BinaryImageTest, OrWithCombines) {
  BinaryImage a(16, 16);
  BinaryImage b(16, 16);
  a.set(1, 1, true);
  b.set(2, 2, true);
  a.orWith(b);
  EXPECT_TRUE(a.get(1, 1));
  EXPECT_TRUE(a.get(2, 2));
  EXPECT_EQ(a.popcount(), 2U);
}

TEST(BinaryImageTest, OrWithShapeMismatchThrows) {
  BinaryImage a(16, 16);
  BinaryImage b(16, 17);
  EXPECT_THROW(a.orWith(b), LogicError);
}

TEST(BinaryImageTest, BoundingBoxOfSetPixels) {
  BinaryImage img(40, 40);
  EXPECT_TRUE(img.boundingBoxOfSetPixels().empty());
  img.set(10, 12, true);
  img.set(20, 30, true);
  const BBox b = img.boundingBoxOfSetPixels();
  EXPECT_FLOAT_EQ(b.x, 10.0F);
  EXPECT_FLOAT_EQ(b.y, 12.0F);
  EXPECT_FLOAT_EQ(b.w, 11.0F);
  EXPECT_FLOAT_EQ(b.h, 19.0F);
}

TEST(BinaryImageTest, PayloadBitsMatchesGeometry) {
  const BinaryImage img(240, 180);
  EXPECT_EQ(img.payloadBits(), 240U * 180U);
}

TEST(BinaryImageTest, OccupiedRowSpanTracksDirtyBand) {
  BinaryImage img(100, 200);
  EXPECT_TRUE(img.occupiedRowSpan().empty());  // fresh frame: blank
  img.set(3, 70, true);
  EXPECT_EQ(img.occupiedRowSpan(), (RowSpan{70, 71}));
  img.set(50, 131, true);
  EXPECT_EQ(img.occupiedRowSpan(), (RowSpan{70, 132}));
  // Clearing a pixel keeps the conservative span (occupancy never shrinks
  // short of clear()).
  img.set(3, 70, false);
  EXPECT_EQ(img.occupiedRowSpan(), (RowSpan{70, 132}));
  img.clear();
  EXPECT_TRUE(img.occupiedRowSpan().empty());
}

TEST(BinaryImageTest, OccupiedRowSpanAtFrameEdges) {
  BinaryImage img(10, 130);  // > 2 occupancy words
  img.set(0, 0, true);
  img.set(9, 129, true);
  EXPECT_EQ(img.occupiedRowSpan(), (RowSpan{0, 130}));
}

TEST(BinaryImageTest, ForEachRunInRowFindsWordBoundaryRuns) {
  BinaryImage img(200, 4);
  // Runs: [5, 8), one straddling the first word boundary [60, 70), a
  // single pixel at 199 (last column).
  for (int x = 5; x < 8; ++x) {
    img.set(x, 1, true);
  }
  for (int x = 60; x < 70; ++x) {
    img.set(x, 1, true);
  }
  img.set(199, 1, true);
  std::vector<PixelRun> runs;
  img.forEachRunInRow(1, [&](int b, int e) { runs.push_back({b, e}); });
  ASSERT_EQ(runs.size(), 3U);
  EXPECT_EQ(runs[0], (PixelRun{5, 8}));
  EXPECT_EQ(runs[1], (PixelRun{60, 70}));
  EXPECT_EQ(runs[2], (PixelRun{199, 200}));
  // Blank row: no runs.
  runs.clear();
  img.forEachRunInRow(0, [&](int b, int e) { runs.push_back({b, e}); });
  EXPECT_TRUE(runs.empty());
}

TEST(BinaryImageTest, ForEachRunInRowFullRowAcrossWords) {
  for (int w : {63, 64, 65, 130, 192}) {
    BinaryImage img(w, 2);
    for (int x = 0; x < w; ++x) {
      img.set(x, 0, true);
    }
    std::vector<PixelRun> runs;
    img.forEachRunInRow(0, [&](int b, int e) { runs.push_back({b, e}); });
    ASSERT_EQ(runs.size(), 1U) << "width " << w;
    EXPECT_EQ(runs[0], (PixelRun{0, w})) << "width " << w;
  }
}

TEST(BinaryImageTest, ForEachRunInRowMatchesScalarScanRandomly) {
  Rng rng(77);
  for (int w : {1, 63, 64, 65, 240}) {
    BinaryImage img(w, 1);
    for (int x = 0; x < w; ++x) {
      if (rng.chance(0.5)) {
        img.set(x, 0, true);
      }
    }
    std::vector<PixelRun> got;
    img.forEachRunInRow(0, [&](int b, int e) { got.push_back({b, e}); });
    std::vector<PixelRun> want;
    forEachRun(
        w, [&](int x) { return img.get(x, 0); },
        [&](int b, int e) { want.push_back({b, e}); });
    EXPECT_EQ(got, want) << "width " << w;
  }
}

// Property: popcount equals number of sets over random patterns.
class BinaryImagePopcountProperty : public ::testing::TestWithParam<int> {};

TEST_P(BinaryImagePopcountProperty, PopcountMatchesSetCount) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  BinaryImage img(97, 53);  // awkward width to stress word packing
  std::size_t expected = 0;
  for (int i = 0; i < 400; ++i) {
    const int x = static_cast<int>(rng.uniformInt(0, 96));
    const int y = static_cast<int>(rng.uniformInt(0, 52));
    if (!img.get(x, y)) {
      img.set(x, y, true);
      ++expected;
    }
  }
  EXPECT_EQ(img.popcount(), expected);
  EXPECT_EQ(img.popcountInRegion(BBox{0, 0, 97, 53}), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryImagePopcountProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace ebbiot
