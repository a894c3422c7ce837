// Differential tests for the word-parallel BinaryImage region scans and
// the word-sliced block-sum downsampler, pinned against scalar per-pixel
// references on random images including frame borders, word boundaries,
// all-set and all-clear frames, and stale-occupancy rows.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.hpp"
#include "src/ebbi/binary_image.hpp"
#include "src/ebbi/downsample.hpp"

namespace ebbiot {
namespace {

BinaryImage randomImage(int w, int h, double density, std::uint64_t seed) {
  Rng rng(seed);
  BinaryImage img(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (rng.chance(density)) {
        img.set(x, y, true);
      }
    }
  }
  return img;
}

// Scalar references: the pre-word-parallel per-pixel formulations.
std::size_t popcountInRegionScalar(const BinaryImage& img,
                                   const BBox& region) {
  const BBox r = clampToFrame(region, img.width(), img.height());
  if (r.empty()) {
    return 0;
  }
  std::size_t n = 0;
  for (int y = static_cast<int>(std::floor(r.bottom()));
       y < static_cast<int>(std::ceil(r.top())); ++y) {
    for (int x = static_cast<int>(std::floor(r.left()));
         x < static_cast<int>(std::ceil(r.right())); ++x) {
      if (img.get(x, y)) {
        ++n;
      }
    }
  }
  return n;
}

CountImage downsampleScalar(const BinaryImage& image, int s1, int s2) {
  const int outW = image.width() / s1;
  const int outH = image.height() / s2;
  CountImage out(outW, outH);
  for (int j = 0; j < outH; ++j) {
    for (int i = 0; i < outW; ++i) {
      std::uint16_t acc = 0;
      for (int n = 0; n < s2; ++n) {
        for (int m = 0; m < s1; ++m) {
          acc = static_cast<std::uint16_t>(
              acc + (image.get(i * s1 + m, j * s2 + n) ? 1 : 0));
        }
      }
      out.at(i, j) = acc;
    }
  }
  return out;
}

TEST(WordRegionOpsTest, PopcountInRegionMatchesScalarOnRandomBoxes) {
  Rng rng(42);
  for (int w : {63, 64, 65, 240}) {
    const int h = 90;
    const BinaryImage img = randomImage(w, h, 0.25, 1000 + w);
    for (int trial = 0; trial < 50; ++trial) {
      const float x0 = static_cast<float>(rng.uniform(-10.0, w + 10.0));
      const float y0 = static_cast<float>(rng.uniform(-10.0, h + 10.0));
      const BBox box{x0, y0, static_cast<float>(rng.uniform(0.0, w + 20.0)),
                     static_cast<float>(rng.uniform(0.0, h + 20.0))};
      EXPECT_EQ(img.popcountInRegion(box), popcountInRegionScalar(img, box));
    }
  }
}

TEST(WordRegionOpsTest, RegionOpsOnDegenerateAndFullBoxes) {
  const BinaryImage img = randomImage(240, 180, 0.1, 7);
  const BBox full{0, 0, 240, 180};
  EXPECT_EQ(img.popcountInRegion(full), img.popcount());
  EXPECT_GT(img.popcountInRegion(full), 0U);
  const BBox empty{10, 10, 0, 5};
  EXPECT_EQ(img.popcountInRegion(empty), 0U);
  const BBox outside{300, 300, 20, 20};
  EXPECT_EQ(img.popcountInRegion(outside), 0U);
  // Sub-pixel boxes round outward to the covering pixel rect.
  const BBox subPixel{5.25F, 5.25F, 0.5F, 0.5F};
  EXPECT_EQ(img.popcountInRegion(subPixel),
            popcountInRegionScalar(img, subPixel));
}

TEST(WordRegionOpsTest, AllClearAndAllSetRegions) {
  BinaryImage blank(128, 50);
  EXPECT_EQ(blank.popcountInRegion(BBox{0, 0, 128, 50}), 0U);
  BinaryImage full(128, 50);
  for (int y = 0; y < 50; ++y) {
    for (int x = 0; x < 128; ++x) {
      full.set(x, y, true);
    }
  }
  EXPECT_EQ(full.popcountInRegion(BBox{63, 10, 2, 2}), 4U);
  EXPECT_EQ(full.popcountInRegion(BBox{0, 0, 128, 50}), 128U * 50U);
}

TEST(WordRegionOpsTest, StaleOccupancyRowsCountAsEmpty) {
  BinaryImage img(100, 40);
  img.set(50, 20, true);
  img.set(50, 20, false);  // row 20 occupancy stays set, pixels are clear
  EXPECT_EQ(img.popcountInRegion(BBox{0, 0, 100, 40}), 0U);
  EXPECT_EQ(img.popcountInRegion(BBox{40, 15, 20, 10}), 0U);
  EXPECT_TRUE(img.boundingBoxOfSetPixels().empty());
}

TEST(WordRegionOpsTest, TightBoundingBoxInRegionMatchesScan) {
  const BinaryImage img = randomImage(130, 60, 0.02, 99);
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const int x0 = static_cast<int>(rng.uniformInt(0, 129));
    const int y0 = static_cast<int>(rng.uniformInt(0, 59));
    const int x1 = static_cast<int>(rng.uniformInt(x0, 130));
    const int y1 = static_cast<int>(rng.uniformInt(y0, 60));
    int minX = 130;
    int maxX = -1;
    int minY = 60;
    int maxY = -1;
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) {
        if (img.get(x, y)) {
          minX = std::min(minX, x);
          maxX = std::max(maxX, x);
          minY = std::min(minY, y);
          maxY = std::max(maxY, y);
        }
      }
    }
    const BBox got = img.tightBoundingBoxInRegion(x0, y0, x1, y1);
    if (maxX < 0) {
      EXPECT_TRUE(got.empty());
    } else {
      EXPECT_EQ(got, (BBox{static_cast<float>(minX), static_cast<float>(minY),
                           static_cast<float>(maxX - minX + 1),
                           static_cast<float>(maxY - minY + 1)}));
    }
  }
}

TEST(WordRowAccessTest, WordRowExposesSetBitsAndZeroTail) {
  BinaryImage img(70, 3);  // ragged tail: 6 valid bits in word 1
  img.set(0, 1, true);
  img.set(63, 1, true);
  img.set(64, 1, true);
  img.set(69, 1, true);
  ASSERT_EQ(img.wordsPerRow(), 2U);
  const std::uint64_t* row = img.wordRow(1);
  EXPECT_EQ(row[0], (std::uint64_t{1} << 63) | 1U);
  EXPECT_EQ(row[1], (std::uint64_t{1} << 5) | 1U);
  EXPECT_EQ(img.tailMask(), (std::uint64_t{1} << 6) - 1);
  // Blank rows read as zero words.
  EXPECT_EQ(img.wordRow(0)[0], 0U);
  EXPECT_FALSE(img.rowMayHaveSetPixels(0));
  EXPECT_TRUE(img.rowMayHaveSetPixels(1));
}

TEST(WordRowAccessTest, MutableWordRowMarksOccupancy) {
  BinaryImage img(64, 4);
  EXPECT_FALSE(img.rowMayHaveSetPixels(2));
  std::uint64_t* row = img.mutableWordRow(2);
  row[0] = 0b1010;
  EXPECT_TRUE(img.rowMayHaveSetPixels(2));
  EXPECT_TRUE(img.get(1, 2));
  EXPECT_TRUE(img.get(3, 2));
  EXPECT_EQ(img.popcount(), 2U);
}

TEST(WordRowAccessTest, EqualityIgnoresOccupancyCache) {
  BinaryImage a(50, 20);
  a.set(10, 10, true);
  a.set(10, 10, false);  // stale occupancy on row 10
  const BinaryImage b(50, 20);
  EXPECT_TRUE(a == b);
}

TEST(WordDownsampleTest, MatchesScalarAcrossFactorsAndShapes) {
  // s1 covers blocks inside one word, straddling two, exactly one word and
  // wider than a word (65, 100, 128: counted across several words); s2
  // covers 1-4 carry-save bit-planes, up to the ablation grid's 24 x 12;
  // 1-row frames take the s2 = 1 factors.
  std::uint64_t seed = 2000;
  for (double density : {0.0, 0.1, 0.5, 1.0}) {
    for (int w : {64, 65, 66, 128, 240, 400}) {
      for (int h : {45, 1}) {
        for (const auto& [s1, s2] :
             {std::pair{6, 3}, std::pair{3, 3}, std::pair{12, 6},
              std::pair{1, 1}, std::pair{64, 2}, std::pair{7, 5},
              std::pair{65, 3}, std::pair{100, 2}, std::pair{128, 4},
              std::pair{24, 12}, std::pair{5, 8}, std::pair{2, 11},
              std::pair{6, 1}, std::pair{65, 1}}) {
          if (w / s1 == 0 || h / s2 == 0) {
            continue;
          }
          const BinaryImage img = randomImage(w, h, density, seed++);
          Downsampler down(s1, s2);
          CountImage out;
          down.downsampleInto(img, out);
          EXPECT_EQ(out, downsampleScalar(img, s1, s2))
              << "w=" << w << " h=" << h << " s1=" << s1 << " s2=" << s2;
        }
      }
    }
  }
}

TEST(WordDownsampleTest, StaleOccupancyRowsMatchScalar) {
  // Rows whose pixels were all cleared keep their occupancy bit: the
  // downsampler must count them as blank, alone in a block row or next
  // to live rows, and through a reused output and plane scratch.
  Downsampler down(6, 3);
  CountImage out;
  std::uint64_t seed = 4000;
  for (int trial = 0; trial < 6; ++trial) {
    BinaryImage img = randomImage(240, 180, 0.05, seed++);
    Rng rng(seed++);
    for (int y = 0; y < 180; y += 1 + static_cast<int>(rng.uniformInt(0, 4))) {
      for (int x = 0; x < 240; ++x) {
        img.set(x, y, false);  // blank row, occupancy bit left set
      }
    }
    img.set(17, 100, true);
    img.set(17, 100, false);  // stale bit inside an otherwise live band
    down.downsampleInto(img, out);
    EXPECT_EQ(out, downsampleScalar(img, 6, 3)) << "trial " << trial;
  }
  // A frame whose only occupied rows are stale downsamples to all zero.
  BinaryImage stale(240, 180);
  stale.set(5, 40, true);
  stale.set(5, 40, false);
  stale.set(200, 41, true);
  stale.set(200, 41, false);
  down.downsampleInto(stale, out);
  EXPECT_EQ(out.totalMass(), 0U);
}

TEST(WordDownsampleTest, OpsAreClosedFormAndActivityIndependent) {
  Downsampler down(6, 3);
  const BinaryImage blank(240, 180);
  CountImage out;
  down.downsampleInto(blank, out);
  const OpCounts blankOps = down.lastOps();
  EXPECT_EQ(blankOps.adds, 40U * 60U * 18U);  // outW*outH*s1*s2
  EXPECT_EQ(blankOps.memWrites, 40U * 60U);
  const BinaryImage busy = randomImage(240, 180, 0.5, 3);
  down.downsampleInto(busy, out);
  EXPECT_EQ(down.lastOps(), blankOps);
}

TEST(WordDownsampleTest, DownsampleIntoReusesAndReshapes) {
  Downsampler down(6, 3);
  CountImage out;
  down.downsampleInto(randomImage(240, 180, 0.2, 11), out);
  EXPECT_EQ(out.width(), 40);
  EXPECT_EQ(out.height(), 60);
  // Reuse with a different source shape reshapes and fully overwrites.
  const BinaryImage small = randomImage(66, 45, 0.9, 12);
  down.downsampleInto(small, out);
  EXPECT_EQ(out.width(), 11);
  EXPECT_EQ(out.height(), 15);
  EXPECT_EQ(out, downsampleScalar(small, 6, 3));
}

}  // namespace
}  // namespace ebbiot
