#include "src/ebbi/downsample.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace ebbiot {
namespace {

TEST(CountImageTest, AccessAndMass) {
  CountImage img(4, 3);
  img.at(1, 2) = 5;
  img.at(0, 0) = 2;
  EXPECT_EQ(img.at(1, 2), 5);
  EXPECT_EQ(img.totalMass(), 7U);
  EXPECT_THROW((void)img.at(4, 0), LogicError);
}

TEST(DownsamplerTest, PaperGeometry240x180By6x3) {
  BinaryImage img(240, 180);
  Downsampler down(6, 3);
  CountImage out;
  down.downsampleInto(img, out);
  EXPECT_EQ(out.width(), 40);   // floor(240/6)
  EXPECT_EQ(out.height(), 60);  // floor(180/3)
}

TEST(DownsamplerTest, BlockSumsMatchEq3) {
  BinaryImage img(12, 6);
  // Fill block (i=1, j=0) for s1=6, s2=3: x in [6,12), y in [0,3).
  for (int y = 0; y < 3; ++y) {
    for (int x = 6; x < 12; ++x) {
      img.set(x, y, true);
    }
  }
  // One extra pixel in block (0, 1).
  img.set(2, 4, true);
  Downsampler down(6, 3);
  CountImage out;
  down.downsampleInto(img, out);
  EXPECT_EQ(out.at(1, 0), 18);
  EXPECT_EQ(out.at(0, 1), 1);
  EXPECT_EQ(out.at(0, 0), 0);
  EXPECT_EQ(out.totalMass(), 19U);
}

TEST(DownsamplerTest, TrailingPixelsDropped) {
  // 13 x 7 with s1=6, s2=3 -> 2 x 2 output; column 12 and rows 6 ignored.
  BinaryImage img(13, 7);
  img.set(12, 0, true);  // outside any full block
  img.set(0, 6, true);   // outside any full block
  img.set(0, 0, true);   // inside block (0,0)
  Downsampler down(6, 3);
  CountImage out;
  down.downsampleInto(img, out);
  EXPECT_EQ(out.width(), 2);
  EXPECT_EQ(out.height(), 2);
  EXPECT_EQ(out.totalMass(), 1U);
}

TEST(DownsamplerTest, IdentityFactorsPreserveImage) {
  BinaryImage img(8, 8);
  img.set(3, 4, true);
  img.set(7, 7, true);
  Downsampler down(1, 1);
  CountImage out;
  down.downsampleInto(img, out);
  EXPECT_EQ(out.width(), 8);
  EXPECT_EQ(out.height(), 8);
  EXPECT_EQ(out.at(3, 4), 1);
  EXPECT_EQ(out.at(7, 7), 1);
  EXPECT_EQ(out.totalMass(), 2U);
}

TEST(DownsamplerTest, SparseSceneDirtyBandMatchesDenseScan) {
  // The dirty-row-span seed bounds the block-row loop; cells outside the
  // band must still come out zero and cells inside exact, including a
  // band in the trailing rows that no complete block covers.
  Downsampler down(6, 3);
  BinaryImage img(240, 181);  // one trailing row beyond the last block
  for (int x = 30; x < 45; ++x) {
    img.set(x, 90, true);
    img.set(x, 91, true);
  }
  img.set(10, 180, true);  // dropped by Eq. (3)'s floor bounds
  CountImage got;
  down.downsampleInto(img, got);
  CountImage want(40, 60);
  for (int j = 0; j < 60; ++j) {
    for (int i = 0; i < 40; ++i) {
      std::uint16_t acc = 0;
      for (int n = 0; n < 3; ++n) {
        for (int m = 0; m < 6; ++m) {
          acc = static_cast<std::uint16_t>(
              acc + (img.get(i * 6 + m, j * 3 + n) ? 1 : 0));
        }
      }
      want.at(i, j) = acc;
    }
  }
  EXPECT_EQ(got, want);
  // A guaranteed-blank frame downsamples to all-zero cells.
  const BinaryImage blank(240, 180);
  CountImage zero;
  down.downsampleInto(blank, zero);
  EXPECT_EQ(zero.totalMass(), 0U);
}

TEST(DownsamplerTest, OpsScaleWithSourcePixels) {
  BinaryImage img(240, 180);
  Downsampler down(6, 3);
  CountImage out;
  down.downsampleInto(img, out);
  // One add per covered source pixel + one write per output cell.
  EXPECT_EQ(down.lastOps().adds, 240U * 180U);
  EXPECT_EQ(down.lastOps().memWrites, 40U * 60U);
}

// Property: total mass is preserved (for images whose dimensions are
// multiples of the factors).
class DownsampleMassProperty
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DownsampleMassProperty, MassPreserved) {
  const auto [s1, s2] = GetParam();
  Rng rng(7 * static_cast<std::uint64_t>(s1) + static_cast<std::uint64_t>(s2));
  BinaryImage img(s1 * 10, s2 * 10);
  std::size_t set = 0;
  for (int i = 0; i < 300; ++i) {
    const int x = static_cast<int>(rng.uniformInt(0, s1 * 10 - 1));
    const int y = static_cast<int>(rng.uniformInt(0, s2 * 10 - 1));
    if (!img.get(x, y)) {
      img.set(x, y, true);
      ++set;
    }
  }
  Downsampler down(s1, s2);
  CountImage out;
  down.downsampleInto(img, out);
  EXPECT_EQ(out.totalMass(), set);
}

INSTANTIATE_TEST_SUITE_P(
    Factors, DownsampleMassProperty,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 2}, std::pair{6, 3},
                      std::pair{3, 6}, std::pair{8, 4}, std::pair{5, 7}));

}  // namespace
}  // namespace ebbiot
