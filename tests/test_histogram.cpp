#include "src/ebbi/histogram.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.hpp"

namespace ebbiot {
namespace {

TEST(HistogramBuilderTest, ColumnAndRowSums) {
  CountImage img(3, 2);
  img.at(0, 0) = 1;
  img.at(1, 0) = 2;
  img.at(2, 1) = 3;
  HistogramBuilder builder;
  HistogramPair h;
  builder.buildInto(img, h);
  ASSERT_EQ(h.hx.size(), 3U);
  ASSERT_EQ(h.hy.size(), 2U);
  EXPECT_EQ(h.hx[0], 1U);
  EXPECT_EQ(h.hx[1], 2U);
  EXPECT_EQ(h.hx[2], 3U);
  EXPECT_EQ(h.hy[0], 3U);
  EXPECT_EQ(h.hy[1], 3U);
}

TEST(HistogramBuilderTest, SumsEqualTotalMass) {
  Rng rng(5);
  CountImage img(40, 60);
  for (int i = 0; i < 500; ++i) {
    img.at(static_cast<int>(rng.uniformInt(0, 39)),
           static_cast<int>(rng.uniformInt(0, 59))) =
        static_cast<std::uint16_t>(rng.uniformInt(0, 18));
  }
  HistogramBuilder builder;
  HistogramPair h;
  builder.buildInto(img, h);
  std::uint64_t sumX = 0;
  for (auto v : h.hx) {
    sumX += v;
  }
  std::uint64_t sumY = 0;
  for (auto v : h.hy) {
    sumY += v;
  }
  EXPECT_EQ(sumX, img.totalMass());
  EXPECT_EQ(sumY, img.totalMass());
}

TEST(HistogramBuilderTest, MatchesCellByCellProjectionAndOps) {
  // Row-pointer sums against the cell-by-cell Eq. (4) projection, with
  // the metered ops: two adds per cell, one write per bin.
  Rng rng(9);
  HistogramBuilder builder;
  HistogramPair h;
  for (const auto& [w, ht] : {std::pair{40, 60}, std::pair{1, 7},
                              std::pair{13, 1}}) {
    CountImage img(w, ht);
    for (int y = 0; y < ht; ++y) {
      for (int x = 0; x < w; ++x) {
        img.at(x, y) = static_cast<std::uint16_t>(rng.uniformInt(0, 65535));
      }
    }
    builder.buildInto(img, h);
    std::vector<std::uint32_t> hx(static_cast<std::size_t>(w), 0);
    std::vector<std::uint32_t> hy(static_cast<std::size_t>(ht), 0);
    for (int y = 0; y < ht; ++y) {
      for (int x = 0; x < w; ++x) {
        hx[static_cast<std::size_t>(x)] += img.at(x, y);
        hy[static_cast<std::size_t>(y)] += img.at(x, y);
      }
    }
    EXPECT_EQ(h.hx, hx) << w << "x" << ht;
    EXPECT_EQ(h.hy, hy) << w << "x" << ht;
    EXPECT_EQ(builder.lastOps().adds, 2U * static_cast<std::uint64_t>(w * ht));
    EXPECT_EQ(builder.lastOps().memWrites,
              static_cast<std::uint64_t>(w + ht));
  }
}

TEST(FindRunsTest, NoRunsInFlatHistogram) {
  std::vector<HistogramRun> runs;
  findRunsInto({0, 0, 0, 0}, runs);
  EXPECT_TRUE(runs.empty());
}

TEST(FindRunsTest, SingleRun) {
  std::vector<HistogramRun> runs;
  findRunsInto({0, 2, 3, 1, 0}, runs);
  ASSERT_EQ(runs.size(), 1U);
  EXPECT_EQ(runs[0].begin, 1);
  EXPECT_EQ(runs[0].end, 4);
  EXPECT_EQ(runs[0].length(), 3);
  EXPECT_EQ(runs[0].mass, 6U);
}

TEST(FindRunsTest, MultipleRunsSplitByGaps) {
  std::vector<HistogramRun> runs;
  findRunsInto({1, 0, 2, 2, 0, 0, 5}, runs);
  ASSERT_EQ(runs.size(), 3U);
  EXPECT_EQ(runs[0].begin, 0);
  EXPECT_EQ(runs[0].end, 1);
  EXPECT_EQ(runs[1].begin, 2);
  EXPECT_EQ(runs[1].end, 4);
  EXPECT_EQ(runs[2].begin, 6);
  EXPECT_EQ(runs[2].end, 7);
}

TEST(FindRunsTest, RunsAtBothEnds) {
  std::vector<HistogramRun> runs;
  findRunsInto({3, 0, 0, 4}, runs);
  ASSERT_EQ(runs.size(), 2U);
  EXPECT_EQ(runs[0].begin, 0);
  EXPECT_EQ(runs[1].end, 4);
}

TEST(FindRunsTest, EmptyHistogram) {
  std::vector<HistogramRun> runs;
  findRunsInto({}, runs);
  EXPECT_TRUE(runs.empty());
}

// Property: runs tile the non-zero bins exactly, never overlap, and are
// maximal.
class FindRunsProperty : public ::testing::TestWithParam<int> {};

TEST_P(FindRunsProperty, RunsAreExactCover) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<std::uint32_t> hist(64);
  for (auto& v : hist) {
    v = static_cast<std::uint32_t>(rng.uniformInt(0, 3));
  }
  std::vector<HistogramRun> runs;
  findRunsInto(hist, runs);
  std::vector<bool> covered(hist.size(), false);
  int prevEnd = -1;
  for (const HistogramRun& r : runs) {
    EXPECT_GT(r.begin, prevEnd);  // ordered, disjoint, non-adjacent
    EXPECT_LT(r.begin, r.end);
    std::uint64_t mass = 0;
    for (int i = r.begin; i < r.end; ++i) {
      EXPECT_NE(hist[static_cast<std::size_t>(i)], 0U);
      covered[static_cast<std::size_t>(i)] = true;
      mass += hist[static_cast<std::size_t>(i)];
    }
    EXPECT_EQ(r.mass, mass);
    prevEnd = r.end;
  }
  for (std::size_t i = 0; i < hist.size(); ++i) {
    EXPECT_EQ(covered[i], hist[i] != 0) << "bin " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FindRunsProperty,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace ebbiot
