#include "src/detect/cca.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <queue>

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

/// Reference 8-connected flood-fill labeller for the property test.
std::vector<ConnectedComponent> floodFillReference(const BinaryImage& img,
                                                   std::size_t minPixels) {
  const int w = img.width();
  const int h = img.height();
  std::vector<bool> visited(static_cast<std::size_t>(w) * h, false);
  std::vector<ConnectedComponent> out;
  for (int sy = 0; sy < h; ++sy) {
    for (int sx = 0; sx < w; ++sx) {
      if (!img.get(sx, sy) || visited[static_cast<std::size_t>(sy) * w + sx]) {
        continue;
      }
      int minX = sx;
      int maxX = sx;
      int minY = sy;
      int maxY = sy;
      std::size_t count = 0;
      std::queue<std::pair<int, int>> q;
      q.emplace(sx, sy);
      visited[static_cast<std::size_t>(sy) * w + sx] = true;
      while (!q.empty()) {
        const auto [x, y] = q.front();
        q.pop();
        ++count;
        minX = std::min(minX, x);
        maxX = std::max(maxX, x);
        minY = std::min(minY, y);
        maxY = std::max(maxY, y);
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0) {
              continue;
            }
            const int nx = x + dx;
            const int ny = y + dy;
            if (nx < 0 || nx >= w || ny < 0 || ny >= h) {
              continue;
            }
            if (!img.get(nx, ny) ||
                visited[static_cast<std::size_t>(ny) * w + nx]) {
              continue;
            }
            visited[static_cast<std::size_t>(ny) * w + nx] = true;
            q.emplace(nx, ny);
          }
        }
      }
      if (count >= minPixels) {
        out.push_back(ConnectedComponent{
            BBox{static_cast<float>(minX), static_cast<float>(minY),
                 static_cast<float>(maxX - minX + 1),
                 static_cast<float>(maxY - minY + 1)},
            count});
      }
    }
  }
  std::sort(out.begin(), out.end(), componentScanOrderLess);
  return out;
}

TEST(CcaTest, EmptyImageNoComponents) {
  CcaLabeler cca(CcaConfig{});
  const BinaryImage img(64, 64);
  EXPECT_TRUE(cca.label(img).empty());
}

TEST(CcaTest, SingleBlockOneComponent) {
  CcaLabeler cca(CcaConfig{});
  BinaryImage img(64, 64);
  fillBlock(img, 10, 10, 8, 6);
  const auto comps = cca.label(img);
  ASSERT_EQ(comps.size(), 1U);
  EXPECT_EQ(comps[0].pixelCount, 48U);
  EXPECT_EQ(comps[0].box, (BBox{10, 10, 8, 6}));
}

TEST(CcaTest, TwoBlocksTwoComponents) {
  CcaLabeler cca(CcaConfig{});
  BinaryImage img(64, 64);
  fillBlock(img, 5, 5, 6, 6);
  fillBlock(img, 30, 30, 6, 6);
  EXPECT_EQ(cca.label(img).size(), 2U);
}

TEST(CcaTest, DiagonalTouchJoins) {
  // 8-connectivity: pixels touching at a corner, in either diagonal
  // direction, form one component.
  BinaryImage img(16, 16);
  img.set(5, 5, true);
  img.set(6, 6, true);
  img.set(7, 5, true);
  CcaConfig config;
  config.minComponentPixels = 1;
  CcaLabeler cca(config);
  const auto comps = cca.label(img);
  ASSERT_EQ(comps.size(), 1U);
  EXPECT_EQ(comps[0].box, (BBox{5, 5, 3, 2}));
  EXPECT_EQ(comps[0].pixelCount, 3U);
}

TEST(CcaTest, UShapeIsOneComponent) {
  // U-shape forces label equivalences to be resolved by union-find.
  BinaryImage img(32, 32);
  fillBlock(img, 5, 5, 3, 12);    // left arm
  fillBlock(img, 15, 5, 3, 12);   // right arm
  fillBlock(img, 5, 5, 13, 3);    // bottom bridge
  CcaConfig config;
  config.minComponentPixels = 1;
  CcaLabeler cca(config);
  const auto comps = cca.label(img);
  ASSERT_EQ(comps.size(), 1U);
  EXPECT_EQ(comps[0].box, (BBox{5, 5, 13, 12}));
}

TEST(CcaTest, MinComponentPixelsFilters) {
  BinaryImage img(32, 32);
  fillBlock(img, 5, 5, 5, 5);    // 25 px
  img.set(20, 20, true);         // 1 px speck
  CcaConfig config;
  config.minComponentPixels = 4;
  CcaLabeler cca(config);
  const auto comps = cca.label(img);
  ASSERT_EQ(comps.size(), 1U);
  EXPECT_EQ(comps[0].pixelCount, 25U);
}

TEST(CcaTest, ProposalsMirrorComponents) {
  CcaLabeler cca(CcaConfig{});
  BinaryImage img(64, 64);
  fillBlock(img, 10, 10, 8, 6);
  const RegionProposals props = cca.propose(img);
  ASSERT_EQ(props.size(), 1U);
  EXPECT_EQ(props[0].box, (BBox{10, 10, 8, 6}));
  EXPECT_EQ(props[0].support, 48U);
}

// Property: the run-based labeller agrees exactly with flood fill on
// random images, square and with a width that is not a multiple of 64
// (the last word of every row is a tail word).
struct CcaPropertyCase {
  int seed;
  int width;
  int height;
};

void PrintTo(const CcaPropertyCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_" << c.width << "x" << c.height;
}

class CcaEquivalenceProperty
    : public ::testing::TestWithParam<CcaPropertyCase> {};

TEST_P(CcaEquivalenceProperty, MatchesFloodFill) {
  const auto [seed, w, h] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  BinaryImage img(w, h);
  // Mixture of blobs and noise for interesting topologies; 120 noise
  // pixels per 48 x 48 of frame.
  for (int b = 0; b < 5; ++b) {
    const int x0 = static_cast<int>(rng.uniformInt(0, w - 8));
    const int y0 = static_cast<int>(rng.uniformInt(0, h - 8));
    fillBlock(img, x0, y0, static_cast<int>(rng.uniformInt(2, 7)),
              static_cast<int>(rng.uniformInt(2, 7)));
  }
  for (int i = 0; i < 120 * w * h / (48 * 48); ++i) {
    img.set(static_cast<int>(rng.uniformInt(0, w - 1)),
            static_cast<int>(rng.uniformInt(0, h - 1)), true);
  }
  CcaConfig config;
  config.minComponentPixels = 1;
  CcaLabeler cca(config);
  const auto ours = cca.label(img);
  const auto reference = floodFillReference(img, 1);
  ASSERT_EQ(ours.size(), reference.size());
  for (std::size_t i = 0; i < ours.size(); ++i) {
    EXPECT_EQ(ours[i].box, reference[i].box) << "component " << i;
    EXPECT_EQ(ours[i].pixelCount, reference[i].pixelCount) << "component "
                                                            << i;
  }
}

std::vector<CcaPropertyCase> makeCcaCases() {
  std::vector<CcaPropertyCase> cases;
  for (int seed = 1; seed <= 8; ++seed) {
    cases.push_back({seed, 48, 48});
    cases.push_back({seed, 130, 37});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomImages, CcaEquivalenceProperty,
                         ::testing::ValuesIn(makeCcaCases()));

}  // namespace
}  // namespace ebbiot
