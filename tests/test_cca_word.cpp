// Differential tests pinning the run-based word-parallel CcaLabeler
// against the scalar two-pass CcaLabelerReference: bit-identical
// components (boxes, pixel counts, deterministic order) and bit-identical
// OpCounts (the closed-form per-pixel accounting must equal the
// reference's metered values), across word-boundary widths, random
// densities, all-set/all-clear rows, diagonal topologies,
// minComponentPixels filtering and stale occupancy.
#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/detect/cca.hpp"
#include "src/detect/cca_reference.hpp"

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

void expectIdentical(const BinaryImage& img, std::size_t minPixels = 1) {
  CcaConfig config;
  config.minComponentPixels = minPixels;
  CcaLabeler fast(config);
  CcaLabelerReference reference(config);
  const auto& got = fast.label(img);
  const auto& want = reference.label(img);
  ASSERT_EQ(got.size(), want.size())
      << "image " << img.width() << "x" << img.height();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].box, want[i].box) << "component " << i;
    EXPECT_EQ(got[i].pixelCount, want[i].pixelCount) << "component " << i;
  }
  EXPECT_EQ(fast.lastOps(), reference.lastOps())
      << "closed-form ops diverge from metered reference ("
      << img.width() << "x" << img.height() << ")";
}

TEST(CcaWordTest, MatchesReferenceAcrossWordBoundarySizes) {
  // Widths around the 64-bit word boundary, including single-word,
  // exactly-one-word, multi-word and ragged-tail shapes.
  const int widths[] = {1, 2, 3, 31, 63, 64, 65, 127, 128, 130, 240};
  const int heights[] = {1, 2, 3, 17, 180};
  std::uint64_t seed = 1;
  for (int w : widths) {
    for (int h : heights) {
      expectIdentical(randomImage(w, h, 0.3, seed++));
    }
  }
}

TEST(CcaWordTest, MatchesReferenceAcrossDensities) {
  std::uint64_t seed = 100;
  for (double density : {0.01, 0.05, 0.2, 0.5, 0.8, 0.95}) {
    expectIdentical(randomImage(240, 180, density, seed++));
    expectIdentical(randomImage(65, 40, density, seed++));
  }
}

TEST(CcaWordTest, AllClearAndAllSetFrames) {
  for (int w : {5, 63, 64, 65, 240}) {
    const int h = 20;
    expectIdentical(BinaryImage(w, h));  // all clear
    BinaryImage full(w, h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        full.set(x, y, true);
      }
    }
    expectIdentical(full);  // one frame-sized component
  }
}

TEST(CcaWordTest, AlternatingFullAndEmptyRows) {
  // Stripes exercise the prev-row reset between disconnected rows; runs
  // spanning whole multi-word rows exercise the cross-word run scan.
  for (int w : {63, 64, 65, 130}) {
    BinaryImage img(w, 24);
    for (int y = 0; y < 24; y += 2) {
      for (int x = 0; x < w; ++x) {
        img.set(x, y, true);
      }
    }
    expectIdentical(img);
  }
}

TEST(CcaWordTest, SinglePixelDiagonalsAcrossWordBoundary) {
  // A diagonal staircase is one component under 8-connectivity; run it
  // across the x=63/64 boundary.
  BinaryImage img(130, 40);
  for (int i = 0; i < 30; ++i) {
    img.set(50 + i, 5 + i, true);
  }
  expectIdentical(img);
  // Anti-diagonal too: its merges come from the SE probe.
  BinaryImage anti(130, 40);
  for (int i = 0; i < 30; ++i) {
    anti.set(90 - i, 5 + i, true);
  }
  expectIdentical(anti);
}

TEST(CcaWordTest, MinComponentPixelsFiltering) {
  Rng rng(7);
  BinaryImage img = randomImage(240, 100, 0.1, 42);
  for (std::size_t minPixels : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}, std::size_t{10}}) {
    expectIdentical(img, minPixels);
  }
}

TEST(CcaWordTest, UShapeMergesAcrossRuns) {
  // The U forces two run chains to union through the bridge row.
  BinaryImage img(96, 32);
  for (int y = 5; y < 17; ++y) {
    for (int x = 60; x < 63; ++x) {
      img.set(x, y, true);  // left arm (crosses no boundary)
    }
    for (int x = 70; x < 73; ++x) {
      img.set(x, y, true);  // right arm
    }
  }
  for (int x = 60; x < 73; ++x) {
    img.set(x, 5, true);  // bridge
  }
  expectIdentical(img);
}

TEST(CcaWordTest, StaleOccupancyRowsStayCorrect) {
  // Rows where pixels were set then cleared keep a conservative "maybe
  // occupied" bit; the labeller must treat them as the blank rows they
  // are, with identical components AND identical ops.
  BinaryImage img(100, 50);
  for (int x = 0; x < 100; ++x) {
    img.set(x, 10, true);
  }
  for (int x = 0; x < 100; ++x) {
    img.set(x, 10, false);  // row 10 blank but flagged occupied
  }
  for (int y = 9; y <= 12; ++y) {
    for (int x = 30; x <= 60; ++x) {
      img.set(x, y, true);  // straddles the stale row
    }
  }
  expectIdentical(img);
}

TEST(CcaWordTest, DeterministicOrderingAcrossRepeatedCalls) {
  const BinaryImage img = randomImage(240, 180, 0.25, 99);
  CcaConfig config;
  config.minComponentPixels = 1;
  CcaLabeler cca(config);
  const std::vector<ConnectedComponent> first = cca.label(img);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cca.label(img), first);
  }
  for (std::size_t i = 1; i < first.size(); ++i) {
    EXPECT_FALSE(componentScanOrderLess(first[i], first[i - 1]))
        << "output not sorted at " << i;
  }
}

TEST(CcaWordTest, ProposalsMirrorReference) {
  const BinaryImage img = randomImage(240, 180, 0.2, 1234);
  CcaLabeler fast(CcaConfig{});
  CcaLabelerReference reference(CcaConfig{});
  const RegionProposals& got = fast.propose(img);
  const RegionProposals& want = reference.propose(img);
  EXPECT_EQ(got, want);
  EXPECT_EQ(fast.lastOps(), reference.lastOps());
}

}  // namespace
}  // namespace ebbiot
