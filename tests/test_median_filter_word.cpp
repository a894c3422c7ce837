// Differential tests pinning the word-parallel MedianFilter against the
// scalar MedianFilterReference: bit-identical filtered images and
// bit-identical OpCounts (the closed-form accounting must equal the
// reference's metered values), across sizes that exercise every word-
// boundary case, random densities, frame borders, all-set and all-clear
// frames, and the active-row band skip.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.hpp"
#include "src/filters/median_filter.hpp"
#include "src/filters/median_filter_reference.hpp"
#include "src/filters/median_majority.hpp"

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

void expectIdentical(const BinaryImage& img, int patch) {
  MedianFilter fast(patch);
  MedianFilterReference reference(patch);
  const BinaryImage got = fast.apply(img);
  const BinaryImage want = reference.apply(img);
  ASSERT_EQ(got, want) << "image " << img.width() << "x" << img.height()
                       << " patch " << patch;
  EXPECT_EQ(fast.lastOps(), reference.lastOps())
      << "closed-form ops diverge from metered reference";
}

TEST(MedianFilterWordTest, ClampedPatchSumClosedFormMatchesLoop) {
  // The O(1) per-axis sum behind closedFormOps against the loop over
  // every position it replaces, through frames narrower than the patch.
  for (const int p : {1, 3, 5, 7, 9}) {
    const int r = p / 2;
    for (int n = 1; n <= 700; ++n) {
      std::uint64_t loop = 0;
      for (int i = 0; i < n; ++i) {
        loop += static_cast<std::uint64_t>(std::min(n - 1, i + r) -
                                           std::max(0, i - r) + 1);
      }
      ASSERT_EQ(median_detail::clampedPatchSum(n, r), loop)
          << "n " << n << " p " << p;
    }
  }
}

TEST(MedianFilterWordTest, MatchesReferenceAcrossWordBoundarySizes) {
  // Widths around the 64-bit word boundary, including single-word,
  // exactly-one-word, multi-word and ragged-tail shapes.
  const int widths[] = {1, 2, 3, 31, 63, 64, 65, 127, 128, 130, 240};
  const int heights[] = {1, 2, 3, 17, 180};
  std::uint64_t seed = 1;
  for (int w : widths) {
    for (int h : heights) {
      expectIdentical(randomImage(w, h, 0.3, seed++), 3);
    }
  }
}

TEST(MedianFilterWordTest, MatchesReferenceAcrossDensities) {
  std::uint64_t seed = 100;
  for (double density : {0.01, 0.05, 0.2, 0.5, 0.8, 0.95}) {
    expectIdentical(randomImage(240, 180, density, seed++), 3);
    expectIdentical(randomImage(65, 40, density, seed++), 3);
  }
}

TEST(MedianFilterWordTest, AllClearAndAllSetFrames) {
  for (int w : {5, 64, 65, 240}) {
    const int h = 20;
    expectIdentical(BinaryImage(w, h), 3);  // all clear
    BinaryImage full(w, h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        full.set(x, y, true);
      }
    }
    expectIdentical(full, 3);  // all set (borders still erode identically)
  }
}

TEST(MedianFilterWordTest, BorderColumnsAndRows) {
  // Dense content hugging each frame edge — the cross-word carries and the
  // zero-padding clamp must agree with the scalar clamp exactly.
  for (int w : {64, 65, 130}) {
    const int h = 30;
    BinaryImage img(w, h);
    for (int y = 0; y < h; ++y) {
      img.set(0, y, true);
      img.set(1, y, true);
      img.set(w - 1, y, true);
      img.set(w - 2, y, true);
    }
    for (int x = 0; x < w; ++x) {
      img.set(x, 0, true);
      img.set(x, h - 1, true);
    }
    expectIdentical(img, 3);
  }
}

TEST(MedianFilterWordTest, PixelsStraddlingWordBoundary) {
  BinaryImage img(130, 10);
  // A 3x3 block centred on the word boundary at x = 63..65.
  for (int y = 4; y <= 6; ++y) {
    for (int x = 63; x <= 65; ++x) {
      img.set(x, y, true);
    }
  }
  // And one at the second boundary covering the ragged tail word.
  for (int y = 2; y <= 4; ++y) {
    for (int x = 127; x <= 129; ++x) {
      img.set(x, y, true);
    }
  }
  expectIdentical(img, 3);
}

TEST(MedianFilterWordTest, SparseActiveBandSkipsBlankRows) {
  // Content confined to a narrow band; the fast path must fill the rest
  // with zeros exactly like the reference (its band skip is invisible).
  BinaryImage img(240, 180);  // all clear
  for (int y = 90; y <= 93; ++y) {
    for (int x = 100; x <= 140; ++x) {
      img.set(x, y, true);
    }
  }
  expectIdentical(img, 3);
}

TEST(MedianFilterWordTest, StaleOccupancyRowsStayCorrect) {
  // Rows where pixels were set then cleared have a conservative "maybe
  // occupied" occupancy bit; the result must still match the reference.
  BinaryImage img(100, 50);
  for (int x = 0; x < 100; ++x) {
    img.set(x, 10, true);
  }
  for (int x = 0; x < 100; ++x) {
    img.set(x, 10, false);  // row 10 now blank but flagged occupied
  }
  for (int y = 20; y <= 22; ++y) {
    for (int x = 30; x <= 60; ++x) {
      img.set(x, y, true);
    }
  }
  expectIdentical(img, 3);
}

TEST(MedianFilterWordTest, ReusedOutputIsOverwrittenCompletely) {
  // applyInto into an output that previously held a *different* dense
  // result must leave no residue outside the new active band.
  MedianFilter filter(3);
  BinaryImage dense = randomImage(240, 180, 0.9, 77);
  BinaryImage out(240, 180);
  filter.applyInto(dense, out);
  BinaryImage sparse(240, 180);
  sparse.set(5, 5, true);
  filter.applyInto(sparse, out);
  EXPECT_EQ(out.popcount(), 0U);  // lone pixel removed, no stale content
}

TEST(MedianFilterWordTest, ScalarFallbackPatchSizesMatchReference) {
  // The one patch size beside the 3x3 kernel: p = 1, the identity copy.
  expectIdentical(randomImage(97, 33, 0.4, 500), 1);
  expectIdentical(randomImage(64, 16, 0.2, 501), 1);
}

TEST(MedianFilterWordTest, QuietSceneDirtyBandSeedStaysIdentical) {
  // The dirty-row-span seed (BinaryImage::occupiedRowSpan, maintained by
  // the builder's writes) lets a quiet scene skip every untouched row;
  // the result must stay bit-identical to the scalar reference, including
  // bands hugging the top and bottom frame edges.
  expectIdentical(BinaryImage(240, 180), 3);  // fully quiet frame
  for (int bandStart : {0, 1, 88, 176, 178}) {
    BinaryImage img(240, 180);
    for (int y = bandStart; y < std::min(180, bandStart + 2); ++y) {
      for (int x = 200; x < 230; ++x) {
        img.set(x, y, true);
      }
    }
    expectIdentical(img, 3);
  }
  // A two-pixel speck: the narrowest possible dirty band.
  BinaryImage speck(240, 180);
  speck.set(120, 0, true);
  speck.set(121, 0, true);
  expectIdentical(speck, 3);
}

TEST(MedianFilterWordTest, TwoTimescaleStyleOrWithImagesMatch) {
  // OR-combined images (the slow frame path) carry merged occupancy;
  // results must stay identical.
  BinaryImage a = randomImage(240, 64, 0.1, 900);
  const BinaryImage b = randomImage(240, 64, 0.1, 901);
  a.orWith(b);
  expectIdentical(a, 3);
}

}  // namespace
}  // namespace ebbiot
