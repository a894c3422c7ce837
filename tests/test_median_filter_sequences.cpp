// Sequence tests for the word-parallel MedianFilter as the front end runs
// it: one filter instance filtering frame after frame into one reused
// output buffer.  Every frame is pinned against a fresh scalar
// MedianFilterReference (bit-identical image, identical closed-form
// Eq. (1) OpCounts), and the reused output's row occupancy must cover
// every row that holds pixels, since the downstream downsample and CCA
// stages skip rows by it.  For the 3x3 kernel it must be exact: a row the
// median left blank is flagged blank, so those stages skip it too.  The
// scenes stress what a stale output or a stale occupancy bit would get
// wrong: dense random frames, sparse bands moving or jumping, blank and
// noise-only frames, content hugging the frame edges, single-pixel flips
// and word-boundary widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/front_end.hpp"
#include "src/filters/median_filter.hpp"
#include "src/filters/median_filter_reference.hpp"

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

BinaryImage bandImage(int w, int h, int y0, int y1, int x0, int x1) {
  BinaryImage img(w, h);
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      img.set(x, y, true);
    }
  }
  return img;
}

/// Every row holding a set pixel is flagged possibly-occupied and lies in
/// the occupied span.
void expectOccupancyCoversPixels(const BinaryImage& img, std::size_t frame) {
  const RowSpan span = img.occupiedRowSpan();
  for (int y = 0; y < img.height(); ++y) {
    bool anySet = false;
    for (int x = 0; x < img.width() && !anySet; ++x) {
      anySet = img.get(x, y);
    }
    if (anySet) {
      EXPECT_TRUE(img.rowMayHaveSetPixels(y))
          << "row " << y << " holds pixels but is flagged blank, frame "
          << frame;
      EXPECT_TRUE(y >= span.begin && y < span.end)
          << "row " << y << " outside the occupied span, frame " << frame;
    }
  }
}

/// Row occupancy is exact: a row is flagged possibly-occupied iff it holds
/// a set pixel, and the occupied span is the tight band of those rows.
void expectOccupancyExact(const BinaryImage& img, std::size_t frame) {
  RowSpan tight{img.height(), 0};
  for (int y = 0; y < img.height(); ++y) {
    bool anySet = false;
    for (int x = 0; x < img.width() && !anySet; ++x) {
      anySet = img.get(x, y);
    }
    EXPECT_EQ(img.rowMayHaveSetPixels(y), anySet)
        << "row " << y << (anySet ? " holds pixels" : " is blank")
        << ", frame " << frame;
    if (anySet) {
      tight.begin = std::min(tight.begin, y);
      tight.end = y + 1;
    }
  }
  const RowSpan span = img.occupiedRowSpan();
  if (tight.empty()) {
    EXPECT_TRUE(span.empty()) << "frame " << frame;
  } else {
    EXPECT_EQ(span, tight) << "frame " << frame;
  }
}

/// Filter the sequence with one MedianFilter into one reused output; every
/// frame must match a fresh reference in image bits and OpCounts, and the
/// 3x3 kernel's output occupancy must be exact.
void expectSequenceMatchesReference(const std::vector<BinaryImage>& frames,
                                    int patch = 3) {
  MedianFilter filter(patch);
  BinaryImage got(frames.front().width(), frames.front().height());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    filter.applyInto(frames[i], got);
    MedianFilterReference reference(patch);
    const BinaryImage want = reference.apply(frames[i]);
    ASSERT_EQ(got, want) << "frame " << i << " diverged";
    EXPECT_EQ(filter.lastOps(), reference.lastOps())
        << "ops diverged at frame " << i;
    expectOccupancyCoversPixels(got, i);
    if (patch == 3) {
      expectOccupancyExact(got, i);
    }
  }
}

TEST(MedianFilterSequenceTest, DenseRandomSequences) {
  std::vector<BinaryImage> frames;
  std::uint64_t seed = 1;
  for (int i = 0; i < 8; ++i) {
    frames.push_back(randomImage(240, 180, 0.3, seed++));
  }
  expectSequenceMatchesReference(frames);
}

TEST(MedianFilterSequenceTest, RepeatedIdenticalFrames) {
  const BinaryImage img = randomImage(240, 180, 0.2, 42);
  expectSequenceMatchesReference({img, img, img, img});
}

TEST(MedianFilterSequenceTest, SparseMovingBand) {
  // A narrow band marching down the frame: the rows it leaves must be
  // cleared in the reused output, not kept from the previous frame.
  std::vector<BinaryImage> frames;
  for (int step = 0; step < 20; ++step) {
    const int y0 = 10 + 6 * step;
    frames.push_back(bandImage(240, 180, y0, y0 + 4, 80, 160));
  }
  expectSequenceMatchesReference(frames);
}

TEST(MedianFilterSequenceTest, ContentAppearsAndDisappears) {
  std::vector<BinaryImage> frames;
  frames.emplace_back(240, 180);                            // blank
  frames.push_back(bandImage(240, 180, 60, 90, 40, 110));   // appears
  frames.push_back(bandImage(240, 180, 60, 90, 40, 110));   // unchanged
  frames.emplace_back(240, 180);                            // disappears
  frames.emplace_back(240, 180);                            // stays blank
  frames.push_back(bandImage(240, 180, 0, 3, 0, 240));      // top edge band
  frames.push_back(bandImage(240, 180, 177, 180, 0, 240));  // bottom edge
  expectSequenceMatchesReference(frames);
}

TEST(MedianFilterSequenceTest, DisjointBandsSwap) {
  // Content jumping between distant bands: the output must drop the old
  // band entirely while the new one is filtered.
  std::vector<BinaryImage> frames;
  for (int i = 0; i < 6; ++i) {
    frames.push_back(i % 2 == 0 ? bandImage(240, 180, 5, 12, 10, 60)
                                : bandImage(240, 180, 150, 160, 180, 230));
  }
  expectSequenceMatchesReference(frames);
}

TEST(MedianFilterSequenceTest, WordBoundaryWidthsAndDensities) {
  for (int w : {63, 64, 65, 130}) {
    std::vector<BinaryImage> frames;
    std::uint64_t seed = 100 + static_cast<std::uint64_t>(w);
    for (double density : {0.05, 0.5, 0.9, 0.0, 0.3}) {
      frames.push_back(randomImage(w, 40, density, seed++));
    }
    expectSequenceMatchesReference(frames);
  }
}

TEST(MedianFilterSequenceTest, SinglePixelFlips) {
  // Minimal changes: one pixel toggling near a word boundary and at the
  // frame corners.  Clearing a pixel leaves its row flagged possibly
  // occupied, so these frames also carry stale occupancy bits.
  const BinaryImage base = randomImage(240, 180, 0.1, 7);
  std::vector<BinaryImage> frames;
  frames.push_back(base);
  BinaryImage f1 = base;
  f1.set(64, 90, !f1.get(64, 90));
  frames.push_back(f1);
  BinaryImage f2 = f1;
  f2.set(0, 0, true);
  frames.push_back(f2);
  BinaryImage f3 = f2;
  f3.set(239, 179, true);
  frames.push_back(f3);
  frames.push_back(base);  // revert everything
  expectSequenceMatchesReference(frames);
}

TEST(MedianFilterSequenceTest, NoiseOnlyFramesLeaveNoOccupiedRows) {
  // Salt noise touches nearly every input row, yet the median removes all
  // of it: the output must report an empty occupied span, not the input's
  // whole-frame band, so the RPN stages skip the frame outright.
  MedianFilter filter(3);
  for (const auto& [w, h] : {std::pair{240, 180}, std::pair{65, 40},
                             std::pair{128, 1}}) {
    BinaryImage got(w, h);
    std::uint64_t seed = 500;
    for (int i = 0; i < 4; ++i) {
      const BinaryImage noise = randomImage(w, h, 0.01, seed++);
      ASSERT_EQ(MedianFilterReference(3).apply(noise).popcount(), 0U)
          << "noise frame " << i << " must filter to blank";
      filter.applyInto(noise, got);
      EXPECT_EQ(got.popcount(), 0U);
      EXPECT_TRUE(got.occupiedRowSpan().empty())
          << w << "x" << h << " noise frame " << i;
      expectOccupancyExact(got, static_cast<std::size_t>(i));
    }
  }
}

TEST(MedianFilterSequenceTest, OneFilterAcrossFrameShapes) {
  // The filter holds no per-shape state: the same instance serves frames
  // of different geometry back to back.
  MedianFilter filter(3);
  std::uint64_t seed = 21;
  for (const auto& [w, h] : {std::pair{240, 180}, std::pair{65, 40},
                             std::pair{128, 128}, std::pair{240, 180}}) {
    const BinaryImage img = randomImage(w, h, 0.3, seed++);
    BinaryImage got(w, h);
    filter.applyInto(img, got);
    MedianFilterReference reference(3);
    EXPECT_EQ(got, reference.apply(img)) << w << "x" << h;
    EXPECT_EQ(filter.lastOps(), reference.lastOps()) << w << "x" << h;
  }
}

TEST(MedianFilterSequenceTest, NonThreePatchSequences) {
  // p = 1, the one patch size beside the 3x3 kernel.
  std::vector<BinaryImage> frames;
  std::uint64_t seed = 301;
  for (int i = 0; i < 3; ++i) {
    frames.push_back(randomImage(97, 33, 0.4, seed++));
  }
  frames.emplace_back(97, 33);
  expectSequenceMatchesReference(frames, 1);
}

TEST(MedianFilterSequenceTest, FrontEndFilteredMatchesReferenceEveryWindow) {
  // The front end reuses its EBBI and filtered images window after window;
  // its filtered image must equal the reference median of its own EBBI,
  // with the reference's ops, for both RPN kinds.
  for (RpnKind kind : {RpnKind::kHistogram, RpnKind::kCca}) {
    FrontEndConfig config;
    config.rpnKind = kind;
    FrameFrontEnd frontEnd(config);
    Rng rng(55);
    for (int f = 0; f < 8; ++f) {
      EventPacket packet(f * 66'000, (f + 1) * 66'000);
      // A blob sliding right, absent on every fourth window.
      const int blobX = 40 + 10 * f;
      for (int y = 70; y < 95 && f % 4 != 3; ++y) {
        for (int x = blobX; x < blobX + 50; ++x) {
          if (rng.chance(0.55)) {
            packet.push(Event{static_cast<std::uint16_t>(x),
                              static_cast<std::uint16_t>(y), Polarity::kOn,
                              f * 66'000 + 100});
          }
        }
      }
      (void)frontEnd.process(packet);
      MedianFilterReference reference(config.medianPatch);
      ASSERT_EQ(frontEnd.lastFiltered(), reference.apply(frontEnd.lastEbbi()))
          << "filtered image diverged at window " << f;
      EXPECT_EQ(frontEnd.lastOps().medianFilter, reference.lastOps());
      expectOccupancyExact(frontEnd.lastFiltered(),
                           static_cast<std::size_t>(f));
    }
  }
}

}  // namespace
}  // namespace ebbiot
