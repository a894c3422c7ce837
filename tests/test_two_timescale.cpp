#include "src/ebbi/two_timescale.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"

namespace ebbiot {
namespace {

EventPacket packetWithPixel(TimeUs t0, TimeUs t1, std::uint16_t x,
                            std::uint16_t y) {
  EventPacket p(t0, t1);
  p.push(Event{x, y, Polarity::kOn, t0});
  return p;
}

TEST(TwoTimescaleTest, FastFrameIsLatestWindowOnly) {
  TwoTimescaleBuilder builder(16, 16, 3);
  builder.addWindow(packetWithPixel(0, 100, 1, 1));
  builder.addWindow(packetWithPixel(100, 200, 2, 2));
  EXPECT_FALSE(builder.fastFrame().get(1, 1));
  EXPECT_TRUE(builder.fastFrame().get(2, 2));
}

TEST(TwoTimescaleTest, SlowFrameIsUnionOfLastK) {
  TwoTimescaleBuilder builder(16, 16, 3);
  builder.addWindow(packetWithPixel(0, 100, 1, 1));
  builder.addWindow(packetWithPixel(100, 200, 2, 2));
  builder.addWindow(packetWithPixel(200, 300, 3, 3));
  EXPECT_TRUE(builder.slowFrame().get(1, 1));
  EXPECT_TRUE(builder.slowFrame().get(2, 2));
  EXPECT_TRUE(builder.slowFrame().get(3, 3));
}

TEST(TwoTimescaleTest, SlowFrameSlidesForward) {
  TwoTimescaleBuilder builder(16, 16, 2);
  builder.addWindow(packetWithPixel(0, 100, 1, 1));
  builder.addWindow(packetWithPixel(100, 200, 2, 2));
  builder.addWindow(packetWithPixel(200, 300, 3, 3));
  // Window 1 has fallen out of the 2-window ring.
  EXPECT_FALSE(builder.slowFrame().get(1, 1));
  EXPECT_TRUE(builder.slowFrame().get(2, 2));
  EXPECT_TRUE(builder.slowFrame().get(3, 3));
}

TEST(TwoTimescaleTest, FactorOneMakesFramesIdentical) {
  TwoTimescaleBuilder builder(16, 16, 1);
  builder.addWindow(packetWithPixel(0, 100, 4, 4));
  EXPECT_EQ(builder.fastFrame(), builder.slowFrame());
  builder.addWindow(packetWithPixel(100, 200, 5, 5));
  EXPECT_EQ(builder.fastFrame(), builder.slowFrame());
  EXPECT_FALSE(builder.slowFrame().get(4, 4));
}

TEST(TwoTimescaleTest, WarmupCountsWindows) {
  TwoTimescaleBuilder builder(16, 16, 4);
  EXPECT_EQ(builder.windowsSeen(), 0U);
  builder.addWindow(packetWithPixel(0, 100, 1, 1));
  EXPECT_EQ(builder.windowsSeen(), 1U);
  EXPECT_TRUE(builder.slowFrame().get(1, 1));
}

TEST(TwoTimescaleTest, SlowFrameAccumulatesSlowObject) {
  // A slow object: one new pixel per window (sub-pixel-per-frame motion
  // leaves single-pixel traces).  The slow frame accumulates a silhouette
  // the fast frame never shows.
  TwoTimescaleBuilder builder(32, 32, 5);
  for (int i = 0; i < 5; ++i) {
    builder.addWindow(packetWithPixel(i * 100, (i + 1) * 100,
                                      static_cast<std::uint16_t>(10 + i), 10));
  }
  EXPECT_EQ(builder.fastFrame().popcount(), 1U);
  EXPECT_EQ(builder.slowFrame().popcount(), 5U);
}

TEST(TwoTimescaleTest, InvalidFactorThrows) {
  EXPECT_THROW(TwoTimescaleBuilder(16, 16, 0), LogicError);
}

/// Naive recompute of the slow frame: OR of the EBBIs of the last k
/// windows, built independently.  The incremental update (OR the new
/// window in; full rebuild only when the evicted slot had content) must
/// stay bit-identical to this at every step.
class NaiveSlowFrame {
 public:
  NaiveSlowFrame(int width, int height, int k)
      : builder_(width, height), k_(static_cast<std::size_t>(k)),
        width_(width), height_(height) {}

  void addWindow(const EventPacket& packet) {
    frames_.emplace_back(width_, height_);
    builder_.buildInto(packet, frames_.back());
    if (frames_.size() > k_) {
      frames_.erase(frames_.begin());
    }
  }

  [[nodiscard]] BinaryImage slow() const {
    BinaryImage out(width_, height_);
    for (const BinaryImage& f : frames_) {
      out.orWith(f);
    }
    return out;
  }

 private:
  EbbiBuilder builder_;
  std::size_t k_;
  int width_;
  int height_;
  std::vector<BinaryImage> frames_;
};

TEST(TwoTimescaleTest, SparseSceneMatchesNaiveRecompute) {
  // Mostly-blank windows (the incremental OR fast path) interleaved with
  // occasional content, including content that must *vanish* from the
  // slow frame k windows later (the eviction rebuild path).
  TwoTimescaleBuilder builder(64, 48, 4);
  NaiveSlowFrame naive(64, 48, 4);
  for (int w = 0; w < 24; ++w) {
    EventPacket p(w * 100, (w + 1) * 100);
    if (w % 5 == 0) {  // a lone speck every 5th window
      p.push(Event{static_cast<std::uint16_t>(5 + w), 10, Polarity::kOn,
                   static_cast<TimeUs>(w * 100)});
    }
    if (w == 7) {  // one dense burst that later falls out of the ring
      for (int y = 20; y < 30; ++y) {
        for (int x = 30; x < 50; ++x) {
          p.push(Event{static_cast<std::uint16_t>(x),
                       static_cast<std::uint16_t>(y), Polarity::kOn,
                       static_cast<TimeUs>(w * 100)});
        }
      }
    }
    builder.addWindow(p);
    naive.addWindow(p);
    ASSERT_EQ(builder.slowFrame(), naive.slow()) << "window " << w;
  }
}

TEST(TwoTimescaleTest, DenseSceneMatchesNaiveRecompute) {
  // Every window has content: every post-warm-up addWindow takes the
  // eviction-rebuild path and must still match the naive OR.
  TwoTimescaleBuilder builder(64, 48, 3);
  NaiveSlowFrame naive(64, 48, 3);
  for (int w = 0; w < 10; ++w) {
    EventPacket p(w * 100, (w + 1) * 100);
    for (int i = 0; i < 12; ++i) {
      p.push(Event{static_cast<std::uint16_t>((w * 7 + i * 5) % 64),
                   static_cast<std::uint16_t>((w * 3 + i) % 48),
                   Polarity::kOn, static_cast<TimeUs>(w * 100)});
    }
    builder.addWindow(p);
    naive.addWindow(p);
    ASSERT_EQ(builder.slowFrame(), naive.slow()) << "window " << w;
  }
}

TEST(TwoTimescaleTest, FastFrameReferenceTracksLatestRingSlot) {
  // fastFrame() aliases the ring slot of the most recent window: the
  // reference returned before an addWindow still describes the *old*
  // window afterwards only if re-fetched; re-fetching always yields the
  // latest build with no copy in between.
  TwoTimescaleBuilder builder(16, 16, 2);
  builder.addWindow(packetWithPixel(0, 100, 3, 3));
  const BinaryImage* first = &builder.fastFrame();
  EXPECT_TRUE(first->get(3, 3));
  builder.addWindow(packetWithPixel(100, 200, 9, 9));
  const BinaryImage* second = &builder.fastFrame();
  EXPECT_NE(first, second);  // k = 2: windows alternate ring slots
  EXPECT_TRUE(second->get(9, 9));
  EXPECT_FALSE(second->get(3, 3));
}

}  // namespace
}  // namespace ebbiot
