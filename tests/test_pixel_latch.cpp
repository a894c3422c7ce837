// PixelLatch against a naive first-occurrence reference: every sensor
// width around the 64-bit word boundary, one- and many-row sensors, every
// pixel fired several times, empty windows, and one latch reused over
// consecutive windows that fire the same pixels (a readout that failed
// to clear its mask would drop their first events).
#include "src/events/pixel_latch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/sim/davis.hpp"

namespace ebbiot {
namespace {

/// The rule spelled out: walk the window, keep an event iff its pixel has
/// not appeared before in this window.
std::vector<Event> firstOccurrences(const EventPacket& window) {
  std::set<std::pair<int, int>> seen;
  std::vector<Event> kept;
  for (const Event& e : window) {
    if (seen.insert({e.x, e.y}).second) {
      kept.push_back(e);
    }
  }
  return kept;
}

/// Every pixel fired `repeats` times in a seeded random order, times
/// non-decreasing across the window.
EventPacket everyPixelFired(int width, int height, int repeats, TimeUs tStart,
                            Rng& rng) {
  std::vector<std::pair<int, int>> fires;
  for (int r = 0; r < repeats; ++r) {
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        fires.emplace_back(x, y);
      }
    }
  }
  for (std::size_t i = fires.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(i) - 1));
    std::swap(fires[i - 1], fires[j]);
  }
  const TimeUs duration = 66'000;
  EventPacket window(tStart, tStart + duration);
  for (std::size_t i = 0; i < fires.size(); ++i) {
    window.push(Event{static_cast<std::uint16_t>(fires[i].first),
                      static_cast<std::uint16_t>(fires[i].second),
                      rng.chance(0.5) ? Polarity::kOn : Polarity::kOff,
                      tStart + static_cast<TimeUs>(i) * duration /
                                   static_cast<TimeUs>(fires.size())});
  }
  return window;
}

/// `count` events on random pixels of the sensor (repeats likely).
EventPacket randomWindow(int width, int height, int count, TimeUs tStart,
                         Rng& rng) {
  EventPacket window(tStart, tStart + count);
  for (int i = 0; i < count; ++i) {
    const auto x = static_cast<std::uint16_t>(rng.uniformInt(0, width - 1));
    const auto y = static_cast<std::uint16_t>(rng.uniformInt(0, height - 1));
    window.push(Event{x, y, Polarity::kOn, tStart + i});
  }
  return window;
}

void expectMatchesReference(const EventPacket& window, const EventPacket& out,
                            const char* what) {
  EXPECT_EQ(out.tStart(), window.tStart()) << what;
  EXPECT_EQ(out.tEnd(), window.tEnd()) << what;
  const std::vector<Event> want = firstOccurrences(window);
  ASSERT_EQ(out.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out[i], want[i]) << what << ", survivor " << i;
  }
}

TEST(PixelLatchTest, MatchesFirstOccurrenceAcrossGeometries) {
  Rng rng(2024);
  for (const int width : {1, 63, 64, 65, 240, 640}) {
    for (const int height : {1, 180}) {
      SCOPED_TRACE(testing::Message() << width << "x" << height);
      // One instance and one output packet across every window below.
      PixelLatch latch(width, height);
      EventPacket out;
      TimeUs t = 0;
      const auto step = [&](const EventPacket& window, const char* what) {
        latch.readoutInto(window, out);
        expectMatchesReference(window, out, what);
        t = window.tEnd();
      };
      const EventPacket all = everyPixelFired(width, height, 5, t, rng);
      step(all, "every pixel 5x");
      EXPECT_EQ(out.size(), static_cast<std::size_t>(width) * height);
      step(EventPacket(t, t + 10'000), "empty window");
      EXPECT_TRUE(out.empty());
      // Three consecutive windows firing pixels the earlier ones fired.
      const int count = width * height;
      step(randomWindow(width, height, count, t, rng), "shared pixels 1");
      step(randomWindow(width, height, count, t, rng), "shared pixels 2");
      step(everyPixelFired(width, height, 5, t, rng), "every pixel again");
      EXPECT_EQ(out.size(), static_cast<std::size_t>(width) * height);
      step(EventPacket(t, t), "zero-length empty window");
    }
  }
}

TEST(PixelLatchTest, SamePixelInConsecutiveWindowsSurvivesEachTime) {
  // The case an unreset mask gets wrong: one pixel, one event per window.
  PixelLatch latch(240, 180);
  EventPacket out;
  for (TimeUs w = 0; w < 5; ++w) {
    EventPacket window(w * 100, (w + 1) * 100);
    window.push(Event{239, 179, Polarity::kOff, w * 100 + 1});
    window.push(Event{239, 179, Polarity::kOn, w * 100 + 2});
    latch.readoutInto(window, out);
    ASSERT_EQ(out.size(), 1U) << "window " << w;
    EXPECT_EQ(out[0], window[0]) << "window " << w;
  }
}

TEST(PixelLatchTest, KeepsInputOrderOfUnsortedWindows) {
  // The kernel's "first" is first in input order; it never sorts.
  EventPacket window(0, 100);
  window.push(Event{1, 0, Polarity::kOn, 90});
  window.push(Event{0, 0, Polarity::kOn, 10});
  window.push(Event{1, 0, Polarity::kOff, 5});
  PixelLatch latch(2, 1);
  EventPacket out;
  latch.readoutInto(window, out);
  ASSERT_EQ(out.size(), 2U);
  EXPECT_EQ(out[0], window[0]);
  EXPECT_EQ(out[1], window[1]);
}

TEST(PixelLatchTest, RejectsEventsOffTheSensor) {
  PixelLatch latch(64, 3);
  EventPacket out;
  EventPacket xOff(0, 10);
  xOff.push(Event{64, 0, Polarity::kOn, 1});
  EXPECT_THROW(latch.readoutInto(xOff, out), LogicError);
  EventPacket yOff(0, 10);
  yOff.push(Event{0, 3, Polarity::kOn, 1});
  EXPECT_THROW(latch.readoutInto(yOff, out), LogicError);
  EXPECT_THROW(PixelLatch(0, 3), LogicError);
  EXPECT_THROW(PixelLatch(64, 0), LogicError);
}

TEST(PixelLatchTest, LatchReadoutIsTheKernel) {
  Rng rng(5);
  const EventPacket window = randomWindow(240, 180, 4000, 1'000, rng);
  PixelLatch latch(240, 180);
  EventPacket out;
  latch.readoutInto(window, out);
  const EventPacket viaReadout = latchReadout(window, 240, 180);
  ASSERT_EQ(viaReadout.size(), out.size());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), viaReadout.begin()));
  EXPECT_EQ(viaReadout.tStart(), window.tStart());
  EXPECT_EQ(viaReadout.tEnd(), window.tEnd());
}

}  // namespace
}  // namespace ebbiot
