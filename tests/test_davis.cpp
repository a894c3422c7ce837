#include "src/sim/davis.hpp"

#include <gtest/gtest.h>

#include "src/sim/scene.hpp"

namespace ebbiot {
namespace {

DavisConfig quietConfig() {
  DavisConfig c;
  c.backgroundActivityHz = 0.0;
  c.hotPixelFraction = 0.0;
  c.seed = 99;
  return c;
}

TEST(DavisSimulatorTest, StaticSceneEmitsNothingWithoutNoise) {
  ScriptedScene scene(64, 64);  // no objects at all
  DavisSimulator sim(scene, quietConfig());
  const EventPacket p = sim.nextWindow(kDefaultFramePeriodUs);
  EXPECT_TRUE(p.empty());
}

TEST(DavisSimulatorTest, NoiseOnlyRateMatchesConfig) {
  ScriptedScene scene(64, 64);
  DavisConfig c = quietConfig();
  c.backgroundActivityHz = 5.0;  // per pixel
  DavisSimulator sim(scene, c);
  // 1 second: expect ~ 5 * 64 * 64 = 20480 events.
  std::size_t total = 0;
  for (int i = 0; i < 15; ++i) {
    total += sim.nextWindow(kDefaultFramePeriodUs).size();
  }
  const double expected = 5.0 * 64 * 64 * 0.066 * 15;
  EXPECT_NEAR(static_cast<double>(total), expected, expected * 0.1);
}

TEST(DavisSimulatorTest, MovingObjectProducesEventsNearItsBox) {
  ScriptedScene scene(240, 180);
  scene.addLinear(ObjectClass::kCar, BBox{20, 60, 48, 22}, Vec2f{60, 0}, 0,
                  secondsToUs(10.0));
  DavisSimulator sim(scene, quietConfig());
  (void)sim.nextWindow(kDefaultFramePeriodUs);  // settle the first frame
  const EventPacket p = sim.nextWindow(kDefaultFramePeriodUs);
  ASSERT_GT(p.size(), 50U);
  // All events should fall inside the inflated object footprint over the
  // window (box at window start/end +- 2 px).
  const BBox footprint{20.0F + 60.0F * 0.066F - 3.0F, 57.0F,
                       48.0F + 60.0F * 0.066F * 2.0F + 6.0F, 28.0F};
  for (const Event& e : p) {
    EXPECT_TRUE(footprint.contains(static_cast<float>(e.x),
                                   static_cast<float>(e.y)))
        << "event at (" << e.x << "," << e.y << ")";
  }
}

TEST(DavisSimulatorTest, FasterObjectYieldsMoreEvents) {
  auto countEvents = [](float speed) {
    ScriptedScene scene(240, 180);
    scene.addLinear(ObjectClass::kCar, BBox{20, 60, 48, 22},
                    Vec2f{speed, 0}, 0, secondsToUs(10.0));
    DavisSimulator sim(scene, quietConfig());
    std::size_t total = 0;
    for (int i = 0; i < 10; ++i) {
      total += sim.nextWindow(kDefaultFramePeriodUs).size();
    }
    return total;
  };
  EXPECT_GT(countEvents(80.0F), countEvents(20.0F));
}

TEST(DavisSimulatorTest, DeterministicForSameSeed) {
  auto run = [] {
    ScriptedScene scene(64, 64);
    DavisConfig c = quietConfig();
    c.backgroundActivityHz = 2.0;
    DavisSimulator sim(scene, c);
    return sim.nextWindow(kDefaultFramePeriodUs);
  };
  const EventPacket a = run();
  const EventPacket b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
}

TEST(DavisSimulatorTest, EventsAreTimeSortedAndInWindow) {
  ScriptedScene scene(240, 180);
  scene.addLinear(ObjectClass::kBus, BBox{0, 50, 120, 38}, Vec2f{45, 0}, 0,
                  secondsToUs(10.0));
  DavisConfig c = quietConfig();
  c.backgroundActivityHz = 1.0;
  DavisSimulator sim(scene, c);
  TimeUs cursor = 0;
  for (int i = 0; i < 5; ++i) {
    const EventPacket p = sim.nextWindow(kDefaultFramePeriodUs);
    EXPECT_EQ(p.tStart(), cursor);
    EXPECT_TRUE(p.isTimeSorted());
    for (const Event& e : p) {
      EXPECT_GE(e.t, p.tStart());
      EXPECT_LT(e.t, p.tEnd());
    }
    cursor = p.tEnd();
  }
  EXPECT_EQ(sim.now(), cursor);
}

TEST(DavisSimulatorTest, HotPixelsFireRepeatedly) {
  ScriptedScene scene(64, 64);
  DavisConfig c = quietConfig();
  c.hotPixelFraction = 0.005;  // ~20 hot pixels
  c.hotPixelRateHz = 100.0;
  DavisSimulator sim(scene, c);
  std::size_t total = 0;
  for (int i = 0; i < 15; ++i) {
    total += sim.nextWindow(kDefaultFramePeriodUs).size();
  }
  // ~20 px * 100 Hz * 1 s = 2000 events.
  EXPECT_GT(total, 1000U);
}

TEST(DavisSimulatorTest, LuminanceModelDistinguishesObjectFromBackground) {
  ScriptedScene scene(240, 180);
  scene.addLinear(ObjectClass::kBus, BBox{50, 50, 120, 38}, Vec2f{10, 0}, 0,
                  secondsToUs(10.0));
  DavisSimulator sim(scene, quietConfig());
  const double bg = sim.luminanceAt(5, 5, 0);
  EXPECT_NEAR(bg, 0.5, 1e-9);
  // Average over the object body differs from the background.
  double sum = 0.0;
  int n = 0;
  for (int x = 60; x < 160; x += 5) {
    for (int y = 55; y < 85; y += 5) {
      sum += sim.luminanceAt(x, y, 0);
      ++n;
    }
  }
  EXPECT_LT(sum / n, 0.45);
}

TEST(LatchReadoutTest, KeepsFirstEventPerPixel) {
  EventPacket p(0, 1'000);
  p.push(Event{3, 3, Polarity::kOn, 10});
  p.push(Event{3, 3, Polarity::kOff, 50});
  p.push(Event{4, 4, Polarity::kOn, 60});
  p.push(Event{3, 3, Polarity::kOn, 70});
  const EventPacket out = latchReadout(p, 8, 8);
  ASSERT_EQ(out.size(), 2U);
  EXPECT_EQ(out[0].t, 10);
  EXPECT_EQ(out[0].p, Polarity::kOn);  // first event's polarity retained
  EXPECT_EQ(out[1].x, 4);
}

TEST(LatchReadoutTest, LatchedNeverExceedsPixelCount) {
  EventPacket p(0, 1'000);
  for (int i = 0; i < 500; ++i) {
    p.push(Event{static_cast<std::uint16_t>(i % 4),
                 static_cast<std::uint16_t>((i / 4) % 4), Polarity::kOn,
                 static_cast<TimeUs>(i)});
  }
  const EventPacket out = latchReadout(p, 4, 4);
  EXPECT_LE(out.size(), 16U);
  EXPECT_EQ(out.size(), 16U);  // all 16 pixels fired at least once
}

}  // namespace
}  // namespace ebbiot
