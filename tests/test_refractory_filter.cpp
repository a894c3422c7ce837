#include "src/filters/refractory_filter.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"

namespace ebbiot {
namespace {

TEST(RefractoryFilterTest, FirstEventPasses) {
  RefractoryFilter filter({32, 32, 1'000});
  EventPacket p(0, 10'000);
  p.push(Event{5, 5, Polarity::kOn, 100});
  EXPECT_EQ(filter.filter(p).size(), 1U);
}

TEST(RefractoryFilterTest, EventWithinDeadTimeDropped) {
  RefractoryFilter filter({32, 32, 1'000});
  EventPacket p(0, 10'000);
  p.push(Event{5, 5, Polarity::kOn, 100});
  p.push(Event{5, 5, Polarity::kOff, 600});   // 500 us later: dropped
  p.push(Event{5, 5, Polarity::kOn, 1'100});  // 1000 us after first: passes
  const EventPacket out = filter.filter(p);
  ASSERT_EQ(out.size(), 2U);
  EXPECT_EQ(out[0].t, 100);
  EXPECT_EQ(out[1].t, 1'100);
}

TEST(RefractoryFilterTest, DifferentPixelsIndependent) {
  RefractoryFilter filter({32, 32, 1'000});
  EventPacket p(0, 10'000);
  p.push(Event{5, 5, Polarity::kOn, 100});
  p.push(Event{6, 5, Polarity::kOn, 150});
  EXPECT_EQ(filter.filter(p).size(), 2U);
}

TEST(RefractoryFilterTest, StatePersistsAcrossPackets) {
  RefractoryFilter filter({32, 32, 1'000});
  EventPacket a(0, 500);
  a.push(Event{5, 5, Polarity::kOn, 400});
  (void)filter.filter(a);
  EventPacket b(500, 2'000);
  b.push(Event{5, 5, Polarity::kOn, 900});   // 500 us after: dropped
  b.push(Event{5, 5, Polarity::kOn, 1'500});  // 1100 us after: passes
  EXPECT_EQ(filter.filter(b).size(), 1U);
}

TEST(RefractoryFilterTest, ResetForgetsHistory) {
  RefractoryFilter filter({32, 32, 1'000});
  EventPacket a(0, 500);
  a.push(Event{5, 5, Polarity::kOn, 400});
  (void)filter.filter(a);
  filter.reset();
  EventPacket b(500, 1'000);
  b.push(Event{5, 5, Polarity::kOn, 600});
  EXPECT_EQ(filter.filter(b).size(), 1U);
}

TEST(RefractoryFilterTest, ZeroPeriodPassesEverything) {
  RefractoryFilter filter({32, 32, 0});
  EventPacket p(0, 10'000);
  for (int i = 0; i < 5; ++i) {
    p.push(Event{5, 5, Polarity::kOn, static_cast<TimeUs>(i)});
  }
  EXPECT_EQ(filter.filter(p).size(), 5U);
}

TEST(RefractoryFilterTest, UnsortedPacketRejected) {
  RefractoryFilter filter({32, 32, 1'000});
  EventPacket p(0, 10'000);
  p.push(Event{1, 1, Polarity::kOn, 500});
  p.push(Event{2, 2, Polarity::kOn, 100});
  EXPECT_THROW((void)filter.filter(p), LogicError);
}

TEST(RefractoryFilterTest, BoundsCheckedAgainstGeometry) {
  RefractoryFilter filter({8, 8, 1'000});
  EventPacket p(0, 10'000);
  p.push(Event{9, 1, Polarity::kOn, 100});
  EXPECT_THROW((void)filter.filter(p), LogicError);
}

TEST(RefractoryFilterTest, ConfigValidationThrows) {
  RefractoryFilterConfig good;
  EXPECT_NO_THROW(good.validate());
  RefractoryFilterConfig c = good;
  c.width = 0;
  EXPECT_THROW(RefractoryFilter{c}, ConfigError);
  c = good;
  c.height = -2;
  EXPECT_THROW(RefractoryFilter{c}, ConfigError);
  c = good;
  c.refractoryPeriod = -1;
  EXPECT_THROW(RefractoryFilter{c}, ConfigError);
  c = good;
  c.refractoryPeriod = 0;  // explicitly allowed: pass-through filter
  EXPECT_NO_THROW(RefractoryFilter{c});
}

TEST(RefractoryFilterTest, NegativeTimestampsAreNotNeverFired) {
  // An event at t = -1 (legal after node-side unwrap rebasing) must arm
  // the refractory window like any other; the old kNever = -1 sentinel
  // read it back as an unfired pixel and passed the follow-up event.
  RefractoryFilter filter({32, 32, 1'000});
  EventPacket p(-10, 10'000);
  p.push(Event{5, 5, Polarity::kOn, -1});
  p.push(Event{5, 5, Polarity::kOn, 500});    // 501 us later: dropped
  p.push(Event{5, 5, Polarity::kOn, 1'000});  // 1001 us later: passes
  const EventPacket out = filter.filter(p);
  ASSERT_EQ(out.size(), 2U);
  EXPECT_EQ(out[0].t, -1);
  EXPECT_EQ(out[1].t, 1'000);
}

TEST(RefractoryFilterTest, OnlyKeptEventsArmTheWindow) {
  // A dropped event must not extend the dead time (the map records kept
  // events only) — matching the DAVIS pixel's own behaviour.
  RefractoryFilter filter({32, 32, 1'000});
  EventPacket p(0, 10'000);
  p.push(Event{5, 5, Polarity::kOn, 100});
  p.push(Event{5, 5, Polarity::kOn, 900});    // dropped; must not re-arm
  p.push(Event{5, 5, Polarity::kOn, 1'200});  // 1100 us after the *kept* one
  EXPECT_EQ(filter.filter(p).size(), 2U);
}

TEST(RefractoryFilterTest, FilterIntoReusesPacketAndMatchesFilter) {
  RefractoryFilter a({32, 32, 1'000});
  RefractoryFilter b({32, 32, 1'000});
  EventPacket out;
  for (int round = 0; round < 3; ++round) {
    EventPacket p(round * 10'000, (round + 1) * 10'000);
    for (int i = 0; i < 40; ++i) {
      p.push(Event{static_cast<std::uint16_t>(i % 4 + 3),
                   static_cast<std::uint16_t>(i % 3 + 3), Polarity::kOn,
                   static_cast<TimeUs>(round * 10'000 + i * 211)});
    }
    a.filterInto(p, out);
    const EventPacket byValue = b.filter(p);
    ASSERT_EQ(out.size(), byValue.size()) << "round " << round;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], byValue[i]);
    }
  }
}

TEST(RefractoryFilterTest, CopyContinuesIndependentlyOfItsSource) {
  // EbmsPipelineSnapshot copies the filter and restores it later: the
  // copy must carry the armed windows and share no state with its source.
  RefractoryFilter source({32, 32, 1'000});
  EventPacket a(0, 1'000);
  a.push(Event{5, 5, Polarity::kOn, 100});
  a.push(Event{6, 5, Polarity::kOn, 200});
  ASSERT_EQ(source.filter(a).size(), 2U);
  RefractoryFilter copy = source;
  source.reset();
  EventPacket b(1'000, 2'000);
  b.push(Event{5, 5, Polarity::kOn, 1'050});  // 950 us after the kept one
  b.push(Event{6, 5, Polarity::kOn, 1'250});  // 1050 us after
  b.push(Event{7, 5, Polarity::kOn, 1'300});  // never fired
  const EventPacket fromCopy = copy.filter(b);
  ASSERT_EQ(fromCopy.size(), 2U);
  EXPECT_EQ(fromCopy[0].x, 6);
  EXPECT_EQ(fromCopy[1].x, 7);
  EXPECT_EQ(source.filter(b).size(), 3U);  // the reset source forgot all
  // Copy-assignment over a filter with its own history replaces it too.
  RefractoryFilter assigned({32, 32, 1'000});
  (void)assigned.filter(b);
  assigned = copy;  // copy has now kept (6,5)@1250 and (7,5)@1300
  EventPacket c(2'000, 3'000);
  c.push(Event{5, 5, Polarity::kOn, 2'000});  // 1900 us after (5,5)@100
  c.push(Event{7, 5, Polarity::kOn, 2'100});  // 800 us after: dropped
  const EventPacket fromAssigned = assigned.filter(c);
  ASSERT_EQ(fromAssigned.size(), 1U);
  EXPECT_EQ(fromAssigned[0].x, 5);
}

TEST(RefractoryFilterTest, PacketWindowOutsideMapRangeThrows) {
  RefractoryFilter filter({32, 32, 1'000});
  EXPECT_THROW((void)filter.filter(EventPacket(-kMapTimeLimit, 0)),
               LogicError);
  EXPECT_THROW((void)filter.filter(EventPacket(0, kMapTimeLimit + 1)),
               LogicError);
  EXPECT_NO_THROW(
      (void)filter.filter(EventPacket(-kMapTimeLimit + 1, kMapTimeLimit)));
}

TEST(RefractoryFilterTest, NeverFiredPixelPassesAtEitherEndOfTheRange) {
  // The "never fired" sentinel is tested before the subtraction: formed
  // against it, t - last overflows for every t >= 0 (UBSan flags that).
  // The period is half the range, so the windows span most of it.
  RefractoryFilter filter({32, 32, kMapTimeLimit / 2});
  const TimeUs t0 = -kMapTimeLimit + 1;
  EventPacket p(t0, kMapTimeLimit);
  p.push(Event{5, 5, Polarity::kOn, t0});
  p.push(Event{5, 5, Polarity::kOn, t0 + kMapTimeLimit / 2 - 1});  // dropped
  p.push(Event{5, 5, Polarity::kOn, t0 + kMapTimeLimit / 2});      // passes
  p.push(Event{6, 5, Polarity::kOn, kMapTimeLimit - 1});
  const EventPacket out = filter.filter(p);
  ASSERT_EQ(out.size(), 3U);
  EXPECT_EQ(out[0].t, t0);
  EXPECT_EQ(out[1].t, t0 + kMapTimeLimit / 2);
  EXPECT_EQ(out[2].t, kMapTimeLimit - 1);
}

}  // namespace
}  // namespace ebbiot
