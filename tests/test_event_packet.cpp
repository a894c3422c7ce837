#include "src/events/event_packet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "src/common/error.hpp"

namespace ebbiot {
namespace {

Event makeEvent(std::uint16_t x, std::uint16_t y, TimeUs t,
                Polarity p = Polarity::kOn) {
  return Event{x, y, p, t};
}

TEST(EventPacketTest, WindowAndDuration) {
  const EventPacket p(1000, 5000);
  EXPECT_EQ(p.tStart(), 1000);
  EXPECT_EQ(p.tEnd(), 5000);
  EXPECT_EQ(p.duration(), 4000);
  EXPECT_TRUE(p.empty());
}

TEST(EventPacketTest, PushInsideWindow) {
  EventPacket p(0, 100);
  p.push(makeEvent(1, 2, 50));
  EXPECT_EQ(p.size(), 1U);
  EXPECT_EQ(p[0].x, 1);
  EXPECT_EQ(p[0].t, 50);
}

TEST(EventPacketTest, PushOutsideWindowThrows) {
  EventPacket p(0, 100);
  EXPECT_THROW(p.push(makeEvent(0, 0, 100)), LogicError);   // tEnd exclusive
  EXPECT_THROW(p.push(makeEvent(0, 0, -1)), LogicError);
}

TEST(EventPacketTest, ConstructorValidatesEvents) {
  std::vector<Event> bad{makeEvent(0, 0, 500)};
  EXPECT_THROW(EventPacket(0, 100, std::move(bad)), LogicError);
}

TEST(EventPacketTest, InvertedWindowThrows) {
  EXPECT_THROW(EventPacket(100, 0), LogicError);
}

TEST(EventPacketTest, SortByTimeIsStableCanonicalOrder) {
  EventPacket p(0, 100);
  p.push(makeEvent(5, 5, 30));
  p.push(makeEvent(1, 1, 10));
  p.push(makeEvent(2, 2, 10));
  EXPECT_FALSE(p.isTimeSorted());
  p.sortByTime();
  EXPECT_TRUE(p.isTimeSorted());
  EXPECT_EQ(p[0].t, 10);
  EXPECT_EQ(p[0].x, 1);  // tie broken by (y, x)
  EXPECT_EQ(p[1].x, 2);
  EXPECT_EQ(p[2].t, 30);
}

TEST(EventPacketTest, SliceReturnsHalfOpenRange) {
  EventPacket p(0, 100);
  for (TimeUs t : {5, 10, 20, 30, 40}) {
    p.push(makeEvent(0, 0, t));
  }
  const EventPacket s = p.slice(10, 30);
  EXPECT_EQ(s.size(), 2U);
  EXPECT_EQ(s[0].t, 10);
  EXPECT_EQ(s[1].t, 20);
  EXPECT_EQ(s.tStart(), 10);
  EXPECT_EQ(s.tEnd(), 30);
}

TEST(EventPacketTest, SliceOfUnsortedThrows) {
  EventPacket p(0, 100);
  p.push(makeEvent(0, 0, 50));
  p.push(makeEvent(0, 0, 10));
  EXPECT_THROW((void)p.slice(0, 100), LogicError);
}

TEST(EventPacketTest, FilterByRegionKeepsInsideEvents) {
  EventPacket p(0, 100);
  p.push(makeEvent(5, 5, 10));
  p.push(makeEvent(50, 50, 20));
  const EventPacket f = p.filterByRegion(BBox{0, 0, 10, 10});
  EXPECT_EQ(f.size(), 1U);
  EXPECT_EQ(f[0].x, 5);
}

TEST(EventPacketTest, CountOn) {
  EventPacket p(0, 100);
  p.push(makeEvent(0, 0, 1, Polarity::kOn));
  p.push(makeEvent(0, 0, 2, Polarity::kOff));
  p.push(makeEvent(0, 0, 3, Polarity::kOn));
  EXPECT_EQ(p.countOn(), 2U);
}

TEST(EventPacketTest, AppendChecksWindow) {
  EventPacket a(0, 100);
  EventPacket b(10, 50);
  b.push(makeEvent(1, 1, 20));
  a.append(b);
  EXPECT_EQ(a.size(), 1U);
  EventPacket wide(0, 200);
  EXPECT_THROW(a.append(wide), LogicError);
}

TEST(EventPacketTest, MergePreservesOrderAndWindow) {
  EventPacket a(0, 50);
  a.push(makeEvent(0, 0, 10));
  a.push(makeEvent(0, 0, 30));
  EventPacket b(20, 100);
  b.push(makeEvent(1, 1, 25));
  b.push(makeEvent(1, 1, 60));
  const EventPacket m = mergePackets(a, b);
  EXPECT_EQ(m.tStart(), 0);
  EXPECT_EQ(m.tEnd(), 100);
  ASSERT_EQ(m.size(), 4U);
  EXPECT_TRUE(m.isTimeSorted());
  EXPECT_EQ(m[1].t, 25);
}

TEST(EventPacketTest, TakeEventsMovesStorage) {
  EventPacket p(0, 100);
  p.push(makeEvent(3, 4, 10));
  std::vector<Event> v = std::move(p).takeEvents();
  ASSERT_EQ(v.size(), 1U);
  EXPECT_EQ(v[0].x, 3);
}

TEST(EventPacketTest, CommitAppendedRejectsEventOutsideWindow) {
  // Each out-of-window time at each position of the committed span
  // throws and drops the whole span; the events before the span stay.
  // An event past the kept prefix is not checked.
  const TimeUs bad[] = {99, 200, 201, std::numeric_limits<TimeUs>::min(),
                        std::numeric_limits<TimeUs>::max()};
  for (const TimeUs t : bad) {
    for (std::size_t at = 0; at < 5; ++at) {
      EventPacket p(100, 200);
      p.push(makeEvent(9, 9, 150));
      const auto fill = [&](std::span<Event> span) {
        for (std::size_t i = 0; i < span.size(); ++i) {
          span[i] = makeEvent(static_cast<std::uint16_t>(i), 0,
                              i == at ? t : 100 + static_cast<TimeUs>(i));
        }
      };
      fill(p.appendBuffer(5));
      EXPECT_THROW(p.commitAppended(5), LogicError) << t << " at " << at;
      ASSERT_EQ(p.size(), 1U) << t << " at " << at;
      EXPECT_EQ(p[0].x, 9);
      fill(p.appendBuffer(5));
      p.commitAppended(at);
      EXPECT_EQ(p.size(), 1U + at) << t << " at " << at;
    }
  }
  EventPacket p(100, 200);
  const std::span<Event> span = p.appendBuffer(3);
  span[0] = makeEvent(0, 0, 100);
  span[1] = makeEvent(1, 0, 199);
  span[2] = makeEvent(2, 0, 200);
  p.commitAppended(2);
  ASSERT_EQ(p.size(), 2U);
  EXPECT_EQ(p[1].t, 199);
  p.appendBuffer(1);
  EXPECT_THROW(p.commitAppended(2), LogicError);  // more than was opened
}

TEST(EventPacketTest, ResetIntoSmallerWindowHidesStaleEvents) {
  // A reused packet keeps its storage across reset(); none of the larger
  // earlier window's events may show through any accessor.
  EventPacket p(0, 1'000);
  const std::span<Event> first = p.appendBuffer(8);
  for (std::size_t i = 0; i < first.size(); ++i) {
    first[i] = makeEvent(static_cast<std::uint16_t>(i), 1,
                         static_cast<TimeUs>(i) * 100, Polarity::kOn);
  }
  p.commitAppended(8);
  p.reset(2'000, 2'100);
  EXPECT_EQ(p.size(), 0U);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.begin(), p.end());
  EXPECT_TRUE(p.events().empty());
  EXPECT_THROW((void)p[0], LogicError);
  EXPECT_EQ(p.countOn(), 0U);

  // Refill three events out of time order: two through appendBuffer and
  // one push.
  const std::span<Event> refill = p.appendBuffer(4);
  refill[0] = makeEvent(50, 5, 2'090, Polarity::kOff);
  refill[1] = makeEvent(51, 5, 2'010, Polarity::kOff);
  p.commitAppended(2);
  p.push(makeEvent(52, 5, 2'050, Polarity::kOn));
  const std::vector<Event> live = {makeEvent(50, 5, 2'090, Polarity::kOff),
                                   makeEvent(51, 5, 2'010, Polarity::kOff),
                                   makeEvent(52, 5, 2'050, Polarity::kOn)};
  const auto expectLive = [](const EventPacket& q,
                             const std::vector<Event>& want,
                             const char* what) {
    ASSERT_EQ(q.size(), want.size()) << what;
    EXPECT_TRUE(std::equal(q.begin(), q.end(), want.begin(), want.end()))
        << what;
    EXPECT_TRUE(std::equal(q.events().begin(), q.events().end(),
                           want.begin(), want.end()))
        << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(q[i], want[i]) << what << " [" << i << "]";
    }
    EXPECT_THROW((void)q[want.size()], LogicError) << what;
  };
  expectLive(p, live, "refilled");
  EXPECT_EQ(p.countOn(), 1U);
  EXPECT_FALSE(p.isTimeSorted());

  const EventPacket copy(p);
  expectLive(copy, live, "copy");
  EventPacket assigned(0, 1'000);
  for (int i = 0; i < 6; ++i) {
    assigned.push(makeEvent(7, 7, i));
  }
  assigned = p;
  expectLive(assigned, live, "copy-assigned over six events");
  EXPECT_EQ(assigned.tStart(), 2'000);

  const BBox everywhere{0.0F, 0.0F, 1'000.0F, 1'000.0F};
  expectLive(p.filterByRegion(everywhere), live, "filterByRegion");

  EventPacket appended(2'000, 2'100);
  appended.append(p);
  expectLive(appended, live, "append");

  p.sortByTime();
  const std::vector<Event> sorted = {live[1], live[2], live[0]};
  expectLive(p, sorted, "sortByTime");
  EXPECT_TRUE(p.isTimeSorted());
  expectLive(p.slice(0, 5'000), sorted, "slice");
  expectLive(p.slice(2'020, 2'095), {live[2], live[0]}, "inner slice");

  EventPacket moved(std::move(p));
  expectLive(moved, sorted, "moved");
  const std::vector<Event> taken = std::move(moved).takeEvents();
  EXPECT_EQ(taken, sorted);
}

TEST(EventPacketTest, MovedFromPacketIsEmptyAndReusable) {
  EventPacket a(0, 100);
  a.push(makeEvent(1, 1, 10));
  a.push(makeEvent(2, 2, 20));
  EventPacket b(std::move(a));
  EXPECT_EQ(b.size(), 2U);
  EXPECT_EQ(a.size(), 0U);  // NOLINT(bugprone-use-after-move)
  a.reset(0, 100);
  a.push(makeEvent(3, 3, 30));
  ASSERT_EQ(a.size(), 1U);
  EXPECT_EQ(a[0].x, 3);
  EventPacket c(0, 1);
  c = std::move(b);
  EXPECT_EQ(c.size(), 2U);
  EXPECT_EQ(b.size(), 0U);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c[1].x, 2);
}

}  // namespace
}  // namespace ebbiot
