#include "src/filters/nn_filter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/filters/nn_filter_reference.hpp"

namespace ebbiot {
namespace {

EventPacket randomStream(const NnFilterConfig& c, std::size_t n,
                         double clusterChance, std::uint64_t seed) {
  Rng rng(seed);
  EventPacket p(0, static_cast<TimeUs>(n) * 100 + 1);
  int cx = c.width / 2;
  int cy = c.height / 2;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(clusterChance)) {
      // Walk a cluster centre so bursts land within support range.
      cx = std::clamp(cx + static_cast<int>(rng.uniformInt(0, 2)) - 1, 0,
                      c.width - 1);
      cy = std::clamp(cy + static_cast<int>(rng.uniformInt(0, 2)) - 1, 0,
                      c.height - 1);
      p.push(Event{static_cast<std::uint16_t>(cx),
                   static_cast<std::uint16_t>(cy), Polarity::kOn,
                   static_cast<TimeUs>(i * 100)});
    } else {
      p.push(Event{
          static_cast<std::uint16_t>(rng.uniformInt(0, c.width - 1)),
          static_cast<std::uint16_t>(rng.uniformInt(0, c.height - 1)),
          Polarity::kOn, static_cast<TimeUs>(i * 100)});
    }
  }
  return p;
}

NnFilterConfig smallConfig() {
  NnFilterConfig c;
  c.width = 32;
  c.height = 32;
  c.neighbourhood = 3;
  c.supportWindow = 1'000;
  c.timestampBits = 16;
  return c;
}

/// Run both twins over the packet and require identical kept events and
/// identical Eq. (2) OpCounts (closed form vs. metered full scan).
void expectTwinsAgree(NnFilter& fast, NnFilterReference& reference,
                      const EventPacket& p, const char* label) {
  const EventPacket got = fast.filter(p);
  const EventPacket want = reference.filter(p);
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << label << " event " << i;
  }
  EXPECT_EQ(fast.lastOps(), reference.lastOps())
      << label << ": closed-form ops diverge from metered reference";
}

TEST(NnFilterTest, IsolatedEventDropped) {
  NnFilter filter(smallConfig());
  EventPacket p(0, 10'000);
  p.push(Event{10, 10, Polarity::kOn, 100});
  const EventPacket out = filter.filter(p);
  EXPECT_TRUE(out.empty());
}

TEST(NnFilterTest, NeighbourSupportedEventKept) {
  NnFilter filter(smallConfig());
  EventPacket p(0, 10'000);
  p.push(Event{10, 10, Polarity::kOn, 100});   // dropped (no support yet)
  p.push(Event{11, 10, Polarity::kOn, 200});   // supported by (10,10)
  const EventPacket out = filter.filter(p);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].x, 11);
}

TEST(NnFilterTest, SamePixelDoesNotSupportItself) {
  NnFilter filter(smallConfig());
  EventPacket p(0, 10'000);
  p.push(Event{10, 10, Polarity::kOn, 100});
  p.push(Event{10, 10, Polarity::kOn, 200});  // own pixel only: no support
  const EventPacket out = filter.filter(p);
  EXPECT_TRUE(out.empty());
}

TEST(NnFilterTest, SupportExpiresOutsideWindow) {
  NnFilter filter(smallConfig());  // window = 1000 us
  EventPacket p(0, 10'000);
  p.push(Event{10, 10, Polarity::kOn, 100});
  p.push(Event{11, 10, Polarity::kOn, 2'000});  // 1900 us later: stale
  const EventPacket out = filter.filter(p);
  EXPECT_TRUE(out.empty());
}

TEST(NnFilterTest, SupportWindowBoundaryIsInclusive) {
  // t - ts == supportWindow still supports: the map's ts >= t - W test
  // must keep the inclusive test of the scalar scan.
  NnFilter filter(smallConfig());  // window = 1000 us
  EventPacket p(0, 10'000);
  p.push(Event{10, 10, Polarity::kOn, 100});
  p.push(Event{11, 10, Polarity::kOn, 1'100});  // exactly window later
  EXPECT_EQ(filter.filter(p).size(), 1U);
}

TEST(NnFilterTest, DiagonalNeighbourCounts) {
  NnFilter filter(smallConfig());
  EventPacket p(0, 10'000);
  p.push(Event{10, 10, Polarity::kOn, 100});
  p.push(Event{11, 11, Polarity::kOn, 200});
  EXPECT_EQ(filter.filter(p).size(), 1U);
}

TEST(NnFilterTest, StatePersistsAcrossPackets) {
  NnFilter filter(smallConfig());
  EventPacket a(0, 500);
  a.push(Event{10, 10, Polarity::kOn, 400});
  (void)filter.filter(a);
  EventPacket b(500, 1'500);
  b.push(Event{11, 10, Polarity::kOn, 600});  // supported across packets
  EXPECT_EQ(filter.filter(b).size(), 1U);
}

TEST(NnFilterTest, ResetClearsSupport) {
  NnFilter filter(smallConfig());
  EventPacket a(0, 500);
  a.push(Event{10, 10, Polarity::kOn, 400});
  (void)filter.filter(a);
  filter.reset();
  EventPacket b(500, 1'500);
  b.push(Event{11, 10, Polarity::kOn, 600});
  EXPECT_TRUE(filter.filter(b).empty());
}

TEST(NnFilterTest, TimeRegressionStartsNewEpoch) {
  // Time only moves forward in a real stream; when a caller replays the
  // past (packet starting before events already recorded), the map
  // forgets rather than serving stale "future" support.  Both twins
  // implement the identical rule.
  NnFilterConfig c = smallConfig();
  NnFilter fast(c);
  NnFilterReference reference(c);
  EventPacket warm(0, 100'000);
  warm.push(Event{10, 10, Polarity::kOn, 50'000});
  (void)fast.filter(warm);
  (void)reference.filter(warm);
  EventPacket replay(0, 100'000);
  replay.push(Event{11, 10, Polarity::kOn, 100});  // before 50'000: regress
  EXPECT_TRUE(fast.filter(replay).empty());
  EXPECT_TRUE(reference.filter(replay).empty());
  // Forward support inside the replayed epoch works normally again.
  EventPacket next(0, 100'000);
  next.push(Event{12, 10, Polarity::kOn, 300});  // neighbour of (11,10)
  EXPECT_EQ(fast.filter(next).size(), 1U);
  EXPECT_EQ(reference.filter(next).size(), 1U);
}

TEST(NnFilterTest, NegativeTimestampsAreNotNeverFired) {
  // Regression test for the old kNever = -1 sentinel: an event at
  // t = -1 (legal after node-side unwrap rebasing) must provide support
  // like any other event instead of reading as an unfired pixel.
  NnFilterConfig c = smallConfig();
  NnFilter fast(c);
  NnFilterReference reference(c);
  EventPacket p(-10, 10'000);
  p.push(Event{10, 10, Polarity::kOn, -1});
  p.push(Event{11, 10, Polarity::kOn, 0});  // 1 us later: supported
  EXPECT_EQ(fast.filter(p).size(), 1U);
  EXPECT_EQ(reference.filter(p).size(), 1U);
}

TEST(NnFilterTest, DenseBurstMostlySurvives) {
  // A moving-edge burst: events tightly packed in space and time.
  NnFilter filter(smallConfig());
  EventPacket p(0, 10'000);
  for (int i = 0; i < 10; ++i) {
    p.push(Event{static_cast<std::uint16_t>(10 + i % 3),
                 static_cast<std::uint16_t>(10 + i / 3), Polarity::kOn,
                 static_cast<TimeUs>(100 + i * 10)});
  }
  const EventPacket out = filter.filter(p);
  EXPECT_GE(out.size(), 8U);  // only the earliest events lack support
}

TEST(NnFilterTest, BorderPixelsHandled) {
  NnFilter filter(smallConfig());
  EventPacket p(0, 10'000);
  p.push(Event{0, 0, Polarity::kOn, 100});
  p.push(Event{1, 0, Polarity::kOn, 200});
  EXPECT_EQ(filter.filter(p).size(), 1U);
}

TEST(NnFilterTest, UnsortedPacketRejected) {
  NnFilter filter(smallConfig());
  EventPacket p(0, 10'000);
  p.push(Event{1, 1, Polarity::kOn, 500});
  p.push(Event{1, 1, Polarity::kOn, 100});
  EXPECT_THROW((void)filter.filter(p), LogicError);
}

TEST(NnFilterTest, ConfigValidationThrows) {
  const NnFilterConfig good = smallConfig();
  EXPECT_NO_THROW(good.validate());
  NnFilterConfig c = good;
  c.neighbourhood = 4;  // even
  EXPECT_THROW(NnFilter{c}, ConfigError);
  c = good;
  c.neighbourhood = 1;  // a 1x1 neighbourhood has no neighbours
  EXPECT_THROW(NnFilter{c}, ConfigError);
  c = good;
  c.width = 0;
  EXPECT_THROW(NnFilter{c}, ConfigError);
  c = good;
  c.height = -3;
  EXPECT_THROW(NnFilter{c}, ConfigError);
  c = good;
  c.supportWindow = 0;
  EXPECT_THROW(NnFilter{c}, ConfigError);
  c = good;
  c.timestampBits = 0;
  EXPECT_THROW(NnFilter{c}, ConfigError);
  c = good;
  c.supportWindow = TimeUs{1} << 50;  // beyond packed-timestamp headroom
  EXPECT_THROW(NnFilter{c}, ConfigError);
}

TEST(NnFilterTest, OpsMatchEq2Accounting) {
  // Eq. (2): per event, (p^2 - 1) comparisons + (p^2 - 1) increments +
  // one Bt-bit write.  Interior events see the full 8-cell neighbourhood.
  NnFilter filter(smallConfig());
  EventPacket p(0, 10'000);
  p.push(Event{10, 10, Polarity::kOn, 100});
  (void)filter.filter(p);
  EXPECT_EQ(filter.lastOps().compares, 8U);
  EXPECT_EQ(filter.lastOps().adds, 8U);
  EXPECT_EQ(filter.lastOps().memWrites, 16U);  // Bt bits
  EXPECT_EQ(filter.lastOps().total(), 32U);    // = 2(p^2-1) + Bt per event
}

TEST(NnFilterTest, MemoryBitsMatchesEq2) {
  NnFilter filter(smallConfig());
  EXPECT_EQ(filter.memoryBits(), 16U * 32U * 32U);
  NnFilterConfig davis;  // defaults: 240x180, Bt=16
  NnFilter davisFilter(davis);
  EXPECT_EQ(davisFilter.memoryBits(), 16U * 240U * 180U);  // 86.4 kB
}

TEST(NnFilterTest, WordParallelMatchesReferenceRun) {
  // The padded-map support count must keep the same events AND report
  // the same Eq. (2) full-neighbourhood ops as the metered scalar
  // reference — including border events (clamped patches), multi-packet
  // state and the restart when a new seed's stream regresses time.
  for (int neighbourhood : {3, 5}) {
    NnFilterConfig c = smallConfig();
    c.width = 64;
    c.height = 48;
    c.neighbourhood = neighbourhood;
    c.supportWindow = 700;
    NnFilter fast(c);
    NnFilterReference reference(c);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const EventPacket p = randomStream(c, 400, 0.7, seed);
      expectTwinsAgree(fast, reference, p,
                       ("p=" + std::to_string(neighbourhood) + " seed " +
                        std::to_string(seed))
                           .c_str());
    }
  }
}

TEST(NnFilterTest, CornerAndBorderGeometryMatchesReference) {
  // Clamped neighbourhoods: fire a supporting burst around every corner
  // and border midpoint, for p = 3, 5 and 9 (at p = 9 the patch spans
  // most of the frame, so every probe site clamps on both axes), and
  // require kept events and metered-vs-closed-form ops to agree cell
  // for cell.
  for (int neighbourhood : {3, 5, 9}) {
    NnFilterConfig c = smallConfig();
    c.width = 16;
    c.height = 12;
    c.neighbourhood = neighbourhood;
    NnFilter fast(c);
    NnFilterReference reference(c);
    const int xs[] = {0, c.width - 1, c.width / 2};
    const int ys[] = {0, c.height - 1, c.height / 2};
    TimeUs t = 0;
    EventPacket p(0, 1'000'000);
    for (const int y : ys) {
      for (const int x : xs) {
        // A tight 2x2 block stepping *inward* from the probe site, so
        // every corner/border pixel fires alongside in-bounds support.
        const int dx = (x == c.width - 1) ? -1 : 1;
        const int dy = (y == c.height - 1) ? -1 : 1;
        for (int k = 0; k < 4; ++k) {
          const int ex = std::clamp(x + (k % 2) * dx, 0, c.width - 1);
          const int ey = std::clamp(y + (k / 2) * dy, 0, c.height - 1);
          p.push(Event{static_cast<std::uint16_t>(ex),
                       static_cast<std::uint16_t>(ey), Polarity::kOn, t});
          t += 50;
        }
        t += 5'000;  // let support expire between probe sites
      }
    }
    expectTwinsAgree(fast, reference, p,
                     ("corners p=" + std::to_string(neighbourhood)).c_str());
  }
}

TEST(NnFilterTest, OnePixelTallFrameMatchesReference) {
  // Degenerate geometry: a 1-pixel-tall frame clamps every patch to a
  // single row, so all but one of its patch rows read the padding.
  for (int neighbourhood : {3, 5, 9}) {
    NnFilterConfig c;
    c.width = 64;
    c.height = 1;
    c.neighbourhood = neighbourhood;
    c.supportWindow = 400;
    NnFilter fast(c);
    NnFilterReference reference(c);
    Rng rng(99);
    EventPacket p(0, 100'000);
    for (int i = 0; i < 300; ++i) {
      p.push(Event{static_cast<std::uint16_t>(rng.uniformInt(0, c.width - 1)),
                   0, Polarity::kOn, static_cast<TimeUs>(i * 37)});
    }
    expectTwinsAgree(fast, reference, p,
                     ("1-row p=" + std::to_string(neighbourhood)).c_str());
    // Ops sanity: a p-tall patch clamped to one row has min(p, width)
    // cells across, minus the centre.
    EventPacket one(0, 1'000'000);
    one.push(Event{32, 0, Polarity::kOn, 900'000});
    (void)fast.filter(one);
    const auto across = static_cast<std::uint64_t>(neighbourhood);
    EXPECT_EQ(fast.lastOps().compares, across - 1);
  }
}

TEST(NnFilterTest, WideNeighbourhoodCrossesWordBoundary) {
  // A p = 5 burst around x = 64 of a 128-wide frame, pinned against the
  // reference.
  NnFilterConfig c;
  c.width = 128;
  c.height = 8;
  c.neighbourhood = 5;
  c.supportWindow = 2'000;
  NnFilter fast(c);
  NnFilterReference reference(c);
  EventPacket p(0, 100'000);
  TimeUs t = 0;
  for (int x = 60; x <= 68; ++x) {
    for (int y = 2; y <= 5; ++y) {
      p.push(Event{static_cast<std::uint16_t>(x),
                   static_cast<std::uint16_t>(y), Polarity::kOn, t});
      t += 25;
    }
  }
  expectTwinsAgree(fast, reference, p, "word boundary");
}

TEST(NnFilterTest, OnePixelWideFrameMatchesReference) {
  // A 1-pixel-wide frame: the padded rows are 2r + 1 cells long, so every
  // patch reads r columns of padding on each side of the one real column.
  for (int neighbourhood : {3, 5, 9}) {
    NnFilterConfig c;
    c.width = 1;
    c.height = 64;
    c.neighbourhood = neighbourhood;
    c.supportWindow = 400;
    NnFilter fast(c);
    NnFilterReference reference(c);
    Rng rng(98);
    EventPacket p(0, 100'000);
    for (int i = 0; i < 300; ++i) {
      p.push(Event{0,
                   static_cast<std::uint16_t>(rng.uniformInt(0, c.height - 1)),
                   Polarity::kOn, static_cast<TimeUs>(i * 37)});
    }
    expectTwinsAgree(fast, reference, p,
                     ("1-column p=" + std::to_string(neighbourhood)).c_str());
    // A p-wide patch clamped to one column has p cells down, minus the
    // centre.
    EventPacket one(0, 1'000'000);
    one.push(Event{0, 32, Polarity::kOn, 900'000});
    (void)fast.filter(one);
    EXPECT_EQ(fast.lastOps().compares,
              static_cast<std::uint64_t>(neighbourhood) - 1);
  }
}

TEST(NnFilterTest, RandomStreamsFromNegativeTimeMatchReference) {
  // Streams that start below t = 0 and advance in bursty gaps (mostly a
  // few microseconds, one step in four up to three windows), at windows
  // 64, 100 and 700 on a 70x9 frame, cut into packets so the map carries
  // support across packet boundaries.
  for (const TimeUs window : {TimeUs{64}, TimeUs{100}, TimeUs{700}}) {
    for (int neighbourhood : {3, 5}) {
      NnFilterConfig c;
      c.width = 70;
      c.height = 9;
      c.neighbourhood = neighbourhood;
      c.supportWindow = window;
      NnFilter fast(c);
      NnFilterReference reference(c);
      Rng rng(static_cast<std::uint64_t>(window) * 7 + 1);
      TimeUs t = -50;
      for (int packet = 0; packet < 10; ++packet) {
        EventPacket p(t, t + 60 * 3 * window + 1);
        for (int step = 0; step < 60; ++step) {
          t += rng.uniformInt(0, 3) == 0 ? rng.uniformInt(0, 3 * window)
                                         : rng.uniformInt(0, 8);
          p.push(Event{
              static_cast<std::uint16_t>(rng.uniformInt(0, c.width - 1)),
              static_cast<std::uint16_t>(rng.uniformInt(0, c.height - 1)),
              Polarity::kOn, t});
        }
        expectTwinsAgree(fast, reference, p,
                         ("W=" + std::to_string(window) +
                          " p=" + std::to_string(neighbourhood) + " packet " +
                          std::to_string(packet))
                             .c_str());
      }
    }
  }
}

TEST(NnFilterTest, RefiredPixelKeepsItsNewestTime) {
  // A pixel that fires again must support its neighbours from its newest
  // time: (4,4) fires at 0, 500 and 1000, and with W = 100 its neighbour
  // is supported at 1000 and 1100 but not at 1101.
  NnFilterConfig c = smallConfig();
  c.width = 8;
  c.height = 8;
  c.supportWindow = 100;
  NnFilter fast(c);
  NnFilterReference reference(c);
  EventPacket p(0, 10'000);
  for (const TimeUs t : {TimeUs{0}, TimeUs{500}, TimeUs{1'000}}) {
    p.push(Event{4, 4, Polarity::kOn, t});
  }
  for (const TimeUs t : {TimeUs{1'000}, TimeUs{1'100}, TimeUs{1'101}}) {
    p.push(Event{5, 4, Polarity::kOn, t});
  }
  const EventPacket out = NnFilter(c).filter(p);
  ASSERT_EQ(out.size(), 2U);
  EXPECT_EQ(out[0], (Event{5, 4, Polarity::kOn, 1'000}));
  EXPECT_EQ(out[1], (Event{5, 4, Polarity::kOn, 1'100}));
  expectTwinsAgree(fast, reference, p, "re-fired pixel");
}

TEST(NnFilterTest, PacketWindowOutsideMapRangeThrows) {
  // The map accepts windows inside (-2^47, 2^47); outside, t - W could
  // reach "never" or overflow.  Both twins check once per packet, empty
  // packets included.
  const NnFilterConfig c = smallConfig();
  NnFilter fast(c);
  NnFilterReference reference(c);
  const EventPacket tooEarly(-kMapTimeLimit, 0);
  const EventPacket tooLate(0, kMapTimeLimit + 1);
  EXPECT_THROW((void)fast.filter(tooEarly), LogicError);
  EXPECT_THROW((void)reference.filter(tooEarly), LogicError);
  EXPECT_THROW((void)fast.filter(tooLate), LogicError);
  EXPECT_THROW((void)reference.filter(tooLate), LogicError);
  EventPacket widest(-kMapTimeLimit + 1, kMapTimeLimit);
  widest.push(Event{10, 10, Polarity::kOn, -kMapTimeLimit + 1});
  widest.push(Event{11, 10, Polarity::kOn, kMapTimeLimit - 1});
  expectTwinsAgree(fast, reference, widest, "widest window");
}

TEST(NnFilterTest, NeverDoesNotSupportAtTheEarliestTimeUnderTheLargestWindow) {
  // At the earliest accepted time and the largest window, t - W still
  // lies above "never" (and is formed without overflow: this case runs
  // under UBSan in CI), so an unfired neighbourhood gives no support.
  NnFilterConfig c = smallConfig();
  c.supportWindow = kMapTimeLimit / 2 - 1;
  EXPECT_NO_THROW(c.validate());
  NnFilter fast(c);
  NnFilterReference reference(c);
  const TimeUs t0 = -kMapTimeLimit + 1;
  EventPacket p(t0, 0);
  p.push(Event{10, 10, Polarity::kOn, t0});      // nothing fired: dropped
  p.push(Event{12, 12, Polarity::kOn, t0});      // not adjacent: dropped
  p.push(Event{11, 10, Polarity::kOn, t0 + 1});  // supported by (10,10)
  const EventPacket out = fast.filter(p);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].x, 11);
  fast.reset();
  expectTwinsAgree(fast, reference, p, "earliest time");
}

TEST(NnFilterTest, CopyContinuesIndependentlyOfItsSource) {
  // EbmsPipelineSnapshot copies the filter and restores it later: the
  // copy must carry the map and share no state with its source.
  const NnFilterConfig c = smallConfig();
  NnFilter source(c);
  NnFilter undisturbed(c);
  EventPacket a(0, 1'000);
  a.push(Event{10, 10, Polarity::kOn, 400});
  (void)source.filter(a);
  (void)undisturbed.filter(a);
  NnFilter copy = source;
  NnFilter assigned(c);
  (void)assigned.filter(randomStream(c, 200, 0.6, 5));
  assigned = source;
  source.reset();
  EventPacket b(1'000, 2'000);
  b.push(Event{11, 10, Polarity::kOn, 1'200});  // 800 us after (10,10)
  EXPECT_TRUE(source.filter(b).empty());
  EXPECT_EQ(copy.filter(b).size(), 1U);
  EXPECT_EQ(assigned.filter(b).size(), 1U);
  EXPECT_EQ(undisturbed.filter(b).size(), 1U);
  const EventPacket next = randomStream(c, 300, 0.6, 6);
  EventPacket later(2'000, 2'000 + next.tEnd());
  for (const Event& e : next) {
    later.push(Event{e.x, e.y, e.p, e.t + 2'000});
  }
  const EventPacket want = undisturbed.filter(later);
  for (NnFilter* f : {&copy, &assigned}) {
    const EventPacket got = f->filter(later);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "event " << i;
    }
    EXPECT_EQ(f->lastOps(), undisturbed.lastOps());
  }
}

TEST(NnFilterTest, FilterIntoReusesPacketAndMatchesFilter) {
  NnFilterConfig c = smallConfig();
  NnFilter a(c);
  NnFilter b(c);
  EventPacket out;
  for (std::uint64_t seed = 10; seed < 13; ++seed) {
    const EventPacket p = randomStream(c, 200, 0.6, seed);
    a.filterInto(p, out);
    const EventPacket byValue = b.filter(p);
    EXPECT_EQ(out.tStart(), byValue.tStart());
    EXPECT_EQ(out.tEnd(), byValue.tEnd());
    ASSERT_EQ(out.size(), byValue.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], byValue[i]);
    }
    EXPECT_EQ(a.lastOps(), b.lastOps());
  }
}

TEST(NnFilterTest, NoiseRejectionRate) {
  // Uniform random noise at low density: the overwhelming majority of
  // events must be rejected.
  NnFilterConfig c = smallConfig();
  c.width = 240;
  c.height = 180;
  NnFilter filter(c);
  EventPacket p(0, 66'000);
  // 300 random events over 43k pixels: isolated with high probability.
  std::uint64_t s = 12345;
  for (int i = 0; i < 300; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto x = static_cast<std::uint16_t>((s >> 20) % 240);
    const auto y = static_cast<std::uint16_t>((s >> 40) % 180);
    p.push(Event{x, y, Polarity::kOn, static_cast<TimeUs>(i * 200)});
  }
  p.sortByTime();
  const EventPacket out = filter.filter(p);
  EXPECT_LT(out.size(), 15U);
}

}  // namespace
}  // namespace ebbiot
