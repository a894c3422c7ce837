// Differential tests pinning the batched SoA EbmsTracker against the
// scalar deque-based EbmsTrackerReference: bit-identical clusters,
// visible tracks (ids, boxes, velocities, hits) *and* OpCounts (the fast
// path's closed-form accounting must equal the reference's metered
// values) after every packet, across random scenes, merge/prune-heavy
// configs, long runs that cycle the history ring, empty windows, and
// crowded 640x480 scenes at CLmax 64 and 96 — the MedianFilter/CcaLabeler
// reference-pinning convention of PRs 3-4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/trackers/ebms.hpp"
#include "src/trackers/ebms_reference.hpp"

namespace ebbiot {
namespace {

EventPacket randomWindow(Rng& rng, int frame, int maxEvents,
                         int width = 240, int height = 180) {
  EventPacket p(frame * 66'000, (frame + 1) * 66'000);
  const int count = static_cast<int>(rng.uniformInt(0, maxEvents));
  for (int i = 0; i < count; ++i) {
    p.push(Event{
        static_cast<std::uint16_t>(rng.uniformInt(0, width - 1)),
        static_cast<std::uint16_t>(rng.uniformInt(0, height - 1)),
        rng.chance(0.5) ? Polarity::kOn : Polarity::kOff,
        frame * 66'000 + rng.uniformInt(0, 65'999)});
  }
  p.sortByTime();
  return p;
}

/// A blob of events around a (possibly moving) centre, plus salt noise —
/// drives capture, sampling, merging and velocity estimation.
EventPacket blobWindow(Rng& rng, int frame, float cx, float cy, float halfW,
                       int blobEvents, int noiseEvents) {
  EventPacket p(frame * 66'000, (frame + 1) * 66'000);
  for (int i = 0; i < blobEvents; ++i) {
    const float x = cx + static_cast<float>(rng.uniform(-halfW, halfW));
    const float y = cy + static_cast<float>(rng.uniform(-halfW, halfW));
    const int xi = std::max(0, std::min(239, static_cast<int>(x)));
    const int yi = std::max(0, std::min(179, static_cast<int>(y)));
    p.push(Event{static_cast<std::uint16_t>(xi),
                 static_cast<std::uint16_t>(yi), Polarity::kOn,
                 frame * 66'000 + rng.uniformInt(0, 65'999)});
  }
  for (int i = 0; i < noiseEvents; ++i) {
    p.push(Event{static_cast<std::uint16_t>(rng.uniformInt(0, 239)),
                 static_cast<std::uint16_t>(rng.uniformInt(0, 179)),
                 Polarity::kOn, frame * 66'000 + rng.uniformInt(0, 65'999)});
  }
  p.sortByTime();
  return p;
}

void expectIdenticalState(const EbmsTracker& fast,
                          const EbmsTrackerReference& reference, int frame) {
  ASSERT_EQ(fast.activeCount(), reference.activeCount())
      << "cluster count diverged at frame " << frame;
  EXPECT_EQ(fast.mergeCount(), reference.mergeCount())
      << "merge count diverged at frame " << frame;
  const Tracks fastAll = fast.allClusters();
  const Tracks refAll = reference.allClusters();
  ASSERT_EQ(fastAll.size(), refAll.size());
  for (std::size_t i = 0; i < fastAll.size(); ++i) {
    EXPECT_EQ(fastAll[i], refAll[i])
        << "cluster " << i << " diverged at frame " << frame;
  }
  EXPECT_EQ(fast.visibleTracks(), reference.visibleTracks())
      << "visible tracks diverged at frame " << frame;
  EXPECT_EQ(fast.lastOps(), reference.lastOps())
      << "closed-form ops diverge from metered reference at frame " << frame;
}

/// Feeds the windows `makeWindow(rng, frame)` draws to both trackers,
/// pinning them equal after every packet; returns the peak live cluster
/// count so callers can assert the regime they meant.
template <typename MakeWindow>
int runScene(const EbmsConfig& config, std::uint64_t seed, int frames,
             MakeWindow makeWindow) {
  EbmsTracker fast(config);
  EbmsTrackerReference reference(config);
  Rng rng(seed);
  int peak = 0;
  for (int f = 0; f < frames; ++f) {
    const EventPacket p = makeWindow(rng, f);
    fast.processPacket(p);
    reference.processPacket(p);
    expectIdenticalState(fast, reference, f);
    peak = std::max(peak, fast.activeCount());
  }
  return peak;
}

void runDifferential(const EbmsConfig& config, std::uint64_t seed,
                     int frames, int maxEvents, int width = 240,
                     int height = 180) {
  runScene(config, seed, frames, [&](Rng& rng, int f) {
    return randomWindow(rng, f, maxEvents, width, height);
  });
}

TEST(EbmsSoaDifferentialTest, RandomScenesDefaultConfig) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    runDifferential(EbmsConfig{}, seed, 25, 250);
  }
}

TEST(EbmsSoaDifferentialTest, MergeHeavyConfig) {
  // Small capture radius seeds many clusters over one scene; a permissive
  // merge threshold then collapses them — exercises the in-place merge
  // pass (slot-keeping, box cache, op metering) hard.
  EbmsConfig config;
  config.captureRadius = 6.0F;
  config.mergeOverlapFraction = 0.05F;
  config.maxClusters = 8;
  for (std::uint64_t seed = 10; seed <= 14; ++seed) {
    runDifferential(config, seed, 25, 300);
  }
}

TEST(EbmsSoaDifferentialTest, PruneHeavyConfig) {
  // Lifetime shorter than a window: every maintain prunes, repeatedly
  // exercising erase/compaction and re-seeding with fresh ids.
  EbmsConfig config;
  config.clusterLifetime = 30'000;
  for (std::uint64_t seed = 20; seed <= 23; ++seed) {
    runDifferential(config, seed, 25, 150);
  }
}

TEST(EbmsSoaDifferentialTest, FastSamplingCyclesHistoryRing) {
  // A dense sample cadence fills and cycles the velocity ring many times
  // over; the running sums must match the reference's window recompute
  // exactly (including after merges move histories between slots).
  EbmsConfig config;
  config.positionSampleInterval = 500;
  config.velocityWindow = 4;
  config.mixingFactor = 0.2F;
  for (std::uint64_t seed = 30; seed <= 33; ++seed) {
    runDifferential(config, seed, 30, 250);
  }
}

TEST(EbmsSoaDifferentialTest, MovingBlobsLongRun) {
  // Two blobs converging then crossing, over enough frames that history
  // origins sit far behind the live window — velocities must stay
  // bit-identical (shift-invariant integer sums).
  EbmsConfig config;
  config.positionSampleInterval = 3'300;
  EbmsTracker fast(config);
  EbmsTrackerReference reference(config);
  Rng rngA(77);
  Rng rngB(77);
  for (int f = 0; f < 120; ++f) {
    const float ax = 30.0F + 1.5F * static_cast<float>(f);
    const float bx = 210.0F - 1.5F * static_cast<float>(f);
    EventPacket pa(f * 66'000, (f + 1) * 66'000);
    {
      const EventPacket a = blobWindow(rngA, f, ax, 60.0F, 8.0F, 60, 10);
      const EventPacket b = blobWindow(rngA, f, bx, 100.0F, 8.0F, 60, 0);
      pa = mergePackets(a, b);
    }
    EventPacket pb(f * 66'000, (f + 1) * 66'000);
    {
      const EventPacket a = blobWindow(rngB, f, ax, 60.0F, 8.0F, 60, 10);
      const EventPacket b = blobWindow(rngB, f, bx, 100.0F, 8.0F, 60, 0);
      pb = mergePackets(a, b);
    }
    fast.processPacket(pa);
    reference.processPacket(pb);
    expectIdenticalState(fast, reference, f);
  }
}

TEST(EbmsSoaDifferentialTest, EmptyWindowsAndSingleEvents) {
  EbmsConfig config;
  config.clusterLifetime = 100'000;
  EbmsTracker fast(config);
  EbmsTrackerReference reference(config);
  auto both = [&](const EventPacket& p, int frame) {
    fast.processPacket(p);
    reference.processPacket(p);
    expectIdenticalState(fast, reference, frame);
  };
  both(EventPacket(0, 66'000), 0);  // nothing yet: empty maintain
  EventPacket single(66'000, 132'000);
  single.push(Event{120, 90, Polarity::kOn, 70'000});
  both(single, 1);
  both(EventPacket(132'000, 198'000), 2);  // silence: prune countdown
  both(EventPacket(198'000, 264'000), 3);  // cluster pruned here
  EXPECT_EQ(fast.activeCount(), 0);
}

TEST(EbmsSoaDifferentialTest, ProcessEventMatchesReference) {
  // The public single-event entry point must track the reference too
  // (tests drive it directly), including the ops metered so far — the
  // fast path charges its closed form per call outside processPacket.
  EbmsTracker fast{EbmsConfig{}};
  EbmsTrackerReference reference{EbmsConfig{}};
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const Event e{static_cast<std::uint16_t>(rng.uniformInt(0, 239)),
                  static_cast<std::uint16_t>(rng.uniformInt(0, 179)),
                  Polarity::kOn, static_cast<TimeUs>(i * 100)};
    fast.processEvent(e);
    reference.processEvent(e);
    EXPECT_EQ(fast.lastOps(), reference.lastOps()) << "event " << i;
  }
  EXPECT_EQ(fast.activeCount(), reference.activeCount());
  EXPECT_EQ(fast.allClusters(), reference.allClusters());
}

TEST(EbmsSoaDifferentialTest, InterleavedBlobsOverlappedChains) {
  // Eight well-separated blobs at CLmax = 8, events interleaved in time
  // across all of them: consecutive events almost always update
  // different clusters, and every slot stays owned once the blobs are
  // acquired — clusters and ops must stay bit-identical throughout.
  EbmsConfig config;
  config.maxClusters = 8;
  EbmsTracker fast(config);
  EbmsTrackerReference reference(config);
  const float cxs[] = {30, 120, 210, 30, 120, 210, 75, 165};
  const float cys[] = {30, 30, 30, 150, 150, 150, 90, 90};
  Rng rngA(41);
  Rng rngB(41);
  auto window = [&](Rng& rng, int f) {
    EventPacket p(f * 66'000, (f + 1) * 66'000);
    for (int i = 0; i < 150; ++i) {
      for (int b = 0; b < 8; ++b) {  // round-robin: maximal interleave
        const float x = cxs[b] + static_cast<float>(rng.uniform(-6.0, 6.0));
        const float y = cys[b] + static_cast<float>(rng.uniform(-6.0, 6.0));
        p.push(Event{
            static_cast<std::uint16_t>(std::clamp(static_cast<int>(x), 0, 239)),
            static_cast<std::uint16_t>(std::clamp(static_cast<int>(y), 0, 179)),
            Polarity::kOn,
            f * 66'000 + static_cast<TimeUs>(i) * 50 + b});
      }
    }
    return p;
  };
  for (int f = 0; f < 12; ++f) {
    fast.processPacket(window(rngA, f));
    reference.processPacket(window(rngB, f));
    expectIdenticalState(fast, reference, f);
  }
}

TEST(EbmsSoaDifferentialTest, MarginalRadiusEventsFlushGroups) {
  // Events placed right at the capture-radius boundary of two nearby,
  // fast-drifting clusters: the inclusive radius test and the
  // lowest-index tie-break decide many captures, so any slip in the
  // argmin shows up as a cluster or ops divergence.
  EbmsConfig config;
  config.maxClusters = 8;
  config.captureRadius = 20.0F;
  config.mixingFactor = 0.1F;  // fast drift across the radius boundary
  EbmsTracker fast(config);
  EbmsTrackerReference reference(config);
  Rng rngA(52);
  Rng rngB(52);
  auto window = [&](Rng& rng, int f) {
    EventPacket p(f * 66'000, (f + 1) * 66'000);
    for (int i = 0; i < 400; ++i) {
      // Two anchors 45 px apart; events sprayed in the band between and
      // around them, many near |d| ~ radius of both.
      const float base = rng.chance(0.5) ? 90.0F : 135.0F;
      const float x = base + static_cast<float>(rng.uniform(-22.0, 22.0));
      const float y = 90.0F + static_cast<float>(rng.uniform(-22.0, 22.0));
      p.push(Event{
          static_cast<std::uint16_t>(std::clamp(static_cast<int>(x), 0, 239)),
          static_cast<std::uint16_t>(std::clamp(static_cast<int>(y), 0, 179)),
          Polarity::kOn, f * 66'000 + static_cast<TimeUs>(i) * 160});
    }
    return p;
  };
  for (int f = 0; f < 15; ++f) {
    fast.processPacket(window(rngA, f));
    reference.processPacket(window(rngB, f));
    expectIdenticalState(fast, reference, f);
  }
}

TEST(EbmsSoaDifferentialTest, MidBurstSeedsFlushGroups) {
  // A new blob igniting mid-window while an existing cluster is
  // capturing: the first uncaptured event must seed, and the freshly
  // seeded cluster must start capturing within the same packet — all
  // bit-identical.
  EbmsConfig config;
  config.maxClusters = 8;
  EbmsTracker fast(config);
  EbmsTrackerReference reference(config);
  Rng rngA(63);
  Rng rngB(63);
  auto window = [&](Rng& rng, int f) {
    EventPacket p(f * 66'000, (f + 1) * 66'000);
    const float nx = 20.0F + 25.0F * static_cast<float>(f % 8);
    for (int i = 0; i < 300; ++i) {
      float x = 60.0F;
      float y = 60.0F;
      if (i >= 120 && rng.chance(0.5)) {
        x = nx;  // the igniting blob, absent for the first 120 events
        y = 140.0F;
      }
      x += static_cast<float>(rng.uniform(-7.0, 7.0));
      y += static_cast<float>(rng.uniform(-7.0, 7.0));
      p.push(Event{
          static_cast<std::uint16_t>(std::clamp(static_cast<int>(x), 0, 239)),
          static_cast<std::uint16_t>(std::clamp(static_cast<int>(y), 0, 179)),
          Polarity::kOn, f * 66'000 + static_cast<TimeUs>(i) * 200});
    }
    return p;
  };
  for (int f = 0; f < 16; ++f) {
    fast.processPacket(window(rngA, f));
    reference.processPacket(window(rngB, f));
    expectIdenticalState(fast, reference, f);
  }
}

/// `blobs` small objects on a grid over a width x height sensor, drifting
/// one pixel per frame, plus uniform shot noise: the crowded wide-area
/// regime, with many clusters live at once.
EventPacket crowdedWindow(Rng& rng, int frame, int blobs, int width,
                          int height) {
  EventPacket p(frame * 66'000, (frame + 1) * 66'000);
  constexpr int kCols = 10;
  const int rows = (blobs + kCols - 1) / kCols;
  for (int b = 0; b < blobs; ++b) {
    const float cx = (static_cast<float>(b % kCols) + 0.5F) *
                         static_cast<float>(width) / kCols +
                     static_cast<float>(frame);
    const float cy = (static_cast<float>(b / kCols) + 0.5F) *
                     static_cast<float>(height) / static_cast<float>(rows);
    for (int i = 0; i < 40; ++i) {
      const int x = std::clamp(
          static_cast<int>(cx + static_cast<float>(rng.uniform(-5.0, 5.0))),
          0, width - 1);
      const int y = std::clamp(
          static_cast<int>(cy + static_cast<float>(rng.uniform(-5.0, 5.0))),
          0, height - 1);
      p.push(Event{static_cast<std::uint16_t>(x),
                   static_cast<std::uint16_t>(y), Polarity::kOn,
                   frame * 66'000 + rng.uniformInt(0, 65'999)});
    }
  }
  for (int i = 0; i < 300; ++i) {
    p.push(Event{static_cast<std::uint16_t>(rng.uniformInt(0, width - 1)),
                 static_cast<std::uint16_t>(rng.uniformInt(0, height - 1)),
                 Polarity::kOn, frame * 66'000 + rng.uniformInt(0, 65'999)});
  }
  p.sortByTime();
  return p;
}

/// Crowded 640x480 windows with `blobs` objects through both trackers.
int runCrowded(const EbmsConfig& config, std::uint64_t seed, int blobs) {
  return runScene(config, seed, 20, [&](Rng& rng, int f) {
    return crowdedWindow(rng, f, blobs, 640, 480);
  });
}

TEST(EbmsSoaDifferentialTest, CrowdedWideAreaConfig) {
  // The BM_EbmsTrackerCrowded config: 640x480, CLmax 64, capture radius
  // 16.  Crowded scenes keep ~56 clusters live, so every event scans a
  // long cluster list; random scenes fill all 64 slots with short-lived
  // seeds that merge and prune.
  EbmsConfig config;
  config.maxClusters = 64;
  config.captureRadius = 16.0F;
  for (std::uint64_t seed = 80; seed <= 82; ++seed) {
    EXPECT_GE(runCrowded(config, seed, 56), 56);
    runDifferential(config, seed, 20, 600, 640, 480);
  }
}

TEST(EbmsSoaDifferentialTest, MoreThanSixtyFourClusters) {
  // CLmax 96 with 90 objects in view: the scan, seeding and the
  // merge/prune compaction run with cluster indices past 63.
  EbmsConfig config;
  config.maxClusters = 96;
  config.captureRadius = 16.0F;
  for (std::uint64_t seed = 90; seed <= 91; ++seed) {
    EXPECT_GT(runCrowded(config, seed, 90), 64);
    runDifferential(config, seed, 20, 800, 640, 480);
  }
}

TEST(EbmsSoaDifferentialTest, IntoAccessorsMatchByValueAccessors) {
  EbmsTracker tracker{EbmsConfig{}};
  Rng rng(9);
  tracker.processPacket(randomWindow(rng, 0, 400));
  Tracks visible;
  Tracks all;
  tracker.visibleTracksInto(visible);
  tracker.allClustersInto(all);
  EXPECT_EQ(visible, tracker.visibleTracks());
  EXPECT_EQ(all, tracker.allClusters());
  // Reused vectors are cleared, not appended to.
  tracker.visibleTracksInto(visible);
  EXPECT_EQ(visible, tracker.visibleTracks());
}

}  // namespace
}  // namespace ebbiot
