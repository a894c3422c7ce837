// Steady-state allocation audit of the frame-domain front end.
//
// The per-frame hot path (EBBI build -> median filter -> RPN) reuses its
// buffers — images, count image, histogram bins, run and proposal vectors
// are all members with stable capacity.  This test pins that: after one
// warm-up window, processing further windows performs *zero* heap
// allocations.  Allocations are counted by replacing the global operator
// new/delete for this test binary (they forward to malloc/free, so every
// other test is unaffected beyond a relaxed atomic increment).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/common/alloc_counter.hpp"
#include "src/common/rng.hpp"
#include "src/core/front_end.hpp"
#include "src/detect/cca_reference.hpp"
#include "src/filters/nn_filter.hpp"
#include "src/node/sensor_session.hpp"
#include "src/node/wire_format.hpp"
#include "src/trackers/ebms.hpp"

namespace ebbiot {
namespace {

std::atomic<std::uint64_t>& gAllocations = gAllocationCount;

EventPacket denseTrafficWindow(std::uint64_t seed) {
  Rng rng(seed);
  EventPacket packet(0, 66000);
  // A vehicle-sized blob plus salt noise, enough to drive every front-end
  // stage (median, downsample, histograms, runs, validation, tightening).
  for (int y = 60; y < 90; ++y) {
    for (int x = 40; x < 110; ++x) {
      if (rng.chance(0.6)) {
        packet.push(Event{static_cast<std::uint16_t>(x),
                          static_cast<std::uint16_t>(y), Polarity::kOn,
                          1000});
      }
    }
  }
  for (int i = 0; i < 150; ++i) {
    packet.push(Event{static_cast<std::uint16_t>(rng.uniformInt(0, 239)),
                      static_cast<std::uint16_t>(rng.uniformInt(0, 179)),
                      Polarity::kOn, 2000});
  }
  return packet;
}

TEST(AllocationAuditTest, FrontEndSteadyStateAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  for (RpnKind kind : {RpnKind::kHistogram, RpnKind::kCca}) {
    FrontEndConfig config;
    config.rpnKind = kind;
    FrameFrontEnd frontEnd(config);
    // Two alternating windows, so no window repeats its predecessor.
    const EventPacket packetA = denseTrafficWindow(5);
    const EventPacket packetB = denseTrafficWindow(6);
    (void)frontEnd.process(packetA);  // warm-up: capacities grow here
    (void)frontEnd.process(packetB);
    const std::uint64_t before = gAllocations.load();
    for (int i = 0; i < 10; ++i) {
      (void)frontEnd.process(i % 2 == 0 ? packetA : packetB);
    }
    const std::uint64_t after = gAllocations.load();
    EXPECT_EQ(after - before, 0U)
        << (kind == RpnKind::kHistogram ? "histogram" : "cca")
        << " front end allocated in steady state";
  }
}

TEST(AllocationAuditTest, EbmsTracksPathSteadyStateAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  // The full event-domain tracks path: NN filter -> SoA EBMS tracker ->
  // visibleTracksInto/allClustersInto.  The tracker's SoA state and
  // history rings are sized at construction and the track vectors are
  // reused, so after warm-up the whole chain performs zero allocations
  // per window (EbmsPipeline drives exactly this chain internally).
  EbmsConfig ebmsConfig;
  ebmsConfig.positionSampleInterval = 2'000;  // exercise the history ring
  EbmsTracker tracker(ebmsConfig);
  NnFilter filter{NnFilterConfig{}};
  Rng rng(31);
  std::vector<EventPacket> windows;
  for (int w = 0; w < 4; ++w) {
    EventPacket p(w * 66'000, (w + 1) * 66'000);
    for (int i = 0; i < 600; ++i) {
      const int x = 60 + static_cast<int>(rng.uniformInt(0, 59));
      const int y = 70 + static_cast<int>(rng.uniformInt(0, 29));
      p.push(Event{static_cast<std::uint16_t>(x),
                   static_cast<std::uint16_t>(y), Polarity::kOn,
                   static_cast<TimeUs>(w * 66'000 + i * 100)});
    }
    windows.push_back(std::move(p));
  }
  EventPacket filtered;
  Tracks visible;
  Tracks all;
  for (const EventPacket& p : windows) {  // warm-up: capacities grow here
    filter.filterInto(p, filtered);
    tracker.processPacket(filtered);
    tracker.visibleTracksInto(visible);
    tracker.allClustersInto(all);
  }
  const std::uint64_t before = gAllocations.load();
  for (int rep = 0; rep < 3; ++rep) {
    filter.reset();  // replaying the same windows keeps timestamps sane
    for (const EventPacket& p : windows) {
      filter.filterInto(p, filtered);
      tracker.processPacket(filtered);
      tracker.visibleTracksInto(visible);
      tracker.allClustersInto(all);
    }
  }
  EXPECT_EQ(gAllocations.load() - before, 0U)
      << "EBMS tracks path allocated in steady state";
}

TEST(AllocationAuditTest, CcaLabelerSteadyStateAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  // The run-based labeller's scratch (run lists, union-find, extents,
  // components, proposals, binarisation image) is all reused members;
  // cycling different frames after warm-up must not allocate.  The scalar
  // reference reuses its scratch the same way.
  Rng rng(11);
  std::vector<BinaryImage> frames;
  std::vector<CountImage> downs;
  for (int f = 0; f < 4; ++f) {
    BinaryImage img(240, 180);
    for (int i = 0; i < 3000; ++i) {
      img.set(static_cast<int>(rng.uniformInt(0, 239)),
              static_cast<int>(rng.uniformInt(0, 179)), true);
    }
    frames.push_back(std::move(img));
    CountImage down(40, 60);
    for (int i = 0; i < 400; ++i) {
      down.at(static_cast<int>(rng.uniformInt(0, 39)),
              static_cast<int>(rng.uniformInt(0, 59))) = 1;
    }
    downs.push_back(std::move(down));
  }
  CcaConfig config;
  config.minComponentPixels = 1;
  CcaLabeler cca(config);
  CcaLabelerReference reference(config);
  for (int f = 0; f < 4; ++f) {  // warm-up: capacities grow here
    (void)cca.propose(frames[static_cast<std::size_t>(f)]);
    (void)cca.labelDownsampled(downs[static_cast<std::size_t>(f)], 6, 3);
    (void)reference.propose(frames[static_cast<std::size_t>(f)]);
  }
  const std::uint64_t before = gAllocations.load();
  for (int i = 0; i < 12; ++i) {
    (void)cca.propose(frames[static_cast<std::size_t>(i % 4)]);
    (void)cca.labelDownsampled(downs[static_cast<std::size_t>(i % 4)], 6, 3);
    (void)reference.propose(frames[static_cast<std::size_t>(i % 4)]);
  }
  EXPECT_EQ(gAllocations.load() - before, 0U)
      << "CCA labelling allocated in steady state";
}

TEST(AllocationAuditTest, SensorSessionHotPathAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  // The ingest hot path — offerBytes (parser reassembly + decode into the
  // reused DecodedFrame) through the SPSC ring (per-slot EventPacket reset
  // + push) to drainInto — must be allocation-free once every ring slot's
  // window has grown to the stream's event count.  Frames are pre-encoded
  // so only session machinery is measured.
  NodeConfig config;
  config.width = 64;
  config.height = 48;
  config.maxEventsPerFrame = 64;
  SensorSession session(7, config);

  struct CountingSink final : WindowSink {
    std::size_t windows = 0;
    std::size_t events = 0;
    void onWindow(const EventPacket& window, std::uint32_t /*seq*/,
                  TimeUs /*ingestTime*/) override {
      ++windows;
      events += window.size();
    }
  } sink;

  constexpr TimeUs kPeriod = 10'000;
  const auto encodeSeq = [](std::uint32_t seq) {
    const TimeUs tStart = static_cast<TimeUs>(seq) * kPeriod;
    EventPacket window(tStart, tStart + kPeriod);
    for (std::uint32_t j = 0; j < 40; ++j) {
      window.push(Event{static_cast<std::uint16_t>((seq + 3 * j) % 64),
                        static_cast<std::uint16_t>((seq + j) % 48),
                        j % 2 == 0 ? Polarity::kOn : Polarity::kOff,
                        tStart + static_cast<TimeUs>(j) * 100});
    }
    std::vector<std::byte> bytes;
    encodeFrame(bytes, seq, 7, window);
    return bytes;
  };
  std::vector<std::vector<std::byte>> frames;
  for (std::uint32_t seq = 0; seq < 64; ++seq) {
    frames.push_back(encodeSeq(seq));
  }

  // Warm-up: cycle every ring slot so each slot's window reaches capacity.
  std::uint32_t seq = 0;
  for (; seq < 32; ++seq) {
    session.offerBytes(frames[seq], static_cast<TimeUs>(seq + 1) * kPeriod);
    (void)session.drainInto(sink, static_cast<TimeUs>(seq + 1) * kPeriod);
  }
  const std::uint64_t before = gAllocations.load();
  for (; seq < 64; ++seq) {
    session.offerBytes(frames[seq], static_cast<TimeUs>(seq + 1) * kPeriod);
    (void)session.drainInto(sink, static_cast<TimeUs>(seq + 1) * kPeriod);
  }
  EXPECT_EQ(gAllocations.load() - before, 0U)
      << "sensor session ingest/drain allocated in steady state";
  EXPECT_EQ(session.counters().framesAccepted, 64U);
  EXPECT_EQ(sink.windows, 64U);
  EXPECT_EQ(sink.events, 64U * 40U);
}

TEST(AllocationAuditTest, NnFilterFilterIntoAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  NnFilterConfig config;
  NnFilter filter(config);
  Rng rng(23);
  std::vector<EventPacket> windows;
  for (int w = 0; w < 4; ++w) {
    EventPacket p(w * 66'000, (w + 1) * 66'000);
    for (int i = 0; i < 800; ++i) {
      const int x = 40 + static_cast<int>(rng.uniformInt(0, 69));
      const int y = 60 + static_cast<int>(rng.uniformInt(0, 29));
      p.push(Event{static_cast<std::uint16_t>(x),
                   static_cast<std::uint16_t>(y), Polarity::kOn,
                   static_cast<TimeUs>(w * 66'000 + i * 80)});
    }
    windows.push_back(std::move(p));
  }
  EventPacket out;
  for (const EventPacket& p : windows) {
    filter.filterInto(p, out);  // warm-up: output capacity grows here
  }
  filter.reset();
  const std::uint64_t before = gAllocations.load();
  for (int rep = 0; rep < 3; ++rep) {
    filter.reset();  // replaying the same windows keeps timestamps sane
    for (const EventPacket& p : windows) {
      filter.filterInto(p, out);
    }
  }
  EXPECT_EQ(gAllocations.load() - before, 0U)
      << "NnFilter::filterInto allocated in steady state";
}

TEST(AllocationAuditTest, MedianFilterApplyIntoAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  MedianFilter median(3);
  BinaryImage in(240, 180);
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    in.set(static_cast<int>(rng.uniformInt(0, 239)),
           static_cast<int>(rng.uniformInt(0, 179)), true);
  }
  BinaryImage out(240, 180);
  median.applyInto(in, out);  // warm-up
  const std::uint64_t before = gAllocations.load();
  for (int i = 0; i < 10; ++i) {
    median.applyInto(in, out);
  }
  EXPECT_EQ(gAllocations.load() - before, 0U);
}

}  // namespace
}  // namespace ebbiot
