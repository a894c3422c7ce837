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

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/alloc_counter.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/front_end.hpp"
#include "src/core/pipeline.hpp"
#include "src/detect/cca_reference.hpp"
#include "src/events/pixel_latch.hpp"
#include "src/filters/nn_filter.hpp"
#include "src/node/node_supervisor.hpp"
#include "src/node/pipeline_sink.hpp"
#include "src/node/sensor_session.hpp"
#include "src/node/wire_format.hpp"
#include "src/sim/davis.hpp"
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
  // The ingest hot path — offerBytes (parser reassembly and in-place
  // record checks, then decodeEventsInto the SPSC ring slot's reused
  // EventPacket) to drainInto — must be allocation-free once every ring
  // slot's window has grown to the stream's event count.  Frames are
  // pre-encoded so only session machinery is measured.
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

TEST(AllocationAuditTest, NodeSupervisorPumpOnOneThreadAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  // pump() hands its drains to parallelFor; on a one-thread pool that is
  // an in-order loop, and the [this, now] closure fits std::function's
  // small buffer, so a warm pump over several sensors allocates nothing.
  NodeConfig config;
  config.width = 64;
  config.height = 48;
  config.maxEventsPerFrame = 64;
  ThreadPool pool(1);
  NodeSupervisor supervisor(config, pool);

  struct CountingSink final : WindowSink {
    std::size_t windows = 0;
    void onWindow(const EventPacket& /*window*/, std::uint32_t /*seq*/,
                  TimeUs /*ingestTime*/) override {
      ++windows;
    }
  };
  constexpr std::uint16_t kSensors = 3;
  std::vector<CountingSink> sinks(kSensors);
  for (std::uint16_t id = 0; id < kSensors; ++id) {
    supervisor.addSensor({id, 0, &sinks[id]});
  }

  constexpr TimeUs kPeriod = 10'000;
  std::vector<std::vector<std::byte>> frames;  // [seq * kSensors + id]
  for (std::uint32_t seq = 0; seq < 64; ++seq) {
    const TimeUs tStart = static_cast<TimeUs>(seq) * kPeriod;
    for (std::uint16_t id = 0; id < kSensors; ++id) {
      EventPacket window(tStart, tStart + kPeriod);
      for (std::uint32_t j = 0; j < 30; ++j) {
        window.push(Event{static_cast<std::uint16_t>((seq + 3 * j + id) % 64),
                          static_cast<std::uint16_t>((seq + j) % 48),
                          Polarity::kOn,
                          tStart + static_cast<TimeUs>(j) * 100});
      }
      frames.emplace_back();
      encodeFrame(frames.back(), seq, id, window);
    }
  }
  const auto step = [&](std::uint32_t seq) {
    const TimeUs now = static_cast<TimeUs>(seq + 1) * kPeriod;
    for (std::uint16_t id = 0; id < kSensors; ++id) {
      supervisor.offerBytes(id, frames[seq * kSensors + id], now);
    }
    return supervisor.pump(now).windowsDelivered;
  };

  // Warm-up: cycle every ring slot so each slot's window reaches capacity.
  std::uint32_t seq = 0;
  for (; seq < 32; ++seq) {
    (void)step(seq);
  }
  std::size_t delivered = 0;
  const std::uint64_t before = gAllocations.load();
  for (; seq < 64; ++seq) {
    delivered += step(seq);
  }
  EXPECT_EQ(gAllocations.load() - before, 0U)
      << "NodeSupervisor::pump allocated in steady state";
  EXPECT_EQ(delivered, 32U * kSensors);
  for (const CountingSink& sink : sinks) {
    EXPECT_EQ(sink.windows, 64U);
  }
}

TEST(AllocationAuditTest, AppendBufferGrowsGeometrically) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  // A reused packet fed ever larger windows (a queue slot or latch output
  // early in a stream) reallocates at powers of two, as push() does, not
  // at every new largest window.
  EventPacket packet;
  const std::uint64_t before = gAllocations.load();
  for (std::size_t n = 1; n <= 2000; ++n) {
    packet.reset(0, 10);
    for (Event& e : packet.appendBuffer(n)) {
      e.t = 1;
    }
    packet.commitAppended(n);
  }
  // Capacities 1, 2, 4, ..., 2048: twelve allocations, not 2000.
  EXPECT_LE(gAllocations.load() - before, 12U);
  EXPECT_EQ(packet.size(), 2000U);
}

/// Window of `count` events on a 64×48 sensor, many landing on a pixel
/// already fired, so the latch has duplicates to drop.
EventPacket repeatingWindow(std::uint64_t seed, TimeUs tStart, int count) {
  Rng rng(seed);
  EventPacket packet(tStart, tStart + 10'000);
  for (int i = 0; i < count; ++i) {
    packet.push(Event{static_cast<std::uint16_t>(rng.uniformInt(0, 15)),
                      static_cast<std::uint16_t>(rng.uniformInt(0, 47)),
                      rng.chance(0.5) ? Polarity::kOn : Polarity::kOff,
                      tStart + static_cast<TimeUs>(i) * 10});
  }
  return packet;
}

TEST(AllocationAuditTest, PixelLatchReadoutIntoAllocatesNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  PixelLatch latch(64, 48);
  std::vector<EventPacket> windows;
  for (int w = 0; w < 4; ++w) {
    windows.push_back(repeatingWindow(40 + w, w * 10'000, 200 + 150 * w));
  }
  windows.emplace_back(40'000, 50'000);  // an empty window too
  EventPacket out;
  for (const EventPacket& w : windows) {
    latch.readoutInto(w, out);  // warm-up: output capacity grows here
  }
  std::size_t kept = 0;
  const std::uint64_t before = gAllocations.load();
  for (int rep = 0; rep < 3; ++rep) {
    for (const EventPacket& w : windows) {
      latch.readoutInto(w, out);
      kept += out.size();
    }
  }
  EXPECT_EQ(gAllocations.load() - before, 0U)
      << "PixelLatch::readoutInto allocated in steady state";
  EXPECT_GT(kept, 0U);
}

/// Frame-domain stand-in for the sink test: counts what it is fed, keeps
/// that count as its cross-window state, and supports snapshots.
class StubLatchedPipeline final : public Pipeline {
 public:
  struct State {
    std::uint64_t windows = 0;
    std::uint64_t events = 0;
  };
  struct Snapshot final : PipelineSnapshot {
    State state;
  };

  Tracks processWindow(const EventPacket& packet) override {
    ++state_.windows;
    state_.events += packet.size();
    return {};
  }
  [[nodiscard]] OpCounts lastOps() const override { return {}; }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] InputDomain inputDomain() const override {
    return InputDomain::kLatchedFrame;
  }
  [[nodiscard]] std::unique_ptr<PipelineSnapshot> makeSnapshot()
      const override {
    return std::make_unique<Snapshot>();
  }
  bool saveState(PipelineSnapshot& out) const override {
    auto* snapshot = dynamic_cast<Snapshot*>(&out);
    if (snapshot == nullptr) {
      return false;
    }
    snapshot->state = state_;
    return true;
  }
  bool restoreState(const PipelineSnapshot& in) override {
    const auto* snapshot = dynamic_cast<const Snapshot*>(&in);
    if (snapshot == nullptr) {
      return false;
    }
    state_ = snapshot->state;
    return true;
  }
  void resetState() override { state_ = {}; }

  [[nodiscard]] const State& state() const { return state_; }

 private:
  std::string name_ = "stub";
  State state_;
};

TEST(AllocationAuditTest, PipelineSinkLatchAndSnapshotAllocateNothing) {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  // The sink's own work per window — the latch readout into its reused
  // packet, the rolling snapshot save, gap coasting and a snapshot
  // restore on resync — must be allocation-free once warm.
  auto owned = std::make_unique<StubLatchedPipeline>();
  const StubLatchedPipeline& stub = *owned;
  PipelineSink sink(std::move(owned), 64, 48, PipelineSinkConfig{});
  std::vector<EventPacket> windows;
  for (int w = 0; w < 8; ++w) {
    windows.push_back(repeatingWindow(60 + w, w * 10'000, 100 + 60 * w));
  }
  // Warm-up: the largest window first, then one of each path.
  sink.onWindow(windows[7], 0, 0);
  sink.onWindow(windows[0], 2, 0);   // gap of one: coasted
  sink.onWindow(windows[1], 50, 0);  // unbridgeable: restored
  const std::uint64_t before = gAllocations.load();
  sink.onWindow(windows[2], 51, 0);
  sink.onWindow(windows[3], 52, 0);
  sink.onWindow(windows[4], 55, 0);  // gap of two: coasted
  sink.onWindow(windows[5], 90, 0);  // unbridgeable: restored
  EXPECT_TRUE(sink.coastIdle());
  EXPECT_TRUE(sink.coastIdle());
  sink.onWindow(windows[6], 91, 0);  // back after idle coasting: restored
  sink.onWindow(windows[7], 92, 0);
  EXPECT_EQ(gAllocations.load() - before, 0U)
      << "PipelineSink allocated in steady state";
  const PipelineSink::Counters& c = sink.counters();
  EXPECT_EQ(c.windowsTracked, 9U);
  EXPECT_EQ(c.gapsCoasted, 2U);
  EXPECT_EQ(c.windowsCoasted, 5U);  // 1 + 2 gap windows, 2 idle
  EXPECT_EQ(c.idleCoastWindows, 2U);
  EXPECT_EQ(c.resyncRestores, 3U);
  EXPECT_EQ(c.resyncResets, 0U);
  // The stub saw every real window latched, and the restore after idle
  // coasting rolled its two blind windows back: 9 real + 3 gap windows.
  std::uint64_t latchedEvents = 0;
  for (const std::size_t w : {7U, 0U, 1U, 2U, 3U, 4U, 5U, 6U, 7U}) {
    latchedEvents += latchReadout(windows[w], 64, 48).size();
  }
  EXPECT_EQ(stub.state().windows, 12U);
  EXPECT_EQ(stub.state().events, latchedEvents);
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
