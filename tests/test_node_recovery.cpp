// PipelineSink gap-aware tracking recovery: coast-through-gap, blind
// idle coasting, snapshot-restore resync (for the EBBIOT, EBBI+KF and
// Hybrid pipelines) and its reset fallback, the per-outage coast budget
// — each pinned bit-identically against a bare Pipeline twin fed the
// equivalent window sequence — plus the
// drain-latency tail pin (a stalled drain must show p99 > p50, not a
// flat frame-period line).
#include "src/node/pipeline_sink.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/node/node_config.hpp"
#include "src/node/wire_format.hpp"
#include "src/sim/davis.hpp"
#include "src/sim/event_synth.hpp"
#include "src/sim/scene.hpp"

namespace ebbiot {
namespace {

constexpr int kWidth = 64;
constexpr int kHeight = 48;
constexpr TimeUs kWindow = 10'000;

/// Stream-mode windows of a car crossing a small frame.
std::vector<EventPacket> makeWindows(int count) {
  ScriptedScene scene(kWidth, kHeight);
  scene.addLinear(ObjectClass::kCar, BBox{2, 18, 20, 10}, Vec2f{140, 0}, 0,
                  secondsToUs(10.0));
  EventSynthConfig config;
  config.backgroundActivityHz = 0.2;
  config.seed = 4242;
  FastEventSynth synth(scene, config);
  std::vector<EventPacket> windows;
  windows.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    windows.push_back(synth.nextWindow(kWindow));
  }
  return windows;
}

EbbiotPipelineConfig smallConfig() {
  EbbiotPipelineConfig config;
  config.width = kWidth;
  config.height = kHeight;
  return config;
}

/// The small-frame pipeline of type P (EBBIOT, EBBI+KF or Hybrid).
template <typename P>
std::unique_ptr<Pipeline> makeSmall() {
  typename P::Config config;
  config.width = kWidth;
  config.height = kHeight;
  return std::make_unique<P>(config);
}

/// Bare-pipeline reference step: frame-domain pipelines get the latch
/// readout, the event domain the raw window.  The sink hands every
/// pipeline the raw window, so matching this pins the frame pipelines'
/// latch invariance on the node path.
Tracks referenceStep(Pipeline& pipeline, const EventPacket& window) {
  if (pipeline.inputDomain() == InputDomain::kLatchedFrame) {
    return pipeline.processWindow(latchReadout(window, kWidth, kHeight));
  }
  return pipeline.processWindow(window);
}

/// Empty window continuing the reference clock (coast step).
Tracks referenceCoast(Pipeline& pipeline, TimeUs tStart) {
  const EventPacket empty(tStart, tStart + kWindow);
  return pipeline.processWindow(empty);
}

TEST(PipelineSinkTest, ContiguousStreamMatchesBarePipeline) {
  const std::vector<EventPacket> windows = makeWindows(24);

  // Frame domain (the sink passes raw windows; the twin gets their latch
  // readout) and event domain.  Ops are compared too: a window in which
  // a pixel fires twice tells a build that meters every raw event from
  // one that meters latched pixels.
  std::size_t windowsWithRepeats = 0;
  for (const EventPacket& w : windows) {
    if (latchReadout(w, kWidth, kHeight).size() < w.size()) {
      ++windowsWithRepeats;
    }
  }
  EXPECT_GT(windowsWithRepeats, 0U);
  {
    PipelineSink sink(makeSmall<EbbiotPipeline>(), kWidth, kHeight, {});
    EbbiotPipeline bare(smallConfig());
    for (std::size_t i = 0; i < windows.size(); ++i) {
      sink.onWindow(windows[i], static_cast<std::uint32_t>(i),
                    windows[i].tEnd());
      const Tracks expected = referenceStep(bare, windows[i]);
      EXPECT_TRUE(sink.lastTracks() == expected) << "window " << i;
      EXPECT_EQ(sink.pipeline().lastOps(), bare.lastOps()) << "window " << i;
    }
    EXPECT_EQ(sink.counters().windowsTracked, windows.size());
    EXPECT_EQ(sink.counters().windowsCoasted, 0U);
    EXPECT_EQ(sink.counters().resyncRestores, 0U);
    EXPECT_EQ(sink.counters().resyncResets, 0U);
  }
  {
    PipelineSink sink(std::make_unique<EbmsPipeline>(EbmsPipelineConfig{}),
                      kWidth, kHeight, {});
    EbmsPipeline bare{EbmsPipelineConfig{}};
    for (std::size_t i = 0; i < windows.size(); ++i) {
      sink.onWindow(windows[i], static_cast<std::uint32_t>(i),
                    windows[i].tEnd());
      const Tracks expected = referenceStep(bare, windows[i]);
      EXPECT_TRUE(sink.lastTracks() == expected) << "window " << i;
      EXPECT_EQ(sink.pipeline().lastOps(), bare.lastOps()) << "window " << i;
    }
  }
}

TEST(PipelineSinkTest, BridgeableGapCoastsTracks) {
  const std::vector<EventPacket> windows = makeWindows(24);
  PipelineSinkConfig config;
  config.maxCoastWindows = 4;
  PipelineSink sink(makeSmall<EbbiotPipeline>(), kWidth, kHeight, config);
  EbbiotPipeline bare(smallConfig());

  // Windows 0..9 contiguous, 10..12 lost, then 13 onward.
  for (std::size_t i = 0; i < 10; ++i) {
    sink.onWindow(windows[i], static_cast<std::uint32_t>(i),
                  windows[i].tEnd());
    (void)referenceStep(bare, windows[i]);
  }
  for (std::size_t i = 13; i < windows.size(); ++i) {
    sink.onWindow(windows[i], static_cast<std::uint32_t>(i),
                  windows[i].tEnd());
  }
  // The reference bridges the same gap with three empty windows.
  for (int c = 0; c < 3; ++c) {
    (void)referenceCoast(bare, windows[9].tEnd() +
                                   static_cast<TimeUs>(c) * kWindow);
  }
  Tracks expected;
  for (std::size_t i = 13; i < windows.size(); ++i) {
    expected = referenceStep(bare, windows[i]);
  }
  EXPECT_TRUE(sink.lastTracks() == expected);
  EXPECT_EQ(sink.counters().gapsCoasted, 1U);
  EXPECT_EQ(sink.counters().windowsCoasted, 3U);
  EXPECT_EQ(sink.counters().resyncRestores, 0U);
  EXPECT_EQ(sink.counters().resyncResets, 0U);
}

template <typename P>
void expectIdleCoastRollsBack() {
  const std::vector<EventPacket> windows = makeWindows(20);
  PipelineSinkConfig config;
  config.maxCoastWindows = 8;
  PipelineSink sink(makeSmall<P>(), kWidth, kHeight, config);
  // The twin never sees the outage at all.
  PipelineSink twin(makeSmall<P>(), kWidth, kHeight, config);

  for (std::size_t i = 0; i < 10; ++i) {
    sink.onWindow(windows[i], static_cast<std::uint32_t>(i),
                  windows[i].tEnd());
    twin.onWindow(windows[i], static_cast<std::uint32_t>(i),
                  windows[i].tEnd());
  }
  const Tracks beforeOutage = sink.lastTracks();
  ASSERT_FALSE(beforeOutage.empty());

  // Sensor goes silent: blind coasting keeps reporting predicted tracks
  // (the car keeps moving on its velocity model).
  ASSERT_TRUE(sink.coastIdle());
  ASSERT_TRUE(sink.coastIdle());
  ASSERT_TRUE(sink.coastIdle());
  EXPECT_EQ(sink.counters().idleCoastWindows, 3U);
  ASSERT_FALSE(sink.lastTracks().empty());
  EXPECT_FALSE(sink.lastTracks() == beforeOutage);  // predictions moved

  // The stream resumes in-sequence: the blind predictions are rolled
  // back to the last observed state, so from here on the sink is
  // bit-identical to the twin that never idled.
  for (std::size_t i = 10; i < windows.size(); ++i) {
    sink.onWindow(windows[i], static_cast<std::uint32_t>(i),
                  windows[i].tEnd());
    twin.onWindow(windows[i], static_cast<std::uint32_t>(i),
                  windows[i].tEnd());
    EXPECT_TRUE(sink.lastTracks() == twin.lastTracks()) << "window " << i;
  }
  EXPECT_EQ(sink.counters().resyncRestores, 1U);
  EXPECT_EQ(sink.counters().resyncResets, 0U);
}

TEST(PipelineSinkTest, IdleCoastKeepsPredictingThenRestoreRollsBack) {
  expectIdleCoastRollsBack<EbbiotPipeline>();
}

// The filter back ends coast on their Kalman prediction; the restore
// rolls their filters back too.
TEST(PipelineSinkTest, KalmanIdleCoastThenRestoreRollsBack) {
  expectIdleCoastRollsBack<KalmanPipeline>();
}

TEST(PipelineSinkTest, HybridIdleCoastThenRestoreRollsBack) {
  expectIdleCoastRollsBack<HybridPipeline>();
}

template <typename P>
void expectUnbridgeableGapRestores() {
  const std::vector<EventPacket> windows = makeWindows(30);
  PipelineSinkConfig config;
  config.maxCoastWindows = 4;
  PipelineSink sink(makeSmall<P>(), kWidth, kHeight, config);
  std::unique_ptr<Pipeline> bare = makeSmall<P>();

  for (std::size_t i = 0; i < 10; ++i) {
    sink.onWindow(windows[i], static_cast<std::uint32_t>(i),
                  windows[i].tEnd());
    (void)referenceStep(*bare, windows[i]);
  }
  ASSERT_FALSE(sink.lastTracks().empty());  // the restore has state to keep
  // 15 windows lost — beyond the coast budget.  The restore keeps the
  // last observed state (no coast damage) and continues directly.
  Tracks expected;
  for (std::size_t i = 25; i < windows.size(); ++i) {
    sink.onWindow(windows[i], static_cast<std::uint32_t>(i),
                  windows[i].tEnd());
    expected = referenceStep(*bare, windows[i]);
    EXPECT_TRUE(sink.lastTracks() == expected) << "window " << i;
  }
  EXPECT_EQ(sink.counters().resyncRestores, 1U);
  EXPECT_EQ(sink.counters().windowsCoasted, 0U);
}

TEST(PipelineSinkTest, UnbridgeableGapRestoresLastObservedState) {
  expectUnbridgeableGapRestores<EbbiotPipeline>();
}

TEST(PipelineSinkTest, KalmanUnbridgeableGapRestoresLastObservedState) {
  expectUnbridgeableGapRestores<KalmanPipeline>();
}

TEST(PipelineSinkTest, HybridUnbridgeableGapRestoresLastObservedState) {
  expectUnbridgeableGapRestores<HybridPipeline>();
}

/// The small EBBIOT pipeline with no usable snapshot.  Without `saves`
/// makeSnapshot() keeps the interface's nullptr; with it, snapshots are
/// made and saved but every restore is refused.  Either way each resync
/// falls back to a reset.
class UnrestorableEbbiot final : public Pipeline {
 public:
  explicit UnrestorableEbbiot(bool saves) : saves_(saves) {}

  Tracks processWindow(const EventPacket& packet) override {
    return inner_.processWindow(packet);
  }
  [[nodiscard]] OpCounts lastOps() const override { return inner_.lastOps(); }
  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }
  [[nodiscard]] InputDomain inputDomain() const override {
    return inner_.inputDomain();
  }
  [[nodiscard]] std::unique_ptr<PipelineSnapshot> makeSnapshot()
      const override {
    return saves_ ? inner_.makeSnapshot() : nullptr;
  }
  bool saveState(PipelineSnapshot& out) const override {
    return saves_ && inner_.saveState(out);
  }
  bool restoreState(const PipelineSnapshot& snapshot) override {
    (void)snapshot;
    return false;
  }
  void resetState() override { inner_.resetState(); }

 private:
  bool saves_;
  EbbiotPipeline inner_{smallConfig()};
};

void expectResetOnResync(std::unique_ptr<Pipeline> pipeline) {
  const std::vector<EventPacket> windows = makeWindows(30);
  PipelineSinkConfig config;
  config.maxCoastWindows = 4;
  PipelineSink sink(std::move(pipeline), kWidth, kHeight, config);

  for (std::size_t i = 0; i < 10; ++i) {
    sink.onWindow(windows[i], static_cast<std::uint32_t>(i),
                  windows[i].tEnd());
  }
  ASSERT_FALSE(sink.lastTracks().empty());  // the reset has state to drop
  // A fresh pipeline sees only the post-gap stream.
  EbbiotPipeline fresh(smallConfig());
  Tracks expected;
  for (std::size_t i = 25; i < windows.size(); ++i) {
    sink.onWindow(windows[i], static_cast<std::uint32_t>(i),
                  windows[i].tEnd());
    expected = referenceStep(fresh, windows[i]);
    EXPECT_TRUE(sink.lastTracks() == expected) << "window " << i;
  }
  EXPECT_EQ(sink.counters().resyncResets, 1U);
  EXPECT_EQ(sink.counters().resyncRestores, 0U);
}

TEST(PipelineSinkTest, ResetFallbackStartsCleanOnResync) {
  expectResetOnResync(std::make_unique<UnrestorableEbbiot>(false));
}

TEST(PipelineSinkTest, RefusedRestoreFallsBackToReset) {
  expectResetOnResync(std::make_unique<UnrestorableEbbiot>(true));
}

TEST(PipelineSinkTest, BackwardSeqIsARebasedStreamResync) {
  const std::vector<EventPacket> windows = makeWindows(20);
  PipelineSinkConfig config;
  PipelineSink sink(makeSmall<EbbiotPipeline>(), kWidth, kHeight, config);

  // Stream runs at seq 100..109, then the sensor reboots into a fresh
  // sequence space starting at 3 (watchdog re-adopt downstream of the
  // session) — the sink must resync, not interpret 100 -> 3 as a gap.
  for (std::size_t i = 0; i < 10; ++i) {
    sink.onWindow(windows[i], static_cast<std::uint32_t>(100 + i),
                  windows[i].tEnd());
  }
  for (std::size_t i = 10; i < windows.size(); ++i) {
    sink.onWindow(windows[i], static_cast<std::uint32_t>(i - 7),
                  windows[i].tEnd());
  }
  EXPECT_EQ(sink.counters().resyncRestores, 1U);
  EXPECT_EQ(sink.counters().windowsTracked, windows.size());
}

TEST(PipelineSinkTest, IdleCoastBudgetIsPerOutage) {
  const std::vector<EventPacket> windows = makeWindows(8);
  PipelineSinkConfig config;
  config.maxCoastWindows = 2;
  PipelineSink sink(makeSmall<EbbiotPipeline>(), kWidth, kHeight, config);

  // Not primed yet: nothing to coast from.
  EXPECT_FALSE(sink.coastIdle());

  sink.onWindow(windows[0], 0, windows[0].tEnd());
  EXPECT_TRUE(sink.coastIdle());
  EXPECT_TRUE(sink.coastIdle());
  EXPECT_FALSE(sink.coastIdle());  // budget spent for this outage

  // A real window closes the outage and re-arms the budget.
  sink.onWindow(windows[1], 1, windows[1].tEnd());
  EXPECT_TRUE(sink.coastIdle());
  EXPECT_EQ(sink.counters().idleCoastWindows, 3U);
}

// ---- drain-latency tail (satellite: percentiles must not be flat) ----

TEST(SessionLatencyTailTest, StalledDrainShowsTailAboveMedian) {
  NodeConfig config;
  config.width = kWidth;
  config.height = kHeight;
  config.queueCapacity = 8;
  config.backpressure = BackpressurePolicy::kRejectPacket;
  config.watchdogTimeoutUs = 10'000'000;
  config.maxEventsPerFrame = 64;
  SensorSession session(3, config);

  struct NullSink final : WindowSink {
    void onWindow(const EventPacket&, std::uint32_t, TimeUs) override {}
  } sink;

  // Six windows ingested over 60 ms while the consumer is stalled; one
  // late drain at t=100 ms then sees six distinct queue waits
  // (40..90 ms), so the latency distribution has a real tail.
  std::vector<std::byte> bytes;
  for (std::uint32_t seq = 0; seq < 6; ++seq) {
    const TimeUs t = static_cast<TimeUs>(seq + 1) * kWindow;
    EventPacket window(t, t + kWindow);
    Event e;
    e.x = 1;
    e.y = 1;
    e.p = Polarity::kOn;
    e.t = t;
    window.push(e);
    bytes.clear();
    encodeFrame(bytes, seq, 3, window);
    session.offerBytes(bytes, t);
  }
  ASSERT_EQ(session.drainInto(sink, 100'000), 6U);

  std::vector<TimeUs> samples(session.latencySamples().begin(),
                              session.latencySamples().end());
  ASSERT_EQ(samples.size(), 6U);
  std::sort(samples.begin(), samples.end());
  const TimeUs p50 = samples[samples.size() / 2];
  const TimeUs p99 = samples.back();
  EXPECT_EQ(samples.front(), 40'000);
  EXPECT_EQ(p99, 90'000);
  EXPECT_GT(p99, p50);
}

}  // namespace
}  // namespace ebbiot
