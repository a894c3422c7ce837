// Parameterized end-to-end pipeline properties: invariants that must
// hold across the configuration grid, not just at the paper's defaults.
// Among them, latch invariance: a frame-domain pipeline fed a raw window
// gives the same tracks, images, proposals and ops as one fed the
// window's latchReadout(), for every frame variant in the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/core/variant_registry.hpp"
#include "src/sim/davis.hpp"
#include "src/sim/event_synth.hpp"
#include "src/sim/recording.hpp"
#include "src/sim/scene.hpp"

namespace ebbiot {
namespace {

/// `count` consecutive windows of a synthetic recording.
std::vector<EventPacket> recordedWindows(RecordingSpec spec, int count) {
  spec.durationS = 10.0;  // the scenario schedules the whole duration
  const Recording rec = openRecording(spec);
  std::vector<EventPacket> windows;
  for (int i = 0; i < count; ++i) {
    windows.push_back(rec.source->nextWindow(kDefaultFramePeriodUs));
  }
  return windows;
}

/// Hand-made width × height windows in which pixels fire many times:
/// one pixel alone, a block fired three times over, and the corners —
/// the last row and the last (tail-word) column among them.
std::vector<EventPacket> repeatWindows(int width, int height) {
  const auto px = [](int x, int y, TimeUs t) {
    return Event{static_cast<std::uint16_t>(x), static_cast<std::uint16_t>(y),
                 t % 2 == 0 ? Polarity::kOn : Polarity::kOff, t};
  };
  const TimeUs period = kDefaultFramePeriodUs;
  std::vector<EventPacket> windows;
  EventPacket one(0, period);
  for (TimeUs t = 0; t < 50; ++t) {
    one.push(px(width / 2, height / 3, t));
  }
  windows.push_back(std::move(one));
  EventPacket block(period, 2 * period);
  TimeUs t = period;
  for (int pass = 0; pass < 3; ++pass) {
    for (int y = height / 4; y < height / 4 + 8; ++y) {
      for (int x = width / 4; x < width / 4 + 12; ++x) {
        block.push(px(x, y, t++));
      }
    }
  }
  windows.push_back(std::move(block));
  EventPacket corners(2 * period, 3 * period);
  t = 2 * period;
  for (int pass = 0; pass < 4; ++pass) {
    for (const auto& [x, y] : {std::pair{0, 0}, std::pair{width - 1, 0},
                               std::pair{0, height - 1},
                               std::pair{width - 1, height - 1}}) {
      corners.push(px(x, y, t++));
    }
  }
  windows.push_back(std::move(corners));
  windows.emplace_back(3 * period, 4 * period);  // and an empty one
  return windows;
}

/// The windows every latch-invariance case runs at 240 × 180: 64 each of
/// SyntheticENG and SyntheticLT4, then the hand-made repeat windows.
const std::vector<EventPacket>& latchInvarianceWindows() {
  static const std::vector<EventPacket> windows = [] {
    std::vector<EventPacket> all = recordedWindows(makeSyntheticEng(), 64);
    for (EventPacket& w : recordedWindows(makeSyntheticLt4(), 64)) {
      all.push_back(std::move(w));
    }
    for (EventPacket& w : repeatWindows(240, 180)) {
      all.push_back(std::move(w));
    }
    return all;
  }();
  return windows;
}

/// Row occupancy is exact: a row is flagged iff it holds a set pixel,
/// and occupiedRowSpan() is the tight band of those rows.
void expectOccupancyExact(const BinaryImage& img, const std::string& where) {
  RowSpan tight{img.height(), 0};
  for (int y = 0; y < img.height(); ++y) {
    bool anySet = false;
    for (int x = 0; x < img.width() && !anySet; ++x) {
      anySet = img.get(x, y);
    }
    EXPECT_EQ(img.rowMayHaveSetPixels(y), anySet) << where << ", row " << y;
    if (anySet) {
      tight.begin = std::min(tight.begin, y);
      tight.end = y + 1;
    }
  }
  const RowSpan span = img.occupiedRowSpan();
  if (tight.empty()) {
    EXPECT_TRUE(span.empty()) << where;
  } else {
    EXPECT_EQ(span, tight) << where;
  }
}

void expectOpsEqual(const OpCounts& raw, const OpCounts& latched,
                    const std::string& what) {
  EXPECT_TRUE(raw == latched) << what << ": " << raw.total() << " ops raw vs "
                              << latched.total() << " latched";
}

/// Feed `raw` each window as is and `latched` its latchReadout(); both
/// frame pipelines must agree window by window in everything they expose,
/// and the EBBI's row occupancy must be exact.
template <typename Tracker>
void expectLatchInvariant(FramePipeline<Tracker>& raw,
                          FramePipeline<Tracker>& latched,
                          const std::vector<EventPacket>& windows, int width,
                          int height) {
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const std::string where = raw.name() + " window " + std::to_string(i);
    const Tracks rawTracks = raw.processWindow(windows[i]);
    const Tracks latchedTracks =
        latched.processWindow(latchReadout(windows[i], width, height));
    EXPECT_TRUE(rawTracks == latchedTracks) << where;
    const StageOps& a = raw.stageOps();
    const StageOps& b = latched.stageOps();
    expectOpsEqual(a.frontEnd.ebbi, b.frontEnd.ebbi, where + " EBBI");
    expectOpsEqual(a.frontEnd.medianFilter, b.frontEnd.medianFilter,
                   where + " median");
    expectOpsEqual(a.frontEnd.rpn, b.frontEnd.rpn, where + " RPN");
    expectOpsEqual(a.regionFilter, b.regionFilter, where + " region filter");
    expectOpsEqual(a.tracker, b.tracker, where + " tracker");
    EXPECT_TRUE(raw.lastEbbi() == latched.lastEbbi()) << where;
    EXPECT_TRUE(raw.lastFiltered() == latched.lastFiltered()) << where;
    EXPECT_TRUE(raw.lastProposals() == latched.lastProposals()) << where;
    expectOccupancyExact(raw.lastEbbi(), where + " (raw EBBI)");
    expectOccupancyExact(latched.lastEbbi(), where + " (latched EBBI)");
  }
}

/// expectLatchInvariant for two registry builds of one frame variant;
/// false if the variant is not one of the frame pipeline types.
template <typename Tracker, typename... Rest>
bool expectVariantLatchInvariant(Pipeline& raw, Pipeline& latched,
                                 const std::vector<EventPacket>& windows,
                                 int width, int height) {
  auto* rawFrame = dynamic_cast<FramePipeline<Tracker>*>(&raw);
  auto* latchedFrame = dynamic_cast<FramePipeline<Tracker>*>(&latched);
  if (rawFrame != nullptr && latchedFrame != nullptr) {
    expectLatchInvariant(*rawFrame, *latchedFrame, windows, width, height);
    return true;
  }
  if constexpr (sizeof...(Rest) > 0) {
    return expectVariantLatchInvariant<Rest...>(raw, latched, windows, width,
                                                height);
  }
  return false;
}

/// Every frame variant of the registry at one geometry; returns how many
/// variants ran.
std::size_t expectRegistryLatchInvariant(
    const std::vector<EventPacket>& windows, int width, int height) {
  const VariantContext context{width, height};
  std::size_t frameVariants = 0;
  for (const VariantInfo& variant : variantRegistry().variants()) {
    const auto raw = variant.build(context);
    if (raw->inputDomain() != InputDomain::kLatchedFrame) {
      continue;
    }
    const auto latched = variant.build(context);
    EXPECT_TRUE((expectVariantLatchInvariant<OverlapTracker, KalmanTracker,
                                             HybridTracker>(
        *raw, *latched, windows, width, height)))
        << variant.key << " is not a FramePipeline";
    ++frameVariants;
  }
  return frameVariants;
}

struct PipelineCase {
  int medianPatch;
  int s1;
  int s2;
  RpnKind rpnKind;
};

class PipelineConfigSweep : public ::testing::TestWithParam<PipelineCase> {
 protected:
  static EventPacket window(FastEventSynth& synth) {
    return latchReadout(synth.nextWindow(kDefaultFramePeriodUs), 240, 180);
  }
};

TEST_P(PipelineConfigSweep, InvariantsHoldOverBusyTraffic) {
  const auto& [patch, s1, s2, rpnKind] = GetParam();
  ScriptedScene scene(240, 180);
  scene.addLinear(ObjectClass::kCar, BBox{-48, 40, 48, 22}, Vec2f{65, 0},
                  0, secondsToUs(10.0));
  scene.addLinear(ObjectClass::kBus, BBox{240, 75, 120, 38}, Vec2f{-45, 0},
                  0, secondsToUs(10.0));
  scene.addLinear(ObjectClass::kVan, BBox{-60, 110, 60, 28}, Vec2f{50, 0},
                  secondsToUs(1.0), secondsToUs(10.0));
  EventSynthConfig synthConfig;
  synthConfig.backgroundActivityHz = 0.3;
  synthConfig.seed = 99;
  FastEventSynth synth(scene, synthConfig);

  EbbiotPipelineConfig config;
  config.medianPatch = patch;
  config.rpn.s1 = s1;
  config.rpn.s2 = s2;
  config.rpnKind = rpnKind;
  EbbiotPipeline pipeline(config);

  for (int f = 0; f < 45; ++f) {
    const Tracks tracks = pipeline.processWindow(window(synth));
    // Never more tracks than slots; ids unique; boxes non-empty and
    // near the frame (coasting may overhang slightly).
    EXPECT_LE(tracks.size(), 8U);
    std::set<std::uint32_t> ids;
    for (const Track& t : tracks) {
      EXPECT_TRUE(ids.insert(t.id).second);
      EXPECT_FALSE(t.box.empty());
      EXPECT_FALSE(clampToFrame(t.box, 300, 240).empty());
      EXPECT_GE(t.hits, 1);
      EXPECT_GE(t.age, t.hits);
    }
    // Ops are measured every frame and bounded: the front end can't
    // exceed a few multiples of A*B.
    const auto total = pipeline.lastOps().total();
    EXPECT_GT(total, 0U);
    EXPECT_LT(total, 20U * 240U * 180U);
    // Filtered image never has more pixels than the raw EBBI for p >= 3
    // on sparse frames... (strictly: median can fill holes, so allow a
    // small excess).
    EXPECT_LE(pipeline.lastFiltered().popcount(),
              pipeline.lastEbbi().popcount() * 11 / 10 + 16);
  }
}

TEST_P(PipelineConfigSweep, DeterministicAcrossRuns) {
  const auto& [patch, s1, s2, rpnKind] = GetParam();
  auto run = [&] {
    ScriptedScene scene(240, 180);
    scene.addLinear(ObjectClass::kCar, BBox{-48, 70, 48, 22}, Vec2f{60, 0},
                    0, secondsToUs(5.0));
    EventSynthConfig synthConfig;
    synthConfig.seed = 7;
    FastEventSynth synth(scene, synthConfig);
    EbbiotPipelineConfig config;
    config.medianPatch = patch;
    config.rpn.s1 = s1;
    config.rpn.s2 = s2;
    config.rpnKind = rpnKind;
    EbbiotPipeline pipeline(config);
    Tracks last;
    std::uint64_t opsTotal = 0;
    for (int f = 0; f < 30; ++f) {
      last = pipeline.processWindow(window(synth));
      opsTotal += pipeline.lastOps().total();
    }
    return std::pair{last, opsTotal};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.second, b.second);
  ASSERT_EQ(a.first.size(), b.first.size());
  for (std::size_t i = 0; i < a.first.size(); ++i) {
    EXPECT_EQ(a.first[i], b.first[i]);
  }
}

TEST_P(PipelineConfigSweep, LatchInvariantOnRawWindows) {
  const auto& [patch, s1, s2, rpnKind] = GetParam();
  EbbiotPipelineConfig config;
  config.medianPatch = patch;
  config.rpn.s1 = s1;
  config.rpn.s2 = s2;
  config.rpnKind = rpnKind;
  EbbiotPipeline raw(config);
  EbbiotPipeline latched(config);
  expectLatchInvariant(raw, latched, latchInvarianceWindows(), 240, 180);
}

TEST(PipelineLatchInvarianceTest, EveryFrameVariantInTheRegistry) {
  // The recorded windows must hold repeats, or equal ops would not show
  // that the EBBI build meters latched pixels rather than events.
  const std::vector<EventPacket>& windows = latchInvarianceWindows();
  std::size_t withRepeats = 0;
  for (const EventPacket& w : windows) {
    withRepeats += latchReadout(w, 240, 180).size() < w.size() ? 1 : 0;
  }
  EXPECT_GT(withRepeats, windows.size() / 2);
  EXPECT_EQ(expectRegistryLatchInvariant(windows, 240, 180), 6U);
  // A width that is not a multiple of 64: the last word of every row is
  // a tail word.
  EXPECT_EQ(expectRegistryLatchInvariant(repeatWindows(100, 37), 100, 37),
            6U);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, PipelineConfigSweep,
    ::testing::Values(PipelineCase{3, 6, 3, RpnKind::kHistogram},  // paper
                      PipelineCase{1, 6, 3, RpnKind::kHistogram},
                      PipelineCase{1, 6, 3, RpnKind::kCca},
                      PipelineCase{3, 2, 2, RpnKind::kHistogram},
                      PipelineCase{3, 12, 6, RpnKind::kHistogram},
                      PipelineCase{3, 6, 3, RpnKind::kCca}));

}  // namespace
}  // namespace ebbiot
