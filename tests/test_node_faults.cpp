// Deterministic fault matrix: every FaultKind x both backpressure
// policies drives a SensorSession to an exactly predicted outcome —
// counters are pinned with EXPECT_EQ, not ranges.  Plus the seeded fuzz
// smoke test, the timestamp-wrap end-to-end pin, and the clean-stream
// RunResult equivalence pin.
#include "src/node/fault_injection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/core/runner.hpp"
#include "src/node/framed_replay.hpp"
#include "src/node/node_config.hpp"
#include "src/node/sensor_session.hpp"
#include "src/node/wire_format.hpp"
#include "src/sim/davis.hpp"
#include "src/sim/event_synth.hpp"
#include "src/sim/recording.hpp"
#include "src/sim/scene.hpp"

namespace ebbiot {
namespace {

constexpr TimeUs kWindow = 10'000;
constexpr std::size_t kFrames = 10;
constexpr std::size_t kFaultFrame = 4;
constexpr std::size_t kFrameBytes = 73;  // frameSizeBytes(5)

NodeConfig matrixConfig(BackpressurePolicy policy) {
  NodeConfig config;
  config.width = 64;
  config.height = 48;
  config.queueCapacity = 4;
  config.backpressure = policy;
  config.freshnessLagWindows = 2;
  config.watchdogTimeoutUs = 50'000;
  config.maxEventsPerFrame = 64;
  config.degradeFaultThreshold = 3;
  config.degradeFrameWindow = 8;
  config.recoverCleanFrames = 2;
  config.quarantineResyncLimit = 64;
  return config;
}

EventPacket makeWindow(std::uint32_t i) {
  const TimeUs tStart = static_cast<TimeUs>(i) * kWindow;
  EventPacket p(tStart, tStart + kWindow);
  for (std::uint32_t j = 0; j < 5; ++j) {
    Event e;
    e.x = static_cast<std::uint16_t>((i + 7 * j) % 64);
    e.y = static_cast<std::uint16_t>((3 * i + j) % 48);
    e.p = (i + j) % 2 == 0 ? Polarity::kOn : Polarity::kOff;
    e.t = tStart + static_cast<TimeUs>(j) * 100;
    p.push(e);
  }
  return p;
}

std::vector<std::vector<std::byte>> pristineFrames(std::size_t n) {
  std::vector<std::vector<std::byte>> frames(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    encodeFrame(frames[i], i, 7, makeWindow(i));
  }
  return frames;
}

struct SeqSink final : WindowSink {
  std::vector<std::uint32_t> seqs;
  void onWindow(const EventPacket& /*window*/, std::uint32_t seq,
                TimeUs /*ingestTime*/) override {
    seqs.push_back(seq);
  }
};

struct CellResult {
  SessionCounters counters;
  SessionState state = SessionState::kSyncing;
  std::vector<std::uint32_t> seqs;
  TimeUs maxLatency = 0;
};

/// Replay delivery chunks on a virtual ingest clock: time advances by
/// each chunk's delay, the consumer drains at every window boundary
/// (before the next offer), and once more at the end.
CellResult runCell(const std::vector<DeliveryChunk>& chunks,
                   const NodeConfig& config) {
  SensorSession session(7, config);
  SeqSink sink;
  TimeUs now = 0;
  for (const DeliveryChunk& chunk : chunks) {
    now += chunk.delayUs;
    if (chunk.delayUs > 0) {
      (void)session.drainInto(sink, now);
    }
    session.offerBytes(chunk.bytes, now);
  }
  (void)session.drainInto(sink, now + kWindow);
  CellResult r;
  r.counters = session.counters();
  r.state = session.state();
  r.seqs = sink.seqs;
  for (const TimeUs latency : session.latencySamples()) {
    r.maxLatency = std::max(r.maxLatency, latency);
  }
  return r;
}

CellResult runScripted(FaultKind kind, BackpressurePolicy policy) {
  FaultInjector injector(42);
  injector.script({kind, kFaultFrame});
  const std::vector<std::vector<std::byte>> frames = pristineFrames(kFrames);
  return runCell(injector.corrupt(frames), matrixConfig(policy));
}

/// Accounting that must hold in every cell once the queue is drained.
void expectConservation(const SessionCounters& c) {
  EXPECT_EQ(c.framesAccepted, c.windowsDelivered + c.windowsShedStale +
                                  c.windowsShedOverload + c.windowsRejected);
  EXPECT_EQ(c.framesDecoded,
            c.framesAccepted + c.outOfOrderDropped + c.timestampRegressions);
}

void expectStrictlyIncreasing(const std::vector<std::uint32_t>& seqs) {
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_LT(seqs[i - 1], seqs[i]);
  }
}

constexpr BackpressurePolicy kPolicies[] = {
    BackpressurePolicy::kDropOldestWindow, BackpressurePolicy::kRejectPacket};

TEST(NodeFaultMatrixTest, CleanStreamIsLossless) {
  for (const BackpressurePolicy policy : kPolicies) {
    FaultInjector injector(42);  // no script, no profile: passthrough
    const std::vector<std::vector<std::byte>> frames = pristineFrames(kFrames);
    const CellResult r = runCell(injector.corrupt(frames),
                                 matrixConfig(policy));
    EXPECT_EQ(r.counters.bytesOffered, kFrames * kFrameBytes);
    EXPECT_EQ(r.counters.framesDecoded, kFrames);
    EXPECT_EQ(r.counters.framesAccepted, kFrames);
    EXPECT_EQ(r.counters.windowsDelivered, kFrames);
    EXPECT_EQ(r.counters.framesCorrupted, 0U);
    EXPECT_EQ(r.counters.resyncs, 0U);
    EXPECT_EQ(r.counters.seqGaps, 0U);
    EXPECT_EQ(r.counters.outOfOrderDropped, 0U);
    EXPECT_EQ(r.counters.timestampRegressions, 0U);
    EXPECT_EQ(r.counters.windowsRejected, 0U);
    EXPECT_EQ(r.counters.windowsShedStale, 0U);
    EXPECT_EQ(r.counters.watchdogStalls, 0U);
    EXPECT_EQ(r.counters.degradeEntries, 0U);
    EXPECT_EQ(r.state, SessionState::kStreaming);
    // One window of pipeline lag, exactly, for every window.
    EXPECT_EQ(r.maxLatency, kWindow);
    expectStrictlyIncreasing(r.seqs);
    expectConservation(r.counters);
  }
}

TEST(NodeFaultMatrixTest, TruncatedFrameIsResyncedPast) {
  for (const BackpressurePolicy policy : kPolicies) {
    const CellResult r = runScripted(FaultKind::kTruncate, policy);
    EXPECT_EQ(r.counters.bytesOffered, 9 * kFrameBytes + kFrameBytes / 2);
    EXPECT_EQ(r.counters.framesDecoded, 9U);
    EXPECT_EQ(r.counters.framesCorrupted, 1U);
    EXPECT_EQ(r.counters.resyncs, 1U);
    EXPECT_EQ(r.counters.bytesSkipped, kFrameBytes / 2);
    EXPECT_EQ(r.counters.framesAccepted, 9U);
    EXPECT_EQ(r.counters.seqGaps, 1U);
    EXPECT_EQ(r.counters.framesLostToGaps, 1U);
    EXPECT_EQ(r.counters.windowsDelivered, 9U);
    EXPECT_EQ(r.state, SessionState::kStreaming);
    expectStrictlyIncreasing(r.seqs);
    expectConservation(r.counters);
  }
}

TEST(NodeFaultMatrixTest, BitFlipIsCaughtByCrcAndResyncedPast) {
  for (const BackpressurePolicy policy : kPolicies) {
    const CellResult r = runScripted(FaultKind::kBitFlip, policy);
    EXPECT_EQ(r.counters.bytesOffered, kFrames * kFrameBytes);
    EXPECT_EQ(r.counters.framesDecoded, 9U);
    EXPECT_EQ(r.counters.framesCorrupted, 1U);
    EXPECT_EQ(r.counters.resyncs, 1U);
    EXPECT_EQ(r.counters.bytesSkipped, kFrameBytes);
    EXPECT_EQ(r.counters.framesAccepted, 9U);
    EXPECT_EQ(r.counters.seqGaps, 1U);
    EXPECT_EQ(r.counters.framesLostToGaps, 1U);
    EXPECT_EQ(r.state, SessionState::kStreaming);
    expectStrictlyIncreasing(r.seqs);
    expectConservation(r.counters);
  }
}

TEST(NodeFaultMatrixTest, DuplicateFrameIsDroppedNotRedelivered) {
  for (const BackpressurePolicy policy : kPolicies) {
    const CellResult r = runScripted(FaultKind::kDuplicate, policy);
    EXPECT_EQ(r.counters.bytesOffered, (kFrames + 1) * kFrameBytes);
    EXPECT_EQ(r.counters.framesDecoded, 11U);
    EXPECT_EQ(r.counters.framesAccepted, 10U);
    EXPECT_EQ(r.counters.outOfOrderDropped, 1U);
    EXPECT_EQ(r.counters.seqGaps, 0U);
    EXPECT_EQ(r.counters.windowsDelivered, 10U);
    EXPECT_EQ(r.state, SessionState::kStreaming);
    expectStrictlyIncreasing(r.seqs);
    expectConservation(r.counters);
  }
}

TEST(NodeFaultMatrixTest, ReorderedFrameDeliversSuccessorDropsStraggler) {
  for (const BackpressurePolicy policy : kPolicies) {
    const CellResult r = runScripted(FaultKind::kReorder, policy);
    EXPECT_EQ(r.counters.framesDecoded, 10U);
    EXPECT_EQ(r.counters.framesAccepted, 9U);
    EXPECT_EQ(r.counters.seqGaps, 1U);
    EXPECT_EQ(r.counters.framesLostToGaps, 1U);
    EXPECT_EQ(r.counters.outOfOrderDropped, 1U);
    EXPECT_EQ(r.counters.timestampRegressions, 0U);
    EXPECT_EQ(r.counters.windowsDelivered, 9U);
    EXPECT_EQ(r.state, SessionState::kStreaming);
    expectStrictlyIncreasing(r.seqs);
    expectConservation(r.counters);
  }
}

TEST(NodeFaultMatrixTest, DroppedFrameIsOneGapNothingElse) {
  for (const BackpressurePolicy policy : kPolicies) {
    const CellResult r = runScripted(FaultKind::kDrop, policy);
    EXPECT_EQ(r.counters.bytesOffered, 9 * kFrameBytes);
    EXPECT_EQ(r.counters.framesDecoded, 9U);
    EXPECT_EQ(r.counters.framesCorrupted, 0U);
    EXPECT_EQ(r.counters.framesAccepted, 9U);
    EXPECT_EQ(r.counters.seqGaps, 1U);
    EXPECT_EQ(r.counters.framesLostToGaps, 1U);
    EXPECT_EQ(r.counters.windowsDelivered, 9U);
    EXPECT_EQ(r.state, SessionState::kStreaming);
    expectStrictlyIncreasing(r.seqs);
    expectConservation(r.counters);
  }
}

TEST(NodeFaultMatrixTest, TimestampRegressionIsRejectedWithoutSeqGap) {
  for (const BackpressurePolicy policy : kPolicies) {
    const CellResult r = runScripted(FaultKind::kTimestampRegress, policy);
    EXPECT_EQ(r.counters.framesDecoded, 10U);
    EXPECT_EQ(r.counters.framesCorrupted, 0U);  // CRC was refreshed
    EXPECT_EQ(r.counters.framesAccepted, 9U);
    EXPECT_EQ(r.counters.timestampRegressions, 1U);
    // The sequence number was genuine, so no gap is charged and the next
    // frame is accepted seamlessly.
    EXPECT_EQ(r.counters.seqGaps, 0U);
    EXPECT_EQ(r.counters.wrapEpochs, 0U);
    EXPECT_EQ(r.counters.windowsDelivered, 9U);
    EXPECT_EQ(r.state, SessionState::kStreaming);
    expectStrictlyIncreasing(r.seqs);
    expectConservation(r.counters);
  }
}

TEST(NodeFaultMatrixTest, BurstFloodDegradesAndPoliciesDiverge) {
  // 8 flood copies (seq 5..12) arrive in the same instant as frame 4:
  // the queue (capacity 4) fills with {4,5,6,7}, rejects 5 at the tail,
  // and the 5 genuine frames 5..9 are then behind seq 13 -> dropped.
  // The fault streak drives STREAMING -> DEGRADED.
  {
    const CellResult r =
        runScripted(FaultKind::kBurstFlood, BackpressurePolicy::kDropOldestWindow);
    EXPECT_EQ(r.counters.framesDecoded, 18U);
    EXPECT_EQ(r.counters.framesAccepted, 13U);
    EXPECT_EQ(r.counters.outOfOrderDropped, 5U);
    EXPECT_EQ(r.counters.windowsRejected, 5U);
    EXPECT_EQ(r.counters.seqGaps, 0U);
    EXPECT_EQ(r.counters.degradeEntries, 1U);
    EXPECT_EQ(r.counters.recoveries, 0U);
    EXPECT_EQ(r.state, SessionState::kDegraded);
    // Freshness policy: of the burst backlog {4,5,6,7} only the two
    // newest windows run; the stale head is shed.
    EXPECT_EQ(r.counters.windowsShedStale, 2U);
    EXPECT_EQ(r.counters.windowsDelivered, 6U);
    EXPECT_EQ(r.seqs, (std::vector<std::uint32_t>{0, 1, 2, 3, 6, 7}));
    expectConservation(r.counters);
  }
  {
    const CellResult r =
        runScripted(FaultKind::kBurstFlood, BackpressurePolicy::kRejectPacket);
    EXPECT_EQ(r.counters.framesDecoded, 18U);
    EXPECT_EQ(r.counters.framesAccepted, 13U);
    EXPECT_EQ(r.counters.outOfOrderDropped, 5U);
    EXPECT_EQ(r.counters.windowsRejected, 5U);
    EXPECT_EQ(r.counters.degradeEntries, 1U);
    EXPECT_EQ(r.state, SessionState::kDegraded);
    // Completeness policy: everything that made it into the queue runs.
    EXPECT_EQ(r.counters.windowsShedStale, 0U);
    EXPECT_EQ(r.counters.windowsDelivered, 8U);
    EXPECT_EQ(r.seqs, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
    expectConservation(r.counters);
  }
}

TEST(NodeFaultMatrixTest, StallTripsWatchdogThenRecovers) {
  for (const BackpressurePolicy policy : kPolicies) {
    const CellResult r = runScripted(FaultKind::kStall, policy);
    EXPECT_EQ(r.counters.watchdogStalls, 1U);
    EXPECT_EQ(r.counters.recoveries, 1U);
    EXPECT_EQ(r.counters.framesDecoded, 10U);
    // The stall re-armed synchronisation, so the returning stream is
    // adopted in full: no gap, no regression, nothing lost.
    EXPECT_EQ(r.counters.framesAccepted, 10U);
    EXPECT_EQ(r.counters.seqGaps, 0U);
    EXPECT_EQ(r.counters.timestampRegressions, 0U);
    EXPECT_EQ(r.counters.windowsDelivered, 10U);
    EXPECT_EQ(r.state, SessionState::kStreaming);
    // The window queued just before the silence waited out the whole
    // 1 s stall plus its own window of lag.
    EXPECT_EQ(r.maxLatency, 1'000'000 + kWindow);
    expectStrictlyIncreasing(r.seqs);
    expectConservation(r.counters);
  }
}

TEST(NodeFaultMatrixTest, RepeatedCorruptionQuarantines) {
  NodeConfig config = matrixConfig(BackpressurePolicy::kDropOldestWindow);
  config.quarantineResyncLimit = 2;
  FaultInjector injector(42);
  injector.script({FaultKind::kBitFlip, 2});
  injector.script({FaultKind::kBitFlip, 6});
  const std::vector<std::vector<std::byte>> frames = pristineFrames(kFrames);
  const CellResult r = runCell(injector.corrupt(frames), config);

  EXPECT_EQ(r.state, SessionState::kQuarantined);
  EXPECT_EQ(r.counters.resyncs, 2U);
  EXPECT_EQ(r.counters.framesCorrupted, 2U);
  // Frames 0,1 + 3,4,5 made it through before the budget ran out at
  // frame 6; frames 7..9 were never even parsed.
  EXPECT_EQ(r.counters.framesAccepted, 5U);
  EXPECT_EQ(r.counters.windowsDelivered, 5U);
  EXPECT_EQ(r.counters.bytesOffered, 7 * kFrameBytes);
  EXPECT_EQ(r.counters.bytesIgnoredQuarantined, 3 * kFrameBytes);
  expectStrictlyIncreasing(r.seqs);
  expectConservation(r.counters);
}

TEST(NodeFaultFuzz, SeededProfilesPreserveInvariants) {
  int seeds = 10;
  if (const char* env = std::getenv("EBBIOT_NODE_FUZZ_SEEDS")) {
    seeds = std::atoi(env);
  }
  FaultProfile profile;
  profile.truncateProb = 0.08;
  profile.bitFlipProb = 0.08;
  profile.duplicateProb = 0.08;
  profile.reorderProb = 0.08;
  profile.dropProb = 0.08;
  profile.regressProb = 0.05;
  profile.floodProb = 0.04;
  profile.stallProb = 0.02;

  for (int seed = 1; seed <= seeds; ++seed) {
    for (const BackpressurePolicy policy : kPolicies) {
      NodeConfig config = matrixConfig(policy);
      // Keep the session out of quarantine so the conservation law over
      // decoded frames stays exact (quarantine discards mid-flight).
      config.quarantineResyncLimit = 1'000;
      FaultInjector injector(static_cast<std::uint64_t>(seed));
      injector.setProfile(profile);
      // Every third seed also splinters the stream into 17-byte chunks
      // to fuzz reassembly along with the faults.
      if (seed % 3 == 0) {
        injector.setChunkBytes(17);
      }
      const std::vector<std::vector<std::byte>> frames = pristineFrames(50);
      const std::vector<DeliveryChunk> chunks = injector.corrupt(frames);
      std::uint64_t offered = 0;
      for (const DeliveryChunk& chunk : chunks) {
        offered += chunk.bytes.size();
      }
      const CellResult r = runCell(chunks, config);
      EXPECT_EQ(r.counters.bytesOffered +
                    r.counters.bytesIgnoredQuarantined,
                offered)
          << "seed " << seed;
      EXPECT_NE(r.state, SessionState::kQuarantined) << "seed " << seed;
      expectConservation(r.counters);
      // Delivery order is sacrosanct unless a stall re-based the
      // sequence space.
      if (r.counters.watchdogStalls == 0) {
        expectStrictlyIncreasing(r.seqs);
      }
    }
  }
}

// ---- timestamp wrap end-to-end -------------------------------------

/// Adapter shifting an inner stream by a constant offset, to park a
/// recording on either side of the 32-bit wire-timestamp wrap.
class ShiftedSource final : public EventSource {
 public:
  ShiftedSource(EventSource& inner, TimeUs offset)
      : inner_(inner), offset_(offset) {}

  [[nodiscard]] EventPacket nextWindow(TimeUs duration) override {
    const EventPacket w = inner_.nextWindow(duration);
    EventPacket shifted(w.tStart() + offset_, w.tEnd() + offset_);
    for (const Event& e : w) {
      Event s = e;
      s.t += offset_;
      shifted.push(s);
    }
    return shifted;
  }
  [[nodiscard]] TimeUs now() const override { return inner_.now() + offset_; }
  [[nodiscard]] int width() const override { return inner_.width(); }
  [[nodiscard]] int height() const override { return inner_.height(); }

 private:
  EventSource& inner_;
  TimeUs offset_;
};

TEST(TimestampWrapE2ETest, TracksBitIdenticalAcrossWrap) {
  constexpr int kWindows = 20;
  constexpr TimeUs kFrame = kDefaultFramePeriodUs;
  // Same scripted scene either far from the wrap or straddling it
  // (the wrap lands between windows 9 and 10).
  const TimeUs offsets[2] = {10 * kFrame,
                             (TimeUs{1} << 32) - 10 * kFrame};
  std::vector<Tracks> perRun[2];
  std::uint64_t wrapEpochs[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    ScriptedScene scene(240, 180);
    scene.addLinear(ObjectClass::kCar, BBox{10, 60, 48, 22}, Vec2f{60, 0}, 0,
                    secondsToUs(10.0));
    EventSynthConfig synthConfig;
    synthConfig.backgroundActivityHz = 0.3;
    synthConfig.seed = 21;
    FastEventSynth synth(scene, synthConfig);
    ShiftedSource shifted(synth, offsets[run]);
    FramedReplaySource framed(shifted, NodeConfig{});
    EbbiotPipeline pipeline{EbbiotPipelineConfig{}};
    for (int w = 0; w < kWindows; ++w) {
      const EventPacket window = framed.nextWindow(kFrame);
      const EventPacket latched = latchReadout(window, 240, 180);
      perRun[run].push_back(pipeline.processWindow(latched));
    }
    wrapEpochs[run] = framed.session().counters().wrapEpochs;
    EXPECT_EQ(framed.session().counters().framesAccepted,
              static_cast<std::uint64_t>(kWindows));
    EXPECT_EQ(framed.session().counters().timestampRegressions, 0U);
  }
  // The second run really crossed the wrap; the first never did.
  EXPECT_EQ(wrapEpochs[0], 0U);
  EXPECT_EQ(wrapEpochs[1], 1U);
  // And the tracker output is bit-identical window for window.
  ASSERT_EQ(perRun[0].size(), perRun[1].size());
  for (std::size_t w = 0; w < perRun[0].size(); ++w) {
    EXPECT_EQ(perRun[0][w], perRun[1][w]) << "window " << w;
  }
}

// ---- clean-stream equivalence --------------------------------------

void expectSameStats(const PipelineRunStats& a, const PipelineRunStats& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.filteredEventsPerFrame, b.filteredEventsPerFrame);
  EXPECT_EQ(a.totalOps.compares, b.totalOps.compares);
  EXPECT_EQ(a.totalOps.adds, b.totalOps.adds);
  EXPECT_EQ(a.totalOps.multiplies, b.totalOps.multiplies);
  EXPECT_EQ(a.totalOps.memWrites, b.totalOps.memWrites);
  EXPECT_EQ(a.totalOps.memReads, b.totalOps.memReads);
  ASSERT_EQ(a.counts.size(), b.counts.size());
  for (std::size_t i = 0; i < a.counts.size(); ++i) {
    EXPECT_EQ(a.counts[i].truePositives, b.counts[i].truePositives);
    EXPECT_EQ(a.counts[i].predictions, b.counts[i].predictions);
    EXPECT_EQ(a.counts[i].groundTruths, b.counts[i].groundTruths);
  }
}

TEST(CleanStreamEquivalenceTest, SessionLayerAddsNothingToHealthyStream) {
  const RecordingSpec spec = scaledRecording(makeSyntheticEng(3), 0.004);
  const RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  const TimeUs duration = secondsToUs(spec.durationS);

  Recording direct = openRecording(spec);
  const RunResult raw =
      runRecording(*direct.source, *direct.scenario, duration, config);

  Recording replay = openRecording(spec);
  FramedReplaySource framed(*replay.source, NodeConfig{});
  const RunResult viaNode =
      runRecording(framed, *replay.scenario, duration, config);

  // The session carried every window, untouched.
  const SessionCounters c = framed.session().counters();
  EXPECT_EQ(c.framesAccepted, static_cast<std::uint64_t>(viaNode.frames));
  EXPECT_EQ(c.windowsDelivered, c.framesAccepted);
  EXPECT_EQ(c.framesCorrupted, 0U);
  EXPECT_EQ(c.windowsRejected, 0U);
  EXPECT_EQ(c.windowsShedStale, 0U);

  // And the run result is bit-identical, field by field.
  EXPECT_EQ(raw.thresholds, viaNode.thresholds);
  EXPECT_EQ(raw.frames, viaNode.frames);
  EXPECT_EQ(raw.gtTracks, viaNode.gtTracks);
  EXPECT_EQ(raw.gtBoxes, viaNode.gtBoxes);
  EXPECT_EQ(raw.streamEvents, viaNode.streamEvents);
  EXPECT_EQ(raw.latchedEvents, viaNode.latchedEvents);
  EXPECT_EQ(raw.meanAlpha, viaNode.meanAlpha);
  EXPECT_EQ(raw.meanBeta, viaNode.meanBeta);
  EXPECT_EQ(raw.meanEventsPerFrame, viaNode.meanEventsPerFrame);
  ASSERT_EQ(raw.pipelines.size(), viaNode.pipelines.size());
  for (std::size_t i = 0; i < raw.pipelines.size(); ++i) {
    expectSameStats(raw.pipelines[i], viaNode.pipelines[i]);
  }
}

}  // namespace
}  // namespace ebbiot
