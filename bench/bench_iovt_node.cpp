// IoVT node budget and ingest resilience — the paper's motivating
// numbers, made concrete, plus the fault tolerance of the node ingest
// layer (src/node/) that feeds those pipelines.
//
// Section 1 (budget): for each processing + transmission policy, reports
// duty cycle, energy per frame, mean node power, uplink bandwidth and
// battery life on a Cortex-M-class node (see src/core/node_model.hpp):
//
//   * EBBIOT, transmit tracks            (the paper's design point)
//   * EBBIOT, transmit EBBI frames       (edge detection, raw-ish frames)
//   * NN-filt + EBMS, transmit tracks    (event-domain baseline)
//   * no processing, transmit raw events (stream everything)
//   * frame camera + CNN, transmit boxes (the ">1000X" strawman)
//
// Workloads are measured from SyntheticENG traffic, not assumed.
//
// Section 2 (resilience sweep): {1, 8, 32} sensor streams per node ×
// {clean, bitflip, truncate, flood, stall} seeded fault profiles driven
// through NodeSupervisor/SensorSession on a virtual ingest clock.
// Reports delivered/dropped windows, corruption and resync counts, and
// p50/p99 drain latency per cell, plus the steady-state allocation count
// of the session hot path (pinned to zero by tests/test_allocation.cpp).
// Section 3 (live cells): the same ingest layer under REAL producer
// threads — LiveTransport drives {64, 256, 1024} concurrent lossless
// streams against a scaled wall clock while the supervisor pumps on the
// bench thread.  Delivery counters stay exactly deterministic (lossless
// + reject policy: every window delivered exactly once); only wall time
// and wait counts vary across hosts.
//
// Section 4 (accuracy under fault): per-sensor tracking pipelines
// (PipelineSink, gap-coast + snapshot resync) fed through each fault
// profile on the virtual clock, scored as matched-track recall against
// the fault-free run of the same windows (greedy IoU matching).  Clean
// recall is 1.0 by construction — bit-identical delivery — and each
// fault profile's degradation is measured, committed, and gated.
//
// `--json PATH` additionally emits the sweep as BENCH_node.json for
// tools/bench_node_gate.py; all counters are seed-deterministic, only
// the wall-clock column varies across hosts.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/alloc_counter.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/node_model.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/runner.hpp"
#include "src/eval/matching.hpp"
#include "src/node/fault_injection.hpp"
#include "src/node/live_transport.hpp"
#include "src/node/node_supervisor.hpp"
#include "src/node/pipeline_sink.hpp"
#include "src/node/wire_format.hpp"
#include "src/resource/cost_model.hpp"
#include "src/sim/davis.hpp"
#include "src/sim/event_synth.hpp"
#include "src/sim/recording.hpp"
#include "src/sim/scene.hpp"

namespace {

using namespace ebbiot;

void printRow(const char* name, const NodeBudget& b) {
  std::printf("%-26s %9.2f%% %12.1f %10.2f %12.0f %12.0f%s\n", name,
              b.dutyCycle * 100.0,
              b.processorEnergyUjPerFrame + b.radioEnergyUjPerFrame +
                  b.sensorEnergyUjPerFrame,
              b.meanPowerMw, b.bandwidthBps, b.batteryLifeHours,
              b.feasible ? "" : "  [INFEASIBLE]");
}

// ---- resilience sweep ----------------------------------------------

constexpr TimeUs kSweepWindowUs = 10'000;
constexpr std::uint32_t kSweepFramesPerStream = 256;
constexpr std::uint32_t kSweepEventsPerFrame = 48;

/// Counting sink: the sweep cares about delivery totals, not contents.
struct CountingSink final : WindowSink {
  std::uint64_t windows = 0;
  std::uint64_t events = 0;
  void onWindow(const EventPacket& window, std::uint32_t /*seq*/,
                TimeUs /*ingestTime*/) override {
    ++windows;
    events += window.size();
  }
};

/// Deterministic pristine stream for sensor `sensorId`: dense in-bounds
/// windows at the sweep cadence (closed-form, no RNG, so every cell's
/// input is identical across hosts).
std::vector<std::vector<std::byte>> makePristineFrames(
    std::uint16_t sensorId,
    std::uint32_t frameCount = kSweepFramesPerStream) {
  std::vector<std::vector<std::byte>> frames;
  frames.reserve(frameCount);
  for (std::uint32_t seq = 0; seq < frameCount; ++seq) {
    const TimeUs tStart = static_cast<TimeUs>(seq) * kSweepWindowUs;
    EventPacket window(tStart, tStart + kSweepWindowUs);
    for (std::uint32_t j = 0; j < kSweepEventsPerFrame; ++j) {
      Event e;
      e.x = static_cast<std::uint16_t>((sensorId * 13 + seq + 5 * j) % 240);
      e.y = static_cast<std::uint16_t>((sensorId * 7 + 3 * seq + j) % 180);
      e.p = (seq + j) % 2 == 0 ? Polarity::kOn : Polarity::kOff;
      e.t = tStart + static_cast<TimeUs>(j) * 150;
      window.push(e);
    }
    std::vector<std::byte> bytes;
    encodeFrame(bytes, seq, sensorId, window);
    frames.push_back(std::move(bytes));
  }
  return frames;
}

struct SweepProfile {
  const char* name;
  FaultProfile profile;
};

std::vector<SweepProfile> sweepProfiles() {
  std::vector<SweepProfile> out;
  out.push_back({"clean", {}});
  {
    FaultProfile p;
    p.bitFlipProb = 0.05;
    out.push_back({"bitflip", p});
  }
  {
    FaultProfile p;
    p.truncateProb = 0.05;
    out.push_back({"truncate", p});
  }
  {
    FaultProfile p;
    p.floodProb = 0.02;
    out.push_back({"flood", p});
  }
  {
    FaultProfile p;
    p.stallProb = 0.02;
    out.push_back({"stall", p});
  }
  return out;
}

struct CellResult {
  const char* profile = "";
  int streams = 0;
  SessionCounters totals;            ///< summed across sessions
  std::uint64_t sinkWindows = 0;     ///< delivered as seen by the sinks
  std::size_t quarantined = 0;       ///< sessions in the terminal state
  TimeUs p50LatencyUs = 0;
  TimeUs p99LatencyUs = 0;
  double wallNsPerWindow = 0.0;      ///< host-dependent; not gated
};

SessionCounters& operator+=(SessionCounters& a, const SessionCounters& b) {
  a.bytesOffered += b.bytesOffered;
  a.bytesDroppedOverflow += b.bytesDroppedOverflow;
  a.bytesSkipped += b.bytesSkipped;
  a.resyncs += b.resyncs;
  a.framesCorrupted += b.framesCorrupted;
  a.framesDecoded += b.framesDecoded;
  a.framesAccepted += b.framesAccepted;
  a.seqGaps += b.seqGaps;
  a.framesLostToGaps += b.framesLostToGaps;
  a.outOfOrderDropped += b.outOfOrderDropped;
  a.timestampRegressions += b.timestampRegressions;
  a.wrapEpochs += b.wrapEpochs;
  a.windowsRejected += b.windowsRejected;
  a.bytesIgnoredQuarantined += b.bytesIgnoredQuarantined;
  a.watchdogStalls += b.watchdogStalls;
  a.degradeEntries += b.degradeEntries;
  a.recoveryAttempts += b.recoveryAttempts;
  a.recoveryFailures += b.recoveryFailures;
  a.recoveries += b.recoveries;
  a.windowsDelivered += b.windowsDelivered;
  a.windowsShedStale += b.windowsShedStale;
  a.windowsShedOverload += b.windowsShedOverload;
  return a;
}

TimeUs percentile(const std::vector<TimeUs>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const auto last = sorted.size() - 1;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(last) + 0.5);
  return sorted[std::min(idx, last)];
}

/// Drive one (profile × streams) cell on a virtual ingest clock: chunks
/// are delivered in global time order, the supervisor pumps and ticks
/// watchdogs once per window period (including across stall gaps, so
/// the watchdog/recovery path runs exactly as it would live).
///
/// Two deterministic realism knobs keep the latency distribution honest
/// (without them every sample is exactly one period — ingest and drain
/// both land on pump boundaries and the percentiles degenerate to
/// p50 == p99):
///   * each stream starts at a fixed phase offset inside the window
///     period, as unsynchronised sensors do, so queue waits spread over
///     (0, period];
///   * every 16th pump boundary the consumer skips its drain (a
///     deterministic stand-in for scheduler/GC hiccups), so a slice of
///     windows waits into the second period and the tail is real.
CellResult runCell(const SweepProfile& sweep, int streams,
                   std::size_t cellIndex, ThreadPool& pool) {
  NodeConfig config;
  config.watchdogTimeoutUs = 200'000;  // well under the 1 s stall gap
  NodeSupervisor supervisor(config, pool);

  std::vector<CountingSink> sinks(static_cast<std::size_t>(streams));
  struct Feed {
    std::vector<DeliveryChunk> chunks;
    std::size_t next = 0;
    TimeUs dueAt = 0;
  };
  std::vector<Feed> feeds(static_cast<std::size_t>(streams));
  for (int s = 0; s < streams; ++s) {
    const auto id = static_cast<std::uint16_t>(s);
    supervisor.addSensor({id, /*priority=*/s % 4, &sinks[static_cast<
        std::size_t>(s)]});
    FaultInjector injector(0x5EED0000ull + cellIndex * 977ull +
                           static_cast<std::uint64_t>(s));
    injector.setProfile(sweep.profile);
    const auto pristine = makePristineFrames(id);
    Feed& feed = feeds[static_cast<std::size_t>(s)];
    feed.chunks = injector.corrupt(pristine);
    // Fixed per-stream phase inside the window period (2611 is coprime
    // to the 10 ms period, so 32 streams land on 32 distinct phases).
    const TimeUs phase =
        (static_cast<TimeUs>(s) * 2611) % kSweepWindowUs;
    feed.dueAt =
        phase + (feed.chunks.empty() ? 0 : feed.chunks.front().delayUs);
  }

  const auto t0 = std::chrono::steady_clock::now();
  TimeUs now = 0;
  TimeUs lastPump = 0;
  std::uint64_t pumpTick = 0;
  for (;;) {
    int nextStream = -1;
    for (int s = 0; s < streams; ++s) {
      const Feed& feed = feeds[static_cast<std::size_t>(s)];
      if (feed.next >= feed.chunks.size()) {
        continue;
      }
      if (nextStream < 0 ||
          feed.dueAt < feeds[static_cast<std::size_t>(nextStream)].dueAt) {
        nextStream = s;
      }
    }
    if (nextStream < 0) {
      break;
    }
    Feed& feed = feeds[static_cast<std::size_t>(nextStream)];
    const TimeUs target = std::max(now, feed.dueAt);
    while (lastPump + kSweepWindowUs <= target) {
      lastPump += kSweepWindowUs;
      supervisor.tickWatchdogs(lastPump);
      // Deterministic consumer hiccup: skip one drain in every 16.  The
      // backlog (bounded by queueCapacity) is drained next boundary, so
      // nothing is lost, but those windows wait into a second period.
      if (++pumpTick % 16 != 7) {
        (void)supervisor.pump(lastPump);
      }
    }
    now = target;
    supervisor.offerBytes(static_cast<std::uint16_t>(nextStream),
                          feed.chunks[feed.next].bytes, now);
    ++feed.next;
    if (feed.next < feed.chunks.size()) {
      feed.dueAt = now + feed.chunks[feed.next].delayUs;
    }
  }
  now += kSweepWindowUs;
  supervisor.tickWatchdogs(now);
  (void)supervisor.pump(now);
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  CellResult result;
  result.profile = sweep.name;
  result.streams = streams;
  std::vector<TimeUs> latencies;
  for (int s = 0; s < streams; ++s) {
    SensorSession* session = supervisor.find(static_cast<std::uint16_t>(s));
    result.totals += session->counters();
    if (session->state() == SessionState::kQuarantined) {
      ++result.quarantined;
    }
    const auto samples = session->latencySamples();
    latencies.insert(latencies.end(), samples.begin(), samples.end());
    result.sinkWindows += sinks[static_cast<std::size_t>(s)].windows;
  }
  std::sort(latencies.begin(), latencies.end());
  result.p50LatencyUs = percentile(latencies, 0.50);
  result.p99LatencyUs = percentile(latencies, 0.99);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      elapsed).count();
  result.wallNsPerWindow =
      result.totals.windowsDelivered == 0
          ? 0.0
          : static_cast<double>(ns) /
                static_cast<double>(result.totals.windowsDelivered);
  return result;
}

/// Steady-state allocations per window of the single-session hot path
/// (offerBytes -> decode -> queue -> drainInto), after warm-up.  Returns
/// -1 when the counter is disabled (sanitizer builds).
double measureSteadyAllocsPerWindow() {
#ifdef EBBIOT_ALLOC_COUNTER_DISABLED
  return -1.0;
#else
  NodeConfig config;
  SensorSession session(1, config);
  CountingSink sink;
  const auto frames = makePristineFrames(1);
  constexpr std::uint32_t kWarm = 32;
  std::uint32_t seq = 0;
  for (; seq < kWarm; ++seq) {
    session.offerBytes(frames[seq],
                       static_cast<TimeUs>(seq + 1) * kSweepWindowUs);
    (void)session.drainInto(sink,
                            static_cast<TimeUs>(seq + 1) * kSweepWindowUs);
  }
  const std::uint64_t before = gAllocationCount.load();
  for (; seq < kSweepFramesPerStream; ++seq) {
    session.offerBytes(frames[seq],
                       static_cast<TimeUs>(seq + 1) * kSweepWindowUs);
    (void)session.drainInto(sink,
                            static_cast<TimeUs>(seq + 1) * kSweepWindowUs);
  }
  const std::uint64_t after = gAllocationCount.load();
  return static_cast<double>(after - before) /
         static_cast<double>(kSweepFramesPerStream - kWarm);
#endif
}

// ---- live real-thread cells ----------------------------------------

constexpr std::uint32_t kLiveFramesPerStream = 64;

struct LiveCellResult {
  int streams = 0;
  int producerThreads = 0;
  std::uint64_t chunksDelivered = 0;
  std::uint64_t windowsDelivered = 0;  ///< summed session counters
  std::uint64_t framesAccepted = 0;
  std::uint64_t windowsRejected = 0;
  std::uint64_t losslessWaits = 0;  ///< host-dependent; not gated
  std::size_t quarantined = 0;
  double wallSeconds = 0.0;  ///< host-dependent; not gated
};

/// One clean lossless cell over real producer threads: every window is
/// delivered exactly once (kRejectPacket + lossless backpressure), so
/// the delivery counters are exact across hosts even though thread
/// scheduling is not.
LiveCellResult runLiveCell(int streams, ThreadPool& pool) {
  NodeConfig config;
  config.queueCapacity = 4;
  config.backpressure = BackpressurePolicy::kRejectPacket;
  // Producer scheduling is up to the OS under a scaled clock; the
  // watchdog must not mistake a preempted producer for a dead sensor.
  config.watchdogTimeoutUs = 100'000'000;
  NodeSupervisor supervisor(config, pool);

  std::vector<CountingSink> sinks(static_cast<std::size_t>(streams));
  std::vector<LiveStreamSpec> specs;
  specs.reserve(static_cast<std::size_t>(streams));
  for (int s = 0; s < streams; ++s) {
    const auto id = static_cast<std::uint16_t>(s);
    supervisor.addSensor({id, /*priority=*/s % 4,
                          &sinks[static_cast<std::size_t>(s)]});
    LiveStreamSpec spec;
    spec.sensorId = id;
    const auto frames = makePristineFrames(id, kLiveFramesPerStream);
    spec.chunks.reserve(frames.size());
    for (const std::vector<std::byte>& frame : frames) {
      spec.chunks.push_back(DeliveryChunk{frame, kSweepWindowUs});
    }
    specs.push_back(std::move(spec));
  }

  LiveTransportConfig transport;
  transport.producerThreads = 4;
  transport.timeScale = 200.0;
  transport.pumpPeriodUs = kSweepWindowUs;
  transport.lossless = true;
  LiveTransport live(supervisor, specs, transport);
  const LiveTransport::RunStats stats = live.run();

  LiveCellResult result;
  result.streams = streams;
  result.producerThreads = transport.producerThreads;
  result.chunksDelivered = stats.chunksDelivered;
  result.losslessWaits = stats.losslessWaits;
  result.wallSeconds = stats.wallSeconds;
  for (int s = 0; s < streams; ++s) {
    const SensorSession* session =
        supervisor.find(static_cast<std::uint16_t>(s));
    const SessionCounters c = session->counters();
    result.windowsDelivered += c.windowsDelivered;
    result.framesAccepted += c.framesAccepted;
    result.windowsRejected += c.windowsRejected;
    if (session->state() == SessionState::kQuarantined) {
      ++result.quarantined;
    }
  }
  return result;
}

// ---- accuracy under fault ------------------------------------------

constexpr int kAccWidth = 64;
constexpr int kAccHeight = 48;
constexpr int kAccSensors = 4;
constexpr std::uint32_t kAccFrames = 128;
constexpr float kAccIouThreshold = 0.3F;

struct AccuracyRow {
  const char* profile = "";
  std::uint64_t baselineTracks = 0;  ///< fault-free tracks over all windows
  std::uint64_t matchedTracks = 0;   ///< IoU-matched under the fault
  std::uint64_t windowsTracked = 0;  ///< windows that reached the pipeline
  std::uint64_t windowsCoasted = 0;  ///< gap windows bridged by coasting
  std::uint64_t resyncs = 0;         ///< snapshot restores + resets
  double recall = 0.0;
};

/// Tracked windows for one accuracy sensor: a car crossing the small
/// frame, synthesised deterministically per sensor seed.
std::vector<EventPacket> makeTrackedWindows(std::uint64_t seed) {
  ScriptedScene scene(kAccWidth, kAccHeight);
  scene.addLinear(ObjectClass::kCar, BBox{2, 18, 20, 10}, Vec2f{120, 0}, 0,
                  secondsToUs(10.0));
  EventSynthConfig config;
  config.backgroundActivityHz = 0.2;
  config.seed = seed;
  FastEventSynth synth(scene, config);
  std::vector<EventPacket> windows;
  windows.reserve(kAccFrames);
  for (std::uint32_t i = 0; i < kAccFrames; ++i) {
    windows.push_back(synth.nextWindow(kSweepWindowUs));
  }
  return windows;
}

EbbiotPipelineConfig accuracyPipelineConfig() {
  EbbiotPipelineConfig config;
  config.width = kAccWidth;
  config.height = kAccHeight;
  return config;
}

/// Per-window tracks of the fault-free single-threaded reference.
std::vector<Tracks> accuracyBaseline(
    const std::vector<EventPacket>& windows) {
  EbbiotPipeline pipeline(accuracyPipelineConfig());
  std::vector<Tracks> perWindow;
  perWindow.reserve(windows.size());
  for (const EventPacket& window : windows) {
    perWindow.push_back(pipeline.processWindow(
        latchReadout(window, kAccWidth, kAccHeight)));
  }
  return perWindow;
}

/// Run one fault profile over per-sensor tracking pipelines on the
/// virtual clock and score matched-track recall against the fault-free
/// baseline: every baseline track in every window either has an
/// IoU-matched counterpart in the faulted run's output for that window,
/// or counts as a miss (including windows that never arrived).
AccuracyRow runAccuracyCell(const SweepProfile& sweep,
                            const std::vector<std::vector<EventPacket>>&
                                sensorWindows,
                            const std::vector<std::vector<Tracks>>& baselines,
                            ThreadPool& pool) {
  NodeConfig config;
  config.width = kAccWidth;
  config.height = kAccHeight;
  config.watchdogTimeoutUs = 200'000;
  NodeSupervisor supervisor(config, pool);

  struct Capture {
    std::vector<std::optional<Tracks>> bySeq;
  };
  std::vector<Capture> captures(kAccSensors);
  std::vector<std::unique_ptr<PipelineSink>> sinks;
  struct Feed {
    std::vector<DeliveryChunk> chunks;
    std::size_t next = 0;
    TimeUs dueAt = 0;
  };
  std::vector<Feed> feeds(kAccSensors);
  for (int s = 0; s < kAccSensors; ++s) {
    const auto id = static_cast<std::uint16_t>(s);
    auto sink = std::make_unique<PipelineSink>(
        std::make_unique<EbbiotPipeline>(accuracyPipelineConfig()),
        kAccWidth, kAccHeight, PipelineSinkConfig{});
    Capture& capture = captures[static_cast<std::size_t>(s)];
    capture.bySeq.resize(kAccFrames);
    sink->setTrackObserver(
        [&capture](std::uint32_t seq, const Tracks& tracks) {
          if (seq < kAccFrames) {  // flood can mint fresh out-of-range seqs
            capture.bySeq[seq] = tracks;
          }
        });
    supervisor.addSensor({id, /*priority=*/0, sink.get()});
    sinks.push_back(std::move(sink));

    std::vector<std::vector<std::byte>> frames;
    frames.reserve(kAccFrames);
    const auto& windows = sensorWindows[static_cast<std::size_t>(s)];
    for (std::uint32_t seq = 0; seq < kAccFrames; ++seq) {
      std::vector<std::byte> bytes;
      encodeFrame(bytes, seq, id, windows[seq]);
      frames.push_back(std::move(bytes));
    }
    FaultInjector injector(0xACC0ull + static_cast<std::uint64_t>(s) * 613);
    injector.setProfile(sweep.profile);
    Feed& feed = feeds[static_cast<std::size_t>(s)];
    feed.chunks = injector.corrupt(frames);
    feed.dueAt = feed.chunks.empty() ? 0 : feed.chunks.front().delayUs;
  }

  // Same global time-ordered delivery loop as the resilience sweep (no
  // hiccups/phases: accuracy scoring wants clean delivery == baseline).
  TimeUs now = 0;
  TimeUs lastPump = 0;
  for (;;) {
    int nextStream = -1;
    for (int s = 0; s < kAccSensors; ++s) {
      const Feed& feed = feeds[static_cast<std::size_t>(s)];
      if (feed.next >= feed.chunks.size()) {
        continue;
      }
      if (nextStream < 0 ||
          feed.dueAt < feeds[static_cast<std::size_t>(nextStream)].dueAt) {
        nextStream = s;
      }
    }
    if (nextStream < 0) {
      break;
    }
    Feed& feed = feeds[static_cast<std::size_t>(nextStream)];
    const TimeUs target = std::max(now, feed.dueAt);
    while (lastPump + kSweepWindowUs <= target) {
      lastPump += kSweepWindowUs;
      supervisor.tickWatchdogs(lastPump);
      (void)supervisor.pump(lastPump);
    }
    now = target;
    supervisor.offerBytes(static_cast<std::uint16_t>(nextStream),
                          feed.chunks[feed.next].bytes, now);
    ++feed.next;
    if (feed.next < feed.chunks.size()) {
      feed.dueAt = now + feed.chunks[feed.next].delayUs;
    }
  }
  now += kSweepWindowUs;
  supervisor.tickWatchdogs(now);
  (void)supervisor.pump(now);

  AccuracyRow row;
  row.profile = sweep.name;
  for (int s = 0; s < kAccSensors; ++s) {
    const auto& baseline = baselines[static_cast<std::size_t>(s)];
    const auto& capture = captures[static_cast<std::size_t>(s)];
    for (std::uint32_t seq = 0; seq < kAccFrames; ++seq) {
      const Tracks& expected = baseline[seq];
      if (expected.empty()) {
        continue;
      }
      row.baselineTracks += expected.size();
      const std::optional<Tracks>& got = capture.bySeq[seq];
      if (!got.has_value() || got->empty()) {
        continue;
      }
      // Baseline tracks as ground truth, faulted tracks as predictions.
      std::vector<GtBox> gt;
      gt.reserve(expected.size());
      for (const Track& track : expected) {
        gt.push_back(GtBox{track.id, ObjectClass::kCar, track.box});
      }
      row.matchedTracks +=
          matchFrame(*got, gt, kAccIouThreshold).truePositives();
    }
    const PipelineSink::Counters sinkCounters =
        sinks[static_cast<std::size_t>(s)]->counters();
    row.windowsTracked += sinkCounters.windowsTracked;
    row.windowsCoasted += sinkCounters.windowsCoasted;
    row.resyncs += sinkCounters.resyncRestores + sinkCounters.resyncResets;
  }
  row.recall = row.baselineTracks == 0
                   ? 0.0
                   : static_cast<double>(row.matchedTracks) /
                         static_cast<double>(row.baselineTracks);
  return row;
}

void writeJson(const char* path, const std::vector<CellResult>& cells,
               const std::vector<LiveCellResult>& liveCells,
               const std::vector<AccuracyRow>& accuracy,
               double steadyAllocs) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_iovt_node\",\n");
  std::fprintf(f, "  \"frames_per_stream\": %u,\n", kSweepFramesPerStream);
  std::fprintf(f, "  \"frame_period_us\": %lld,\n",
               static_cast<long long>(kSweepWindowUs));
  if (steadyAllocs < 0.0) {
    std::fprintf(f, "  \"steady_allocs_per_window\": null,\n");
  } else {
    std::fprintf(f, "  \"steady_allocs_per_window\": %.4f,\n", steadyAllocs);
  }
  std::fprintf(f, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    const SessionCounters& t = c.totals;
    std::fprintf(
        f,
        "    {\"profile\": \"%s\", \"streams\": %d,"
        " \"frames_decoded\": %llu, \"frames_corrupted\": %llu,"
        " \"frames_accepted\": %llu, \"resyncs\": %llu,"
        " \"seq_gaps\": %llu, \"frames_lost_to_gaps\": %llu,"
        " \"out_of_order_dropped\": %llu, \"timestamp_regressions\": %llu,"
        " \"windows_delivered\": %llu, \"windows_rejected\": %llu,"
        " \"windows_shed_stale\": %llu, \"windows_shed_overload\": %llu,"
        " \"watchdog_stalls\": %llu, \"degrade_entries\": %llu,"
        " \"recovery_attempts\": %llu, \"recovery_failures\": %llu,"
        " \"recoveries\": %llu, \"sessions_quarantined\": %zu,"
        " \"p50_latency_us\": %lld, \"p99_latency_us\": %lld,"
        " \"wall_ns_per_window\": %.1f}%s\n",
        c.profile, c.streams,
        static_cast<unsigned long long>(t.framesDecoded),
        static_cast<unsigned long long>(t.framesCorrupted),
        static_cast<unsigned long long>(t.framesAccepted),
        static_cast<unsigned long long>(t.resyncs),
        static_cast<unsigned long long>(t.seqGaps),
        static_cast<unsigned long long>(t.framesLostToGaps),
        static_cast<unsigned long long>(t.outOfOrderDropped),
        static_cast<unsigned long long>(t.timestampRegressions),
        static_cast<unsigned long long>(t.windowsDelivered),
        static_cast<unsigned long long>(t.windowsRejected),
        static_cast<unsigned long long>(t.windowsShedStale),
        static_cast<unsigned long long>(t.windowsShedOverload),
        static_cast<unsigned long long>(t.watchdogStalls),
        static_cast<unsigned long long>(t.degradeEntries),
        static_cast<unsigned long long>(t.recoveryAttempts),
        static_cast<unsigned long long>(t.recoveryFailures),
        static_cast<unsigned long long>(t.recoveries), c.quarantined,
        static_cast<long long>(c.p50LatencyUs),
        static_cast<long long>(c.p99LatencyUs), c.wallNsPerWindow,
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  std::fprintf(f, "  \"live_frames_per_stream\": %u,\n",
               kLiveFramesPerStream);
  std::fprintf(f, "  \"live_cells\": [\n");
  for (std::size_t i = 0; i < liveCells.size(); ++i) {
    const LiveCellResult& c = liveCells[i];
    std::fprintf(
        f,
        "    {\"streams\": %d, \"producer_threads\": %d,"
        " \"chunks_delivered\": %llu, \"frames_accepted\": %llu,"
        " \"windows_delivered\": %llu, \"windows_rejected\": %llu,"
        " \"lossless_waits\": %llu, \"sessions_quarantined\": %zu,"
        " \"wall_seconds\": %.4f}%s\n",
        c.streams, c.producerThreads,
        static_cast<unsigned long long>(c.chunksDelivered),
        static_cast<unsigned long long>(c.framesAccepted),
        static_cast<unsigned long long>(c.windowsDelivered),
        static_cast<unsigned long long>(c.windowsRejected),
        static_cast<unsigned long long>(c.losslessWaits), c.quarantined,
        c.wallSeconds, i + 1 < liveCells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  std::fprintf(f, "  \"accuracy_under_fault\": {\n");
  std::fprintf(f, "    \"sensors\": %d,\n", kAccSensors);
  std::fprintf(f, "    \"frames\": %u,\n", kAccFrames);
  std::fprintf(f, "    \"iou_threshold\": %.2f,\n",
               static_cast<double>(kAccIouThreshold));
  std::fprintf(f, "    \"profiles\": [\n");
  for (std::size_t i = 0; i < accuracy.size(); ++i) {
    const AccuracyRow& row = accuracy[i];
    std::fprintf(
        f,
        "      {\"profile\": \"%s\", \"baseline_tracks\": %llu,"
        " \"matched_tracks\": %llu, \"windows_tracked\": %llu,"
        " \"windows_coasted\": %llu, \"resyncs\": %llu,"
        " \"recall\": %.4f}%s\n",
        row.profile, static_cast<unsigned long long>(row.baselineTracks),
        static_cast<unsigned long long>(row.matchedTracks),
        static_cast<unsigned long long>(row.windowsTracked),
        static_cast<unsigned long long>(row.windowsCoasted),
        static_cast<unsigned long long>(row.resyncs), row.recall,
        i + 1 < accuracy.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n}\n");
  std::fclose(f);
}

void runResilienceSweep(const char* jsonPath) {
  std::printf("\nIngest resilience sweep — %u frames/stream, %lld us "
              "windows, seeded fault profiles\n",
              kSweepFramesPerStream,
              static_cast<long long>(kSweepWindowUs));
  std::printf("%-10s %8s %10s %9s %9s %8s %7s %10s %10s\n", "profile",
              "streams", "delivered", "dropped", "corrupt", "resyncs",
              "stalls", "p50 us", "p99 us");
  std::printf("%.*s\n", 88,
              "----------------------------------------------------------"
              "------------------------------");
  ThreadPool pool(4);
  const auto profiles = sweepProfiles();
  std::vector<CellResult> cells;
  std::size_t cellIndex = 0;
  for (const SweepProfile& profile : profiles) {
    for (int streams : {1, 8, 32}) {
      CellResult cell = runCell(profile, streams, cellIndex++, pool);
      const SessionCounters& t = cell.totals;
      const std::uint64_t dropped = t.windowsShedStale +
                                    t.windowsShedOverload +
                                    t.windowsRejected;
      std::printf("%-10s %8d %10llu %9llu %9llu %8llu %7llu %10lld "
                  "%10lld\n",
                  cell.profile, cell.streams,
                  static_cast<unsigned long long>(t.windowsDelivered),
                  static_cast<unsigned long long>(dropped),
                  static_cast<unsigned long long>(t.framesCorrupted),
                  static_cast<unsigned long long>(t.resyncs),
                  static_cast<unsigned long long>(t.watchdogStalls),
                  static_cast<long long>(cell.p50LatencyUs),
                  static_cast<long long>(cell.p99LatencyUs));
      cells.push_back(cell);
    }
  }
  const double steadyAllocs = measureSteadyAllocsPerWindow();
  if (steadyAllocs < 0.0) {
    std::printf("\nsteady-state allocs/window: n/a (counter disabled "
                "under sanitizers)\n");
  } else {
    std::printf("\nsteady-state allocs/window (single-session hot path): "
                "%.4f\n", steadyAllocs);
  }

  std::printf("\nLive real-thread cells — %u frames/stream, lossless, "
              "4 producer threads + pump thread\n",
              kLiveFramesPerStream);
  std::printf("%-8s %10s %10s %9s %12s %10s\n", "streams", "chunks",
              "delivered", "rejected", "waits", "wall s");
  std::printf("%.*s\n", 64,
              "----------------------------------------------------------"
              "------------------------------");
  std::vector<LiveCellResult> liveCells;
  for (int streams : {64, 256, 1024}) {
    LiveCellResult cell = runLiveCell(streams, pool);
    std::printf("%-8d %10llu %10llu %9llu %12llu %10.3f\n", cell.streams,
                static_cast<unsigned long long>(cell.chunksDelivered),
                static_cast<unsigned long long>(cell.windowsDelivered),
                static_cast<unsigned long long>(cell.windowsRejected),
                static_cast<unsigned long long>(cell.losslessWaits),
                cell.wallSeconds);
    liveCells.push_back(cell);
  }

  std::printf("\nTracking accuracy under fault — %d sensors x %u windows, "
              "matched-track recall vs the fault-free run (IoU %.2f)\n",
              kAccSensors, kAccFrames,
              static_cast<double>(kAccIouThreshold));
  std::printf("%-10s %10s %10s %10s %10s %8s %8s\n", "profile", "baseline",
              "matched", "tracked", "coasted", "resyncs", "recall");
  std::printf("%.*s\n", 72,
              "----------------------------------------------------------"
              "------------------------------");
  std::vector<std::vector<EventPacket>> sensorWindows;
  std::vector<std::vector<Tracks>> baselines;
  for (int s = 0; s < kAccSensors; ++s) {
    sensorWindows.push_back(
        makeTrackedWindows(7000 + static_cast<std::uint64_t>(s)));
    baselines.push_back(accuracyBaseline(sensorWindows.back()));
  }
  std::vector<AccuracyRow> accuracy;
  for (const SweepProfile& profile : profiles) {
    AccuracyRow row =
        runAccuracyCell(profile, sensorWindows, baselines, pool);
    std::printf("%-10s %10llu %10llu %10llu %10llu %8llu %8.4f\n",
                row.profile,
                static_cast<unsigned long long>(row.baselineTracks),
                static_cast<unsigned long long>(row.matchedTracks),
                static_cast<unsigned long long>(row.windowsTracked),
                static_cast<unsigned long long>(row.windowsCoasted),
                static_cast<unsigned long long>(row.resyncs), row.recall);
    accuracy.push_back(row);
  }

  if (jsonPath != nullptr) {
    writeJson(jsonPath, cells, liveCells, accuracy, steadyAllocs);
    std::printf("wrote %s\n", jsonPath);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ebbiot;

  const char* jsonPath = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    }
  }

  // Measure the workloads on 30 s of ENG traffic.
  RecordingSpec spec = makeSyntheticEng();
  spec.durationS = 30.0;
  Recording rec = openRecording(spec);
  RunnerConfig config = makeDefaultRunnerConfig(240, 180);
  const RunResult run = runRecording(*rec.source, *rec.scenario,
                                     secondsToUs(spec.durationS), config);

  const NodePlatform node;
  const double meanTracks = 2.0;  // the paper's NT operating point

  std::printf("IoVT node budget — measured on SyntheticENG (%zu frames, "
              "%.0f raw events/frame)\n",
              run.frames, run.meanEventsPerFrame);
  std::printf("platform: %.0f MHz MCU, %.0f mW active / %.0f uW sleep, "
              "%.0f nJ/bit radio, %.0f mW sensor\n\n",
              node.clockHz / 1e6, node.activePowerMw, node.sleepPowerUw,
              node.radioEnergyPerBitNj, node.sensorPowerMw);
  std::printf("%-26s %10s %12s %10s %12s %12s\n", "policy", "duty",
              "uJ/frame", "mean mW", "uplink bps", "battery h");
  std::printf("%.*s\n", 88,
              "----------------------------------------------------------"
              "------------------------------");

  {
    NodeWorkload w;
    w.opsPerFrame = run.stats("EBBIOT")->meanOpsPerFrame();
    w.txBitsPerFrame = trackPayloadBits(meanTracks);
    printRow("EBBIOT -> tracks", estimateNodeBudget(node, w));
  }
  {
    NodeWorkload w;
    w.opsPerFrame = run.stats("EBBIOT")->meanOpsPerFrame();
    w.txBitsPerFrame = ebbiPayloadBits(240, 180);
    printRow("EBBIOT -> EBBI frames", estimateNodeBudget(node, w));
  }
  {
    NodeWorkload w;
    w.opsPerFrame = run.stats("EBMS")->meanOpsPerFrame();
    w.txBitsPerFrame = trackPayloadBits(meanTracks);
    printRow("NN-filt+EBMS -> tracks", estimateNodeBudget(node, w));
  }
  {
    NodeWorkload w;
    w.opsPerFrame = 0.0;
    w.txBitsPerFrame = rawEventPayloadBits(run.meanEventsPerFrame);
    printRow("no processing -> events", estimateNodeBudget(node, w));
  }
  {
    NodeWorkload w;
    w.opsPerFrame = frameBasedDetectorReference().computesPerFrame;
    w.txBitsPerFrame = trackPayloadBits(meanTracks);
    printRow("frame CNN -> boxes", estimateNodeBudget(node, w));
  }

  std::printf("\nEBBIOT keeps the processor asleep most of each 66 ms "
              "window and the radio\npayload to a few hundred bits — the "
              "paper's IoVT argument in one table.\n(The sensor's own "
              "power dominates once processing is this cheap.)\n");

  runResilienceSweep(jsonPath);
  return 0;
}
