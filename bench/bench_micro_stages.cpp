// Wall-clock microbenchmarks of every pipeline stage (google-benchmark).
//
// The paper's resource argument is in abstract ops; this binary grounds
// it in time on the host CPU: EBBI build, median filter (the dispatched
// kernel, the portable word loop and the scalar reference), downsample +
// histograms, RPN, CCA, the three trackers, the Kalman filter step and
// the NN-filter, all on a realistic ENG-like frame, plus the node's EBF1
// frame parser, its CRC32 and its record decode on the same windows
// encoded for the wire, and the runner's pixel latch that reads them out.
//
// Two extra counters per stage feed the perf trajectory (BENCH_micro.json
// in CI, via tools/bench_micro_json.py):
//   * ops_frame    — the stage's measured abstract OpCounts::total() per
//                    frame (the paper's metric; independent of the host);
//   * allocs_frame — heap allocations per frame, counted by replacing the
//                    global operator new; steady-state stages must show 0.
//                    Stages pinned allocation-free warm up before the
//                    counter baseline is taken, and the CI bench job fails
//                    if any of them regresses above zero (see
//                    tools/bench_micro_json.py --fail-on-steady-allocs).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "src/common/alloc_counter.hpp"
#include "src/common/rng.hpp"
#include "src/core/runner.hpp"
#include "src/detect/cca_reference.hpp"
#include "src/events/pixel_latch.hpp"
#include "src/filters/median_filter_reference.hpp"
#include "src/filters/median_majority.hpp"
#include "src/filters/nn_filter_reference.hpp"
#include "src/node/wire_format.hpp"
#include "src/sim/davis.hpp"
#include "src/sim/event_synth.hpp"
#include "src/sim/recording.hpp"
#include "src/trackers/ebms_reference.hpp"

namespace {

using namespace ebbiot;

std::atomic<std::uint64_t>& gAllocations = gAllocationCount;

/// Pre-generated packets of ENG-like traffic shared by all benchmarks.
class FrameBank {
 public:
  static FrameBank& instance() {
    static FrameBank bank;
    return bank;
  }

  /// Number of distinct pre-generated frames (benchmarks warm steady-state
  /// stages over one full cycle so every reused buffer reaches capacity
  /// before the allocation baseline is taken).
  std::size_t size() const { return stream_.size(); }

  const EventPacket& stream(std::size_t i) const {
    return stream_[i % stream_.size()];
  }
  const EventPacket& latched(std::size_t i) const {
    return latched_[i % latched_.size()];
  }
  const BinaryImage& ebbi(std::size_t i) const {
    return ebbi_[i % ebbi_.size()];
  }
  const BinaryImage& filtered(std::size_t i) const {
    return filtered_[i % filtered_.size()];
  }
  const RegionProposals& proposals(std::size_t i) const {
    return proposals_[i % proposals_.size()];
  }

 private:
  FrameBank() {
    RecordingSpec spec = makeSyntheticEng();
    spec.durationS = 20.0;
    Recording rec = openRecording(spec);
    EbbiBuilder builder(240, 180);
    MedianFilter median(3);
    HistogramRpn rpn{HistogramRpnConfig{}};
    for (int i = 0; i < 64; ++i) {
      EventPacket stream = rec.source->nextWindow(kDefaultFramePeriodUs);
      EventPacket latched = latchReadout(stream, 240, 180);
      BinaryImage ebbi(240, 180);
      builder.buildInto(latched, ebbi);
      BinaryImage filtered = median.apply(ebbi);
      proposals_.push_back(rpn.propose(filtered));
      stream_.push_back(std::move(stream));
      latched_.push_back(std::move(latched));
      ebbi_.push_back(std::move(ebbi));
      filtered_.push_back(std::move(filtered));
    }
  }

  std::vector<EventPacket> stream_;
  std::vector<EventPacket> latched_;
  std::vector<BinaryImage> ebbi_;
  std::vector<BinaryImage> filtered_;
  std::vector<RegionProposals> proposals_;
};

/// Tracks the per-frame counters over a benchmark run: call frame() with
/// each frame's measured ops, then report() once after the timing loop.
/// allocs_frame is sampled strictly *between* iterations — from the end of
/// the first frame to the end of the last — so the one-off allocations of
/// the benchmark harness's own loop start/stop (and anything the first
/// iteration still warms up) don't smear the steady-state figure the CI
/// gate pins at zero.
class StageCounters {
 public:
  explicit StageCounters(benchmark::State& state) : state_(state) {}

  void frame(const OpCounts& ops) {
    totalOps_ += ops.total();
    metered_ = true;
    frame();
  }

  /// A frame of a stage without an abstract ops model (allocs only).
  void frame() {
    if (frames_ == 0) {
      allocsBefore_ = gAllocations.load();
    }
    ++frames_;
    allocsAfter_ = gAllocations.load();
  }

  void report() {
    const auto iters = static_cast<double>(state_.iterations());
    if (iters <= 0) {
      return;
    }
    if (metered_) {
      state_.counters["ops_frame"] = static_cast<double>(totalOps_) / iters;
    }
    state_.counters["allocs_frame"] =
        frames_ > 1 ? static_cast<double>(allocsAfter_ - allocsBefore_) /
                          static_cast<double>(frames_ - 1)
                    : 0.0;
  }

 private:
  benchmark::State& state_;
  std::uint64_t allocsBefore_ = 0;
  std::uint64_t allocsAfter_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t totalOps_ = 0;
  bool metered_ = false;
};

void BM_EbbiBuild(benchmark::State& state) {
  FrameBank& bank = FrameBank::instance();
  EbbiBuilder builder(240, 180);
  BinaryImage img(240, 180);
  std::size_t i = 0;
  for (std::size_t w = 0; w < bank.size(); ++w) {
    builder.buildInto(bank.latched(w), img);  // warm-up: alloc-free after
  }
  StageCounters counters(state);
  for (auto _ : state) {
    builder.buildInto(bank.latched(i++), img);
    benchmark::DoNotOptimize(img);
    counters.frame(builder.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_EbbiBuild);

void BM_EbbiBuildStream(benchmark::State& state) {
  // The build on the node path: PipelineSink hands frame pipelines the
  // raw windows, so the builder latches them itself.  Same windows and
  // same latched count as BM_EbbiBuild, hence the same ops.
  FrameBank& bank = FrameBank::instance();
  EbbiBuilder builder(240, 180);
  BinaryImage img(240, 180);
  std::size_t i = 0;
  for (std::size_t w = 0; w < bank.size(); ++w) {
    builder.buildInto(bank.stream(w), img);  // warm-up: alloc-free after
  }
  StageCounters counters(state);
  for (auto _ : state) {
    builder.buildInto(bank.stream(i++), img);
    benchmark::DoNotOptimize(img);
    counters.frame(builder.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_EbbiBuildStream);

void BM_MedianFilter(benchmark::State& state) {
  FrameBank& bank = FrameBank::instance();
  MedianFilter median(3);
  BinaryImage out(240, 180);
  std::size_t i = 0;
  median.applyInto(bank.ebbi(0), out);  // warm-up: alloc-free after
  StageCounters counters(state);
  for (auto _ : state) {
    median.applyInto(bank.ebbi(i++), out);
    benchmark::DoNotOptimize(out);
    counters.frame(median.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_MedianFilter);

void BM_MedianFilterPortable(benchmark::State& state) {
  // The portable word loop over the same EBBIs: the reference the
  // dispatched register kernel is pinned against and what CPUs without
  // AVX2 run, kept benchmarked so its speed stays visible.  It has no
  // ops of its own: MedianFilter charges the closed form either way.
  FrameBank& bank = FrameBank::instance();
  BinaryImage out(240, 180);
  std::vector<std::uint64_t> rowScratch(out.wordsPerRow());
  std::size_t i = 0;
  median_detail::majority3Portable(bank.ebbi(0), out, rowScratch);
  StageCounters counters(state);
  for (auto _ : state) {
    median_detail::majority3Portable(bank.ebbi(i++), out, rowScratch);
    benchmark::DoNotOptimize(out);
    counters.frame();
  }
  counters.report();
}
BENCHMARK(BM_MedianFilterPortable);

void BM_MedianFilterReference(benchmark::State& state) {
  // The scalar pixel-at-a-time baseline the word-parallel filter is
  // pinned against — kept benchmarked so the speedup stays visible in
  // the perf trajectory.
  FrameBank& bank = FrameBank::instance();
  MedianFilterReference median(3);
  BinaryImage out(240, 180);
  std::size_t i = 0;
  median.applyInto(bank.ebbi(0), out);  // warm-up: alloc-free after
  StageCounters counters(state);
  for (auto _ : state) {
    median.applyInto(bank.ebbi(i++), out);
    benchmark::DoNotOptimize(out);
    counters.frame(median.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_MedianFilterReference);

void BM_DownsampleAndHistogram(benchmark::State& state) {
  FrameBank& bank = FrameBank::instance();
  Downsampler down(6, 3);
  HistogramBuilder hist;
  CountImage c;
  HistogramPair h;
  std::size_t i = 0;
  down.downsampleInto(bank.filtered(0), c);  // warm-up: alloc-free after
  hist.buildInto(c, h);
  StageCounters counters(state);
  for (auto _ : state) {
    down.downsampleInto(bank.filtered(i++), c);
    hist.buildInto(c, h);
    benchmark::DoNotOptimize(h);
    counters.frame(down.lastOps() + hist.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_DownsampleAndHistogram);

void BM_HistogramRpn(benchmark::State& state) {
  FrameBank& bank = FrameBank::instance();
  HistogramRpn rpn{HistogramRpnConfig{}};
  std::size_t i = 0;
  for (std::size_t w = 0; w < bank.size(); ++w) {
    benchmark::DoNotOptimize(rpn.propose(bank.filtered(w)));  // warm-up
  }
  StageCounters counters(state);
  for (auto _ : state) {
    const RegionProposals& p = rpn.propose(bank.filtered(i++));
    benchmark::DoNotOptimize(p);
    counters.frame(rpn.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_HistogramRpn);

void BM_CcaRpn(benchmark::State& state) {
  FrameBank& bank = FrameBank::instance();
  CcaLabeler cca{CcaConfig{}};
  std::size_t i = 0;
  for (std::size_t w = 0; w < bank.size(); ++w) {
    benchmark::DoNotOptimize(cca.propose(bank.filtered(w)));  // warm-up
  }
  StageCounters counters(state);
  for (auto _ : state) {
    const RegionProposals& p = cca.propose(bank.filtered(i++));
    benchmark::DoNotOptimize(p);
    counters.frame(cca.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_CcaRpn);

void BM_CcaRpnReference(benchmark::State& state) {
  // The scalar pixel-at-a-time two-pass baseline the run-based labeller is
  // pinned against — kept benchmarked so the speedup stays visible in the
  // perf trajectory (same convention as BM_MedianFilterReference).
  FrameBank& bank = FrameBank::instance();
  CcaLabelerReference cca{CcaConfig{}};
  std::size_t i = 0;
  for (std::size_t w = 0; w < bank.size(); ++w) {
    benchmark::DoNotOptimize(cca.propose(bank.filtered(w)));  // warm-up
  }
  StageCounters counters(state);
  for (auto _ : state) {
    const RegionProposals& p = cca.propose(bank.filtered(i++));
    benchmark::DoNotOptimize(p);
    counters.frame(cca.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_CcaRpnReference);

void BM_FrameParserEng(benchmark::State& state) {
  // The node's ingest codec alone: FrameParser offer + next over the
  // bank's ENG windows encoded as EBF1 frames — CRC32 over every frame
  // byte and the in-place record checks — then decodeEventsInto a reused
  // packet, as the session decodes into its queue slot.  The codec has
  // no abstract ops model, so the cell reports time, bytes/s and
  // allocs_frame only.
  FrameBank& bank = FrameBank::instance();
  std::vector<std::vector<std::byte>> frames(bank.size());
  for (std::size_t w = 0; w < bank.size(); ++w) {
    encodeFrame(frames[w], static_cast<std::uint32_t>(w), 0, bank.stream(w));
  }
  FrameParser parser{NodeConfig{}};
  DecodedFrame frame;
  EventPacket window;
  const auto decode = [&] {
    const auto tStart = static_cast<TimeUs>(frame.windowStart32);
    window.reset(tStart, tStart + frame.durationUs);
    decodeEventsInto(frame, tStart, window);
  };
  for (const std::vector<std::byte>& bytes : frames) {  // warm-up
    parser.offer(bytes);
    if (parser.next(frame) != FrameParser::Status::kFrame) {
      state.SkipWithError("encoded ENG frame rejected");
      return;
    }
    decode();
  }
  StageCounters counters(state);
  std::size_t i = 0;
  std::int64_t bytesParsed = 0;
  for (auto _ : state) {
    const std::vector<std::byte>& bytes = frames[i++ % frames.size()];
    parser.offer(bytes);
    const FrameParser::Status status = parser.next(frame);
    benchmark::DoNotOptimize(status);
    decode();
    benchmark::DoNotOptimize(window.events().data());
    benchmark::ClobberMemory();
    bytesParsed += static_cast<std::int64_t>(bytes.size());
    counters.frame();
  }
  counters.report();
  state.SetBytesProcessed(bytesParsed);
}
BENCHMARK(BM_FrameParserEng);

void BM_Crc32Eng(benchmark::State& state) {
  // The check inside FrameParserEng, alone: the dispatched crc32() over
  // the bank's ENG windows encoded as EBF1 frames (whole frames, 8 bytes
  // more than the parser covers).  No abstract ops model; time, bytes/s
  // and allocs_frame only.
  FrameBank& bank = FrameBank::instance();
  std::vector<std::vector<std::byte>> frames(bank.size());
  for (std::size_t w = 0; w < bank.size(); ++w) {
    encodeFrame(frames[w], static_cast<std::uint32_t>(w), 0, bank.stream(w));
  }
  StageCounters counters(state);
  std::size_t i = 0;
  std::int64_t bytesChecked = 0;
  for (auto _ : state) {
    const std::vector<std::byte>& bytes = frames[i++ % frames.size()];
    benchmark::DoNotOptimize(crc32(bytes));
    bytesChecked += static_cast<std::int64_t>(bytes.size());
    counters.frame();
  }
  counters.report();
  state.SetBytesProcessed(bytesChecked);
}
BENCHMARK(BM_Crc32Eng);

void BM_DecodeEventsEng(benchmark::State& state) {
  // The decode inside FrameParserEng, alone: decodeEventsInto a reused
  // packet, as the session decodes into its queue slot, over the bank's
  // ENG windows encoded as EBF1 frames and parsed once up front.  No
  // abstract ops model; time, events/s and allocs_frame only.
  FrameBank& bank = FrameBank::instance();
  std::vector<std::vector<std::byte>> bytes(bank.size());
  std::vector<DecodedFrame> frames(bank.size());
  FrameParser parser{NodeConfig{}};
  for (std::size_t w = 0; w < bank.size(); ++w) {
    encodeFrame(bytes[w], static_cast<std::uint32_t>(w), 0, bank.stream(w));
    parser.offer(bytes[w]);
    if (parser.next(frames[w]) != FrameParser::Status::kFrame) {
      state.SkipWithError("encoded ENG frame rejected");
      return;
    }
    // View the records in the kept frame, not the parser's buffer.
    frames[w].records = {bytes[w].data() + kFrameHeaderSize,
                         frames[w].records.size()};
  }
  EventPacket window;
  const auto decode = [&](const DecodedFrame& frame) {
    const auto tStart = static_cast<TimeUs>(frame.windowStart32);
    window.reset(tStart, tStart + frame.durationUs);
    decodeEventsInto(frame, tStart, window);
  };
  for (const DecodedFrame& frame : frames) {  // warm-up
    decode(frame);
  }
  StageCounters counters(state);
  std::size_t i = 0;
  std::int64_t events = 0;
  for (auto _ : state) {
    const DecodedFrame& frame = frames[i++ % frames.size()];
    decode(frame);
    benchmark::DoNotOptimize(window.events().data());
    benchmark::ClobberMemory();
    events += frame.eventCount;
    counters.frame();
  }
  counters.report();
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_DecodeEventsEng);

void BM_OverlapTracker(benchmark::State& state) {
  FrameBank& bank = FrameBank::instance();
  OverlapTracker tracker{OverlapTrackerConfig{}};
  std::size_t i = 0;
  StageCounters counters(state);
  for (auto _ : state) {
    const Tracks t = tracker.update(bank.proposals(i++));
    benchmark::DoNotOptimize(t);
    counters.frame(tracker.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_OverlapTracker);

void BM_KalmanTracker(benchmark::State& state) {
  FrameBank& bank = FrameBank::instance();
  KalmanTracker tracker{KalmanTrackerConfig{}};
  std::size_t i = 0;
  StageCounters counters(state);
  for (auto _ : state) {
    const Tracks t = tracker.update(bank.proposals(i++));
    benchmark::DoNotOptimize(t);
    counters.frame(tracker.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_KalmanTracker);

void BM_KalmanFilterStep(benchmark::State& state) {
  // The constant-velocity filter alone: one predict + update per frame at
  // the next centroid of the bank's RPN proposals, the step KalmanTracker
  // and HybridTracker take for each matched track.  The trackers' metered
  // ops model Eq. (7)'s matrix recursion, not this code, so the cell has
  // time and allocs_frame only.
  FrameBank& bank = FrameBank::instance();
  std::vector<Vec2f> centroids;
  for (std::size_t f = 0; f < bank.size(); ++f) {
    for (const RegionProposal& p : bank.proposals(f)) {
      centroids.push_back(p.box.center());
    }
  }
  if (centroids.empty()) {
    state.SkipWithError("no proposals in the frame bank");
    return;
  }
  ConstantVelocityKalman filter(centroids.front(), KalmanConfig{});
  StageCounters counters(state);
  std::size_t i = 0;
  for (auto _ : state) {
    filter.predict();
    filter.update(centroids[i++ % centroids.size()]);
    benchmark::DoNotOptimize(filter);
    counters.frame();
  }
  counters.report();
}
BENCHMARK(BM_KalmanFilterStep);

void BM_NnFilter(benchmark::State& state) {
  FrameBank& bank = FrameBank::instance();
  NnFilter filter{NnFilterConfig{}};
  EventPacket out;
  std::size_t i = 0;
  // Two full warm-up cycles: replaying the bank wraps time backwards, so
  // from the second cycle on the (stateful) filter keeps more events per
  // window; capacity is stable only after the output saw that regime.
  for (std::size_t w = 0; w < 2 * bank.size(); ++w) {
    filter.filterInto(bank.stream(w), out);  // alloc-free after this
  }
  StageCounters counters(state);
  for (auto _ : state) {
    filter.filterInto(bank.stream(i++), out);
    benchmark::DoNotOptimize(out);
    counters.frame(filter.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_NnFilter);

void BM_NnFilterReference(benchmark::State& state) {
  // The scalar full-neighbourhood-scan twin BM_NnFilter is pinned
  // bit-identical against (kept events and Eq. (2) ops;
  // tests/test_nn_filter.cpp) — kept benchmarked so the padded map's
  // gain over the clamped, validity-checked scan stays visible in the
  // perf trajectory.
  FrameBank& bank = FrameBank::instance();
  NnFilterReference filter{NnFilterConfig{}};
  EventPacket out;
  std::size_t i = 0;
  for (std::size_t w = 0; w < 2 * bank.size(); ++w) {
    filter.filterInto(bank.stream(w), out);  // alloc-free after this
  }
  StageCounters counters(state);
  for (auto _ : state) {
    filter.filterInto(bank.stream(i++), out);
    benchmark::DoNotOptimize(out);
    counters.frame(filter.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_NnFilterReference);

/// Dense-noise wide-area windows for the NN filter: a 640x480 sensor
/// dominated by uncorrelated shot noise plus a few genuine movers — the
/// regime Eq. (2) is built for (almost every event must be *rejected*,
/// i.e. its whole neighbourhood inspected and found stale).  Both twins
/// read all p^2 cells per event; at 640x480 the filter's int64 map (2.5 MB)
/// outgrows L2, so this cell also measures its row prefetch.
std::vector<EventPacket> denseNoiseWindows(int noiseEvents, int blobs) {
  Rng rng(11);
  std::vector<EventPacket> windows;
  for (int w = 0; w < 4; ++w) {
    EventPacket p(w * 66'000, (w + 1) * 66'000);
    for (int b = 0; b < blobs; ++b) {
      const float cx = 60.0F + 520.0F * static_cast<float>(b) /
                                   static_cast<float>(blobs);
      const float cy = 80.0F + 40.0F * static_cast<float>(b % 3);
      for (int i = 0; i < 200; ++i) {
        const int x = std::clamp(
            static_cast<int>(cx + rng.uniform(-4.0F, 4.0F)), 0, 639);
        const int y = std::clamp(
            static_cast<int>(cy + rng.uniform(-4.0F, 4.0F)), 0, 479);
        p.push(Event{static_cast<std::uint16_t>(x),
                     static_cast<std::uint16_t>(y), Polarity::kOn,
                     w * 66'000 + rng.uniformInt(0, 65'999)});
      }
    }
    for (int i = 0; i < noiseEvents; ++i) {
      p.push(Event{static_cast<std::uint16_t>(rng.uniformInt(0, 639)),
                   static_cast<std::uint16_t>(rng.uniformInt(0, 479)),
                   Polarity::kOn, w * 66'000 + rng.uniformInt(0, 65'999)});
    }
    p.sortByTime();
    windows.push_back(std::move(p));
  }
  return windows;
}

NnFilterConfig denseNoiseNnConfig() {
  NnFilterConfig config;
  config.width = 640;
  config.height = 480;
  // Wide-area tuning: the paper's p = 3 neighbourhood is sized for a
  // 304x240 sensor; at 640x480 the same angular neighbourhood spans
  // ~2.1x more pixels, so the support patch scales to p = 7.
  config.neighbourhood = 7;
  return config;
}

void BM_NnFilterDenseNoise(benchmark::State& state) {
  static const std::vector<EventPacket> windows =
      denseNoiseWindows(20'000, 6);
  NnFilter filter(denseNoiseNnConfig());
  EventPacket out;
  std::size_t i = 0;
  for (int r = 0; r < 2; ++r) {  // warm-up (see BM_NnFilter)
    for (const EventPacket& p : windows) {
      filter.filterInto(p, out);
    }
  }
  StageCounters counters(state);
  for (auto _ : state) {
    filter.filterInto(windows[i++ % windows.size()], out);
    benchmark::DoNotOptimize(out);
    counters.frame(filter.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_NnFilterDenseNoise);

void BM_NnFilterDenseNoiseReference(benchmark::State& state) {
  static const std::vector<EventPacket> windows =
      denseNoiseWindows(20'000, 6);
  NnFilterReference filter(denseNoiseNnConfig());
  EventPacket out;
  std::size_t i = 0;
  for (int r = 0; r < 2; ++r) {  // warm-up
    for (const EventPacket& p : windows) {
      filter.filterInto(p, out);
    }
  }
  StageCounters counters(state);
  for (auto _ : state) {
    filter.filterInto(windows[i++ % windows.size()], out);
    benchmark::DoNotOptimize(out);
    counters.frame(filter.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_NnFilterDenseNoiseReference);

// The EBMS tracker benchmarks cycle a window set small enough to stay
// cache-resident: in the real event-domain pipeline the tracker consumes
// the packet the NN filter just wrote (warm), so streaming a megabyte of
// cold events per iteration would benchmark DRAM, not the stage — it
// flattened every implementation to the same number.
constexpr std::size_t kEbmsWindowCycle = 8;

void BM_EbmsTracker(benchmark::State& state) {
  // The SoA fast path, including the per-window tracks readout into a
  // reused vector: the whole loop is allocation-free once warm (SoA
  // arrays and history rings are sized at construction).  On the paper's
  // ENG default (CLmax = 8, 30 px capture radius) the per-event
  // mean-shift dependency chain dominates, as it does in the scalar
  // reference.
  FrameBank& bank = FrameBank::instance();
  EbmsTracker tracker{EbmsConfig{}};
  Tracks tracks;
  std::size_t i = 0;
  for (std::size_t w = 0; w < kEbmsWindowCycle; ++w) {  // warm-up
    tracker.processPacket(bank.stream(w));
    tracker.visibleTracksInto(tracks);
  }
  StageCounters counters(state);
  for (auto _ : state) {
    tracker.processPacket(bank.stream(i++ % kEbmsWindowCycle));
    tracker.visibleTracksInto(tracks);
    benchmark::DoNotOptimize(tracks);
    counters.frame(tracker.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_EbmsTracker);

void BM_EbmsTrackerReference(benchmark::State& state) {
  // The scalar deque-based baseline BM_EbmsTracker is pinned bit-identical
  // against (clusters, tracks and OpCounts; tests/test_ebms_soa.cpp) —
  // kept benchmarked so the comparison stays visible in the perf
  // trajectory.
  FrameBank& bank = FrameBank::instance();
  EbmsTrackerReference tracker{EbmsConfig{}};
  std::size_t i = 0;
  for (std::size_t w = 0; w < kEbmsWindowCycle; ++w) {  // warm-up
    tracker.processPacket(bank.stream(w));
  }
  StageCounters counters(state);
  for (auto _ : state) {
    tracker.processPacket(bank.stream(i++ % kEbmsWindowCycle));
    const Tracks tracks = tracker.visibleTracks();
    benchmark::DoNotOptimize(tracks);
    counters.frame(tracker.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_EbmsTrackerReference);

/// Crowded wide-area surveillance windows: many small objects spread over
/// a 640x480 sensor plus shot noise — the regime where Eq. (8)'s
/// NF * CLmax scan term dominates the EBMS cost.
std::vector<EventPacket> crowdedWindows() {
  Rng rng(7);
  std::vector<EventPacket> windows;
  constexpr int kBlobs = 56;
  for (int w = 0; w < 4; ++w) {
    EventPacket p(w * 66'000, (w + 1) * 66'000);
    for (int b = 0; b < kBlobs; ++b) {
      const float cx = 40.0F + 560.0F * static_cast<float>(b % 8) / 8.0F +
                       static_cast<float>(w);
      const float cy = 40.0F + 400.0F * static_cast<float>(b / 8) / 8.0F;
      for (int i = 0; i < 60; ++i) {
        const int x = std::clamp(
            static_cast<int>(cx + rng.uniform(-5.0F, 5.0F)), 0, 639);
        const int y = std::clamp(
            static_cast<int>(cy + rng.uniform(-5.0F, 5.0F)), 0, 479);
        p.push(Event{static_cast<std::uint16_t>(x),
                     static_cast<std::uint16_t>(y), Polarity::kOn,
                     w * 66'000 + rng.uniformInt(0, 65'999)});
      }
    }
    for (int i = 0; i < 400; ++i) {
      p.push(Event{static_cast<std::uint16_t>(rng.uniformInt(0, 639)),
                   static_cast<std::uint16_t>(rng.uniformInt(0, 479)),
                   Polarity::kOn, w * 66'000 + rng.uniformInt(0, 65'999)});
    }
    p.sortByTime();
    windows.push_back(std::move(p));
  }
  return windows;
}

EbmsConfig crowdedEbmsConfig() {
  EbmsConfig config;
  config.maxClusters = 64;   // CLmax sized for the crowd
  config.captureRadius = 16.0F;  // small objects
  return config;
}

void BM_EbmsTrackerCrowded(benchmark::State& state) {
  // ~56 live clusters: Eq. (8)'s NF * CLmax scan term dominates, and the
  // fast path scans every live cluster per event, as the reference does
  // (tests/test_ebms_soa.cpp pins the two at this config).
  static const std::vector<EventPacket> windows = crowdedWindows();
  EbmsTracker tracker{crowdedEbmsConfig()};
  Tracks tracks;
  std::size_t i = 0;
  for (int r = 0; r < 4; ++r) {  // warm-up
    for (const EventPacket& p : windows) {
      tracker.processPacket(p);
      tracker.visibleTracksInto(tracks);
    }
  }
  StageCounters counters(state);
  for (auto _ : state) {
    tracker.processPacket(windows[i++ % windows.size()]);
    tracker.visibleTracksInto(tracks);
    benchmark::DoNotOptimize(tracks);
    counters.frame(tracker.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_EbmsTrackerCrowded);

void BM_EbmsTrackerCrowdedReference(benchmark::State& state) {
  static const std::vector<EventPacket> windows = crowdedWindows();
  EbmsTrackerReference tracker{crowdedEbmsConfig()};
  std::size_t i = 0;
  for (int r = 0; r < 4; ++r) {  // warm-up
    for (const EventPacket& p : windows) {
      tracker.processPacket(p);
    }
  }
  StageCounters counters(state);
  for (auto _ : state) {
    tracker.processPacket(windows[i++ % windows.size()]);
    const Tracks tracks = tracker.visibleTracks();
    benchmark::DoNotOptimize(tracks);
    counters.frame(tracker.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_EbmsTrackerCrowdedReference);

/// ENG-like windows saturating CLmax = 8: eight well-separated blobs on
/// the 240x180 sensor with events interleaved round-robin in time, plus
/// salt noise: every CLmax slot owned by a tracked object, the engaged
/// tracking regime.
std::vector<EventPacket> engClusterWindows(int noiseEvents) {
  Rng rng(13);
  std::vector<EventPacket> windows;
  constexpr float kCx[] = {30, 120, 210, 30, 120, 210, 75, 165};
  constexpr float kCy[] = {30, 30, 30, 150, 150, 150, 90, 90};
  for (std::size_t w = 0; w < kEbmsWindowCycle; ++w) {
    EventPacket p(static_cast<TimeUs>(w) * 66'000,
                  static_cast<TimeUs>(w + 1) * 66'000);
    // Sensor-realistic arrival: each object's events reach the packet in
    // bursts (readout locality), so consecutive captures usually update
    // the same cluster.
    for (int i = 0; i < 6; ++i) {
      for (int b = 0; b < 8; ++b) {
        for (int k = 0; k < 25; ++k) {
          const int x = std::clamp(
              static_cast<int>(kCx[b] + rng.uniform(-6.0F, 6.0F)), 0, 239);
          const int y = std::clamp(
              static_cast<int>(kCy[b] + rng.uniform(-6.0F, 6.0F)), 0, 179);
          p.push(Event{static_cast<std::uint16_t>(x),
                       static_cast<std::uint16_t>(y), Polarity::kOn,
                       static_cast<TimeUs>(w) * 66'000 +
                           (static_cast<TimeUs>(i) * 8 + b) * 1'300 +
                           static_cast<TimeUs>(k)});
        }
      }
    }
    for (int i = 0; i < noiseEvents; ++i) {
      p.push(Event{static_cast<std::uint16_t>(rng.uniformInt(0, 239)),
                   static_cast<std::uint16_t>(rng.uniformInt(0, 179)),
                   Polarity::kOn, static_cast<TimeUs>(w) * 66'000 +
                                      rng.uniformInt(0, 65'999)});
    }
    p.sortByTime();
    windows.push_back(std::move(p));
  }
  return windows;
}

void BM_EbmsTrackerEng(benchmark::State& state) {
  static const std::vector<EventPacket> windows = engClusterWindows(100);
  // Paper ENG regime: CLmax = 8, headlight-scale objects on the QQVGA
  // sensor — the capture radius matches the ~10 px object extent, so the
  // eight capture regions are disjoint (vehicles in separate lanes).
  EbmsConfig cfg;
  cfg.captureRadius = 12.0F;
  EbmsTracker tracker{cfg};
  Tracks tracks;
  std::size_t i = 0;
  // Acquisition bootstrap: one noise-free cycle so each object claims a
  // cluster slot before the measured steady state (the cell benchmarks
  // tracking, not acquisition; with all CLmax slots owned by objects,
  // noise can no longer seed and only exercises the discard path).
  for (const EventPacket& p : engClusterWindows(0)) {
    tracker.processPacket(p);
  }
  for (int r = 0; r < 4; ++r) {  // warm-up
    for (const EventPacket& p : windows) {
      tracker.processPacket(p);
      tracker.visibleTracksInto(tracks);
    }
  }
  StageCounters counters(state);
  for (auto _ : state) {
    tracker.processPacket(windows[i++ % windows.size()]);
    tracker.visibleTracksInto(tracks);
    benchmark::DoNotOptimize(tracks);
    counters.frame(tracker.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_EbmsTrackerEng);

void BM_EbmsTrackerEngReference(benchmark::State& state) {
  static const std::vector<EventPacket> windows = engClusterWindows(100);
  EbmsConfig cfg;
  cfg.captureRadius = 12.0F;  // same ENG config as the fast cell
  EbmsTrackerReference tracker{cfg};
  std::size_t i = 0;
  for (const EventPacket& p : engClusterWindows(0)) {
    tracker.processPacket(p);  // same acquisition bootstrap as the fast cell
  }
  for (int r = 0; r < 4; ++r) {  // warm-up
    for (const EventPacket& p : windows) {
      tracker.processPacket(p);
    }
  }
  StageCounters counters(state);
  for (auto _ : state) {
    tracker.processPacket(windows[i++ % windows.size()]);
    const Tracks tracks = tracker.visibleTracks();
    benchmark::DoNotOptimize(tracks);
    counters.frame(tracker.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_EbmsTrackerEngReference);

void BM_FullEbbiotPipeline(benchmark::State& state) {
  FrameBank& bank = FrameBank::instance();
  EbbiotPipeline pipeline{EbbiotPipelineConfig{}};
  std::size_t i = 0;
  StageCounters counters(state);
  for (auto _ : state) {
    const Tracks t = pipeline.processWindow(bank.latched(i++));
    benchmark::DoNotOptimize(t);
    counters.frame(pipeline.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_FullEbbiotPipeline);

void BM_FullEbmsPipeline(benchmark::State& state) {
  FrameBank& bank = FrameBank::instance();
  EbmsPipeline pipeline{EbmsPipelineConfig{}};
  std::size_t i = 0;
  StageCounters counters(state);
  for (auto _ : state) {
    const Tracks t = pipeline.processWindow(bank.stream(i++));
    benchmark::DoNotOptimize(t);
    counters.frame(pipeline.lastOps());
  }
  counters.report();
}
BENCHMARK(BM_FullEbmsPipeline);

void BM_LatchReadout(benchmark::State& state) {
  FrameBank& bank = FrameBank::instance();
  std::size_t i = 0;
  for (auto _ : state) {
    const EventPacket p = latchReadout(bank.stream(i++), 240, 180);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_LatchReadout);

void BM_LatchEng(benchmark::State& state) {
  // The runner's latch: one PixelLatch reading the bank's ENG stream
  // windows out into a reused packet, as runRecording's front end does
  // once per frame for all its frame variants.  No abstract ops model;
  // time and allocs_frame only.
  FrameBank& bank = FrameBank::instance();
  PixelLatch latch(240, 180);
  EventPacket latched;
  for (std::size_t w = 0; w < bank.size(); ++w) {
    latch.readoutInto(bank.stream(w), latched);  // warm-up
  }
  StageCounters counters(state);
  std::size_t i = 0;
  for (auto _ : state) {
    latch.readoutInto(bank.stream(i++), latched);
    benchmark::DoNotOptimize(latched.events().data());
    benchmark::ClobberMemory();
    counters.frame();
  }
  counters.report();
}
BENCHMARK(BM_LatchEng);

void BM_RunRecordingRegistry(benchmark::State& state) {
  // The full evaluation harness: all registered variants over a short
  // synthetic ENG slice on the benchmark arg's thread count.  threads=1
  // is the serial loop, higher counts the runner's chain schedule —
  // tools/bench_micro_json.py turns this grid into the thread-scaling
  // section of BENCH_micro.json.
  const auto threads = static_cast<int>(state.range(0));
  RecordingSpec spec = makeSyntheticEng();
  spec.durationS = 5.0;
  for (auto _ : state) {
    Recording rec = openRecording(spec);
    RunnerConfig config = makeRegistryRunnerConfig(240, 180);
    config.threads = threads;
    config.maxFrames = 45;
    const RunResult result =
        runRecording(*rec.source, *rec.scenario, secondsToUs(5.0), config);
    benchmark::DoNotOptimize(result.frames);
  }
}
BENCHMARK(BM_RunRecordingRegistry)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  // The context's library_build_type is libbenchmark's own; record ours.
  benchmark::AddCustomContext("ebbiot_build_type", EBBIOT_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
