#include "src/core/runner.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <set>
#include <thread>

#include "src/common/error.hpp"
#include "src/common/thread_annotations.hpp"
#include "src/common/thread_pool.hpp"
#include "src/events/pixel_latch.hpp"

namespace ebbiot {

namespace {

/// Frame slots in flight at threads >= 2: the front end runs at most
/// this many frames ahead of the slowest pipeline.
constexpr std::size_t kSlots = 3;

/// Empty probes an idle thread makes before it parks.
constexpr int kSpinsBeforePark = 64;

/// The schedule of runRecording at threads >= 2: P + 1 serial chains.
/// Chain 0 is the front end F(0) -> F(1) -> ..., chain i + 1 is pipeline
/// i's B_i(0) -> B_i(1) -> ...  F(f) fills frame slot f % kSlots, so it
/// runs once F(f - 1) is done and every pipeline has finished frame
/// f - kSlots; B_i(f) reads that slot, so it runs once F(f) and
/// B_i(f - 1) are done.  Every thread of the run calls participate(),
/// which claims and retires steps under the one mutex and runs them
/// without it.  Policy: a thread keeps to the chain it ran last while
/// that chain's next step is ready; otherwise it runs the front end, if
/// its slot is free; otherwise the ready pipeline that is furthest
/// behind.  A thread with nothing ready spins through kSpinsBeforePark
/// probes, then parks until a step retires or fails.
class ChainSchedule {
 public:
  static constexpr std::size_t kFrontEnd = 0;

  ChainSchedule(std::size_t pipelines, std::size_t frames)
      : frames_(frames), done_(pipelines + 1, 0), busy_(pipelines + 1, 0) {
    EBBIOT_ASSERT(pipelines > 0);
  }

  /// Run steps, runStep(chain, frame), until every chain has run `frames`
  /// of them.  A step's exception stops the schedule and propagates from
  /// the thread that ran it; the other threads return once their running
  /// steps finish.
  template <typename RunStep>
  void participate(const RunStep& runStep) EBBIOT_EXCLUDES(mutex_) {
    std::size_t chain = kNone;  // the chain this thread ran last, if any
    std::size_t frame = 0;
    int idle = 0;
    for (;;) {
      {
        MutexLock lock(mutex_);
        if (chain != kNone) {
          busy_[chain] = 0;
          ++done_[chain];
          wakeParked();
        }
        chain = pick(chain);
        if (chain == kNone && ++idle > kSpinsBeforePark) {
          ++parked_;
          while (chain == kNone && !over()) {
            wake_.wait(lock);
            chain = pick(kNone);
          }
          --parked_;
        }
        if (chain == kNone && over()) {
          return;
        }
        if (chain != kNone) {
          busy_[chain] = 1;
          frame = done_[chain];
        }
      }
      if (chain == kNone) {
        std::this_thread::yield();
        continue;
      }
      idle = 0;
      try {
        runStep(chain, frame);
      } catch (...) {
        const MutexLock lock(mutex_);
        failed_ = true;
        wakeParked();
        throw;
      }
    }
  }

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  [[nodiscard]] std::size_t slowestPipeline() const EBBIOT_REQUIRES(mutex_) {
    return *std::min_element(done_.begin() + 1, done_.end());
  }

  [[nodiscard]] bool ready(std::size_t chain) const EBBIOT_REQUIRES(mutex_) {
    if (busy_[chain] != 0) {
      return false;
    }
    if (chain != kFrontEnd) {
      return done_[chain] < done_[kFrontEnd];
    }
    return done_[kFrontEnd] < std::min(frames_, slowestPipeline() + kSlots);
  }

  [[nodiscard]] std::size_t pick(std::size_t last) const
      EBBIOT_REQUIRES(mutex_) {
    if (failed_) {
      return kNone;
    }
    if (last != kNone && ready(last)) {
      return last;
    }
    if (ready(kFrontEnd)) {
      return kFrontEnd;
    }
    std::size_t next = kNone;
    for (std::size_t c = kFrontEnd + 1; c < done_.size(); ++c) {
      if (ready(c) && (next == kNone || done_[c] < done_[next])) {
        next = c;
      }
    }
    return next;
  }

  /// Whether no step will be claimed again.
  [[nodiscard]] bool over() const EBBIOT_REQUIRES(mutex_) {
    return failed_ || slowestPipeline() == frames_;
  }

  void wakeParked() EBBIOT_REQUIRES(mutex_) {
    if (parked_ > 0) {
      wake_.notifyAll();
    }
  }

  const std::size_t frames_;
  Mutex mutex_;
  CondVar wake_;
  /// Steps each chain has run: chain c's next step is frame done_[c].
  std::vector<std::size_t> done_ EBBIOT_GUARDED_BY(mutex_);
  /// Non-zero while a thread runs chain c's next step.
  std::vector<char> busy_ EBBIOT_GUARDED_BY(mutex_);
  int parked_ EBBIOT_GUARDED_BY(mutex_) = 0;
  bool failed_ EBBIOT_GUARDED_BY(mutex_) = false;
};

}  // namespace

const PipelineRunStats* RunResult::stats(std::string_view name) const {
  const auto it =
      std::find_if(pipelines.begin(), pipelines.end(),
                   [&](const PipelineRunStats& s) { return s.name == name; });
  return it != pipelines.end() ? &*it : nullptr;
}

RecordingResult RunResult::toRecordingResult(
    const PipelineRunStats& stats, const std::string& recordingName) const {
  RecordingResult out;
  out.name = recordingName;
  out.gtTracks = gtTracks;
  out.thresholds = thresholds;
  out.counts = stats.counts;
  return out;
}

void RunnerConfig::validate() const {
  if (framePeriod <= 0) {
    throw ConfigError("RunnerConfig: framePeriod must be > 0, got " +
                      std::to_string(framePeriod));
  }
  if (iouThresholds.empty()) {
    throw ConfigError("RunnerConfig: iouThresholds must not be empty");
  }
  for (const float t : iouThresholds) {
    if (!(t >= 0.0f && t <= 1.0f)) {
      throw ConfigError("RunnerConfig: IoU threshold " + std::to_string(t) +
                        " outside [0, 1]");
    }
  }
}

RunnerConfig makeDefaultRunnerConfig(int width, int height) {
  RunnerConfig config;
  config.sensor = VariantContext{width, height};
  return config;
}

RunnerConfig makeRegistryRunnerConfig(int width, int height) {
  RunnerConfig config = makeDefaultRunnerConfig(width, height);
  config.variants = variantRegistry().keys();
  return config;
}

std::vector<std::unique_ptr<Pipeline>> buildPipelines(
    const RunnerConfig& config) {
  std::vector<std::unique_ptr<Pipeline>> pipelines;
  for (const std::string& key : config.variants) {
    pipelines.push_back(variantRegistry().build(key, config.sensor));
  }
  for (const PipelineFactory& make : config.extraPipelines) {
    EBBIOT_ASSERT(make != nullptr);
    std::unique_ptr<Pipeline> pipeline = make();
    EBBIOT_ASSERT(pipeline != nullptr);
    pipelines.push_back(std::move(pipeline));
  }
  for (std::size_t i = 0; i < pipelines.size(); ++i) {
    for (std::size_t j = i + 1; j < pipelines.size(); ++j) {
      EBBIOT_ASSERT(pipelines[i]->name() != pipelines[j]->name());
    }
  }
  return pipelines;
}

RunResult runRecording(EventSource& source, const SceneProvider& scene,
                       TimeUs duration, const RunnerConfig& config) {
  config.validate();
  if (config.sensor.width != source.width() ||
      config.sensor.height != source.height()) {
    throw ConfigError("RunnerConfig: sensor geometry " +
                      std::to_string(config.sensor.width) + "x" +
                      std::to_string(config.sensor.height) +
                      " differs from the source's " +
                      std::to_string(source.width()) + "x" +
                      std::to_string(source.height()));
  }
  EBBIOT_ASSERT(duration > 0);
  EBBIOT_ASSERT(source.width() == scene.width() &&
                source.height() == scene.height());

  RunResult result;
  result.thresholds = config.iouThresholds;

  const std::vector<std::unique_ptr<Pipeline>> pipelines =
      buildPipelines(config);
  const bool anyLatched = std::any_of(
      pipelines.begin(), pipelines.end(), [](const auto& p) {
        return p->inputDomain() == InputDomain::kLatchedFrame;
      });

  // Chain-owned accumulators, promoted from comments to types.  The
  // chains run steps without a lock, so every mutable accumulator must
  // belong to exactly ONE serial chain: FrontEndAccum is written only by
  // the front-end chain F(0) -> F(1) -> ..., chains[i] only by pipeline
  // i's chain B_i(0) -> B_i(1) -> ...  The chains synchronise through the
  // schedule alone; the fold into the shared RunResult happens after
  // every chain has finished.  (Lock-free ownership is not expressible
  // as a GUARDED_BY annotation — the structs make it structural instead,
  // and tests/test_runner_threads.cpp pins the resulting determinism.)
  struct FrontEndAccum {
    std::uint64_t streamEvents = 0;
    std::uint64_t latchedEvents = 0;
    std::set<std::uint32_t> gtIds;
    std::size_t gtBoxes = 0;
    std::size_t frames = 0;
    double alphaSum = 0.0;
    double betaSum = 0.0;
    std::size_t activityFrames = 0;
  };
  struct PipelineAccum {
    PipelineRunStats stats;
    double filteredSum = 0.0;
  };
  FrontEndAccum front;
  std::vector<PipelineAccum> chains(pipelines.size());
  for (std::size_t i = 0; i < pipelines.size(); ++i) {
    chains[i].stats.name = pipelines[i]->name();
    chains[i].stats.counts.resize(config.iouThresholds.size());
  }

  const std::size_t totalFrames =
      static_cast<std::size_t>(duration / config.framePeriod);
  const std::size_t frameLimit =
      config.maxFrames > 0 ? std::min(config.maxFrames, totalFrames)
                           : totalFrames;

  const std::size_t pipelineCount = pipelines.size();

  // Sensor geometry snapshot: at threads >= 2 the pipeline chains run
  // concurrently with the front-end chain drawing the next window, so
  // they must not touch the (stateful) source at all.
  const int width = source.width();
  const int height = source.height();

  // One window's shared inputs.  The serial loop reuses a single slot;
  // the chains keep a ring of kSlots so the front end can run ahead of
  // the evaluations.
  struct FrameSlot {
    EventPacket stream;
    EventPacket latched;
    GtFrame gt;
  };

  // Front end of one window: stream draw, GT annotation, latch readout,
  // stream-stat accumulation.  Strictly sequential along frames (the
  // source is stateful), so every accumulator it touches — the latch
  // included — is updated in frame order regardless of which thread runs
  // it.
  PixelLatch latch(width, height);
  auto frontEnd = [&](FrameSlot& slot) {
    slot.stream = source.nextWindow(config.framePeriod);
    front.streamEvents += slot.stream.size();

    slot.gt = annotateScene(scene, slot.stream.tEnd(), config.gtOptions);
    for (const GtBox& b : slot.gt.boxes) {
      front.gtIds.insert(b.trackId);
    }
    front.gtBoxes += slot.gt.boxes.size();

    // Latched readout for the frame-domain pipelines.
    if (anyLatched) {
      EBBIOT_ASSERT(slot.stream.isTimeSorted());
      latch.readoutInto(slot.stream, slot.latched);
      front.latchedEvents += slot.latched.size();
      // The latch keeps one event per active pixel, so its size is the
      // window's active-pixel count: alpha and beta as computeFrameStats
      // defines them, without a second pass over the window.
      const std::size_t activePixels = slot.latched.size();
      if (activePixels > 0) {
        front.alphaSum += static_cast<double>(activePixels) /
                          (static_cast<double>(width) * height);
        front.betaSum += static_cast<double>(slot.stream.size()) /
                         static_cast<double>(activePixels);
        ++front.activityFrames;
      }
    }
    ++front.frames;
  };

  auto evaluate = [&](PipelineRunStats& stats, const Tracks& rawTracks,
                      const GtFrame& gt) {
    // Ground truth is frame-clipped; clip reported boxes the same way
    // so objects straddling the frame edge are scored fairly.
    Tracks tracks;
    tracks.reserve(rawTracks.size());
    for (const Track& t : rawTracks) {
      Track clipped = t;
      clipped.box = clampToFrame(t.box, width, height);
      if (!clipped.box.empty()) {
        tracks.push_back(clipped);
      }
    }
    for (std::size_t i = 0; i < config.iouThresholds.size(); ++i) {
      stats.counts[i].add(
          matchFrame(tracks, gt.boxes, config.iouThresholds[i]));
    }
    ++stats.frames;
  };

  // One step per pipeline per window: pipeline i's state, stats slot and
  // GT match are touched only by its chain, whose steps run in frame
  // order, and the window inputs they read are frozen until every
  // evaluation of that window finished — the RunResult is identical for
  // every thread count and schedule.
  auto processPipeline = [&](std::size_t i, const FrameSlot& slot) {
    Pipeline& pipeline = *pipelines[i];
    PipelineAccum& accum = chains[i];
    const EventPacket& input =
        pipeline.inputDomain() == InputDomain::kLatchedFrame ? slot.latched
                                                             : slot.stream;
    const Tracks tracks = pipeline.processWindow(input);
    accum.stats.totalOps += pipeline.lastOps();
    accum.filteredSum +=
        static_cast<double>(pipeline.lastFilteredEventCount());
    evaluate(accum.stats, tracks, slot.gt);
  };

  // More threads than chains is pointless: one per pipeline, plus the
  // front end.
  const int threadCount =
      std::min(ThreadPool::resolveThreadCount(config.threads),
               static_cast<int>(pipelineCount) + 1);

  if (threadCount <= 1) {
    // Serial reference order: front end, then pipelines 0..P-1, per frame.
    FrameSlot slot;
    for (std::size_t frame = 0; frame < frameLimit; ++frame) {
      frontEnd(slot);
      for (std::size_t i = 0; i < pipelineCount; ++i) {
        processPipeline(i, slot);
      }
    }
  } else {
    std::array<FrameSlot, kSlots> slots;
    ChainSchedule schedule(pipelineCount, frameLimit);
    ThreadPool pool(threadCount);
    pool.parallelFor(static_cast<std::size_t>(threadCount), [&](std::size_t) {
      schedule.participate([&](std::size_t chain, std::size_t frame) {
        FrameSlot& slot = slots[frame % kSlots];
        if (chain == ChainSchedule::kFrontEnd) {
          frontEnd(slot);
        } else {
          processPipeline(chain - 1, slot);
        }
      });
    });
  }

  // Every chain has finished: fold the chain-owned accumulators into the
  // shared result (the only cross-chain reads in the function).
  result.streamEvents = front.streamEvents;
  result.latchedEvents = front.latchedEvents;
  result.gtBoxes = front.gtBoxes;
  result.frames = front.frames;
  result.gtTracks = front.gtIds.size();
  if (front.activityFrames > 0) {
    result.meanAlpha =
        front.alphaSum / static_cast<double>(front.activityFrames);
    result.meanBeta =
        front.betaSum / static_cast<double>(front.activityFrames);
  }
  result.pipelines.reserve(chains.size());
  for (PipelineAccum& chain : chains) {
    result.pipelines.push_back(std::move(chain.stats));
  }
  if (result.frames > 0) {
    result.meanEventsPerFrame = static_cast<double>(result.streamEvents) /
                                static_cast<double>(result.frames);
    for (std::size_t i = 0; i < result.pipelines.size(); ++i) {
      result.pipelines[i].filteredEventsPerFrame =
          chains[i].filteredSum / static_cast<double>(result.frames);
    }
  }
  return result;
}

}  // namespace ebbiot
