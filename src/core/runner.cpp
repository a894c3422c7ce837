#include "src/core/runner.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <set>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/events/pixel_latch.hpp"

namespace ebbiot {

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

  // Chain-owned accumulators, promoted from comments to types.  The stage
  // graph runs without locks, so every mutable accumulator must belong to
  // exactly ONE serial task chain: FrontEndAccum is written only by the
  // front-end chain F(0) -> F(1) -> ..., chains[i] only by pipeline i's
  // chain B_i(0) -> B_i(1) -> ...  The chains synchronise through task
  // dependencies alone; the fold into the shared RunResult happens after
  // every chain has drained.  (Lock-free ownership is not expressible as
  // a GUARDED_BY annotation — the structs make it structural instead, and
  // tests/test_runner_threads.cpp pins the resulting determinism.)
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

  // Sensor geometry snapshot: under the stage graph the evaluation tasks
  // run concurrently with the front-end chain drawing the next window,
  // so they must not touch the (stateful) source at all.
  const int width = source.width();
  const int height = source.height();

  // One window's shared inputs.  The serial loop reuses a single slot;
  // the stage graph keeps a small ring of them so the front end can run
  // ahead of the evaluations.
  struct FrameSlot {
    EventPacket stream;
    EventPacket latched;
    GtFrame gt;
  };

  // Front end of one window: stream draw, GT annotation, latch readout,
  // stream-stat accumulation.  Strictly sequential along frames (the
  // source is stateful), so every accumulator it touches — the latch
  // included — is updated in frame order regardless of which worker runs
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

  // One task per pipeline per window: pipeline i's state, stats slot and
  // GT match are touched only by this task, tasks of the same pipeline
  // are chained in frame order, and the window inputs they read are
  // frozen until every evaluation of that window finished — the
  // RunResult is identical for every thread count and schedule.
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

  // More threads than stages is pointless: a window has one task per
  // pipeline, plus the overlapped front end of the next window.
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
    // Stage graph: the front-end chain F(0) -> F(1) -> ... runs
    // concurrently with the per-pipeline chains B_i; B_i(f) depends on
    // F(f) (its inputs) and B_i(f-1) (the pipeline's own state).  A
    // ring of frame slots decouples the chains: slot f % kSlots is
    // reused only after every evaluation of frame f - kSlots completed,
    // which also bounds how far the front end runs ahead.
    ThreadPool pool(threadCount);
    constexpr std::size_t kSlots = 3;
    std::array<FrameSlot, kSlots> slots;
    std::array<std::vector<TaskHandle>, kSlots> slotUsers;
    TaskHandle frontPrev;
    std::vector<TaskHandle> pipePrev(pipelineCount);
    std::exception_ptr error;
    auto drain = [&](const TaskHandle& handle) {
      try {
        pool.wait(handle);
      } catch (...) {
        if (!error) {
          error = std::current_exception();
        }
      }
    };
    for (std::size_t frame = 0; frame < frameLimit && !error; ++frame) {
      const std::size_t s = frame % kSlots;
      for (const TaskHandle& user : slotUsers[s]) {
        drain(user);
      }
      slotUsers[s].clear();
      if (error) {
        break;  // abandon remaining windows; outstanding tasks drain below
      }
      FrameSlot& slot = slots[s];
      TaskHandle front = pool.submit([&frontEnd, &slot] { frontEnd(slot); },
                                     {frontPrev});
      for (std::size_t i = 0; i < pipelineCount; ++i) {
        TaskHandle task = pool.submit(
            [&processPipeline, i, &slot] { processPipeline(i, slot); },
            {front, pipePrev[i]});
        pipePrev[i] = task;
        slotUsers[s].push_back(std::move(task));
      }
      frontPrev = std::move(front);
    }
    // Every submitted task references stack state; drain them all before
    // leaving the scope (dependencies complete regardless of errors, so
    // this cannot deadlock), then surface the first failure.
    drain(frontPrev);
    for (const TaskHandle& task : pipePrev) {
      drain(task);
    }
    for (const auto& users : slotUsers) {
      for (const TaskHandle& user : users) {
        drain(user);
      }
    }
    if (error) {
      std::rethrow_exception(error);
    }
  }

  // Every chain has drained: fold the chain-owned accumulators into the
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
