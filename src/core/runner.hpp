// Frame-clocked evaluation runner.
//
// Drives an EventSource window by window (period tF) through a *vector of
// pipelines* behind the uniform Pipeline interface:
//   * frame-domain pipelines (InputDomain::kLatchedFrame) receive the
//     latch readout of each window — the duty-cycled scheme of Fig. 2;
//   * event-domain pipelines (InputDomain::kEventStream) receive the raw
//     stream, as in the paper's EBMS comparison.
// Every pipeline's tracks are matched against ground truth at each window
// boundary across a sweep of IoU thresholds (Fig. 4's evaluation), and
// measured per-stage operation counts and stream statistics accumulate
// per pipeline, keyed by Pipeline::name() (the empirical side of
// Fig. 5 / Table I).
//
// Pipelines come from two lists, built in this order:
//   * registry keys (src/core/variant_registry.hpp) — by default the
//     paper's EBBIOT, EBBI+KF and EBMS; `config.variants = {"EBBINNOT",
//     "Hybrid"}` picks others, makeRegistryRunnerConfig() picks them all;
//   * factories for ad-hoc configs, including a customised built-in
//     under its own name:
//       config.variants = {"EBBI+KF", "EBMS"};
//       config.extraPipelines.push_back([] {
//         EbbiotPipelineConfig c;
//         c.tracker.minSeedArea = 6.0F;
//         return std::make_unique<EbbiotPipeline>(c);
//       });
// Results are read by name: `result.stats("EBBIOT")`.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/core/variant_registry.hpp"
#include "src/eval/metrics.hpp"
#include "src/events/stats.hpp"
#include "src/sim/davis.hpp"
#include "src/sim/ground_truth.hpp"

namespace ebbiot {

/// Builds one pipeline instance; invoked once per runRecording() call.
using PipelineFactory = std::function<std::unique_ptr<Pipeline>()>;

struct RunnerConfig {
  TimeUs framePeriod = kDefaultFramePeriodUs;
  std::vector<float> iouThresholds = defaultIouSweep();
  GtOptions gtOptions;
  /// Geometry of the recording.  runRecording() rejects a source of any
  /// other size, and every registry builder receives it.
  VariantContext sensor;
  /// Registry keys of the pipelines to evaluate, in run order (resolved
  /// against the global variantRegistry()).
  std::vector<std::string> variants = {"EBBIOT", "EBBI+KF", "EBMS"};
  /// Pipelines beyond the registry keys, built after them and evaluated
  /// under the same protocol.  Names must be unique across the run.
  std::vector<PipelineFactory> extraPipelines;
  /// Stop after this many frames even if the source has more (0 = run the
  /// full `duration` passed to runRecording).
  std::size_t maxFrames = 0;
  /// Threads.  1 = the serial loop (default); any other value runs one
  /// serial chain per pipeline plus the front-end chain (stream draw, GT
  /// annotation, latch readout) over a ring of 3 frame slots, so the
  /// front end runs up to 3 windows ahead of the slowest pipeline;
  /// 0 = one thread per hardware thread, and more threads than chains
  /// are not used.  Every accumulator is owned by exactly one chain and
  /// updated in frame order, so the RunResult is bit-identical for every
  /// thread count; pinned by tests/test_runner_threads.cpp.
  int threads = 1;

  /// Throws ConfigError on any nonsensical value (non-positive frame
  /// period, empty or out-of-range IoU sweep).  runRecording() calls
  /// this up front so misconfiguration fails fast, before any pipeline
  /// is built.
  void validate() const;
};

/// Result of one pipeline over one recording.
struct PipelineRunStats {
  std::string name;
  std::vector<PrCounts> counts;  ///< parallel to RunnerConfig thresholds
  OpCounts totalOps;
  std::size_t frames = 0;
  /// Mean events surviving the pipeline's event-domain filter per window
  /// (0 for frame-domain pipelines).
  double filteredEventsPerFrame = 0.0;

  [[nodiscard]] double meanOpsPerFrame() const {
    return frames > 0 ? static_cast<double>(totalOps.total()) /
                            static_cast<double>(frames)
                      : 0.0;
  }
};

struct RunResult {
  std::vector<float> thresholds;
  /// One entry per pipeline, in run order, keyed by Pipeline::name().
  std::vector<PipelineRunStats> pipelines;
  std::size_t gtTracks = 0;        ///< distinct ground-truth tracks seen
  std::size_t gtBoxes = 0;         ///< total ground-truth boxes
  std::size_t frames = 0;
  std::uint64_t streamEvents = 0;  ///< raw events drawn from the source
  std::uint64_t latchedEvents = 0; ///< after latch readout
  double meanAlpha = 0.0;          ///< active-pixel fraction (latched frame)
  double meanBeta = 0.0;           ///< stream events per active pixel
  double meanEventsPerFrame = 0.0; ///< raw stream events per frame

  /// Stats of the pipeline with this name, or nullptr if it did not run.
  [[nodiscard]] const PipelineRunStats* stats(std::string_view name) const;

  /// Convert one pipeline's stats into a RecordingResult for weighted
  /// cross-recording averaging.
  [[nodiscard]] RecordingResult toRecordingResult(
      const PipelineRunStats& stats, const std::string& recordingName) const;
};

/// Instantiate the pipelines of `config`: `variants` from the global
/// registry, then `extraPipelines`, in order.  Throws LogicError on an
/// unknown key or a duplicate name.
[[nodiscard]] std::vector<std::unique_ptr<Pipeline>> buildPipelines(
    const RunnerConfig& config);

/// Run the pipelines of `config` against a source+scene for `duration`.
/// Throws ConfigError, before building anything, when `config.sensor`
/// differs from the source's geometry.
[[nodiscard]] RunResult runRecording(EventSource& source,
                                     const SceneProvider& scene,
                                     TimeUs duration,
                                     const RunnerConfig& config);

/// A RunnerConfig for the given sensor size running the paper's three
/// pipelines with their default parameters.
[[nodiscard]] RunnerConfig makeDefaultRunnerConfig(int width, int height);

/// A RunnerConfig that evaluates *every variant registered* in the
/// global registry in one runRecording() call.
[[nodiscard]] RunnerConfig makeRegistryRunnerConfig(int width, int height);

}  // namespace ebbiot
