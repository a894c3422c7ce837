// The end-to-end pipelines compared in the paper, behind one interface.
//
//   EbbiotPipeline  (Fig. 1):  FrameFrontEnd -> overlap tracker  [the paper]
//   KalmanPipeline  ("EBBI+KF"): FrameFrontEnd -> Kalman tracker
//   EbmsPipeline    (event-domain baseline): NN-filt -> EBMS clusters
//   HybridPipeline  ("Hybrid", arXiv:2007.11404): FrameFrontEnd ->
//                   overlap association + Kalman coasting
//
// Any frame-domain pipeline can additionally enable the EBBINNOT-style
// NN region filter (src/detect/region_filter.hpp) between the RPN and
// the tracker via FramePipelineConfig::regionFilter; the named variants
// live in src/core/variant_registry.hpp.
//
// The frame-domain pipelines are instances of one `FramePipeline<Tracker>`
// template over the shared `FrameFrontEnd` (src/core/front_end.hpp); a new
// tracker back end plugs in by specialising `FramePipelineTraits` — no
// front-end code is duplicated.  All pipelines implement the uniform
// `Pipeline` interface (processWindow / lastOps / name / inputDomain) that
// the runner iterates over, so adding a pipeline variant to an evaluation
// is a one-line registration (see RunnerConfig::extraPipelines).
//
// The frame-domain pipelines see each window through the sensor-as-memory
// scheme of Fig. 2 (one event per pixel per window): their EBBI build is
// the pixel latch, so a raw window and its latchReadout() give the same
// result.  The EBMS pipeline consumes the full event stream, as in the
// paper's comparison.  Every stage's measured OpCounts are exposed for the
// Fig. 5 comparison.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/core/front_end.hpp"
#include "src/detect/region_filter.hpp"
#include "src/filters/nn_filter.hpp"
#include "src/filters/refractory_filter.hpp"
#include "src/trackers/ebms.hpp"
#include "src/trackers/hybrid_tracker.hpp"
#include "src/trackers/kalman.hpp"
#include "src/trackers/overlap_tracker.hpp"

namespace ebbiot {

/// What a pipeline expects in processWindow().
enum class InputDomain {
  /// Latch-invariant: the raw window and its latchReadout() (one event
  /// per pixel per window) give identical tracks, images and ops, so a
  /// caller may pass either.
  kLatchedFrame,
  kEventStream,  ///< the raw event stream of the window
};

/// Opaque snapshot of one pipeline's cross-window state (tracker slots,
/// timestamp maps — everything that carries information from one
/// window into the next).  Obtained from Pipeline::makeSnapshot() and
/// only meaningful with pipelines of the same concrete type and config;
/// the node recovery layer (src/node/pipeline_sink.*) keeps one rolling
/// snapshot per sensor and restores it when a stream resyncs.
class PipelineSnapshot {
 public:
  virtual ~PipelineSnapshot() = default;

 protected:
  PipelineSnapshot() = default;
  PipelineSnapshot(const PipelineSnapshot&) = default;
  PipelineSnapshot& operator=(const PipelineSnapshot&) = default;
};

/// Uniform interface of every end-to-end pipeline.  The runner drives a
/// vector of these; concrete classes keep richer typed accessors for
/// tests, examples and benches.
class Pipeline {
 public:
  virtual ~Pipeline() = default;

  /// Process one window's packet; returns the reported tracks.
  virtual Tracks processWindow(const EventPacket& packet) = 0;

  /// Total measured ops of the most recent window (all stages).
  /// ops-model: composite — sum of per-stage records, each with its own model.
  [[nodiscard]] virtual OpCounts lastOps() const = 0;

  /// Display/lookup name ("EBBIOT", "EBBI+KF", "EBMS", ...).  Stats in a
  /// RunResult are keyed by this.
  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Which packet flavour processWindow() expects.
  [[nodiscard]] virtual InputDomain inputDomain() const = 0;

  /// Events surviving the pipeline's event-domain noise filter in the most
  /// recent window; 0 for frame-domain pipelines (their denoising is the
  /// pixel-domain median stage).
  [[nodiscard]] virtual std::size_t lastFilteredEventCount() const {
    return 0;
  }

  /// Allocate a snapshot sized for this pipeline's cross-window state.
  /// Allocate once, then reuse it via saveState() — the save itself is
  /// an element-wise copy into existing capacity (zero steady-state
  /// allocations).  nullptr means the pipeline has no snapshot support.
  [[nodiscard]] virtual std::unique_ptr<PipelineSnapshot> makeSnapshot()
      const {
    return nullptr;
  }

  /// Copy the current cross-window state into `out` (obtained from this
  /// pipeline's makeSnapshot()).  Returns false on a snapshot-type
  /// mismatch; `out` is untouched then.
  virtual bool saveState(PipelineSnapshot& out) const {
    (void)out;
    return false;
  }

  /// Overwrite the cross-window state with one captured by saveState();
  /// subsequent windows proceed bit-identically to a pipeline that never
  /// left that state.  Returns false on a snapshot-type mismatch; state
  /// is untouched then.
  virtual bool restoreState(const PipelineSnapshot& snapshot) {
    (void)snapshot;
    return false;
  }

  /// Drop all cross-window state, as if freshly constructed with the
  /// same config.  Always supported (the recovery fallback when no
  /// usable snapshot exists).
  virtual void resetState() = 0;

 protected:
  Pipeline() = default;
  Pipeline(const Pipeline&) = default;
  Pipeline& operator=(const Pipeline&) = default;
};

/// Per-stage measured operation counts of one frame-domain window.
struct StageOps {
  FrontEndOps frontEnd;
  OpCounts regionFilter;  ///< zero unless the NN region filter is enabled
  OpCounts tracker;

  [[nodiscard]] OpCounts total() const {
    return frontEnd.total() + regionFilter + tracker;
  }
};

/// Config of a frame-domain pipeline: the shared front end plus one
/// tracker back end.  Inherits the front-end fields flat (width, height,
/// medianPatch, rpnKind, rpn, cca) so call sites read naturally.
template <typename TrackerConfig>
struct FramePipelineConfig : FrontEndConfig {
  /// EBBINNOT-style NN region filter between the RPN and the tracker;
  /// absent = proposals flow through untouched (the paper's chain).
  std::optional<RegionFilterConfig> regionFilter;
  TrackerConfig tracker;
};

/// Compile-time registration of a tracker back end for FramePipeline:
/// names the pipeline built on it.  Specialise this (and give the tracker
/// a `Config` typedef) to plug a new back end into the frame-domain
/// chain.
template <typename Tracker>
struct FramePipelineTraits;

template <>
struct FramePipelineTraits<OverlapTracker> {
  static constexpr const char* kName = "EBBIOT";
};

template <>
struct FramePipelineTraits<KalmanTracker> {
  static constexpr const char* kName = "EBBI+KF";
};

template <>
struct FramePipelineTraits<HybridTracker> {
  static constexpr const char* kName = "Hybrid";
};

/// Snapshot of a frame-domain pipeline: a copy of the tracker back end.
/// The tracker is the only stage carrying information across windows —
/// the front end rebuilds every image from each window alone — so
/// restoring the tracker restores the pipeline exactly.
template <typename Tracker>
struct FramePipelineSnapshot final : PipelineSnapshot {
  explicit FramePipelineSnapshot(const Tracker& t) : tracker(t) {}
  Tracker tracker;
};

/// Frame-domain pipeline: shared FrameFrontEnd plus a tracker back end.
/// Tracker must provide `Tracks update(const RegionProposals&)` and
/// `OpCounts lastOps()`, and its config `frameWidth`/`frameHeight` fields
/// (filled from the front-end geometry here).
template <typename Tracker>
class FramePipeline final : public Pipeline {
 public:
  using Traits = FramePipelineTraits<Tracker>;
  using TrackerConfig = typename Tracker::Config;
  using Config = FramePipelineConfig<TrackerConfig>;
  using Snapshot = FramePipelineSnapshot<Tracker>;

  explicit FramePipeline(const Config& config,
                         std::string name = Traits::kName)
      : config_(config),
        name_(std::move(name)),
        frontEnd_(config),
        tracker_(resolvedTrackerConfig(config)) {
    if (config.regionFilter.has_value()) {
      regionFilter_.emplace(*config.regionFilter);
    }
  }

  Tracks processWindow(const EventPacket& packet) override {
    const RegionProposals& proposals = frontEnd_.process(packet);
    stageOps_.frontEnd = frontEnd_.lastOps();
    stageOps_.regionFilter = OpCounts{};
    const RegionProposals* toTrack = &proposals;
    if (regionFilter_.has_value()) {
      accepted_ = regionFilter_->apply(frontEnd_.lastFiltered(), proposals);
      stageOps_.regionFilter = regionFilter_->lastOps();
      toTrack = &accepted_;
    }
    Tracks tracks = tracker_.update(*toTrack);
    stageOps_.tracker = tracker_.lastOps();
    return tracks;
  }

  [[nodiscard]] OpCounts lastOps() const override { return stageOps_.total(); }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] InputDomain inputDomain() const override {
    return InputDomain::kLatchedFrame;
  }

  /// Intermediate products of the most recent window (for examples,
  /// debugging and tests).
  [[nodiscard]] const BinaryImage& lastEbbi() const {
    return frontEnd_.lastEbbi();
  }
  [[nodiscard]] const BinaryImage& lastFiltered() const {
    return frontEnd_.lastFiltered();
  }
  [[nodiscard]] const RegionProposals& lastProposals() const {
    return frontEnd_.lastProposals();
  }
  /// Proposals that reached the tracker in the most recent window: the
  /// region-filter survivors, or the raw RPN output when no filter is
  /// configured.
  [[nodiscard]] const RegionProposals& lastTrackedProposals() const {
    return regionFilter_.has_value() ? accepted_ : frontEnd_.lastProposals();
  }
  [[nodiscard]] const StageOps& stageOps() const { return stageOps_; }

  [[nodiscard]] const FrameFrontEnd& frontEnd() const { return frontEnd_; }
  [[nodiscard]] const std::optional<RegionFilter>& regionFilter() const {
    return regionFilter_;
  }
  [[nodiscard]] Tracker& tracker() { return tracker_; }
  [[nodiscard]] const Config& config() const { return config_; }

  [[nodiscard]] std::unique_ptr<PipelineSnapshot> makeSnapshot()
      const override {
    return std::make_unique<Snapshot>(tracker_);
  }

  bool saveState(PipelineSnapshot& out) const override {
    auto* snap = dynamic_cast<Snapshot*>(&out);
    if (snap == nullptr) {
      return false;
    }
    snap->tracker = tracker_;
    return true;
  }

  bool restoreState(const PipelineSnapshot& snapshot) override {
    const auto* snap = dynamic_cast<const Snapshot*>(&snapshot);
    if (snap == nullptr) {
      return false;
    }
    tracker_ = snap->tracker;
    return true;
  }

  void resetState() override {
    tracker_ = Tracker(resolvedTrackerConfig(config_));
    stageOps_ = StageOps{};
  }

  /// The tracker config as the pipeline constructs it: the user's tracker
  /// fields with the geometry filled in from the front end.
  [[nodiscard]] static TrackerConfig resolvedTrackerConfig(
      const Config& config) {
    TrackerConfig c = config.tracker;
    c.frameWidth = config.width;
    c.frameHeight = config.height;
    return c;
  }

 private:
  Config config_;
  std::string name_;
  FrameFrontEnd frontEnd_;
  std::optional<RegionFilter> regionFilter_;
  RegionProposals accepted_;
  Tracker tracker_;
  StageOps stageOps_;
};

using EbbiotPipelineConfig = FramePipelineConfig<OverlapTrackerConfig>;
using KalmanPipelineConfig = FramePipelineConfig<KalmanTrackerConfig>;
using HybridPipelineConfig = FramePipelineConfig<HybridTrackerConfig>;

using EbbiotPipeline = FramePipeline<OverlapTracker>;
using KalmanPipeline = FramePipeline<KalmanTracker>;
using HybridPipeline = FramePipeline<HybridTracker>;

struct EbmsPipelineConfig {
  NnFilterConfig nnFilter;
  EbmsConfig ebms;
  /// Optional per-pixel refractory stage ahead of the NN filter (bounds
  /// beta when the sensor model did not already apply one).  0 disables
  /// the stage entirely — the default pipeline shape is unchanged.
  TimeUs refractoryPeriod = 0;
};

/// Per-window ops of the event-domain pipeline.
struct EbmsStageOps {
  OpCounts nnFilter;
  OpCounts ebms;

  [[nodiscard]] OpCounts total() const { return nnFilter + ebms; }
};

/// Snapshot of the event-domain pipeline: the NN filter's timestamp map
/// (its pass/reject decisions depend on past windows' events), the EBMS
/// cluster state, and the refractory stage's timestamp map when that
/// stage is enabled.
struct EbmsPipelineSnapshot final : PipelineSnapshot {
  EbmsPipelineSnapshot(const NnFilter& filter, const EbmsTracker& t,
                       std::optional<RefractoryFilter> r = std::nullopt)
      : nnFilter(filter), tracker(t), refractory(std::move(r)) {}
  NnFilter nnFilter;
  EbmsTracker tracker;
  std::optional<RefractoryFilter> refractory;
};

/// Event-domain baseline: NN-filter -> EBMS mean-shift clusters.
class EbmsPipeline final : public Pipeline {
 public:
  explicit EbmsPipeline(const EbmsPipelineConfig& config,
                        std::string name = "EBMS");

  /// Process one *stream-mode* window; returns visible clusters at the
  /// window end.
  Tracks processWindow(const EventPacket& packet) override;

  [[nodiscard]] OpCounts lastOps() const override { return stageOps_.total(); }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] InputDomain inputDomain() const override {
    return InputDomain::kEventStream;
  }
  [[nodiscard]] std::size_t lastFilteredEventCount() const override {
    return lastFilteredCount_;
  }

  [[nodiscard]] std::unique_ptr<PipelineSnapshot> makeSnapshot()
      const override;
  bool saveState(PipelineSnapshot& out) const override;
  bool restoreState(const PipelineSnapshot& snapshot) override;
  void resetState() override;

  [[nodiscard]] const EbmsStageOps& stageOps() const { return stageOps_; }
  [[nodiscard]] EbmsTracker& tracker() { return tracker_; }
  [[nodiscard]] const EbmsPipelineConfig& config() const { return config_; }

 private:
  EbmsPipelineConfig config_;
  std::string name_;
  std::optional<RefractoryFilter> refractory_;  ///< set iff period > 0
  NnFilter nnFilter_;
  EbmsTracker tracker_;
  EbmsStageOps stageOps_;
  EventPacket refracted_;  ///< reused per window, refractory stage only
  EventPacket filtered_;   ///< reused per window (zero-alloc steady state)
  Tracks tracks_;          ///< reused per window (visibleTracksInto)
  std::size_t lastFilteredCount_ = 0;
};

}  // namespace ebbiot
