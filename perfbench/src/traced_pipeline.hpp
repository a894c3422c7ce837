// Forwarding Pipeline decorator: the benchmark's window into a pipeline.
//
// ForwardingPipeline owns the real pipeline and forwards every Pipeline
// call to it (processWindow, lastOps, name, inputDomain, the snapshot
// hooks), so a sink or the runner behaves exactly as with the bare
// pipeline.  Around processWindow it can
//   * time the window's processWindow call (the evaluation latency probe,
//     kept in the untraced run),
//   * record a core.pipeline span (traced run), and
//   * replay the window through standalone public stage objects
//     configured as the pipeline configures them (EbbiBuilder,
//     MedianFilter, Downsampler/HistogramBuilder/HistogramRpn or
//     CcaLabeler, RegionFilter, the tracker; NnFilter and EbmsTracker for
//     the event-domain pipeline), timing each stage and asserting that
//     every stage's output and OpCounts equal the real pipeline's.
//     Stateful stages replay from a snapshot of the real pipeline taken
//     just before the window, so resyncs and restores are followed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "src/core/pipeline.hpp"
#include "src/eval/metrics.hpp"
#include "src/sim/ground_truth.hpp"
#include "trace.hpp"

namespace perfbench {

/// Whatever Pipeline::processWindow returns (by value today).
using WindowTracks = decltype(std::declval<ebbiot::Pipeline&>().processWindow(
    std::declval<const ebbiot::EventPacket&>()));

/// Stage replays of one concrete pipeline type.
class StageReplay {
 public:
  virtual ~StageReplay() = default;
  /// Capture the state the next window starts from.
  virtual void saveBefore() = 0;
  /// Replay the window just processed and compare with the real outputs.
  virtual void replay(const ebbiot::EventPacket& packet,
                      const ebbiot::Tracks& tracks) = 0;

 protected:
  StageReplay() = default;
};

/// Evaluation scoring replayed per window (eval.match).
struct MatchReplay {
  const std::vector<ebbiot::GtFrame>* gt = nullptr;  ///< indexed by frame
  std::vector<float> thresholds;
  int width = 240;
  int height = 180;
};

/// What a ForwardingPipeline does besides forwarding.  The pointed-to
/// objects are owned by the caller and outlive the decorator (the runner
/// destroys its pipelines before returning); each decorator has its own
/// `accum` and `matchCounts`, so decorators on different threads share
/// nothing mutable.
struct ForwardingHooks {
  SpanRecorder* spans = nullptr;  ///< traced run only
  /// Traced run only: replay stages into `accum`, checking with `checker`.
  StageAccum* accum = nullptr;
  Checker* checker = nullptr;
  /// Called after every processWindow with the window's frame index
  /// (tEnd / framePeriod - 1), the variant's slot and the call's wall
  /// time in ns; the evaluation latency probe.
  std::function<void(std::size_t frame, int slot, std::int64_t ns)> onDone;
  ebbiot::TimeUs framePeriod = ebbiot::kDefaultFramePeriodUs;
  std::uint16_t sensor = 0;  ///< span label
  /// kAlterTrack: append a bogus track to this frame's output.
  std::int64_t alterFrame = -1;
  /// Optional eval.match replay into `matchCounts` (parallel to its
  /// thresholds; timed into `accum`, which must then be set).
  const MatchReplay* match = nullptr;
  std::vector<ebbiot::PrCounts>* matchCounts = nullptr;
  /// Optional check that a frame pipeline's input hashes to the latch
  /// the source replayed for that frame.
  const std::vector<std::uint64_t>* latchDigests = nullptr;
};

class ForwardingPipeline final : public ebbiot::Pipeline {
 public:
  ForwardingPipeline(std::unique_ptr<ebbiot::Pipeline> inner,
                     ForwardingHooks hooks, int slot);

  WindowTracks processWindow(const ebbiot::EventPacket& packet) override;

  [[nodiscard]] ebbiot::OpCounts lastOps() const override {
    return inner_->lastOps();
  }
  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] ebbiot::InputDomain inputDomain() const override {
    return inner_->inputDomain();
  }
  [[nodiscard]] std::size_t lastFilteredEventCount() const override {
    return inner_->lastFilteredEventCount();
  }
  [[nodiscard]] std::unique_ptr<ebbiot::PipelineSnapshot> makeSnapshot()
      const override {
    return inner_->makeSnapshot();
  }
  bool saveState(ebbiot::PipelineSnapshot& out) const override {
    return inner_->saveState(out);
  }
  bool restoreState(const ebbiot::PipelineSnapshot& snapshot) override {
    return inner_->restoreState(snapshot);
  }
  void resetState() override { inner_->resetState(); }

 private:
  void replayMatch(std::size_t frame, const ebbiot::Tracks& tracks);

  std::unique_ptr<ebbiot::Pipeline> inner_;
  ForwardingHooks hooks_;
  int slot_;
  std::int8_t variant_;
  std::unique_ptr<StageReplay> replay_;
  ebbiot::Tracks altered_;
};

}  // namespace perfbench
