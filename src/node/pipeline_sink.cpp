#include "src/node/pipeline_sink.hpp"

#include "src/common/error.hpp"

namespace ebbiot {

PipelineSink::PipelineSink(std::unique_ptr<Pipeline> pipeline, int width,
                           int height, const PipelineSinkConfig& config)
    : pipeline_(std::move(pipeline)), config_(config) {
  EBBIOT_ASSERT(pipeline_ != nullptr);
  EBBIOT_ASSERT(width > 0 && height > 0);
  snapshot_ = pipeline_->makeSnapshot();
}

void PipelineSink::onWindow(const EventPacket& window, std::uint32_t seq,
                            TimeUs ingestTime) {
  (void)ingestTime;  // latency accounting lives in the session
  if (!primed_) {
    trackWindow(window, seq);
    primed_ = true;
    saveRollingSnapshot();
    return;
  }
  bool resynced = false;
  if (idleCoasted_ > 0) {
    // The stream is back after blind idle coasting: roll the tracker
    // back to the last observed state (or start clean) so unconfirmed
    // predictions never contaminate the resumed stream.
    applyResync();
    resynced = true;
    idleCoasted_ = 0;
  }
  const std::uint32_t ahead = seq - expectedSeq_;
  if (ahead >= 0x80000000u || ahead > config_.maxCoastWindows) {
    // Backward jump (sequence space rebased after a watchdog re-adopt)
    // or more windows lost than coasting may bridge.
    if (!resynced) {
      applyResync();
    }
  } else if (ahead > 0) {
    ++counters_.gapsCoasted;
    for (std::uint32_t i = 0; i < ahead; ++i) {
      coastOneWindow();
    }
  }
  trackWindow(window, seq);
  saveRollingSnapshot();
}

bool PipelineSink::coastIdle() {
  if (!primed_ || idleCoasted_ >= config_.maxCoastWindows) {
    return false;
  }
  ++idleCoasted_;
  ++counters_.idleCoastWindows;
  coastOneWindow();
  return true;
}

void PipelineSink::trackWindow(const EventPacket& window, std::uint32_t seq) {
  lastTracks_ = pipeline_->processWindow(window);
  ++counters_.windowsTracked;
  expectedSeq_ = seq + 1;
  lastTEnd_ = window.tEnd();
  const TimeUs duration = window.tEnd() - window.tStart();
  if (duration > 0) {
    lastDuration_ = duration;
  }
  if (observer_) {
    observer_(seq, lastTracks_);
  }
}

void PipelineSink::coastOneWindow() {
  // The tracker sees zero measurements and applies its own miss/coast
  // discipline.
  coastWindow_.reset(lastTEnd_, lastTEnd_ + lastDuration_);
  lastTracks_ = pipeline_->processWindow(coastWindow_);
  lastTEnd_ += lastDuration_;
  ++counters_.windowsCoasted;
}

void PipelineSink::applyResync() {
  if (snapshotValid_ && pipeline_->restoreState(*snapshot_)) {
    ++counters_.resyncRestores;
    return;
  }
  pipeline_->resetState();
  ++counters_.resyncResets;
}

void PipelineSink::saveRollingSnapshot() {
  snapshotValid_ =
      snapshot_ != nullptr && pipeline_->saveState(*snapshot_);
}

}  // namespace ebbiot
