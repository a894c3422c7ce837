// Per-sensor tracking with gap-aware fault recovery: the WindowSink that
// closes the wire → session → pipeline → tracks chain.
//
// One PipelineSink owns one Pipeline instance and feeds it the windows a
// SensorSession delivers, as delivered: frame-domain pipelines are
// latch-invariant (their EBBI build is the pixel latch; see
// InputDomain::kLatchedFrame), so the sink keeps no latch state of its
// own.  It bridges the transport's failure modes so the *tracker* (the
// paper's actual deliverable) survives them:
//
//   * Coast-through-gap: a bridgeable sequence gap (<= maxCoastWindows
//     windows lost) is filled with synthetic empty windows, so live
//     tracks coast on their velocity models and die by their own miss
//     budget instead of being silently teleported across the gap.
//   * Blind idle coasting: while a sensor is silent (watchdog stall),
//     coastIdle() keeps issuing empty windows — bounded by
//     maxCoastWindows — so the node keeps reporting predicted tracks
//     through a short outage.
//   * Snapshot/restore resync: after every real window the pipeline's
//     cross-window state is saved into a rolling PipelineSnapshot
//     (allocation-free once warm; see Pipeline::saveState).  When the
//     stream resyncs — an unbridgeable gap, a rebased sequence space
//     after a watchdog re-adopt, or the first real window after blind
//     idle coasting — the sink restores that last observed state: tracks
//     survive the outage frozen at their last confirmed positions, and
//     blind predictions are rolled back.  A pipeline with no snapshot
//     support (makeSnapshot() returns nullptr), or one whose restore
//     fails, is reset instead, as if the outage were a scene change.
//
// Threading: a PipelineSink is consumer-side state of exactly one
// session; it runs wherever that session's drainInto runs (one shard of
// the supervisor's pump) and needs no locking of its own.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/common/time.hpp"
#include "src/core/pipeline.hpp"
#include "src/events/event_packet.hpp"
#include "src/node/sensor_session.hpp"

namespace ebbiot {

struct PipelineSinkConfig {
  /// Longest run of lost or silent windows bridged by coasting; beyond
  /// it the sink resyncs (>= 1 for coasting to exist; 0 is legal and
  /// turns every gap into a resync).
  std::uint32_t maxCoastWindows = 8;
};

class PipelineSink final : public WindowSink {
 public:
  /// Everything the sink decided, exact and deterministic per stream.
  struct Counters {
    std::uint64_t windowsTracked = 0;    ///< real windows run end-to-end
    std::uint64_t gapsCoasted = 0;       ///< bridgeable gap episodes
    std::uint64_t windowsCoasted = 0;    ///< synthetic windows fed (gaps)
    std::uint64_t idleCoastWindows = 0;  ///< synthetic windows fed (idle)
    std::uint64_t resyncRestores = 0;    ///< snapshot restores applied
    std::uint64_t resyncResets = 0;      ///< pipeline resets applied

    friend bool operator==(const Counters&, const Counters&) = default;
  };

  /// Called after every real window with the pipeline's tracks (bench
  /// accuracy harness, tests).  Coast windows do not fire it.
  using TrackObserver = std::function<void(std::uint32_t seq,
                                           const Tracks& tracks)>;

  /// Takes ownership of the pipeline.  `width`/`height` is the sensor
  /// geometry; it is only validated (both > 0), since the sink hands
  /// every pipeline the delivered window.
  PipelineSink(std::unique_ptr<Pipeline> pipeline, int width, int height,
               const PipelineSinkConfig& config);

  void onWindow(const EventPacket& window, std::uint32_t seq,
                TimeUs ingestTime) override;

  /// One blind coast step for a silent sensor; returns false once the
  /// per-outage budget (maxCoastWindows) is spent.  The next real window
  /// resyncs, rolling the blind predictions back.
  bool coastIdle();

  [[nodiscard]] const Tracks& lastTracks() const { return lastTracks_; }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] Pipeline& pipeline() { return *pipeline_; }
  [[nodiscard]] const Pipeline& pipeline() const { return *pipeline_; }

  void setTrackObserver(TrackObserver observer) {
    observer_ = std::move(observer);
  }

 private:
  void trackWindow(const EventPacket& window, std::uint32_t seq);
  void coastOneWindow();
  void applyResync();
  void saveRollingSnapshot();

  std::unique_ptr<Pipeline> pipeline_;
  PipelineSinkConfig config_;

  bool primed_ = false;
  std::uint32_t expectedSeq_ = 0;
  TimeUs lastTEnd_ = 0;
  TimeUs lastDuration_ = kDefaultFramePeriodUs;
  std::uint32_t idleCoasted_ = 0;  ///< blind windows this outage

  std::unique_ptr<PipelineSnapshot> snapshot_;
  bool snapshotValid_ = false;

  EventPacket coastWindow_;  ///< reused empty window for coasting

  Tracks lastTracks_;
  Counters counters_;
  TrackObserver observer_;
};

}  // namespace ebbiot
