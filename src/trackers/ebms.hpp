// Event-Based Mean Shift cluster tracker (EBMS) — the fully event-driven
// baseline of Section II-C / Eq. (8), re-implemented from Delbruck & Lang
// (Frontiers in Neuroscience 2013; the jAER "RectangularClusterTracker"
// family).
//
// Operation per event (after NN-filt denoising):
//   * find the nearest cluster whose capture region contains the event;
//   * if found, update its running size estimate (mean absolute deviation
//     of event offsets, measured against the centroid *before* the step),
//     mean-shift the cluster toward the event with a small mixing factor
//     and bump its support count;
//   * otherwise seed a *potential* cluster in a free slot (CLmax bound);
//     potential clusters become visible once they accumulate enough
//     support events.
// Periodic maintenance (once per frame window in this implementation):
//   * prune clusters that have not received events within their lifetime;
//   * merge overlapping clusters, keeping the more-supported one (the
//     gamma_merge probability of Eq. (8));
//   * recompute velocity by least-squares regression over the last 10
//     sampled positions (the paper's stated velocity estimator).
//
// This class is the *structure-of-arrays fast path*: cluster state lives
// in parallel arrays sized CLmax at construction (positions, MADs,
// support, timestamps, velocity), and the per-event argmin scans the live
// clusters in index order with the config hoisted into registers — the
// scan the reference runs and Eq. (8) charges for.  The position history
// is a fixed-capacity ring per cluster with running regression sums (see
// ebms_common.hpp), so the velocity fit is O(1) per sample and per
// maintain instead of O(window) per maintain — and the whole tracker
// allocates nothing after construction.
//
// The scalar deque-based formulation is kept as EbmsTrackerReference
// (ebms_reference.hpp); differential tests pin this class bit-identical
// to it in clusters, visible tracks *and* OpCounts — the reference
// meters its ops as it runs, this class charges the same counts in
// closed form from per-packet tallies (the MedianFilter / CcaLabeler
// reference-pinning convention of PRs 3-4).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/op_counter.hpp"
#include "src/common/time.hpp"
#include "src/events/event_packet.hpp"
#include "src/trackers/ebms_common.hpp"
#include "src/trackers/track.hpp"

namespace ebbiot {

struct EbmsConfig {
  int maxClusters = 8;            ///< CLmax of Eq. (8)
  float captureRadius = 30.0F;    ///< half-extent of the capture region, px
  float mixingFactor = 0.02F;     ///< mean-shift step per event
  int visibilitySupport = 15;     ///< events before a cluster is reported
  TimeUs clusterLifetime = 150'000;   ///< prune after this silence, us
  float mergeOverlapFraction = 0.4F;  ///< overlap triggering a merge
  int velocityWindow = 10;        ///< positions for the LSQ velocity fit
  TimeUs positionSampleInterval = 6'600;  ///< history sampling period, us
  float sizeSmoothing = 0.98F;    ///< EMA on the size estimate
  float minBoxSide = 6.0F;        ///< floor on reported box sides, px
};

/// Initial MAD of a freshly seeded cluster, px (both implementations).
inline constexpr float kEbmsInitialMad = 4.0F;

class EbmsTracker {
 public:
  explicit EbmsTracker(const EbmsConfig& config);

  /// Feed one denoised event.
  void processEvent(const Event& event);

  /// Feed a whole packet, then run maintenance (prune/merge/velocity) at
  /// the packet boundary.
  void processPacket(const EventPacket& packet);

  /// Clusters that have reached visibility, as tracks (box = estimated
  /// extent around the cluster centre), into a reused vector — the
  /// steady-state path allocates nothing once `out` has capacity.
  void visibleTracksInto(Tracks& out) const;

  /// All clusters including potential ones, into a reused vector.
  void allClustersInto(Tracks& out) const;

  /// Convenience by-value variants of the Into accessors.
  [[nodiscard]] Tracks visibleTracks() const;
  [[nodiscard]] Tracks allClusters() const;

  [[nodiscard]] int activeCount() const { return count_; }

  /// Ops across the most recent processPacket call, comparable to the
  /// per-frame C_EBMS of Eq. (8).  Charged in closed form; pinned equal
  /// to EbmsTrackerReference's metered counts by differential tests.
  /// ops-model: closed-form — per-event capture/update costs charged analytically;
  /// pinned against the metered reference by tests/test_ebms_soa.cpp.
  [[nodiscard]] const OpCounts& lastOps() const { return ops_; }

  /// Number of cluster merges performed so far (drives the measured
  /// gamma_merge of Eq. (8)).
  [[nodiscard]] std::uint64_t mergeCount() const { return mergeCount_; }

  [[nodiscard]] const EbmsConfig& config() const { return config_; }

 private:
  /// Config fields of the per-event hot loop, copied into a local so the
  /// compiler can keep them in registers across the packet (stores into
  /// the SoA arrays cannot alias a stack copy).
  struct HotConfig {
    float radius;
    float mixing;
    float smoothing;
    TimeUs sampleInterval;
    int maxClusters;
  };

  [[nodiscard]] HotConfig hotConfig() const {
    return {config_.captureRadius, config_.mixingFactor,
            config_.sizeSmoothing, config_.positionSampleInterval,
            config_.maxClusters};
  }

  /// Per-packet tallies of the event loop, kept in the caller's frame so
  /// the hot path updates registers, not member memory.
  struct Tally {
    std::uint64_t scanned = 0;
    std::uint64_t captured = 0;
  };

  // always_inline: GCC's size heuristics refuse to inline the event body
  // into the packet loop on their own, leaving a per-event call (and the
  // tally in memory instead of registers) that costs more than the
  // cluster scan itself.
  [[gnu::always_inline]] inline void eventStep(const Event& event,
                                               const HotConfig& hot,
                                               Tally& tally);
  void chargeEventOps(const Tally& tally);
  void sampleCaptured(int i, TimeUs t, float x, float y);
  void seedCluster(float px, float py, TimeUs t);
  void pushSample(int i, TimeUs t, float x, float y);
  void maintain(TimeUs now);
  void mergePass();
  void refreshVelocity(int i);
  void eraseCluster(int i);
  void copyClusterIdentity(int from, int to);
  [[nodiscard]] BBox boxOf(int i) const;
  [[nodiscard]] Track trackOf(int i) const;

  EbmsConfig config_;
  int count_ = 0;  ///< live clusters; arrays below are packed [0, count_)

  // Hot SoA state, sized maxClusters at construction.
  std::vector<float> posX_;
  std::vector<float> posY_;
  std::vector<float> madX_;
  std::vector<float> madY_;
  std::vector<float> velX_;
  std::vector<float> velY_;
  std::vector<std::uint64_t> support_;
  std::vector<std::uint32_t> id_;
  std::vector<TimeUs> lastEventT_;
  std::vector<TimeUs> lastSampleT_;
  std::vector<TimeUs> bornT_;

  // Velocity-fit state: per cluster a fixed-capacity ring of quantised
  // samples (slab of velocityWindow entries) plus running sums.
  std::vector<ebms_detail::VelocitySums> sums_;
  std::vector<TimeUs> histOrigin_;
  std::vector<int> histBegin_;
  std::vector<int> histCount_;
  std::vector<TimeUs> histT_;
  std::vector<std::int64_t> histQx_;
  std::vector<std::int64_t> histQy_;

  std::vector<BBox> boxes_;  ///< merge-pass box cache (reused scratch)

  std::uint32_t nextId_ = 1;
  std::uint64_t mergeCount_ = 0;
  OpCounts ops_;
  TimeUs lastMaintain_ = 0;
};

}  // namespace ebbiot
