// Hybrid tracker back end — Ussa et al., arXiv:2007.11404.
//
// The hybrid framework keeps EBBIOT's cheap overlap test for frame-to-
// frame association (an object overlaps itself between frames at tF) but
// replaces the OT's hand-rolled velocity bookkeeping with a constant-
// velocity Kalman filter per track: matches become KF measurement
// updates, and unmatched tracks *coast on the KF prediction* with their
// velocity state retained — the behaviour that carries tracks through
// occlusions and proposal dropouts without the OT's explicit
// trajectory-crossing machinery.
//
// Per frame, with proposals P_j and tracks T_i:
//   1. predict:   every track's KF time update moves its centroid;
//   2. associate: predicted boxes vs proposals by overlap fraction
//                 (greedy, largest intersection first, one-to-one);
//   3. absorb:    leftover proposals that still overlap a matched track's
//                 prediction are unioned into its measurement
//                 (fragmentation repair via the track's history);
//   4. update:    matched tracks take a KF update at the measured
//                 centroid + EMA size smoothing;
//   5. coast:     unmatched tracks keep their KF prediction (velocity
//                 retained), die after maxMisses or off frame;
//   6. seed:      unmatched proposals claim free slots (NT bound).
//
// Exposed as a FramePipelineTraits specialisation ("Hybrid") so it rides
// behind the shared FrameFrontEnd like every other back end.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/op_counter.hpp"
#include "src/detect/region.hpp"
#include "src/trackers/kalman.hpp"
#include "src/trackers/track.hpp"

namespace ebbiot {

struct HybridTrackerConfig {
  int maxTrackers = 8;          ///< NT, matched to the OT for fairness
  float matchFraction = 0.15F;  ///< overlap fraction declaring a match
  KalmanConfig filter;          ///< centroid KF parameters
  float sizeSmoothing = 0.6F;   ///< EMA weight of previous size
  /// Fragment-absorption guard, as in the OT: a leftover proposal is only
  /// unioned into a matched track's measurement while the union stays
  /// within this factor of the predicted dimensions (+ margin).
  float maxUnionGrowth = 1.5F;
  float unionGrowthMarginPx = 8.0F;
  int maxMisses = 3;            ///< coast budget before the slot is freed
  int minHitsToReport = 3;
  float minSeedArea = 12.0F;
  int frameWidth = 240;
  int frameHeight = 180;
};

class HybridTracker {
 public:
  /// Config type consumed by this back end (used by FramePipeline).
  using Config = HybridTrackerConfig;

  explicit HybridTracker(const HybridTrackerConfig& config);

  /// Advance one frame with this frame's region proposals; returns the
  /// reported tracks (post-update positions).
  Tracks update(const RegionProposals& proposals);

  /// Number of occupied track slots.
  [[nodiscard]] int activeCount() const;

  /// Ops of the most recent update() call.
  /// ops-model: metered — sum of the OT association and KF smoothing work that ran.
  [[nodiscard]] const OpCounts& lastOps() const { return ops_; }

  [[nodiscard]] const HybridTrackerConfig& config() const { return config_; }

 private:
  struct Entry {
    Track track;
    ConstantVelocityKalman filter;
    float w = 0.0F;  ///< smoothed box size
    float h = 0.0F;
  };

  [[nodiscard]] BBox predictedBox(const Entry& entry) const;
  void refreshTrackBox(Entry& entry);

  HybridTrackerConfig config_;
  std::vector<Entry> entries_;
  std::uint32_t nextId_ = 1;
  OpCounts ops_;

  /// Per-frame association storage, reused across update() calls, so a
  /// warm update allocates only the returned Tracks.  It carries
  /// nothing from one frame to the next, so copies (pipeline snapshots)
  /// skip it.
  struct Candidate {
    float overlap;
    std::size_t track;
    std::size_t proposal;
  };
  struct Scratch {
    Scratch() = default;
    Scratch(const Scratch& /*other*/) {}
    Scratch& operator=(const Scratch& /*other*/) { return *this; }
    std::vector<BBox> pred;  ///< predicted box per track
    std::vector<Candidate> candidates;
    std::vector<int> trackOfProposal;
    std::vector<int> proposalOfTrack;
    std::vector<BBox> measurement;  ///< matched box plus its fragments
  };
  Scratch scratch_;
};

}  // namespace ebbiot
