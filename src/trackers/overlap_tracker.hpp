// The Overlap-based Tracker (OT) — Section II-C, the paper's contribution.
//
// A multi-tracker with up to NT = 8 simultaneously active trackers.  Two
// design assumptions (from the paper):
//   * tF is small enough that an object overlaps itself between frames,
//     so plain box overlap is a sufficient association test;
//   * distractors (trees, static occluders) are masked by a manually
//     supplied Region of Exclusion (ROE).
//
// Per frame, with region proposals P_j and trackers T_i:
//   1. predict:  T_i^pred = T_i shifted by its per-frame velocity;
//   2. match:    T_i^pred vs every P_j — a match needs overlap area larger
//                than `matchFraction` of either box's area;
//   3. seed:     unmatched P_j claims a free tracker slot (if any);
//   4. one tracker <-> k proposals: all k are assigned to it; the union
//                box is blended with the prediction (weighted average) —
//                the tracker's history "removes fragmentation" in the
//                current proposals;
//   5. one proposal <-> m trackers: either a dynamic occlusion (predicted
//                trajectories still overlap n = 2 steps ahead -> each
//                tracker coasts on its own prediction, velocity retained)
//                or earlier fragmentation seeded duplicate trackers
//                (-> merge into the senior tracker, free the rest).
//
// Engineering elaborations the paper leaves open (documented choices):
//   * matching is resolved per connected component of the tracker/proposal
//     overlap graph.  A component with one tracker is case 4.  With >= 2
//     trackers, every proposal shared by several trackers is resolved
//     first: if two of their trajectories cross, all of them coast
//     (occlusion); otherwise they merge into the senior tracker (most
//     hits), which takes the proposal.  Each exclusive proposal then goes
//     to its tracker, or to the senior that tracker merged into; a
//     coasting tracker consumes its proposals without updating;
//   * trackers missing a match coast along their velocity and are freed
//     after `maxMisses` consecutive misses or when they leave the frame;
//   * tracks are only *reported* after `minHitsToReport` matched frames,
//     suppressing single-frame noise tracks.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/op_counter.hpp"
#include "src/detect/region.hpp"
#include "src/trackers/track.hpp"

namespace ebbiot {

struct OverlapTrackerConfig {
  int maxTrackers = 8;         ///< NT
  float matchFraction = 0.15F; ///< overlap fraction declaring a match
  /// Weight of the *prediction* when blending predicted and measured
  /// positions (Section II-C step 4 "weighted average").
  float predictionWeight = 0.4F;
  /// Weight of the previous size when blending sizes (size changes slowly;
  /// damping suppresses proposal-size flicker from fragmentation).
  float sizeSmoothing = 0.6F;
  /// EMA factor on velocity: v <- velBlend*v + (1-velBlend)*v_measured.
  float velocityBlend = 0.6F;
  /// Fragment-merge guard: when several proposals match one tracker, they
  /// are only absorbed while the union stays within this factor of the
  /// predicted box dimensions (plus a small absolute margin).  This is the
  /// "past history of tracker is used to remove fragmentation" rule of
  /// Section II-C step 4: history says how big the object is, so a merge
  /// that would swallow a *different* object is rejected and the spare
  /// proposal is released to seed its own tracker.
  float maxUnionGrowth = 1.5F;
  float unionGrowthMarginPx = 8.0F;
  /// Duplicate suppression (the case-5 "merged into one tracker" rule
  /// applied continuously): two live trackers whose boxes overlap by at
  /// least this fraction of the smaller box AND whose velocities agree
  /// within `duplicateVelocityTol` are duplicates of one object; the
  /// junior one (fewer hits) is freed.  Crossing objects have opposing
  /// velocities and are never collapsed.
  float duplicateOverlap = 0.6F;
  float duplicateVelocityTol = 1.5F;  ///< px/frame
  int occlusionLookahead = 2;  ///< n future steps for occlusion detection
  /// Position-uncertainty margin on the occlusion trajectory check.  The
  /// event halo merges two objects' proposals roughly one frame-travel
  /// before their boxes touch, so the trajectories are tested inflated by
  /// this many pixels.
  float occlusionMarginPx = 2.0F;
  int maxMisses = 3;           ///< coast budget before the slot is freed
  int minHitsToReport = 3;
  float minSeedArea = 12.0F;   ///< proposals smaller than this never seed
  int frameWidth = 240;
  int frameHeight = 180;
  /// Regions of exclusion: proposals whose centre falls inside any of
  /// these boxes are dropped before matching.
  std::vector<BBox> regionsOfExclusion;
};

class OverlapTracker {
 public:
  /// Config type consumed by this back end (used by FramePipeline).
  using Config = OverlapTrackerConfig;

  explicit OverlapTracker(const OverlapTrackerConfig& config);

  /// Advance one frame with this frame's region proposals; returns the
  /// reported tracks (post-update positions).
  Tracks update(const RegionProposals& rawProposals);

  /// All live (slot-occupying) tracks, reported or not — for tests.
  [[nodiscard]] Tracks liveTracks() const;

  /// Number of occupied tracker slots.
  [[nodiscard]] int activeCount() const;

  /// Ops of the most recent update() call, comparable to C_OT of Eq. (6).
  /// ops-model: metered — per-case association work counted as it runs.
  [[nodiscard]] const OpCounts& lastOps() const { return ops_; }

  [[nodiscard]] const OverlapTrackerConfig& config() const { return config_; }

 private:
  struct Slot {
    bool valid = false;
    Track track;
    Vec2f velocity;  ///< px/frame (duplicated into track.velocity on report)
  };

  [[nodiscard]] BBox predictBox(const Slot& slot, int steps) const;
  [[nodiscard]] bool insideRoe(const BBox& box) const;
  void seed(const RegionProposal& proposal);
  void updateMatched(Slot& slot, const BBox& merged);
  void coast(Slot& slot);
  [[nodiscard]] bool shouldKill(const Slot& slot) const;

  OverlapTrackerConfig config_;
  std::vector<Slot> slots_;
  std::uint32_t nextId_ = 1;
  OpCounts ops_;

  /// Per-frame working storage, reused across update() calls.  The rest
  /// of update() still allocates: every component with a match builds
  /// its compTrackers, compProposals and both search stacks, and
  /// absorbFragments copies its proposal list to sort it; components of
  /// >= 2 trackers add per-tracker vectors, and the returned Tracks is a
  /// new vector.
  struct Scratch {
    std::vector<RegionProposal> proposals;     ///< after ROE masking
    std::vector<int> live;                     ///< occupied slot indices
    std::vector<BBox> pred;                    ///< 1-step predictions
    std::vector<std::vector<int>> matchesOfTracker;
    std::vector<std::vector<int>> matchesOfProposal;
    std::vector<bool> trackerDone;
    std::vector<bool> proposalDone;
    std::vector<bool> releasedProposal;
  };
  Scratch scratch_;
};

}  // namespace ebbiot
