// Kalman-filter tracking baseline — Section II-C, Eq. (7).
//
// The paper's comparison tracker follows Lin, Ramesh & Xiang (ACCV 2015):
// a constant-velocity motion model over track centroids (the published
// description keeps a measurement vector of the two centroid coordinates
// per track).  This module provides:
//   * ConstantVelocityKalman — a single-target KF with state
//     [xc, yc, vx, vy]^T and measurement [xc, yc]^T, run as two
//     independent per-axis filters (see the class comment); and
//   * KalmanTracker — the multi-target manager: greedy gated nearest-
//     centroid association of RPN proposals to tracks, seeding from
//     unmatched proposals, and EMA box-size smoothing (the KF itself
//     estimates only the centroid, as in the paper).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/op_counter.hpp"
#include "src/detect/region.hpp"
#include "src/trackers/track.hpp"

namespace ebbiot {

struct KalmanConfig {
  double processNoise = 1.0;      ///< accel noise spectral density, px/fr^2
  double measurementNoise = 2.0;  ///< centroid measurement sigma, px
  double initialVelocitySigma = 5.0;

  /// Throws ConfigError unless every field is finite and >= 0.
  void validate() const;
};

/// Single-target constant-velocity Kalman filter (frame-indexed: dt = 1).
///
/// F, H, Q, R and the initial covariance are block-diagonal per axis, so
/// the 4-state recursion is two independent filters over (position,
/// velocity): the covariance blocks between the axes stay exactly zero and
/// the innovation covariance S is diagonal.  The covariance recursion
/// never reads a measurement, and both axes start from the same P0 with
/// the same Q and R, so the two diagonal blocks are equal at every step:
/// the filter keeps one 2x2 block, not symmetrised, plus each axis'
/// position and velocity.  It does the floating-point operations of the
/// dense 4x4 products P <- F P F^T + Q, K = P H^T S^-1 and
/// P <- (I - K H) P in their order, so it equals that recursion bit for
/// bit (pinned in tests/test_kalman.cpp).
class ConstantVelocityKalman {
 public:
  /// Each axis' covariance over (position, velocity): [[a, b], [c, d]].
  struct Covariance {
    double a = 0.0;
    double b = 0.0;
    double c = 0.0;
    double d = 0.0;
  };

  ConstantVelocityKalman(Vec2f position, const KalmanConfig& config);

  /// Time update: x <- F x, P <- F P F^T + Q.
  void predict();

  /// Measurement update with a centroid observation.  Throws LogicError,
  /// leaving the filter unchanged, when the innovation variance P_pp + R
  /// is below 1e-12 in magnitude.
  void update(Vec2f measuredPosition);

  [[nodiscard]] Vec2f position() const;
  [[nodiscard]] Vec2f velocity() const;

  /// Innovation (pre-fit residual) magnitude of the last update.
  [[nodiscard]] double lastInnovation() const { return lastInnovation_; }

  /// The covariance block both axes share.
  [[nodiscard]] const Covariance& covariance() const { return cov_; }

 private:
  std::array<double, 2> p_{};  ///< position per axis
  std::array<double, 2> v_{};  ///< velocity per axis
  Covariance cov_;
  double q4_ = 0.0;  ///< Q per axis, dt = 1: [[q/4, q/2], [q/2, q]]
  double q2_ = 0.0;
  double q_ = 0.0;
  double r_ = 0.0;   ///< R per axis: measurementNoise^2
  double lastInnovation_ = 0.0;
};

/// How proposals are associated to tracks.
enum class AssociationMethod {
  kGreedy,     ///< globally closest pair first (the embedded default)
  kHungarian,  ///< cost-optimal assignment (src/trackers/assignment.hpp)
};

struct KalmanTrackerConfig {
  int maxTracks = 8;            ///< NT, matched to the OT for fairness
  KalmanConfig filter;
  AssociationMethod association = AssociationMethod::kGreedy;
  double gateDistance = 40.0;   ///< max centroid distance for association
  float sizeSmoothing = 0.7F;   ///< EMA weight of previous size
  int maxMisses = 3;
  int minHitsToReport = 3;      ///< same report gate as the OT, for fairness
  float minSeedArea = 12.0F;
  int frameWidth = 240;
  int frameHeight = 180;
};

class KalmanTracker {
 public:
  /// Config type consumed by this back end (used by FramePipeline).
  using Config = KalmanTrackerConfig;

  explicit KalmanTracker(const KalmanTrackerConfig& config);

  /// Advance one frame with this frame's region proposals.
  Tracks update(const RegionProposals& proposals);

  [[nodiscard]] int activeCount() const;

  /// Ops of the most recent update, comparable to C_KF of Eq. (7).
  /// ops-model: metered — predict/update matrix ops counted per live track.
  [[nodiscard]] const OpCounts& lastOps() const { return ops_; }

  [[nodiscard]] const KalmanTrackerConfig& config() const { return config_; }

 private:
  struct Entry {
    Track track;
    ConstantVelocityKalman filter;
    float w = 0.0F;  ///< smoothed box size
    float h = 0.0F;
  };

  void refreshTrackBox(Entry& entry);

  KalmanTrackerConfig config_;
  std::vector<Entry> entries_;
  std::uint32_t nextId_ = 1;
  OpCounts ops_;

  /// Per-frame association storage, reused across update() calls, so a
  /// warm greedy update allocates only the returned Tracks.  It carries
  /// nothing from one frame to the next, so copies (pipeline snapshots)
  /// skip it.
  struct Pair {
    double dist;
    std::size_t track;
    std::size_t proposal;
  };
  struct Scratch {
    Scratch() = default;
    Scratch(const Scratch& /*other*/) {}
    Scratch& operator=(const Scratch& /*other*/) { return *this; }
    std::vector<bool> trackMatched;
    std::vector<bool> proposalMatched;
    std::vector<double> costs;  ///< track-major, kForbidden outside the gate
    std::vector<Pair> pairs;    ///< gated pairs, greedy association only
  };
  Scratch scratch_;
};

}  // namespace ebbiot
