#include "src/trackers/kalman.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/error.hpp"
#include "src/trackers/assignment.hpp"

namespace ebbiot {

void KalmanConfig::validate() const {
  const auto check = [](double value, const char* name) {
    if (!std::isfinite(value) || value < 0.0) {
      throw ConfigError(std::string("KalmanConfig: ") + name +
                        " must be finite and >= 0 (got " +
                        std::to_string(value) + ")");
    }
  };
  check(processNoise, "processNoise");
  check(measurementNoise, "measurementNoise");
  check(initialVelocitySigma, "initialVelocitySigma");
}

ConstantVelocityKalman::ConstantVelocityKalman(Vec2f position,
                                               const KalmanConfig& config)
    // Discrete white-noise acceleration model, dt = 1 frame.
    : p_{position.x, position.y},
      q4_(config.processNoise / 4.0),
      q2_(config.processNoise / 2.0),
      q_(config.processNoise),
      r_(config.measurementNoise * config.measurementNoise) {
  cov_ = Covariance{r_, 0.0, 0.0,
                    config.initialVelocitySigma * config.initialVelocitySigma};
}

void ConstantVelocityKalman::predict() {
  const Covariance o = cov_;
  for (std::size_t i = 0; i < 2; ++i) {
    p_[i] += v_[i];
  }
  cov_.a = ((o.a + o.c) + (o.b + o.d)) + q4_;
  cov_.b = (o.b + o.d) + q2_;
  cov_.c = (o.c + o.d) + q2_;
  cov_.d = o.d + q_;
}

void ConstantVelocityKalman::update(Vec2f measuredPosition) {
  // S = H P H^T + R is diagonal with the one pivot a + r on both axes;
  // inverting it is refused, before anything changes, below 1e-12.
  const Covariance o = cov_;
  if (std::abs(o.a + r_) < 1e-12) {
    throw LogicError("ConstantVelocityKalman::update: singular S");
  }
  const double inv = 1.0 / (o.a + r_);
  const double k0 = o.a * inv;
  const double k1 = o.c * inv;
  const std::array<double, 2> z{measuredPosition.x, measuredPosition.y};
  std::array<double, 2> e{};
  for (std::size_t i = 0; i < 2; ++i) {
    e[i] = z[i] - p_[i];
    // Products round before they are summed, as in the dense 4x4
    // products.  That holds on targets without FMA (the default
    // x86-64 build): with FMA enabled, GCC's default -ffp-contract=fast
    // fuses them even across statements.
    const double dp = k0 * e[i];
    const double dv = k1 * e[i];
    p_[i] += dp;
    v_[i] += dv;
  }
  const double dc = k1 * o.a;
  const double dd = k1 * o.b;
  cov_.a = (1.0 - k0) * o.a;
  cov_.b = (1.0 - k0) * o.b;
  cov_.c = o.c - dc;
  cov_.d = o.d - dd;
  lastInnovation_ = std::hypot(e[0], e[1]);
}

Vec2f ConstantVelocityKalman::position() const {
  return {static_cast<float>(p_[0]), static_cast<float>(p_[1])};
}

Vec2f ConstantVelocityKalman::velocity() const {
  return {static_cast<float>(v_[0]), static_cast<float>(v_[1])};
}

KalmanTracker::KalmanTracker(const KalmanTrackerConfig& config)
    : config_(config) {
  EBBIOT_ASSERT(config.maxTracks >= 1);
  EBBIOT_ASSERT(config.gateDistance > 0.0);
  EBBIOT_ASSERT(config.frameWidth > 0 && config.frameHeight > 0);
  config.filter.validate();
}

void KalmanTracker::refreshTrackBox(Entry& entry) {
  const Vec2f c = entry.filter.position();
  entry.track.box = BBox{c.x - entry.w / 2.0F, c.y - entry.h / 2.0F,
                         entry.w, entry.h};
  entry.track.velocity = entry.filter.velocity();
}

Tracks KalmanTracker::update(const RegionProposals& proposals) {
  ops_.reset();

  // Time update for every live track.  Eq. (7) charges the KF recursions
  // in matrix-op counts; we meter real multiply/adds instead (4x4 matrix
  // products dominate).
  for (Entry& e : entries_) {
    e.filter.predict();
    ops_.multiplies += 4 * 4 * 4 * 2;  // F*x (4x4*4x1) + F*P*F^T products
    ops_.adds += 4 * 4 * 4 * 2;
  }

  // Gated association: centroid distances as costs, solved greedily
  // (closest pair first) or optimally (Hungarian), per config.
  const std::size_t nP = proposals.size();
  std::vector<bool>& trackMatched = scratch_.trackMatched;
  std::vector<bool>& proposalMatched = scratch_.proposalMatched;
  trackMatched.assign(entries_.size(), false);
  proposalMatched.assign(nP, false);
  constexpr double kForbidden = 1e17;

  std::vector<double>& costs = scratch_.costs;
  costs.assign(entries_.size() * nP, kForbidden);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Vec2f c = entries_[i].filter.position();
    for (std::size_t j = 0; j < nP; ++j) {
      if (proposals[j].box.empty()) {
        continue;
      }
      const Vec2f pc = proposals[j].box.center();
      const double d = std::hypot(c.x - pc.x, c.y - pc.y);
      ops_.multiplies += 2;
      ops_.adds += 3;
      ops_.compares += 1;
      if (d <= config_.gateDistance) {
        costs[i * nP + j] = d;
      }
    }
  }

  auto commitMatch = [&](std::size_t track, std::size_t proposal) {
    trackMatched[track] = true;
    proposalMatched[proposal] = true;
    Entry& e = entries_[track];
    const RegionProposal& prop = proposals[proposal];
    e.filter.update(prop.box.center());
    ops_.multiplies += 2 * 4 * 4 * 3;  // K gain products + state update
    ops_.adds += 2 * 4 * 4 * 3;
    const float ss = config_.sizeSmoothing;
    e.w = ss * e.w + (1.0F - ss) * prop.box.w;
    e.h = ss * e.h + (1.0F - ss) * prop.box.h;
    ++e.track.age;
    ++e.track.hits;
    e.track.misses = 0;
    refreshTrackBox(e);
  };

  if (config_.association == AssociationMethod::kHungarian &&
      !entries_.empty() && nP > 0) {
    const Assignment assignment =
        solveAssignment(costs, entries_.size(), nP, kForbidden);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (assignment.columnOfRow[i] >= 0) {
        commitMatch(i, static_cast<std::size_t>(assignment.columnOfRow[i]));
      }
    }
    // Rough op charge for the O(n^3) solve.
    const std::size_t n = std::max(entries_.size(), nP);
    ops_.adds += n * n * n;
  } else {
    std::vector<Pair>& pairs = scratch_.pairs;
    pairs.clear();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      for (std::size_t j = 0; j < nP; ++j) {
        if (costs[i * nP + j] < kForbidden) {
          pairs.push_back(Pair{costs[i * nP + j], i, j});
        }
      }
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const Pair& a, const Pair& b) { return a.dist < b.dist; });
    for (const Pair& p : pairs) {
      if (trackMatched[p.track] || proposalMatched[p.proposal]) {
        continue;
      }
      commitMatch(p.track, p.proposal);
    }
  }

  // Unmatched tracks coast on the prediction.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (trackMatched[i]) {
      continue;
    }
    Entry& e = entries_[i];
    ++e.track.age;
    ++e.track.misses;
    refreshTrackBox(e);
  }

  // Kill stale or departed tracks.
  std::erase_if(entries_, [this](const Entry& e) {
    if (e.track.misses > config_.maxMisses) {
      return true;
    }
    return clampToFrame(e.track.box, config_.frameWidth, config_.frameHeight)
        .empty();
  });

  // Seed from unmatched proposals.
  for (std::size_t j = 0; j < nP; ++j) {
    if (proposalMatched[j] ||
        static_cast<int>(entries_.size()) >= config_.maxTracks) {
      continue;
    }
    const RegionProposal& prop = proposals[j];
    ops_.compares += 1;
    if (prop.box.area() < config_.minSeedArea) {
      continue;
    }
    Entry e{Track{}, ConstantVelocityKalman(prop.box.center(),
                                            config_.filter),
            prop.box.w, prop.box.h};
    e.track.id = nextId_++;
    e.track.age = 1;
    e.track.hits = 1;
    refreshTrackBox(e);
    entries_.push_back(std::move(e));
    ops_.memWrites += 8;
  }

  Tracks out;
  out.reserve(entries_.size());
  for (Entry& e : entries_) {
    if (e.track.hits >= config_.minHitsToReport) {
      out.push_back(e.track);
    }
  }
  return out;
}

int KalmanTracker::activeCount() const {
  return static_cast<int>(entries_.size());
}

}  // namespace ebbiot
