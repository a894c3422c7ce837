#include "src/trackers/hybrid_tracker.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace ebbiot {

HybridTracker::HybridTracker(const HybridTrackerConfig& config)
    : config_(config) {
  EBBIOT_ASSERT(config.maxTrackers >= 1);
  EBBIOT_ASSERT(config.matchFraction > 0.0F && config.matchFraction <= 1.0F);
  EBBIOT_ASSERT(config.sizeSmoothing >= 0.0F && config.sizeSmoothing <= 1.0F);
  EBBIOT_ASSERT(config.frameWidth > 0 && config.frameHeight > 0);
  config.filter.validate();
}

BBox HybridTracker::predictedBox(const Entry& entry) const {
  const Vec2f c = entry.filter.position();
  return BBox{c.x - entry.w / 2.0F, c.y - entry.h / 2.0F, entry.w, entry.h};
}

void HybridTracker::refreshTrackBox(Entry& entry) {
  entry.track.box = predictedBox(entry);
  entry.track.velocity = entry.filter.velocity();
}

Tracks HybridTracker::update(const RegionProposals& proposals) {
  ops_.reset();

  // --- Step 1: KF time update for every live track.
  for (Entry& e : entries_) {
    e.filter.predict();
    ops_.multiplies += 4 * 4 * 4 * 2;  // F*x + F*P*F^T products
    ops_.adds += 4 * 4 * 4 * 2;
  }

  // --- Step 2: overlap association, greedy largest-intersection first.
  const std::size_t nT = entries_.size();
  const std::size_t nP = proposals.size();
  std::vector<BBox>& pred = scratch_.pred;
  pred.resize(nT);
  for (std::size_t i = 0; i < nT; ++i) {
    pred[i] = predictedBox(entries_[i]);
  }
  std::vector<Candidate>& candidates = scratch_.candidates;
  candidates.clear();
  for (std::size_t i = 0; i < nT; ++i) {
    for (std::size_t j = 0; j < nP; ++j) {
      ops_.compares += 4;  // interval tests of the overlap predicate
      ops_.multiplies += 2;
      if (!proposals[j].box.empty() &&
          overlapMatches(pred[i], proposals[j].box, config_.matchFraction)) {
        candidates.push_back(
            Candidate{intersectionArea(pred[i], proposals[j].box), i, j});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.overlap != b.overlap) {
                return a.overlap > b.overlap;
              }
              if (a.track != b.track) {
                return a.track < b.track;
              }
              return a.proposal < b.proposal;
            });
  std::vector<int>& trackOfProposal = scratch_.trackOfProposal;
  std::vector<int>& proposalOfTrack = scratch_.proposalOfTrack;
  trackOfProposal.assign(nP, -1);
  proposalOfTrack.assign(nT, -1);
  for (const Candidate& c : candidates) {
    ops_.compares += 1;
    if (proposalOfTrack[c.track] >= 0 || trackOfProposal[c.proposal] >= 0) {
      continue;
    }
    proposalOfTrack[c.track] = static_cast<int>(c.proposal);
    trackOfProposal[c.proposal] = static_cast<int>(c.track);
  }

  // --- Step 3: leftover proposals that overlap a matched track's
  // prediction are fragments of it — union them into the measurement
  // while the union stays near the remembered size (track history
  // repairs fragmentation, as in the OT).
  std::vector<BBox>& measurement = scratch_.measurement;
  measurement.assign(nT, BBox{});
  for (std::size_t i = 0; i < nT; ++i) {
    if (proposalOfTrack[i] >= 0) {
      measurement[i] =
          proposals[static_cast<std::size_t>(proposalOfTrack[i])].box;
    }
  }
  for (const Candidate& c : candidates) {
    if (trackOfProposal[c.proposal] >= 0 || proposalOfTrack[c.track] < 0) {
      continue;  // proposal claimed, or track itself unmatched
    }
    const BBox grown =
        unite(measurement[c.track], proposals[c.proposal].box);
    const float maxW = pred[c.track].w * config_.maxUnionGrowth +
                       config_.unionGrowthMarginPx;
    const float maxH = pred[c.track].h * config_.maxUnionGrowth +
                       config_.unionGrowthMarginPx;
    ops_.compares += 2;
    ops_.adds += 4;
    if (grown.w <= maxW && grown.h <= maxH) {
      measurement[c.track] = grown;
      trackOfProposal[c.proposal] = static_cast<int>(c.track);
    }
  }

  // --- Steps 4 + 5: measurement updates and KF coasting.
  for (std::size_t i = 0; i < nT; ++i) {
    Entry& e = entries_[i];
    if (proposalOfTrack[i] >= 0) {
      const BBox& meas = measurement[i];
      e.filter.update(meas.center());
      ops_.multiplies += 2 * 4 * 4 * 3;  // gain products + state update
      ops_.adds += 2 * 4 * 4 * 3;
      const float ss = config_.sizeSmoothing;
      e.w = ss * e.w + (1.0F - ss) * meas.w;
      e.h = ss * e.h + (1.0F - ss) * meas.h;
      ops_.multiplies += 4;
      ops_.adds += 2;
      ++e.track.age;
      ++e.track.hits;
      e.track.misses = 0;
      e.track.occluded = false;
    } else {
      // Coast on the KF prediction: position already advanced in step 1,
      // velocity state retained for when the object reappears.
      ++e.track.age;
      ++e.track.misses;
      e.track.occluded = true;
      ops_.adds += 2;
    }
    refreshTrackBox(e);
  }

  // Kill stale or departed tracks.
  std::erase_if(entries_, [this](const Entry& e) {
    return e.track.misses > config_.maxMisses ||
           clampToFrame(e.track.box, config_.frameWidth, config_.frameHeight)
               .empty();
  });

  // --- Step 6: seed from unmatched proposals while slots remain.
  for (std::size_t j = 0; j < nP; ++j) {
    if (trackOfProposal[j] >= 0 ||
        static_cast<int>(entries_.size()) >= config_.maxTrackers) {
      continue;
    }
    const RegionProposal& prop = proposals[j];
    ops_.compares += 1;
    if (prop.box.empty() || prop.box.area() < config_.minSeedArea) {
      continue;
    }
    Entry e{Track{}, ConstantVelocityKalman(prop.box.center(), config_.filter),
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

int HybridTracker::activeCount() const {
  return static_cast<int>(entries_.size());
}

}  // namespace ebbiot
