#include "src/trackers/ebms.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/error.hpp"

namespace ebbiot {

EbmsTracker::EbmsTracker(const EbmsConfig& config) : config_(config) {
  EBBIOT_ASSERT(config.maxClusters >= 1);
  EBBIOT_ASSERT(config.captureRadius > 0.0F);
  EBBIOT_ASSERT(config.mixingFactor > 0.0F && config.mixingFactor <= 1.0F);
  EBBIOT_ASSERT(config.velocityWindow >= 2);
  const auto n = static_cast<std::size_t>(config.maxClusters);
  const auto w = static_cast<std::size_t>(config.velocityWindow);
  posX_.resize(n);
  posY_.resize(n);
  madX_.resize(n);
  madY_.resize(n);
  velX_.resize(n);
  velY_.resize(n);
  support_.resize(n);
  id_.resize(n);
  lastEventT_.resize(n);
  lastSampleT_.resize(n);
  bornT_.resize(n);
  sums_.resize(n);
  histOrigin_.resize(n);
  histBegin_.resize(n);
  histCount_.resize(n);
  histT_.resize(n * w);
  histQx_.resize(n * w);
  histQy_.resize(n * w);
  boxes_.reserve(n);
}

BBox EbmsTracker::boxOf(int i) const {
  // Rectangular extent from the mean absolute deviation of recent events:
  // for a uniform box profile, full width ~= 4 * MAD.
  const auto idx = static_cast<std::size_t>(i);
  const float w = std::max(config_.minBoxSide, 4.0F * madX_[idx]);
  const float h = std::max(config_.minBoxSide, 4.0F * madY_[idx]);
  return BBox{posX_[idx] - w / 2.0F, posY_[idx] - h / 2.0F, w, h};
}

void EbmsTracker::processEvent(const Event& event) {
  Tally tally;
  eventStep(event, hotConfig(), tally);
  chargeEventOps(tally);  // per-call, like the reference's inline metering
}

void EbmsTracker::chargeEventOps(const Tally& tally) {
  // Closed form of the reference's per-event metering: 2 compares +
  // 2 adds per cluster scanned, 8 multiplies + 4 adds per captured
  // event.  (The sampling and seeding memWrites are charged by the cold
  // paths themselves.)
  ops_.compares += 2 * tally.scanned;
  ops_.adds += 2 * tally.scanned + 4 * tally.captured;
  ops_.multiplies += 8 * tally.captured;
}

// Hot per-event body.  Deliberately tiny (the sampling and seeding tails
// live in out-of-line cold functions) so it inlines into the packet loop
// — a per-event call would cost more than the scan itself.
inline void EbmsTracker::eventStep(const Event& event, const HotConfig& hot,
                                   Tally& tally) {
  const float px = static_cast<float>(event.x) + 0.5F;
  const float py = static_cast<float>(event.y) + 0.5F;
  const int n = count_;
  tally.scanned += static_cast<std::uint64_t>(n);
  // Nearest cluster whose capture region contains the event: L1 argmin
  // over the live clusters in index order — exactly the reference's scan.
  int best = -1;
  float bestKey = std::numeric_limits<float>::max();
  const float* xs = posX_.data();
  const float* ys = posY_.data();
  for (int i = 0; i < n; ++i) {
    const float dx = std::abs(px - xs[i]);
    const float dy = std::abs(py - ys[i]);
    if (dx <= hot.radius && dy <= hot.radius) {
      const float d = dx + dy;
      if (d < bestKey) {  // strict <: first-lowest-index wins ties
        bestKey = d;
        best = i;
      }
    }
  }
  if (best < 0) {
    // Seed a potential cluster if a slot is free.
    if (n < hot.maxClusters) [[unlikely]] {
      seedCluster(px, py, event.t);
    }
    return;
  }
  ++tally.captured;
  // Size estimate first (deviation measured against the centroid *before*
  // the mean-shift step), then the mean-shift itself.
  const auto b = static_cast<std::size_t>(best);
  const float bestDx = std::abs(px - posX_[b]);
  const float bestDy = std::abs(py - posY_[b]);
  const float s = hot.smoothing;
  madX_[b] = s * madX_[b] + (1.0F - s) * bestDx;
  madY_[b] = s * madY_[b] + (1.0F - s) * bestDy;
  const float m = hot.mixing;
  const float nx = (1.0F - m) * posX_[b] + m * px;
  const float ny = (1.0F - m) * posY_[b] + m * py;
  posX_[b] = nx;
  posY_[b] = ny;
  ++support_[b];
  lastEventT_[b] = event.t;
  if (event.t - lastSampleT_[b] >= hot.sampleInterval) [[unlikely]] {
    sampleCaptured(best, event.t, nx, ny);
  }
}

void EbmsTracker::sampleCaptured(int i, TimeUs t, float x, float y) {
  pushSample(i, t, x, y);
  lastSampleT_[static_cast<std::size_t>(i)] = t;
  ops_.memWrites += 3;
}

void EbmsTracker::seedCluster(float px, float py, TimeUs t) {
  const auto i = static_cast<std::size_t>(count_);
  id_[i] = nextId_++;
  posX_[i] = px;
  posY_[i] = py;
  madX_[i] = kEbmsInitialMad;
  madY_[i] = kEbmsInitialMad;
  velX_[i] = 0.0F;
  velY_[i] = 0.0F;
  support_[i] = 1;
  lastEventT_[i] = t;
  lastSampleT_[i] = t;
  bornT_[i] = t;
  sums_[i] = {};
  histBegin_[i] = 0;
  histCount_[i] = 0;
  ++count_;
  pushSample(static_cast<int>(i), t, px, py);
  ops_.memWrites += 6;
}

void EbmsTracker::pushSample(int i, TimeUs t, float x, float y) {
  const int w = config_.velocityWindow;
  const auto idx = static_cast<std::size_t>(i);
  const std::size_t base = idx * static_cast<std::size_t>(w);
  const std::int64_t qx = ebms_detail::quantizePosition(x);
  const std::int64_t qy = ebms_detail::quantizePosition(y);
  if (histCount_[idx] == 0) {
    // Fixed per-cluster origin; any origin solves the same fit exactly
    // (shift invariance of the integer sums, see ebms_common.hpp).
    histOrigin_[idx] = t;
  } else if (histCount_[idx] == w) {
    const std::size_t oldest =
        base + static_cast<std::size_t>(histBegin_[idx]);
    sums_[idx].remove(
        static_cast<std::uint64_t>(histT_[oldest] - histOrigin_[idx]),
        histQx_[oldest], histQy_[oldest]);
    histBegin_[idx] = (histBegin_[idx] + 1) % w;
    --histCount_[idx];
  }
  const std::size_t slot =
      base + static_cast<std::size_t>((histBegin_[idx] + histCount_[idx]) % w);
  histT_[slot] = t;
  histQx_[slot] = qx;
  histQy_[slot] = qy;
  sums_[idx].add(static_cast<std::uint64_t>(t - histOrigin_[idx]), qx, qy);
  ++histCount_[idx];
}

void EbmsTracker::processPacket(const EventPacket& packet) {
  ops_.reset();
  const HotConfig hot = hotConfig();
  Tally tally;  // stays in registers across the loop
  for (const Event& e : packet) {
    eventStep(e, hot, tally);
  }
  chargeEventOps(tally);
  maintain(packet.tEnd());
}

void EbmsTracker::maintain(TimeUs now) {
  // Prune silent clusters (comparisons charged on the pre-erase count).
  ops_.compares += static_cast<std::uint64_t>(count_);
  for (int i = count_ - 1; i >= 0; --i) {
    if (now - lastEventT_[static_cast<std::size_t>(i)] >
        config_.clusterLifetime) {
      eraseCluster(i);
    }
  }

  mergePass();

  for (int i = 0; i < count_; ++i) {
    refreshVelocity(i);
  }
  lastMaintain_ = now;
}

void EbmsTracker::mergePass() {
  // Merge overlapping clusters; same pass (and metering) as the
  // reference: boxes cached per pass, survivor stored at the lower slot,
  // scan continues in place re-checking only the survivor's row.
  boxes_.clear();
  for (int i = 0; i < count_; ++i) {
    boxes_.push_back(boxOf(i));
    ops_.multiplies += 2;
    ops_.compares += 2;
  }
  int i = 0;
  while (i < count_) {
    int j = i + 1;
    while (j < count_) {
      ops_.compares += 4;
      if (!overlapMatches(boxes_[static_cast<std::size_t>(i)],
                          boxes_[static_cast<std::size_t>(j)],
                          config_.mergeOverlapFraction)) {
        ++j;
        continue;
      }
      const auto ii = static_cast<std::size_t>(i);
      const auto jj = static_cast<std::size_t>(j);
      const bool keepFirst = support_[ii] >= support_[jj];
      const auto k = keepFirst ? ii : jj;
      const auto d = keepFirst ? jj : ii;
      const float wK = static_cast<float>(support_[k]) /
                       static_cast<float>(support_[k] + support_[d]);
      const float mergedX = wK * posX_[k] + (1.0F - wK) * posX_[d];
      const float mergedY = wK * posY_[k] + (1.0F - wK) * posY_[d];
      const float mergedMadX = std::max(madX_[k], madX_[d]);
      const float mergedMadY = std::max(madY_[k], madY_[d]);
      const std::uint64_t mergedSupport = support_[k] + support_[d];
      const TimeUs mergedLastEventT = std::max(lastEventT_[k], lastEventT_[d]);
      ops_.multiplies += 4;
      ops_.adds += 6;
      if (!keepFirst) {
        copyClusterIdentity(j, i);  // survivor's id/history move to slot i
      }
      posX_[ii] = mergedX;
      posY_[ii] = mergedY;
      madX_[ii] = mergedMadX;
      madY_[ii] = mergedMadY;
      support_[ii] = mergedSupport;
      lastEventT_[ii] = mergedLastEventT;
      eraseCluster(j);
      boxes_.erase(boxes_.begin() + j);
      boxes_[ii] = boxOf(i);
      ops_.multiplies += 2;
      ops_.compares += 2;
      ++mergeCount_;
      j = i + 1;  // the survivor's box changed: re-scan its row
    }
    ++i;
  }
}

void EbmsTracker::refreshVelocity(int i) {
  const auto idx = static_cast<std::size_t>(i);
  const std::uint64_t n = sums_[idx].n;
  if (n < 2) {
    velX_[idx] = 0.0F;
    velY_[idx] = 0.0F;
    return;
  }
  // The abstract accounting stays the reference's metered per-sample loop
  // (3 multiplies + 6 adds per history entry, 8 + 4 for the solve),
  // charged in closed form — the running sums make the solve O(1).
  ops_.multiplies += 3 * n;
  ops_.adds += 6 * n;
  const ebms_detail::VelocityFit fit = ebms_detail::solveVelocity(sums_[idx]);
  velX_[idx] = fit.velocity.x;
  velY_[idx] = fit.velocity.y;
  if (fit.fitted) {
    ops_.multiplies += 8;
    ops_.adds += 4;
  }
}

void EbmsTracker::eraseCluster(int i) {
  const auto shift = [&](auto& v) {
    std::copy(v.begin() + i + 1, v.begin() + count_, v.begin() + i);
  };
  shift(posX_);
  shift(posY_);
  shift(madX_);
  shift(madY_);
  shift(velX_);
  shift(velY_);
  shift(support_);
  shift(id_);
  shift(lastEventT_);
  shift(lastSampleT_);
  shift(bornT_);
  shift(sums_);
  shift(histOrigin_);
  shift(histBegin_);
  shift(histCount_);
  const auto w = static_cast<std::ptrdiff_t>(config_.velocityWindow);
  const auto from = static_cast<std::ptrdiff_t>(i + 1) * w;
  const auto to = static_cast<std::ptrdiff_t>(count_) * w;
  const auto dst = static_cast<std::ptrdiff_t>(i) * w;
  std::copy(histT_.begin() + from, histT_.begin() + to, histT_.begin() + dst);
  std::copy(histQx_.begin() + from, histQx_.begin() + to,
            histQx_.begin() + dst);
  std::copy(histQy_.begin() + from, histQy_.begin() + to,
            histQy_.begin() + dst);
  --count_;
}

void EbmsTracker::copyClusterIdentity(int from, int to) {
  const auto f = static_cast<std::size_t>(from);
  const auto t = static_cast<std::size_t>(to);
  id_[t] = id_[f];
  bornT_[t] = bornT_[f];
  lastSampleT_[t] = lastSampleT_[f];
  velX_[t] = velX_[f];
  velY_[t] = velY_[f];
  sums_[t] = sums_[f];
  histOrigin_[t] = histOrigin_[f];
  histBegin_[t] = histBegin_[f];
  histCount_[t] = histCount_[f];
  const auto w = static_cast<std::size_t>(config_.velocityWindow);
  std::copy(histT_.begin() + static_cast<std::ptrdiff_t>(f * w),
            histT_.begin() + static_cast<std::ptrdiff_t>(f * w + w),
            histT_.begin() + static_cast<std::ptrdiff_t>(t * w));
  std::copy(histQx_.begin() + static_cast<std::ptrdiff_t>(f * w),
            histQx_.begin() + static_cast<std::ptrdiff_t>(f * w + w),
            histQx_.begin() + static_cast<std::ptrdiff_t>(t * w));
  std::copy(histQy_.begin() + static_cast<std::ptrdiff_t>(f * w),
            histQy_.begin() + static_cast<std::ptrdiff_t>(f * w + w),
            histQy_.begin() + static_cast<std::ptrdiff_t>(t * w));
}

Track EbmsTracker::trackOf(int i) const {
  const auto idx = static_cast<std::size_t>(i);
  Track t;
  t.id = id_[idx];
  t.box = boxOf(i);
  t.velocity = Vec2f{velX_[idx], velY_[idx]};  // px/s
  t.hits = static_cast<int>(std::min<std::uint64_t>(
      support_[idx], std::numeric_limits<int>::max()));
  return t;
}

void EbmsTracker::visibleTracksInto(Tracks& out) const {
  out.clear();
  const auto minSupport =
      static_cast<std::uint64_t>(config_.visibilitySupport);
  for (int i = 0; i < count_; ++i) {
    if (support_[static_cast<std::size_t>(i)] < minSupport) {
      continue;
    }
    out.push_back(trackOf(i));
  }
}

void EbmsTracker::allClustersInto(Tracks& out) const {
  out.clear();
  for (int i = 0; i < count_; ++i) {
    out.push_back(trackOf(i));
  }
}

Tracks EbmsTracker::visibleTracks() const {
  Tracks out;
  visibleTracksInto(out);
  return out;
}

Tracks EbmsTracker::allClusters() const {
  Tracks out;
  allClustersInto(out);
  return out;
}

}  // namespace ebbiot
