#include "src/detect/region_filter.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"

namespace ebbiot {
namespace {

// Fixed-point conventions (documented in the header): features are Q8
// (256 = 1.0), weights Q7 (128 = 1.0), so a feature-weight product and
// the biases/activations live in Q15 (32768 = 1.0 "unit").
constexpr std::int32_t kUnit = 32768;
constexpr std::int16_t kQ7One = 128;

/// xorshift32 — deterministic low-amplitude mixing weights.
std::uint32_t nextRand(std::uint32_t& state) {
  state ^= state << 13;
  state ^= state >> 17;
  state ^= state << 5;
  return state;
}

}  // namespace

RegionFilter::RegionFilter(const RegionFilterConfig& config)
    : config_(config) {
  EBBIOT_ASSERT(config.patchGrid >= 1 && config.patchGrid <= 16);
  EBBIOT_ASSERT(config.hiddenUnits >= 3 && config.hiddenUnits <= 64);
  EBBIOT_ASSERT(config.referenceArea > 0.0F);
  buildWeights();
  features_.resize(static_cast<std::size_t>(featureCount()));
  hidden_.resize(static_cast<std::size_t>(config_.hiddenUnits));
}

void RegionFilter::buildWeights() {
  const int f = featureCount();
  const int h = config_.hiddenUnits;
  const int cells = config_.patchGrid * config_.patchGrid;
  const int densityIdx = cells;
  const int areaIdx = cells + 1;
  const int aspectIdx = cells + 2;

  w1_.assign(static_cast<std::size_t>(h) * static_cast<std::size_t>(f), 0);
  b1_.assign(static_cast<std::size_t>(h), 0);
  w2_.assign(static_cast<std::size_t>(h), 0);

  auto w1at = [&](int unit, int feat) -> std::int16_t& {
    return w1_[static_cast<std::size_t>(unit) * static_cast<std::size_t>(f) +
               static_cast<std::size_t>(feat)];
  };

  // Structural gate units, thresholds in the comments:
  //   unit 0: fill-density gate,  active iff density > 12.5 %;
  //   unit 1: size gate,          active iff area > 6.25 % of reference;
  //   unit 2: aspect gate,        active iff min/max side > 12.5 %.
  // int arithmetic narrowed back to the Q7 int16 weight store explicitly
  // (2 * kQ7One = 256 fits comfortably; the casts document that).
  w1at(0, densityIdx) = static_cast<std::int16_t>(2 * kQ7One);
  b1_[0] = -kUnit / 4;
  w1at(1, areaIdx) = static_cast<std::int16_t>(2 * kQ7One);
  b1_[1] = -kUnit / 8;
  w1at(2, aspectIdx) = static_cast<std::int16_t>(2 * kQ7One);
  b1_[2] = -kUnit / 4;

  // Unit 3 (when present): compactness — interior grid cells vote for,
  // border cells against, separating one solid blob from scattered
  // fragments with the same overall fill.
  if (config_.hiddenUnits > 3) {
    const int g = config_.patchGrid;
    for (int cy = 0; cy < g; ++cy) {
      for (int cx = 0; cx < g; ++cx) {
        const bool border = cx == 0 || cy == 0 || cx == g - 1 || cy == g - 1;
        w1at(3, cy * g + cx) =
            static_cast<std::int16_t>(border ? -kQ7One / 2 : kQ7One / 2);
      }
    }
  }

  // Remaining units: deterministic low-amplitude mixing (|w| <= ~0.1) so
  // the grid features reach the output without overpowering the gates.
  std::uint32_t rng = config_.weightSeed == 0 ? 1U : config_.weightSeed;
  for (int unit = 4; unit < h; ++unit) {
    for (int feat = 0; feat < f; ++feat) {
      w1at(unit, feat) =
          static_cast<std::int16_t>(static_cast<int>(nextRand(rng) % 25U) - 12);
    }
  }

  // Output layer: density and size dominate, aspect and compactness
  // nudge, mixing units whisper; bias sets the operating point.
  w2_[0] = kQ7One;
  w2_[1] = kQ7One;
  w2_[2] = static_cast<std::int16_t>(kQ7One / 4);
  if (h > 3) {
    w2_[3] = static_cast<std::int16_t>(kQ7One / 8);
  }
  for (int unit = 4; unit < h; ++unit) {
    w2_[static_cast<std::size_t>(unit)] = static_cast<std::int16_t>(kQ7One / 16);
  }
  b2_ = -3 * kUnit / 4;
}

void RegionFilter::extractFeatures(const BinaryImage& ebbi, const BBox& box,
                                   std::vector<std::int32_t>& features) {
  const int g = config_.patchGrid;
  const int cells = g * g;
  std::uint64_t totalSet = 0;
  std::uint64_t totalPixels = 0;
  for (int cy = 0; cy < g; ++cy) {
    for (int cx = 0; cx < g; ++cx) {
      const BBox cell{box.x + box.w * static_cast<float>(cx) /
                                  static_cast<float>(g),
                      box.y + box.h * static_cast<float>(cy) /
                                  static_cast<float>(g),
                      box.w / static_cast<float>(g),
                      box.h / static_cast<float>(g)};
      const auto cellPixels = static_cast<std::uint64_t>(
          std::max(1.0F, std::round(cell.w) * std::round(cell.h)));
      const std::uint64_t set = ebbi.popcountInRegion(cell);
      // Each patch pixel is fetched once and accumulated into the cell
      // counter — activity-independent, like the median stage.
      ops_.memReads += cellPixels;
      ops_.adds += cellPixels;
      ops_.multiplies += 1;  // Q8 occupancy = 256 * set / cellPixels
      features[static_cast<std::size_t>(cy * g + cx)] = static_cast<std::int32_t>(
          std::min<std::uint64_t>(256, 256 * set / cellPixels));
      totalSet += set;
      totalPixels += cellPixels;
    }
  }
  features[static_cast<std::size_t>(cells)] = static_cast<std::int32_t>(
      std::min<std::uint64_t>(256, 256 * totalSet / std::max<std::uint64_t>(
                                                        1, totalPixels)));
  const float areaFrac =
      std::min(1.0F, box.area() / config_.referenceArea);
  features[static_cast<std::size_t>(cells + 1)] =
      static_cast<std::int32_t>(std::lround(256.0F * areaFrac));
  const float longSide = std::max(box.w, box.h);
  const float aspect = longSide > 0.0F ? std::min(box.w, box.h) / longSide
                                       : 0.0F;
  features[static_cast<std::size_t>(cells + 2)] =
      static_cast<std::int32_t>(std::lround(256.0F * aspect));
  ops_.multiplies += 3;  // density / area / aspect normalisations
}

std::int32_t RegionFilter::score(const BinaryImage& ebbi,
                                 const RegionProposal& proposal) {
  const int f = featureCount();
  const int h = config_.hiddenUnits;
  extractFeatures(ebbi, proposal.box, features_);

  // Layer 1: int16 Q7 weights x Q8 features -> Q15 accumulators, ReLU.
  for (int unit = 0; unit < h; ++unit) {
    std::int32_t acc = b1_[static_cast<std::size_t>(unit)];
    const std::int16_t* row =
        &w1_[static_cast<std::size_t>(unit) * static_cast<std::size_t>(f)];
    for (int feat = 0; feat < f; ++feat) {
      acc += static_cast<std::int32_t>(row[feat]) *
             features_[static_cast<std::size_t>(feat)];
    }
    hidden_[static_cast<std::size_t>(unit)] = std::max(0, acc);
  }
  ops_.memReads += static_cast<std::uint64_t>(h) *
                   static_cast<std::uint64_t>(f);  // weight fetches
  ops_.multiplies += static_cast<std::uint64_t>(h) *
                     static_cast<std::uint64_t>(f);
  ops_.adds += static_cast<std::uint64_t>(h) * static_cast<std::uint64_t>(f);
  ops_.compares += static_cast<std::uint64_t>(h);  // ReLU

  // Layer 2: Q15 activations x Q7 weights, rescaled back to Q15.
  std::int32_t logit = b2_;
  for (int unit = 0; unit < h; ++unit) {
    logit += static_cast<std::int32_t>(
        (static_cast<std::int64_t>(hidden_[static_cast<std::size_t>(unit)]) *
         w2_[static_cast<std::size_t>(unit)]) >>
        7);
  }
  ops_.memReads += static_cast<std::uint64_t>(h);
  ops_.multiplies += static_cast<std::uint64_t>(h);
  ops_.adds += static_cast<std::uint64_t>(h);
  return logit;
}

RegionProposals RegionFilter::apply(const BinaryImage& ebbi,
                                    const RegionProposals& proposals) {
  ops_.reset();
  rejected_ = 0;
  RegionProposals accepted;
  accepted.reserve(proposals.size());
  for (const RegionProposal& p : proposals) {
    if (p.box.empty()) {
      ++rejected_;
      continue;
    }
    const std::int32_t logit = score(ebbi, p);
    ops_.compares += 1;  // accept threshold
    if (logit > 0) {
      accepted.push_back(p);
    } else {
      ++rejected_;
    }
  }
  return accepted;
}

}  // namespace ebbiot
