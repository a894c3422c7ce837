#include "src/detect/cca_reference.hpp"

#include <algorithm>
#include <limits>

#include "src/common/error.hpp"

namespace ebbiot {

CcaLabelerReference::CcaLabelerReference(const CcaConfig& config)
    : config_(config) {
  EBBIOT_ASSERT(config.minComponentPixels >= 1);
}

std::uint32_t CcaLabelerReference::UnionFind::make() {
  parent.push_back(static_cast<std::uint32_t>(parent.size()));
  return static_cast<std::uint32_t>(parent.size() - 1);
}

std::uint32_t CcaLabelerReference::UnionFind::find(std::uint32_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];  // path halving
    x = parent[x];
  }
  return x;
}

void CcaLabelerReference::UnionFind::unite(std::uint32_t a, std::uint32_t b) {
  const std::uint32_t ra = find(a);
  const std::uint32_t rb = find(b);
  if (ra != rb) {
    parent[std::max(ra, rb)] = std::min(ra, rb);
  }
}

const std::vector<ConnectedComponent>& CcaLabelerReference::label(
    const BinaryImage& image) {
  ops_.reset();
  constexpr std::uint32_t kNoLabel = std::numeric_limits<std::uint32_t>::max();
  const int width = image.width();
  const int height = image.height();
  labels_.assign(
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
      kNoLabel);
  uf_.parent.clear();

  // Pass 1: provisional labels from already-visited neighbours
  // (W, SW, S, SE in bottom-up scan order; S row is y-1).
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      ++ops_.compares;
      if (!image.get(x, y)) {
        continue;
      }
      std::uint32_t best = kNoLabel;
      auto consider = [&](int nx, int ny) {
        if (nx < 0 || nx >= width || ny < 0) {
          return;
        }
        const std::uint32_t l =
            labels_[static_cast<std::size_t>(ny) * width + nx];
        ++ops_.compares;
        if (l == kNoLabel) {
          return;
        }
        if (best == kNoLabel) {
          best = l;
        } else {
          uf_.unite(best, l);
          ++ops_.adds;
        }
      };
      consider(x - 1, y);
      consider(x, y - 1);
      consider(x - 1, y - 1);
      consider(x + 1, y - 1);
      if (best == kNoLabel) {
        best = uf_.make();
      }
      labels_[static_cast<std::size_t>(y) * width + x] = best;
      ++ops_.memWrites;
    }
  }

  // Pass 2: resolve labels to roots and accumulate per-component extents.
  extents_.clear();
  extents_.resize(uf_.parent.size(),
                  Extent{std::numeric_limits<int>::max(),
                         std::numeric_limits<int>::min(),
                         std::numeric_limits<int>::max(),
                         std::numeric_limits<int>::min(), 0});
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const std::uint32_t l = labels_[static_cast<std::size_t>(y) * width + x];
      if (l == kNoLabel) {
        continue;
      }
      const std::uint32_t root = uf_.find(l);
      Extent& e = extents_[root];
      e.minX = std::min(e.minX, x);
      e.maxX = std::max(e.maxX, x);
      e.minY = std::min(e.minY, y);
      e.maxY = std::max(e.maxY, y);
      ++e.count;
      ++ops_.adds;
    }
  }

  components_.clear();
  for (const Extent& e : extents_) {
    if (e.count < config_.minComponentPixels) {
      continue;
    }
    components_.push_back(ConnectedComponent{
        BBox{static_cast<float>(e.minX), static_cast<float>(e.minY),
             static_cast<float>(e.maxX - e.minX + 1),
             static_cast<float>(e.maxY - e.minY + 1)},
        e.count});
  }
  std::sort(components_.begin(), components_.end(), componentScanOrderLess);
  return components_;
}

const RegionProposals& CcaLabelerReference::propose(const BinaryImage& image) {
  (void)label(image);
  proposals_.clear();
  proposals_.reserve(components_.size());
  for (const ConnectedComponent& c : components_) {
    proposals_.push_back(RegionProposal{c.box, c.pixelCount});
  }
  return proposals_;
}

}  // namespace ebbiot
