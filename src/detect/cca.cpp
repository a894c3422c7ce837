#include "src/detect/cca.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/common/error.hpp"
#include "src/ebbi/runs.hpp"

namespace ebbiot {
namespace {

constexpr std::uint32_t kNoLabel = std::numeric_limits<std::uint32_t>::max();

}  // namespace

CcaLabeler::CcaLabeler(const CcaConfig& config) : config_(config) {
  EBBIOT_ASSERT(config.minComponentPixels >= 1);
}

std::uint32_t CcaLabeler::UnionFind::make() {
  // hot-path: cleared per frame by label(); high-water capacity only.
  parent.push_back(static_cast<std::uint32_t>(parent.size()));
  return static_cast<std::uint32_t>(parent.size() - 1);
}

std::uint32_t CcaLabeler::UnionFind::find(std::uint32_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];  // path halving
    x = parent[x];
  }
  return x;
}

void CcaLabeler::UnionFind::unite(std::uint32_t a, std::uint32_t b) {
  const std::uint32_t ra = find(a);
  const std::uint32_t rb = find(b);
  if (ra != rb) {
    parent[std::max(ra, rb)] = std::min(ra, rb);
  }
}

void CcaLabeler::meterRow(const std::uint64_t* cur, const std::uint64_t* prev,
                          std::size_t nWords, int width) {
  // Closed-form per-pixel accounting of the reference's pass 1 + pass 2
  // for one row, from word-parallel popcounts.  Per set pixel the
  // reference charges one compare per in-bounds preceding neighbour (W,
  // and S/SW/SE against the previous row), one add per *labelled*
  // preceding neighbour beyond the first (the redundant unite calls), one
  // label write, and one pass-2 accumulate add.  A preceding neighbour is
  // labelled iff it is set, so both terms reduce to popcounts of the
  // neighbour bit-planes ANDed with the current row.
  std::uint64_t cnt = 0;
  for (std::size_t k = 0; k < nWords; ++k) {
    cnt += static_cast<std::uint64_t>(std::popcount(cur[k]));
  }
  if (cnt == 0) {
    return;  // a blank row contributes only the base per-pixel scan
  }
  const std::uint64_t b0 = cur[0] & 1;  // pixel at x = 0 set?
  const std::size_t lastWord = static_cast<std::size_t>(width - 1) / 64;
  const unsigned lastBit = static_cast<unsigned>(width - 1) % 64;
  const std::uint64_t bl = (cur[lastWord] >> lastBit) & 1;  // x = W-1 set?

  ops_.compares += cnt - b0;  // W probe: every set pixel with x > 0
  if (prev != nullptr) {
    ops_.compares += cnt;                      // S probe
    ops_.compares += (cnt - b0) + (cnt - bl);  // SW, SE probes
  }

  std::uint64_t nSum = 0;  // total set preceding neighbours over the row
  std::uint64_t any = 0;   // set pixels with at least one such neighbour
  for (std::size_t k = 0; k < nWords; ++k) {
    const std::uint64_t c = cur[k];
    if (c == 0) {
      continue;
    }
    const std::uint64_t west = (c << 1) | (k > 0 ? cur[k - 1] >> 63 : 0);
    std::uint64_t planes = west;
    nSum += static_cast<std::uint64_t>(std::popcount(west & c));
    if (prev != nullptr) {
      const std::uint64_t s = prev[k];
      const std::uint64_t sw = (s << 1) | (k > 0 ? prev[k - 1] >> 63 : 0);
      const std::uint64_t se =
          (s >> 1) | (k + 1 < nWords ? prev[k + 1] << 63 : 0);
      nSum += static_cast<std::uint64_t>(std::popcount(s & c));
      nSum += static_cast<std::uint64_t>(std::popcount(sw & c)) +
              static_cast<std::uint64_t>(std::popcount(se & c));
      planes |= s | sw | se;
    }
    any += static_cast<std::uint64_t>(std::popcount(planes & c));
  }
  ops_.adds += nSum - any;  // unite per labelled neighbour beyond the first
  ops_.memWrites += cnt;    // one label write per set pixel
  ops_.adds += cnt;         // pass-2 extent accumulate per labelled pixel
}

const std::vector<ConnectedComponent>& CcaLabeler::label(
    const BinaryImage& image) {
  ops_.reset();
  const int width = image.width();
  const int height = image.height();
  const std::size_t nWords = image.wordsPerRow();
  uf_.parent.clear();
  extents_.clear();
  prevRuns_.clear();

  // Base of the reference accounting: pass 1 probes every pixel once.
  ops_.compares += static_cast<std::uint64_t>(width) *
                   static_cast<std::uint64_t>(height);

  // 8-connectivity lets a run touch the previous row's runs one column
  // past either end.
  constexpr int kSlack = 1;

  const RowSpan span = image.occupiedRowSpan();
  int prevRowY = span.begin - 2;  // no row adjacency before the first row
  for (int y = span.begin; y < span.end; ++y) {
    if (!image.rowMayHaveSetPixels(y)) {
      continue;  // guaranteed blank: contributes only the base scan
    }
    const std::uint64_t* cur = image.wordRow(y);
    meterRow(cur, y > 0 ? image.wordRow(y - 1) : nullptr, nWords, width);
    if (prevRowY != y - 1) {
      prevRuns_.clear();  // the row below was blank: nothing to merge with
    }
    curRuns_.clear();
    std::size_t pi = 0;  // two-pointer into the previous row's runs
    forEachSetRunInWords(cur, nWords, [&](int begin, int end) {
      // Skip previous-row runs ending before this run's reach; they cannot
      // touch any later run of this row either (both lists are sorted).
      while (pi < prevRuns_.size() &&
             prevRuns_[pi].end + kSlack <= begin) {
        ++pi;
      }
      std::uint32_t label = kNoLabel;
      for (std::size_t j = pi;
           j < prevRuns_.size() && prevRuns_[j].begin < end + kSlack; ++j) {
        if (label == kNoLabel) {
          label = prevRuns_[j].label;
        } else {
          uf_.unite(label, prevRuns_[j].label);
        }
      }
      if (label == kNoLabel) {
        label = uf_.make();
        extents_.push_back(
            Extent{begin, end - 1, y, y,
                   static_cast<std::size_t>(end - begin)});
      } else {
        // Accumulate at the provisional label; aliases are folded into
        // their union-find roots after the scan.
        Extent& e = extents_[label];
        e.minX = std::min(e.minX, begin);
        e.maxX = std::max(e.maxX, end - 1);
        e.maxY = y;  // rows ascend, so minY never changes here
        e.count += static_cast<std::size_t>(end - begin);
      }
      curRuns_.push_back(Run{begin, end, label});
    });
    if (!curRuns_.empty()) {
      std::swap(prevRuns_, curRuns_);
      prevRowY = y;
    }
  }

  // Fold every provisional label's extent into its root.  Roots are label
  // minima (unite keeps the smaller id), so one ascending pass suffices.
  for (std::uint32_t l = 0; l < uf_.parent.size(); ++l) {
    const std::uint32_t root = uf_.find(l);
    if (root == l) {
      continue;
    }
    const Extent& src = extents_[l];
    Extent& dst = extents_[root];
    dst.minX = std::min(dst.minX, src.minX);
    dst.maxX = std::max(dst.maxX, src.maxX);
    dst.minY = std::min(dst.minY, src.minY);
    dst.maxY = std::max(dst.maxY, src.maxY);
    dst.count += src.count;
  }

  components_.clear();
  for (std::uint32_t l = 0; l < uf_.parent.size(); ++l) {
    if (uf_.parent[l] != l) {
      continue;  // merged into its root above
    }
    const Extent& e = extents_[l];
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

const RegionProposals& CcaLabeler::propose(const BinaryImage& image) {
  (void)label(image);
  proposals_.clear();
  proposals_.reserve(components_.size());
  for (const ConnectedComponent& c : components_) {
    proposals_.push_back(RegionProposal{c.box, c.pixelCount});
  }
  return proposals_;
}

}  // namespace ebbiot
