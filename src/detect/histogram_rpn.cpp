#include "src/detect/histogram_rpn.hpp"

#include <algorithm>
#include <cmath>

namespace ebbiot {
namespace {

/// Tight bounding box of the set pixels inside `box` (empty if none).
/// Word-parallel via BinaryImage::tightBoundingBoxInRegion; the charged
/// ops stay the abstract per-pixel scan of the original formulation (one
/// fetch + one compare per pixel of the box), in closed form.
BBox tightenToPixels(const BinaryImage& image, const BBox& box,
                     OpCounts& ops) {
  const int x0 = static_cast<int>(std::floor(box.left()));
  const int x1 = static_cast<int>(std::ceil(box.right()));
  const int y0 = static_cast<int>(std::floor(box.bottom()));
  const int y1 = static_cast<int>(std::ceil(box.top()));
  const auto pixels = static_cast<std::uint64_t>(x1 - x0) *
                      static_cast<std::uint64_t>(y1 - y0);
  ops.memReads += pixels;  // pixel fetch, like every other stage's scan
  ops.compares += pixels;
  return image.tightBoundingBoxInRegion(x0, y0, x1, y1);
}

}  // namespace

HistogramRpn::HistogramRpn(const HistogramRpnConfig& config)
    : config_(config), downsampler_(config.s1, config.s2) {}

const RegionProposals& HistogramRpn::propose(const BinaryImage& ebbi) {
  ops_.reset();
  downsampler_.downsampleInto(ebbi, down_);
  ops_ += downsampler_.lastOps();
  histogramBuilder_.buildInto(down_, hist_);
  ops_ += histogramBuilder_.lastOps();

  findRunsInto(hist_.hx, runsX_);
  findRunsInto(hist_.hy, runsY_);
  ops_.compares += hist_.hx.size() + hist_.hy.size();

  // Only several runs on both axes make an intersection ambiguous.
  const bool validate = runsX_.size() > 1 && runsY_.size() > 1;

  proposals_.clear();
  proposals_.reserve(runsX_.size() * runsY_.size());
  const float s1 = static_cast<float>(config_.s1);
  const float s2 = static_cast<float>(config_.s2);
  for (const HistogramRun& rx : runsX_) {
    for (const HistogramRun& ry : runsY_) {
      BBox box{static_cast<float>(rx.begin) * s1,
               static_cast<float>(ry.begin) * s2,
               static_cast<float>(rx.length()) * s1,
               static_cast<float>(ry.length()) * s2};
      box = clampToFrame(box, ebbi.width(), ebbi.height());
      if (box.empty()) {
        continue;
      }
      std::uint64_t support = std::min(rx.mass, ry.mass);
      if (validate) {
        const std::size_t pixels = ebbi.popcountInRegion(box);
        ops_.adds += static_cast<std::uint64_t>(box.area());
        ops_.compares += 1;
        if (pixels == 0) {
          continue;  // spurious X-run x Y-run intersection
        }
        support = pixels;
      }
      box = tightenToPixels(ebbi, box, ops_);
      if (box.empty()) {
        continue;
      }
      proposals_.push_back(RegionProposal{box, support});
    }
  }
  return proposals_;
}

}  // namespace ebbiot
