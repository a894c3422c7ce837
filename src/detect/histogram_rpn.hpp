// Event-density region proposal network, Section II-B of the paper.
//
// Pipeline per frame:
//   1. block-downsample the (filtered) EBBI by (s1, s2)        — Eq. (3)
//   2. build X and Y histograms of the downsampled image       — Eq. (4)
//   3. find the maximal runs of non-zero bins in each axis
//   4. form candidate boxes as the cartesian intersections of X-runs and
//      Y-runs, scaled back to full resolution
//   5. when both axes have multiple runs, intersections can be spurious
//      ("false regions may be proposed by considering all overlaps"), so
//      each candidate is validated against the full-resolution image: an
//      intersection holding no set pixel is dropped
//   6. shrink every surviving box to the tight bounding box of its set
//      pixels, removing the (s1, s2) block quantisation.
//
// The coarse histogram deliberately merges fragmented objects (the bus /
// car fragmentation of Figure 3) at the cost of slightly oversized boxes;
// the tracker smooths both effects.
#pragma once

#include "src/common/op_counter.hpp"
#include "src/detect/region.hpp"
#include "src/ebbi/binary_image.hpp"
#include "src/ebbi/downsample.hpp"
#include "src/ebbi/histogram.hpp"

namespace ebbiot {

struct HistogramRpnConfig {
  int s1 = 6;  ///< X downsample factor (paper: 6)
  int s2 = 3;  ///< Y downsample factor (paper: 3)
};

class HistogramRpn {
 public:
  explicit HistogramRpn(const HistogramRpnConfig& config);

  /// Propose regions for one frame.  The returned reference is valid until
  /// the next propose() call; the backing vector (like every intermediate
  /// product) is a reused member, so steady-state loops allocate nothing.
  [[nodiscard]] const RegionProposals& propose(const BinaryImage& ebbi);

  /// Intermediate products of the most recent propose() call, exposed for
  /// tests, visualisation and the examples.
  [[nodiscard]] const CountImage& lastDownsampled() const { return down_; }
  [[nodiscard]] const HistogramPair& lastHistograms() const { return hist_; }
  [[nodiscard]] const std::vector<HistogramRun>& lastRunsX() const {
    return runsX_;
  }
  [[nodiscard]] const std::vector<HistogramRun>& lastRunsY() const {
    return runsY_;
  }

  /// Ops of the most recent propose() call (downsample + histogram + run
  /// finding + validation + tightening), comparable to C_RPN of Eq. (5).
  /// ops-model: metered — histogram build + tighten passes count as they run.
  [[nodiscard]] const OpCounts& lastOps() const { return ops_; }

  [[nodiscard]] const HistogramRpnConfig& config() const { return config_; }

 private:
  HistogramRpnConfig config_;
  Downsampler downsampler_;
  HistogramBuilder histogramBuilder_;
  CountImage down_;
  HistogramPair hist_;
  std::vector<HistogramRun> runsX_;
  std::vector<HistogramRun> runsY_;
  RegionProposals proposals_;
  OpCounts ops_;
};

}  // namespace ebbiot
