// X / Y histograms of the downsampled EBBI, Eq. (4) of the paper.
//
//   H_X^{s1}(i) = sum_j I_{s1,s2}(i, j)       (column sums)
//   H_Y^{s2}(j) = sum_i I_{s1,s2}(i, j)       (row sums)
//
// The RPN and tracker operate on these two 1-D signals instead of the 2-D
// image, which is where the paper's compute savings over CCA/CNN proposals
// come from (Section II-B).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/op_counter.hpp"
#include "src/ebbi/downsample.hpp"

namespace ebbiot {

struct HistogramPair {
  std::vector<std::uint32_t> hx;  ///< length = downsampled width
  std::vector<std::uint32_t> hy;  ///< length = downsampled height
};

class HistogramBuilder {
 public:
  /// Column/row sums of the count image into a reusable pair
  /// (steady-state loops reuse the bin vectors' capacity instead of
  /// allocating per frame).
  void buildInto(const CountImage& image, HistogramPair& out);

  /// Ops of the most recent build (two adds per cell + one write per bin).
  /// ops-model: metered — projection adds counted as they run.
  [[nodiscard]] const OpCounts& lastOps() const { return ops_; }

 private:
  OpCounts ops_;
};

/// A maximal run of non-zero histogram bins.
/// Indices are bins of the *downsampled* image; [begin, end).
struct HistogramRun {
  int begin = 0;
  int end = 0;
  std::uint64_t mass = 0;  ///< sum of bin values over the run

  [[nodiscard]] int length() const { return end - begin; }
  friend bool operator==(const HistogramRun&, const HistogramRun&) = default;
};

/// Find the maximal runs of non-zero bins (the paper's threshold of 1)
/// into a reusable output vector (cleared first).
void findRunsInto(const std::vector<std::uint32_t>& histogram,
                  std::vector<HistogramRun>& out);

}  // namespace ebbiot
