// Binary median filter, Section II-A of the paper — word-parallel.
//
// Spurious sensor events appear in the EBBI as salt-and-pepper noise, so a
// p x p median (p = 3) removes them: a pixel of the filtered image is 1 iff
// more than floor(p^2/2) pixels of its patch are 1.  Border policy is zero
// padding: patches are clipped at the frame edge and the threshold stays
// floor(p^2/2), so lone border pixels are removed like interior ones.
//
// Implementation: the EBBI is bit-packed (BinaryImage stores rows as
// 64-bit words), so for p = 3 the majority is evaluated *bit-sliced*, 64
// pixels per step.  The 9 neighbour bit-planes of a word are formed by
// shifts with cross-word carry (the zero padding falls out of the carry-in
// being 0 and the guaranteed-zero tail bits), and "count > 4" is computed
// with a carry-save adder network: three full adders reduce the 9 planes
// to weight-1/2/2/4 bits, and the majority is
//     out = (w4 & (w1 | w2a | w2b)) | (w1 & w2a & w2b).
// Rows whose 3-row input band is blank (conservative row occupancy,
// maintained by EbbiBuilder's writes during buildInto) are skipped
// entirely, so a mostly-empty surveillance frame costs little more than
// its active band.  The output's row occupancy is exact: a row the
// majority leaves blank is never written or marked, so the downsampler,
// CCA and the region scans downstream skip the rows noise alone touched.
// Where the CPU has AVX2 (checked once per process) and a row is at most
// four words (256 px; the paper's 240 px), the band runs at register
// width: each input row's horizontal 3-sum is computed once, with the
// cross-word carries as lane permutes, and kept in registers as the
// north, centre and south sums while the band moves down; the output row
// is stored only when it is non-zero.  The portable word loop
// (median_detail::majority3Portable) is the reference and runs
// everywhere else.  p = 1 is an identity copy; other patch sizes are
// refused (the scalar MedianFilterReference keeps the general p x p
// formulation, as the oracle of the tests).
//
// The *reported* OpCounts stay the paper's abstract accounting, computed
// in closed form so they are bit-identical to the metered values of the
// scalar MedianFilterReference (pinned by differential tests): per output
// pixel one majority comparison + one write (Eq. (1)'s fixed 2*A*B compute
// floor) and one memRead per clamped patch pixel (p^2*A*B minus border
// clipping).  Host-word parallelism changes wall-clock, not the model.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/op_counter.hpp"
#include "src/ebbi/binary_image.hpp"

namespace ebbiot {

class MedianFilter {
 public:
  /// `patchSize` = p: 3 (the paper's) or 1 (identity); any other value
  /// throws LogicError.
  explicit MedianFilter(int patchSize);

  [[nodiscard]] int patchSize() const { return patchSize_; }

  /// Filtered copy of the image.
  [[nodiscard]] BinaryImage apply(const BinaryImage& input);

  /// Filter into a preallocated output of the same shape.
  void applyInto(const BinaryImage& input, BinaryImage& output);

  /// Ops of the most recent apply under Eq. (1)'s accounting: one memRead
  /// per clamped patch pixel, one comparison and one write per pixel.
  /// ops-model: closed-form — Eq. (1)'s fixed activity-independent floor via
  /// median_detail::closedFormOps; pinned by tests/test_median_filter_word.cpp.
  [[nodiscard]] const OpCounts& lastOps() const { return ops_; }

 private:
  int patchSize_;
  OpCounts ops_;
  /// One output row of the portable 3x3 loop (wordsPerRow words), reused.
  std::vector<std::uint64_t> rowScratch_;
};

}  // namespace ebbiot
