// Block-sum downsampling, Eq. (3) of the paper.
//
//   I_{s1,s2}(i, j) = sum_{m<s1, n<s2} I(i*s1 + m, j*s2 + n)
//
// The output is a small count image (each cell holds how many pixels of the
// s1 x s2 block are set, so values fit in ceil(log2(s1*s2)) bits — the
// first term of the M_RPN memory model in Eq. (5)).  Trailing pixels that
// do not fill a whole block are dropped, matching the floor() bounds of
// Eq. (3).
//
// The block sums are evaluated bit-sliced: the s2 source rows of a block
// row are added, 64 columns per word step, into bit_width(s2) carry-save
// bit-planes (bit b of plane b's word = bit b of that column's count), and
// each cell is then Σ_b 2^b · popcount(its s1-bit field of plane b), with
// fields of any width (s1 > 64 spans several words).  Only cells holding
// a set column are counted: the run scanner of src/ebbi/runs.hpp walks
// the OR of the block row's source rows.  Rows whose occupancy bit is
// clear add nothing and are skipped, and block rows with none left are
// not visited.
// The reported OpCounts stay the abstract per-pixel model (one add per
// block pixel, one write per cell), computed in closed form — identical
// to what the scalar scan metered.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/op_counter.hpp"
#include "src/ebbi/binary_image.hpp"

namespace ebbiot {

/// Count image produced by block-sum downsampling.
class CountImage {
 public:
  CountImage() = default;
  CountImage(int width, int height);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }

  [[nodiscard]] std::uint16_t at(int x, int y) const;
  std::uint16_t& at(int x, int y);

  /// Cells of row y (width() of them, cell x at [x]).
  [[nodiscard]] const std::uint16_t* row(int y) const;
  [[nodiscard]] std::uint16_t* row(int y);

  /// Reshape to width x height, zero-filled; reuses capacity when it can.
  void reset(int width, int height);

  /// Sum of all cells (equals popcount of the covered source area).
  [[nodiscard]] std::uint64_t totalMass() const;

  friend bool operator==(const CountImage&, const CountImage&) = default;

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint16_t> cells_;
};

class Downsampler {
 public:
  /// s1 = X-direction factor, s2 = Y-direction factor (paper: 6, 3).
  Downsampler(int s1, int s2);

  [[nodiscard]] int s1() const { return s1_; }
  [[nodiscard]] int s2() const { return s2_; }

  /// Downsample per Eq. (3) into a reusable output image, reshaped to
  /// floor(W/s1) x floor(H/s2) as needed.  Allocation-free once the
  /// output and the bit-plane scratch have seen the frame geometry.
  void downsampleInto(const BinaryImage& image, CountImage& out);

  /// Ops performed by the most recent call (one add per source pixel read
  /// that lands in a block, one write per output cell).
  /// ops-model: closed-form — abstract one-add-per-pixel model, independent of the
  /// masked-word implementation (see downsampleInto).
  [[nodiscard]] const OpCounts& lastOps() const { return ops_; }

 private:
  int s1_;
  int s2_;
  OpCounts ops_;
  /// bit_width(s2) carry-save bit-planes of one block row, then the OR of
  /// its source rows; plane-major, wordsPerRow words each, reused.
  std::vector<std::uint64_t> planes_;
};

}  // namespace ebbiot
