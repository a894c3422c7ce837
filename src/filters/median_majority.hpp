// Bit-sliced 3x3 majority kernels and Eq. (1) closed-form accounting of
// the word-parallel MedianFilter (src/filters/median_filter.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/common/op_counter.hpp"
#include "src/ebbi/binary_image.hpp"

namespace ebbiot {
namespace median_detail {

/// Full adder over bit-planes: s = parity, carry = majority.
inline void fullAdd(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                    std::uint64_t& s, std::uint64_t& carry) {
  const std::uint64_t ab = a ^ b;
  s = ab ^ c;
  carry = (a & b) | (c & ab);
}

/// One output row of the 3x3 binary median: the majority (> 4 of 9) over
/// the word rows rowN/rowC/rowS (north/centre/south; null reads as an
/// all-zero row: a frame edge under the zero-padding border policy, or a
/// row known to be blank).  The 9 neighbour bit-planes of each word are
/// formed by shifts with cross-word carry, reduced by a carry-save adder
/// network to weight-1/2/2/4 bits, and the majority is
///     out = (w4 & (w1 | w2a | w2b)) | (w1 & w2a & w2b).
/// `tail` masks the last word so the caller keeps BinaryImage's
/// guaranteed-zero padding-bit invariant.  Returns the OR of the words
/// written: zero iff the output row is blank.
inline std::uint64_t majority3Row(const std::uint64_t* rowN,
                                  const std::uint64_t* rowC,
                                  const std::uint64_t* rowS,
                                  std::uint64_t* out, std::size_t nw,
                                  std::uint64_t tail) {
  std::uint64_t any = 0;
  for (std::size_t k = 0; k < nw; ++k) {
    std::uint64_t planeS[3];
    std::uint64_t planeC[3];
    int planes = 0;
    auto addRow = [&](const std::uint64_t* row) {
      std::uint64_t c = 0;
      std::uint64_t west = 0;
      std::uint64_t east = 0;
      if (row != nullptr) {
        c = row[k];
        west = (c << 1) | (k > 0 ? row[k - 1] >> 63 : 0);
        east = (c >> 1) | (k + 1 < nw ? row[k + 1] << 63 : 0);
      }
      fullAdd(west, c, east, planeS[planes], planeC[planes]);
      ++planes;
    };
    addRow(rowN);
    addRow(rowC);
    addRow(rowS);
    // Carry-save reduction of the three (sum, carry) pairs:
    // count = w1 + 2*(w2a + w2b) + 4*w4, and count > 4 iff
    // (w4 and any other bit) or (w1 and both weight-2 bits).
    std::uint64_t w1 = 0;
    std::uint64_t w2a = 0;
    std::uint64_t w2b = 0;
    std::uint64_t w4 = 0;
    fullAdd(planeS[0], planeS[1], planeS[2], w1, w2a);
    fullAdd(planeC[0], planeC[1], planeC[2], w2b, w4);
    std::uint64_t word = (w4 & (w1 | w2a | w2b)) | (w1 & w2a & w2b);
    if (k + 1 == nw) {
      word &= tail;
    }
    out[k] = word;
    any |= word;
  }
  return any;
}

/// The rows a 3x3 kernel visits: the input's occupied row span with its
/// +-1 halo, clamped to the frame.  Rows outside it have a blank 3-row
/// band, so their output is blank; a blank frame gives an empty band.
inline RowSpan majority3Band(const BinaryImage& input) {
  const RowSpan span = input.occupiedRowSpan();
  if (span.empty()) {
    return {};
  }
  return {std::max(0, span.begin - 1), std::min(input.height(), span.end + 1)};
}

/// The p = 3 kernels behind MedianFilter::applyInto, exposed so tests can
/// pin each one against MedianFilterReference on any host.  A kernel
/// overwrites `output` (the shape of `input`) with the 3x3 majority of
/// `input` and marks exactly the rows it leaves non-blank, so the
/// output's row occupancy is exact.  `rowScratch` holds
/// input.wordsPerRow() words for the portable loop, which builds a row
/// before it knows whether to store it.
using Majority3Kernel = void (*)(const BinaryImage& input, BinaryImage& output,
                                 std::span<std::uint64_t> rowScratch);
/// The band loop over majority3Row: the reference for every other kernel.
void majority3Portable(const BinaryImage& input, BinaryImage& output,
                       std::span<std::uint64_t> rowScratch);
/// The AVX2 kernel, or nullptr where the CPU cannot run it.  Rows wider
/// than four words (256 px) run the portable loop.
[[nodiscard]] Majority3Kernel majority3Avx2Kernel();
/// The kernel MedianFilter runs: AVX2 where the CPU has it (checked once
/// per process), portable elsewhere.
[[nodiscard]] Majority3Kernel majority3Kernel();

/// Sum over all n positions of the clamped 1-D patch width
/// min(n-1, i+r) - max(0, i-r) + 1.  The 2-D clamped patch-pixel total
/// factorises into the product of the two per-axis sums, which gives the
/// closed-form memRead count matching the scalar reference's metering.
/// Each width is 2r+1 less max(0, r-i) clipped at the start and the
/// mirror-image amount at the end; with m = min(n, r) positions clipped
/// at each end, each end loses m*r - m(m-1)/2 in total.
inline std::uint64_t clampedPatchSum(int n, int r) {
  const auto nn = static_cast<std::uint64_t>(n);
  const auto rr = static_cast<std::uint64_t>(r);
  const std::uint64_t m = std::min(nn, rr);
  return nn * (2 * rr + 1) - 2 * m * rr + m * (m - 1);
}

/// Eq. (1)'s abstract per-frame cost of a p x p binary median over an
/// A x B frame: one memRead per clamped patch pixel, one comparison and
/// one write per pixel — identical to the metered values of the scalar
/// MedianFilterReference, independent of how the filter is evaluated.
inline OpCounts closedFormOps(int width, int height, int patchSize) {
  const int r = patchSize / 2;
  const auto pixels = static_cast<std::uint64_t>(width) *
                      static_cast<std::uint64_t>(height);
  OpCounts ops;
  ops.memReads = clampedPatchSum(width, r) * clampedPatchSum(height, r);
  ops.compares = pixels;
  ops.memWrites = pixels;
  return ops;
}

}  // namespace median_detail
}  // namespace ebbiot
