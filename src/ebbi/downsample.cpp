#include "src/ebbi/downsample.hpp"

#include <algorithm>
#include <bit>

#include "src/common/error.hpp"
#include "src/ebbi/runs.hpp"

namespace ebbiot {
namespace {

/// Number of set bits of x.  SWAR rather than std::popcount: without the
/// popcnt instruction (baseline x86-64) GCC lowers std::popcount to a
/// libgcc call, which would run once per counted cell and plane here.
inline std::uint64_t popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555u;
  x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Fu;
  return (x * 0x0101010101010101u) >> 56;
}

/// Set bits of the word row `words` in columns [x0, x1), x0 < x1; the
/// range may span any number of words.
inline std::uint64_t popcountRange(const std::uint64_t* words, int x0,
                                   int x1) {
  const std::size_t w0 = static_cast<std::size_t>(x0) / 64;
  const std::size_t w1 = static_cast<std::size_t>(x1 - 1) / 64;
  const std::uint64_t head = ~std::uint64_t{0}
                             << (static_cast<unsigned>(x0) % 64);
  const std::uint64_t tail =
      ~std::uint64_t{0} >> (63 - static_cast<unsigned>(x1 - 1) % 64);
  if (w0 == w1) {
    return popcount64(words[w0] & head & tail);
  }
  std::uint64_t n = popcount64(words[w0] & head);
  for (std::size_t w = w0 + 1; w < w1; ++w) {
    n += popcount64(words[w]);
  }
  return n + popcount64(words[w1] & tail);
}

}  // namespace

CountImage::CountImage(int width, int height)
    : width_(width),
      height_(height),
      cells_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
             0) {
  EBBIOT_ASSERT(width > 0 && height > 0);
}

std::uint16_t CountImage::at(int x, int y) const {
  EBBIOT_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_);
  return cells_[static_cast<std::size_t>(y) * width_ + x];
}

std::uint16_t& CountImage::at(int x, int y) {
  EBBIOT_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_);
  return cells_[static_cast<std::size_t>(y) * width_ + x];
}

void CountImage::reset(int width, int height) {
  EBBIOT_ASSERT(width > 0 && height > 0);
  width_ = width;
  height_ = height;
  cells_.assign(
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height), 0);
}

const std::uint16_t* CountImage::row(int y) const {
  EBBIOT_ASSERT(y >= 0 && y < height_);
  return cells_.data() + static_cast<std::size_t>(y) * width_;
}

std::uint16_t* CountImage::row(int y) {
  EBBIOT_ASSERT(y >= 0 && y < height_);
  return cells_.data() + static_cast<std::size_t>(y) * width_;
}

std::uint64_t CountImage::totalMass() const {
  std::uint64_t acc = 0;
  for (std::uint16_t c : cells_) {
    acc += c;
  }
  return acc;
}

Downsampler::Downsampler(int s1, int s2) : s1_(s1), s2_(s2) {
  EBBIOT_ASSERT(s1 >= 1 && s2 >= 1);
}

void Downsampler::downsampleInto(const BinaryImage& image, CountImage& out) {
  const int outW = image.width() / s1_;
  const int outH = image.height() / s2_;
  EBBIOT_ASSERT(outW > 0 && outH > 0);
  ops_.reset();
  // Closed-form Eq. (3) accounting, identical to the scalar scan's metered
  // values: one add per source pixel of every complete block, one write
  // per output cell.
  const auto cells =
      static_cast<std::uint64_t>(outW) * static_cast<std::uint64_t>(outH);
  ops_.adds = cells * static_cast<std::uint64_t>(s1_) *
              static_cast<std::uint64_t>(s2_);
  ops_.memWrites = cells;
  out.reset(outW, outH);

  // A column's count over s2 rows is at most s2 < 2^planes.  One more
  // plane holds the OR of the block row's source rows.  Sized before the
  // blank-frame exit, so one call of any frame makes later calls
  // allocation-free.
  const std::size_t nw = image.wordsPerRow();
  const int planes = std::bit_width(static_cast<unsigned>(s2_));
  planes_.assign(static_cast<std::size_t>(planes + 1) * nw, 0);
  std::uint64_t* orPlane =
      planes_.data() + static_cast<std::size_t>(planes) * nw;

  // Only block rows intersecting the dirty row span can be non-zero; the
  // per-row occupancy check below still skips blank rows inside the band.
  const RowSpan span = image.occupiedRowSpan();
  if (span.empty()) {
    return;  // reset() above already zeroed every cell
  }
  const int jBegin = span.begin / s2_;
  const int jEnd = std::min(outH, (span.end + s2_ - 1) / s2_);
  for (int j = jBegin; j < jEnd; ++j) {
    bool touched = false;
    for (int n = 0; n < s2_; ++n) {
      const int y = j * s2_ + n;
      if (!image.rowMayHaveSetPixels(y)) {
        continue;  // blank row adds nothing to any block
      }
      if (!touched) {
        std::fill(planes_.begin(), planes_.end(), 0);
        touched = true;
      }
      // Ripple the row's bits into the per-column counters, 64 columns
      // per step: plane b holds bit b of every column's count.
      const std::uint64_t* row = image.wordRow(y);
      for (std::size_t k = 0; k < nw; ++k) {
        orPlane[k] |= row[k];
        std::uint64_t carry = row[k];
        for (int b = 0; b < planes && carry != 0; ++b) {
          std::uint64_t& plane = planes_[static_cast<std::size_t>(b) * nw + k];
          const std::uint64_t next = plane & carry;
          plane ^= carry;
          carry = next;
        }
      }
    }
    if (!touched) {
      continue;  // every source row blank: the cells stay zero
    }
    // Count only the cells that hold a set column: every cell a run of
    // set columns overlaps, once.  reset() zeroed the rest, and cells end
    // at outW * s1, so trailing columns are dropped.
    std::uint16_t* cellRow = out.row(j);
    int nextCell = 0;
    forEachSetRunInWords(orPlane, nw, [&](int begin, int end) {
      const int cellEnd = std::min(outW, (end - 1) / s1_ + 1);
      for (int i = std::max(nextCell, begin / s1_); i < cellEnd; ++i) {
        std::uint64_t count = 0;
        for (int b = 0; b < planes; ++b) {
          const std::uint64_t* plane =
              planes_.data() + static_cast<std::size_t>(b) * nw;
          count += popcountRange(plane, i * s1_, (i + 1) * s1_) << b;
        }
        cellRow[i] = static_cast<std::uint16_t>(count);
      }
      nextCell = std::max(nextCell, cellEnd);
    });
  }
}

}  // namespace ebbiot
