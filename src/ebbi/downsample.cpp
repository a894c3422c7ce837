#include "src/ebbi/downsample.hpp"

#include <algorithm>
#include <bit>

#include "src/common/error.hpp"

namespace ebbiot {

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

  if (s1_ > 64) {
    // Blocks wider than a word: fall back to per-pixel summing.
    for (int j = 0; j < outH; ++j) {
      for (int i = 0; i < outW; ++i) {
        std::uint16_t acc = 0;
        for (int n = 0; n < s2_; ++n) {
          for (int m = 0; m < s1_; ++m) {
            acc = static_cast<std::uint16_t>(
                acc + (image.get(i * s1_ + m, j * s2_ + n) ? 1 : 0));
          }
        }
        out.at(i, j) = acc;
      }
    }
    return;
  }

  const std::size_t nw = image.wordsPerRow();
  const std::uint64_t blockMask =
      s1_ == 64 ? ~std::uint64_t{0}
                : (std::uint64_t{1} << static_cast<unsigned>(s1_)) - 1;
  // Only block rows intersecting the dirty row span can be non-zero; the
  // per-row occupancy check below still skips blank rows inside the band.
  const RowSpan span = image.occupiedRowSpan();
  if (span.empty()) {
    return;  // reset() above already zeroed every cell
  }
  const int jBegin = span.begin / s2_;
  const int jEnd = std::min(outH, (span.end + s2_ - 1) / s2_);
  for (int j = jBegin; j < jEnd; ++j) {
    for (int n = 0; n < s2_; ++n) {
      const int y = j * s2_ + n;
      if (!image.rowMayHaveSetPixels(y)) {
        continue;  // blank row adds nothing to any block
      }
      const std::uint64_t* row = image.wordRow(y);
      for (int i = 0; i < outW; ++i) {
        const int off = i * s1_;
        const std::size_t k = static_cast<std::size_t>(off) / 64;
        const unsigned sh = static_cast<unsigned>(off) % 64;
        std::uint64_t bits = row[k] >> sh;
        if (sh + static_cast<unsigned>(s1_) > 64 && k + 1 < nw) {
          bits |= row[k + 1] << (64 - sh);
        }
        out.at(i, j) = static_cast<std::uint16_t>(
            out.at(i, j) +
            static_cast<std::uint16_t>(std::popcount(bits & blockMask)));
      }
    }
  }
}

}  // namespace ebbiot
