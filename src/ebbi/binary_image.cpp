#include "src/ebbi/binary_image.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/common/error.hpp"

namespace ebbiot {
namespace {

/// Mask with bits [0, n) set; n in [1, 64].
std::uint64_t lowBits(int n) {
  return n >= 64 ? ~std::uint64_t{0}
                 : (std::uint64_t{1} << static_cast<unsigned>(n)) - 1;
}

}  // namespace

BinaryImage::BinaryImage(int width, int height)
    : width_(width),
      height_(height),
      wordsPerRow_((static_cast<std::size_t>(width) + 63) / 64),
      tailMask_(lowBits(width - static_cast<int>(wordsPerRow_ - 1) * 64)),
      words_(wordsPerRow_ * static_cast<std::size_t>(height), 0),
      rowOcc_((static_cast<std::size_t>(height) + 63) / 64, 0) {
  EBBIOT_ASSERT(width > 0 && height > 0);
}

std::size_t BinaryImage::wordIndex(int x, int y) const {
  return static_cast<std::size_t>(y) * wordsPerRow_ +
         static_cast<std::size_t>(x) / 64;
}

std::uint64_t BinaryImage::bitMask(int x) const {
  return std::uint64_t{1} << (static_cast<unsigned>(x) % 64);
}

void BinaryImage::checkBounds(int x, int y) const {
  EBBIOT_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_);
}

void BinaryImage::markRowOccupied(int y) {
  rowOcc_[static_cast<std::size_t>(y) / 64] |=
      std::uint64_t{1} << (static_cast<unsigned>(y) % 64);
}

void BinaryImage::syncRowOccupancy() {
  const std::uint64_t* row = words_.data();
  for (std::size_t block = 0; block < rowOcc_.size(); ++block) {
    const int rows = std::min(64, height_ - static_cast<int>(block) * 64);
    std::uint64_t occupied = 0;
    for (int r = 0; r < rows; ++r, row += wordsPerRow_) {
      std::uint64_t any = 0;
      for (std::size_t k = 0; k < wordsPerRow_; ++k) {
        any |= row[k];
      }
      occupied |= static_cast<std::uint64_t>(any != 0) << r;
    }
    rowOcc_[block] = occupied;
  }
}

bool BinaryImage::rowMayHaveSetPixels(int y) const {
  checkBounds(0, y);
  return (rowOcc_[static_cast<std::size_t>(y) / 64] &
          (std::uint64_t{1} << (static_cast<unsigned>(y) % 64))) != 0;
}

RowSpan BinaryImage::occupiedRowSpan() const {
  std::size_t first = 0;
  while (first < rowOcc_.size() && rowOcc_[first] == 0) {
    ++first;
  }
  if (first == rowOcc_.size()) {
    return {};  // every occupancy bit clear: frame guaranteed blank
  }
  std::size_t last = rowOcc_.size() - 1;
  while (rowOcc_[last] == 0) {
    --last;
  }
  const int begin =
      static_cast<int>(first) * 64 + std::countr_zero(rowOcc_[first]);
  const int end =
      static_cast<int>(last) * 64 + 64 - std::countl_zero(rowOcc_[last]);
  return {begin, std::min(end, height_)};
}

const std::uint64_t* BinaryImage::wordRow(int y) const {
  checkBounds(0, y);
  return words_.data() + static_cast<std::size_t>(y) * wordsPerRow_;
}

std::uint64_t* BinaryImage::mutableWordRow(int y) {
  checkBounds(0, y);
  markRowOccupied(y);
  return words_.data() + static_cast<std::size_t>(y) * wordsPerRow_;
}

bool BinaryImage::get(int x, int y) const {
  checkBounds(x, y);
  return (words_[wordIndex(x, y)] & bitMask(x)) != 0;
}

void BinaryImage::set(int x, int y, bool value) {
  checkBounds(x, y);
  if (value) {
    words_[wordIndex(x, y)] |= bitMask(x);
    markRowOccupied(y);
  } else {
    words_[wordIndex(x, y)] &= ~bitMask(x);
    // Occupancy stays set: it is a conservative "may have pixels" cache.
  }
}

void BinaryImage::clear() {
  std::fill(words_.begin(), words_.end(), 0);
  std::fill(rowOcc_.begin(), rowOcc_.end(), 0);
}

std::size_t BinaryImage::popcount() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) {
    n += static_cast<std::size_t>(std::popcount(w));
  }
  return n;
}

std::size_t BinaryImage::popcountRowRange(int y, int x0, int x1) const {
  const std::uint64_t* row = wordRow(y);
  const std::size_t w0 = static_cast<std::size_t>(x0) / 64;
  const std::size_t w1 = static_cast<std::size_t>(x1 - 1) / 64;
  const std::uint64_t headMask = ~std::uint64_t{0}
                                 << (static_cast<unsigned>(x0) % 64);
  const std::uint64_t tailMask = lowBits(x1 - static_cast<int>(w1) * 64);
  if (w0 == w1) {
    return static_cast<std::size_t>(
        std::popcount(row[w0] & headMask & tailMask));
  }
  std::size_t n = static_cast<std::size_t>(std::popcount(row[w0] & headMask));
  for (std::size_t w = w0 + 1; w < w1; ++w) {
    n += static_cast<std::size_t>(std::popcount(row[w]));
  }
  n += static_cast<std::size_t>(std::popcount(row[w1] & tailMask));
  return n;
}

std::size_t BinaryImage::popcountInRegion(const BBox& region) const {
  const BBox r = clampToFrame(region, width_, height_);
  if (r.empty()) {
    return 0;
  }
  const int x0 = static_cast<int>(std::floor(r.left()));
  const int x1 = static_cast<int>(std::ceil(r.right()));
  const int y0 = static_cast<int>(std::floor(r.bottom()));
  const int y1 = static_cast<int>(std::ceil(r.top()));
  std::size_t n = 0;
  for (int y = y0; y < y1; ++y) {
    if (!rowMayHaveSetPixels(y)) {
      continue;
    }
    n += popcountRowRange(y, x0, x1);
  }
  return n;
}

void BinaryImage::orWith(const BinaryImage& o) {
  EBBIOT_ASSERT(sameShape(o));
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= o.words_[i];
  }
  for (std::size_t i = 0; i < rowOcc_.size(); ++i) {
    rowOcc_[i] |= o.rowOcc_[i];
  }
}

BBox BinaryImage::boundingBoxOfSetPixels() const {
  return tightBoundingBoxInRegion(0, 0, width_, height_);
}

BBox BinaryImage::tightBoundingBoxInRegion(int x0, int y0, int x1,
                                           int y1) const {
  EBBIOT_ASSERT(x0 >= 0 && y0 >= 0 && x1 <= width_ && y1 <= height_);
  if (x0 >= x1 || y0 >= y1) {
    return {};
  }
  const std::size_t w0 = static_cast<std::size_t>(x0) / 64;
  const std::size_t w1 = static_cast<std::size_t>(x1 - 1) / 64;
  const std::uint64_t headMask = ~std::uint64_t{0}
                                 << (static_cast<unsigned>(x0) % 64);
  const std::uint64_t tailMask = lowBits(x1 - static_cast<int>(w1) * 64);
  int minX = width_;
  int maxX = -1;
  int minY = height_;
  int maxY = -1;
  for (int y = y0; y < y1; ++y) {
    if (!rowMayHaveSetPixels(y)) {
      continue;  // occupancy early-out: row is guaranteed blank
    }
    const std::uint64_t* row = wordRow(y);
    for (std::size_t w = w0; w <= w1; ++w) {
      std::uint64_t word = row[w];
      if (w == w0) {
        word &= headMask;
      }
      if (w == w1) {
        word &= tailMask;
      }
      if (word == 0) {
        continue;
      }
      const int base = static_cast<int>(w) * 64;
      const int lo = base + std::countr_zero(word);
      const int hi = base + 63 - std::countl_zero(word);
      minX = std::min(minX, lo);
      maxX = std::max(maxX, hi);
      minY = std::min(minY, y);
      maxY = std::max(maxY, y);
    }
  }
  if (maxX < 0) {
    return {};
  }
  return {static_cast<float>(minX), static_cast<float>(minY),
          static_cast<float>(maxX - minX + 1),
          static_cast<float>(maxY - minY + 1)};
}

}  // namespace ebbiot
