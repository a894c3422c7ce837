// Bit-packed binary image.
//
// The Event-Based Binary Image (EBBI) is the paper's central data structure:
// one bit per pixel ("only one possible event per pixel, ignoring polarity",
// Section II-A).  1 bit/pixel is also what Eq. (1)'s memory model assumes
// (M_EBBI = 2*A*B bits), so this class stores exactly A*B bits in 64-bit
// words.
//
// The word layout is part of the public interface: rows are independent
// word arrays (wordRow / wordsPerRow / tailMask), which is what lets the
// median filter, the downsampler and the region scans process 64 pixels
// per iteration instead of calling get() pixel by pixel.  Invariant: bits
// at x >= width in the last word of each row are always zero, so word-level
// consumers get zero padding on the right for free.
//
// The image also keeps a *conservative* row-occupancy bitset: a cleared
// bit guarantees the row is all-zero; a set bit means the row may contain
// set pixels (set(x, y, false) does not clear it).  Scans use it to skip
// blank rows — on an EBBI only the active band of the scene survives.  A
// writer that marks only the rows it fills with pixels keeps the bitset
// exact, as MedianFilter's 3x3 kernel does for its output; rewrite()
// leaves it exact by deriving it from the words once the writer is done.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/geometry.hpp"
#include "src/ebbi/runs.hpp"

namespace ebbiot {

/// Half-open row interval [begin, end); empty when begin >= end.  Returned
/// by BinaryImage::occupiedRowSpan as the conservative dirty band of a
/// frame: EbbiBuilder's writes mark exactly the rows touched by events, so
/// the span *is* the active band seed that MedianFilter, Downsampler and
/// the CCA labeller use to skip untouched rows without rediscovering
/// occupancy (quiet scenes cost O(height/64) instead of O(height)).
struct RowSpan {
  int begin = 0;
  int end = 0;

  [[nodiscard]] bool empty() const { return begin >= end; }
  friend bool operator==(const RowSpan&, const RowSpan&) = default;
};

class BinaryImage {
 public:
  BinaryImage() = default;

  /// width x height, all zero.
  BinaryImage(int width, int height);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] bool sameShape(const BinaryImage& o) const {
    return width_ == o.width_ && height_ == o.height_;
  }

  [[nodiscard]] bool get(int x, int y) const;
  void set(int x, int y, bool value);

  /// Set every pixel to 0 without reallocating.
  void clear();

  /// Clear the image, let `write(words, wordsPerRow)` set pixels straight
  /// into the row-major words (wordsPerRow() words per row, pixel x of
  /// row y is bit x % 64 of words[y * wordsPerRow + x / 64]), then make
  /// the row-occupancy bitset exact in one pass over the words.  The
  /// writer must leave the padding bits (x >= width) zero.  For writers
  /// of scattered pixels (EbbiBuilder): no occupancy update per pixel.
  template <typename Write>
  void rewrite(Write&& write) {
    clear();
    std::forward<Write>(write)(words_.data(), wordsPerRow_);
    syncRowOccupancy();
  }

  /// Number of 64-bit words per row (= ceil(width/64)).
  [[nodiscard]] std::size_t wordsPerRow() const { return wordsPerRow_; }

  /// Words of row y (wordsPerRow() of them, bit i of word k = pixel
  /// x = 64*k + i).  Bits at x >= width are guaranteed zero.
  [[nodiscard]] const std::uint64_t* wordRow(int y) const;

  /// Mutable words of row y.  Marks the row as possibly occupied; the
  /// caller must keep the padding bits (x >= width) zero — mask the last
  /// word with tailMask().
  [[nodiscard]] std::uint64_t* mutableWordRow(int y);

  /// Mask of the valid bits in the *last* word of a row (all-ones when
  /// width is a multiple of 64).
  [[nodiscard]] std::uint64_t tailMask() const { return tailMask_; }

  /// Conservative row-occupancy test: false guarantees row y is all-zero;
  /// true means it may contain set pixels.  O(1).
  [[nodiscard]] bool rowMayHaveSetPixels(int y) const;

  /// Conservative span of possibly-occupied rows: rows outside it are
  /// guaranteed all-zero (empty span = whole frame guaranteed blank).
  /// O(height/64) over the occupancy words — the "dirty row band" seed the
  /// word-parallel stages use to bound their row loops.
  [[nodiscard]] RowSpan occupiedRowSpan() const;

  /// Emit the maximal horizontal runs of set pixels in row y as
  /// fn(beginX, endX), half-open, ascending (ctz/clz word scan; see
  /// src/ebbi/runs.hpp).
  template <typename Fn>
  void forEachRunInRow(int y, Fn&& fn) const {
    forEachSetRunInWords(wordRow(y), wordsPerRow_, std::forward<Fn>(fn));
  }

  /// Number of set pixels.
  [[nodiscard]] std::size_t popcount() const;

  /// Number of set pixels within the clamped box.
  [[nodiscard]] std::size_t popcountInRegion(const BBox& region) const;

  /// Bitwise OR with another image of identical shape (used by the
  /// two-timescale long-exposure frame).
  void orWith(const BinaryImage& o);

  /// Tight bounding box of the set pixels (empty when image is blank).
  [[nodiscard]] BBox boundingBoxOfSetPixels() const;

  /// Tight bounding box of the set pixels inside the half-open pixel rect
  /// [x0, x1) x [y0, y1), which must lie within the frame (empty box when
  /// none are set).  Word-parallel; used by the RPN box tightening.
  [[nodiscard]] BBox tightBoundingBoxInRegion(int x0, int y0, int x1,
                                              int y1) const;

  /// Memory footprint of the pixel payload in bits (= width*height as
  /// allocated, for the Eq. (1) style accounting).
  [[nodiscard]] std::size_t payloadBits() const {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }

  /// Pixel equality (the conservative occupancy cache is not observable).
  friend bool operator==(const BinaryImage& a, const BinaryImage& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ &&
           a.words_ == b.words_;
  }

 private:
  [[nodiscard]] std::size_t wordIndex(int x, int y) const;
  [[nodiscard]] std::uint64_t bitMask(int x) const;
  void checkBounds(int x, int y) const;
  void markRowOccupied(int y);
  /// Occupancy bit y := row y holds a set pixel, for every row.
  void syncRowOccupancy();
  /// Masked popcount of row y over columns [x0, x1).
  [[nodiscard]] std::size_t popcountRowRange(int y, int x0, int x1) const;

  int width_ = 0;
  int height_ = 0;
  std::size_t wordsPerRow_ = 0;
  std::uint64_t tailMask_ = ~std::uint64_t{0};
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> rowOcc_;  ///< 1 bit per row, conservative
};

}  // namespace ebbiot
