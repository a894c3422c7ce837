#include "src/filters/median_filter.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

#include "src/common/error.hpp"
#include "src/filters/median_majority.hpp"

namespace ebbiot {

MedianFilter::MedianFilter(int patchSize) : patchSize_(patchSize) {
  EBBIOT_ASSERT(patchSize == 1 || patchSize == 3);
}

BinaryImage MedianFilter::apply(const BinaryImage& input) {
  BinaryImage output(input.width(), input.height());
  applyInto(input, output);
  return output;
}

void MedianFilter::applyInto(const BinaryImage& input, BinaryImage& output) {
  EBBIOT_ASSERT(input.sameShape(output));
  // Closed-form Eq. (1) accounting (identical to the metered values of
  // MedianFilterReference): the abstract cost model is fixed by A, B and
  // p — the word-parallel evaluation below only changes wall-clock.
  ops_ = median_detail::closedFormOps(input.width(), input.height(),
                                      patchSize_);

  if (patchSize_ == 1) {
    output = input;  // 1x1 median is the identity
    return;
  }
  rowScratch_.resize(input.wordsPerRow());
  median_detail::majority3Kernel()(input, output, rowScratch_);
}

namespace median_detail {

void majority3Portable(const BinaryImage& input, BinaryImage& output,
                       std::span<std::uint64_t> rowScratch) {
  EBBIOT_ASSERT(input.sameShape(output));
  const int h = input.height();
  const std::size_t nw = input.wordsPerRow();
  const std::uint64_t tail = input.tailMask();
  EBBIOT_ASSERT(rowScratch.size() >= nw);
  output.clear();
  // The input's dirty row span (maintained by EbbiBuilder's writes, or the
  // OR of them for the two-timescale slow frame) seeds the active band:
  // rows whose ±1 halo lies entirely outside it are guaranteed blank, so a
  // quiet scene skips them without re-checking per-row occupancy.
  const RowSpan band = majority3Band(input);
  if (band.empty()) {
    return;  // blank frame: the clear() above is the whole answer
  }
  // Rolling north/centre/south window: each input row is looked up once.
  // A row outside the frame or with a clear occupancy bit is all-zero and
  // enters the kernel as null (the zero-padding policy).
  const auto rowIfOccupied = [&](int y) -> const std::uint64_t* {
    return y >= 0 && y < h && input.rowMayHaveSetPixels(y) ? input.wordRow(y)
                                                           : nullptr;
  };
  const std::uint64_t* rowN = rowIfOccupied(band.begin - 1);
  const std::uint64_t* rowC = rowIfOccupied(band.begin);
  for (int y = band.begin; y < band.end; ++y) {
    const std::uint64_t* rowS = rowIfOccupied(y + 1);
    // The output row is blank unless some row of its 3-row band may hold
    // pixels.  The kernel writes to a scratch row, copied out only when it
    // holds pixels: a blank row stays all-zero from the clear() with its
    // occupancy bit clear, so the output's occupancy is exact.
    if ((rowN != nullptr || rowC != nullptr || rowS != nullptr) &&
        majority3Row(rowN, rowC, rowS, rowScratch.data(), nw, tail) != 0) {
      std::copy_n(rowScratch.data(), nw, output.mutableWordRow(y));
    }
    rowN = rowC;
    rowC = rowS;
  }
}

Majority3Kernel majority3Kernel() {
  static const Majority3Kernel kernel = [] {
    const Majority3Kernel avx2 = majority3Avx2Kernel();
    return avx2 != nullptr ? avx2 : &majority3Portable;
  }();
  return kernel;
}

}  // namespace median_detail

}  // namespace ebbiot
