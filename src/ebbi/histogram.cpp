#include "src/ebbi/histogram.hpp"

#include "src/common/error.hpp"
#include "src/ebbi/runs.hpp"

namespace ebbiot {

void HistogramBuilder::buildInto(const CountImage& image, HistogramPair& out) {
  ops_.reset();
  const auto width = static_cast<std::size_t>(image.width());
  out.hx.assign(width, 0);
  out.hy.assign(static_cast<std::size_t>(image.height()), 0);
  std::uint32_t* hx = out.hx.data();
  for (int y = 0; y < image.height(); ++y) {
    const std::uint16_t* row = image.row(y);
    std::uint32_t rowSum = 0;
    for (std::size_t x = 0; x < width; ++x) {
      hx[x] += row[x];
      rowSum += row[x];
    }
    out.hy[static_cast<std::size_t>(y)] = rowSum;
    ops_.adds += 2 * width;  // one hx and one hy add per cell
  }
  ops_.memWrites += out.hx.size() + out.hy.size();
}

void findRunsInto(const std::vector<std::uint32_t>& histogram,
                  std::uint32_t threshold, int maxGap,
                  std::vector<HistogramRun>& runs) {
  EBBIOT_ASSERT(maxGap >= 0);
  runs.clear();
  // The interval scan is the shared run scanner (src/ebbi/runs.hpp) the
  // CCA labeller also builds on; mass sums the above-threshold bins of
  // each emitted run (bridged gap bins carry below-threshold mass we
  // deliberately ignore).
  forEachRun(
      static_cast<int>(histogram.size()),
      [&](int i) { return histogram[static_cast<std::size_t>(i)] >= threshold; },
      maxGap, [&](int begin, int end) {
        HistogramRun run{begin, end, 0};
        for (int i = begin; i < end; ++i) {
          const std::uint32_t v = histogram[static_cast<std::size_t>(i)];
          if (v >= threshold) {
            run.mass += v;
          }
        }
        runs.push_back(run);
      });
}

}  // namespace ebbiot
