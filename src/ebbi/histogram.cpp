#include "src/ebbi/histogram.hpp"

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
                  std::vector<HistogramRun>& runs) {
  runs.clear();
  // The interval scan is the shared scalar run scanner (src/ebbi/runs.hpp).
  forEachRun(
      static_cast<int>(histogram.size()),
      [&](int i) { return histogram[static_cast<std::size_t>(i)] != 0; },
      [&](int begin, int end) {
        HistogramRun run{begin, end, 0};
        for (int i = begin; i < end; ++i) {
          run.mass += histogram[static_cast<std::size_t>(i)];
        }
        runs.push_back(run);
      });
}

}  // namespace ebbiot
