// The kernels behind MedianFilter's 3x3 median, each pinned against the
// scalar MedianFilterReference and against each other: the words, every
// row-occupancy bit and the occupied row span, over every width from 1 to
// 320 px (1-5 words, so both the AVX2 kernel's four-word limit and the
// portable loop past it run), random densities, stale-occupancy rows,
// blank and all-set frames, and outputs reused from earlier frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/filters/median_filter_reference.hpp"
#include "src/filters/median_majority.hpp"

namespace ebbiot {
namespace {

using median_detail::Majority3Kernel;

BinaryImage randomImage(int w, int h, double density, std::uint64_t seed) {
  Rng rng(seed);
  BinaryImage img(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (rng.chance(density)) {
        img.set(x, y, true);
      }
    }
  }
  return img;
}

BinaryImage allSet(int w, int h) {
  BinaryImage img(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      img.set(x, y, true);
    }
  }
  return img;
}

/// Random content whose rows 2 and h - 3 were filled and then cleared:
/// their occupancy bits say "may hold pixels" over all-zero words.
BinaryImage staleOccupancy(int w, int h, std::uint64_t seed) {
  BinaryImage img = randomImage(w, h, 0.3, seed);
  for (const int y : {2, h - 3}) {
    for (int x = 0; x < w; ++x) {
      img.set(x, y, true);
    }
    for (int x = 0; x < w; ++x) {
      img.set(x, y, false);
    }
  }
  return img;
}

constexpr double kDensities[] = {0.01, 0.05, 0.2, 0.5, 0.8, 0.95};

/// Calls fn(name, input) for every input the kernels are pinned on.
void forEachInput(
    const std::function<void(const std::string&, const BinaryImage&)>& fn) {
  std::uint64_t seed = 1;
  std::size_t d = 0;
  for (int w = 1; w <= 320; ++w) {
    for (const int h : {1, 2, 3, 17, 180}) {
      const double density = kDensities[d++ % std::size(kDensities)];
      fn("random " + std::to_string(w) + "x" + std::to_string(h) + " at " +
             std::to_string(density),
         randomImage(w, h, density, seed++));
    }
  }
  for (const int w : {64, 191, 240, 256, 257, 320}) {
    for (const double density : kDensities) {
      fn("random " + std::to_string(w) + "x180 at " + std::to_string(density),
         randomImage(w, 180, density, seed++));
    }
    fn("stale occupancy " + std::to_string(w) + "x40",
       staleOccupancy(w, 40, seed++));
  }
  for (const int w : {1, 2, 63, 64, 65, 128, 191, 192, 240, 256, 257, 320}) {
    for (const int h : {1, 2, 3, 17}) {
      const std::string shape = std::to_string(w) + "x" + std::to_string(h);
      fn("blank " + shape, BinaryImage(w, h));
      fn("all set " + shape, allSet(w, h));
    }
  }
}

bool rowHoldsPixels(const BinaryImage& img, int y) {
  const std::uint64_t* row = img.wordRow(y);
  return std::any_of(row, row + img.wordsPerRow(),
                     [](std::uint64_t word) { return word != 0; });
}

/// The span of rows holding a set pixel (empty for a blank image).
RowSpan exactSpan(const BinaryImage& img) {
  RowSpan span;
  for (int y = 0; y < img.height(); ++y) {
    if (rowHoldsPixels(img, y)) {
      if (span.empty()) {
        span.begin = y;
      }
      span.end = y + 1;
    }
  }
  return span;
}

/// `got` has `want`'s words, and its row occupancy is exact: every bit
/// set iff its row holds a pixel, and the span the rows with pixels.
::testing::AssertionResult sameOutput(const BinaryImage& got,
                                      const BinaryImage& want) {
  if (!(got == want)) {
    return ::testing::AssertionFailure() << "words differ";
  }
  for (int y = 0; y < got.height(); ++y) {
    const bool pixels = rowHoldsPixels(want, y);
    if (got.rowMayHaveSetPixels(y) != pixels) {
      return ::testing::AssertionFailure()
             << "row " << y << " occupancy bit " << got.rowMayHaveSetPixels(y)
             << ", row " << (pixels ? "holds pixels" : "is blank");
    }
  }
  const RowSpan span = got.occupiedRowSpan();
  const RowSpan wantSpan = exactSpan(want);
  if (span != wantSpan) {
    return ::testing::AssertionFailure()
           << "occupied rows [" << span.begin << ", " << span.end
           << "), rows with pixels [" << wantSpan.begin << ", "
           << wantSpan.end << ")";
  }
  return ::testing::AssertionSuccess();
}

void runKernel(Majority3Kernel kernel, const BinaryImage& input,
               BinaryImage& output) {
  std::vector<std::uint64_t> scratch(input.wordsPerRow());
  kernel(input, output, scratch);
}

/// Each input into a fresh output and into one reused from the previous
/// input of the same shape, against the reference's fresh output.
void expectMatchesReference(Majority3Kernel kernel) {
  MedianFilterReference reference(3);
  BinaryImage reused;
  forEachInput([&](const std::string& name, const BinaryImage& input) {
    const BinaryImage want = reference.apply(input);
    BinaryImage fresh(input.width(), input.height());
    runKernel(kernel, input, fresh);
    ASSERT_TRUE(sameOutput(fresh, want)) << name << ", fresh output";
    if (!reused.sameShape(input)) {
      reused = allSet(input.width(), input.height());
    }
    runKernel(kernel, input, reused);
    ASSERT_TRUE(sameOutput(reused, want)) << name << ", reused output";
  });
}

TEST(MedianKernelsTest, PortableKernelMatchesReference) {
  expectMatchesReference(&median_detail::majority3Portable);
}

TEST(MedianKernelsTest, Avx2KernelMatchesReference) {
  const Majority3Kernel avx2 = median_detail::majority3Avx2Kernel();
  if (avx2 == nullptr) {
    GTEST_SKIP() << "CPU lacks AVX2";
  }
  expectMatchesReference(avx2);
}

TEST(MedianKernelsTest, Avx2KernelMatchesPortable) {
  // The two kernels on the same inputs, each writing over the other's
  // previous output, so neither may lean on the state it left itself.
  const Majority3Kernel avx2 = median_detail::majority3Avx2Kernel();
  if (avx2 == nullptr) {
    GTEST_SKIP() << "CPU lacks AVX2";
  }
  BinaryImage a;
  BinaryImage b;
  forEachInput([&](const std::string& name, const BinaryImage& input) {
    if (!a.sameShape(input)) {
      a = allSet(input.width(), input.height());
      b = BinaryImage(input.width(), input.height());
    }
    runKernel(&median_detail::majority3Portable, input, a);
    runKernel(avx2, input, b);
    ASSERT_TRUE(sameOutput(b, a)) << name;
    std::swap(a, b);
  });
}

TEST(MedianKernelsTest, DispatchedKernelIsAvx2WhereTheCpuHasIt) {
  // On a CPU with AVX2 the filter must run the register kernel; a
  // dispatch that falls back to the portable loop there fails here.
  const Majority3Kernel dispatched = median_detail::majority3Kernel();
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) {
    ASSERT_NE(median_detail::majority3Avx2Kernel(), nullptr);
    EXPECT_EQ(dispatched, median_detail::majority3Avx2Kernel());
    return;
  }
#endif
  EXPECT_EQ(median_detail::majority3Avx2Kernel(), nullptr);
  EXPECT_EQ(dispatched, &median_detail::majority3Portable);
}

}  // namespace
}  // namespace ebbiot
