// The AVX2 kernel behind MedianFilter's 3x3 median, and the run-time test
// for it.  At the paper's 240 px a row is four 64-bit words, one 256-bit
// register.  Each input row's horizontal 3-sum (west + centre + east as
// one full adder, with the cross-word carries as lane permutes) is
// computed once and kept in registers as the north, centre and south sums
// while the band moves down.  Two full adders and the majority
//     out = (w4 & (w1 | w2a | w2b)) | (w1 & w2a & w2b)
// reduce them to the output row, which is tail-masked and stored, masked
// to wordsPerRow() lanes, only when it is non-zero: a blank row stays
// unmarked, so the output's row occupancy is exact.  Loads and stores are
// masked to the row, so no word past it is read or written.  The result
// is bit-identical to majority3Portable's.
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/common/error.hpp"
#include "src/filters/median_majority.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ebbiot::median_detail {

#if defined(__x86_64__)
namespace {

constexpr std::size_t kLanes = 4;  // 64-bit words per 256-bit register

#define EBBIOT_AVX2 __attribute__((target("avx2")))

/// One input row's horizontal 3-sum as bit-planes: bit x of `parity` and
/// `carry` hold the low and high bit of the count of set pixels among
/// x - 1, x and x + 1.
struct RowSum {
  __m256i parity;
  __m256i carry;
};

EBBIOT_AVX2 inline void fullAdd(__m256i a, __m256i b, __m256i c, __m256i& s,
                                __m256i& carry) {
  const __m256i ab = _mm256_xor_si256(a, b);
  s = _mm256_xor_si256(ab, c);
  carry = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(c, ab));
}

/// Row y of the row-major `words` (nw words a row, read only in the
/// lanes `lanes` keeps; the others are 0), or 0 for a row outside
/// [0, height): the zero-padding border.
EBBIOT_AVX2 inline __m256i loadRow(const std::uint64_t* words, std::size_t nw,
                                   int height, int y, __m256i lanes) {
  if (y < 0 || y >= height) {
    return _mm256_setzero_si256();
  }
  return _mm256_maskload_epi64(
      reinterpret_cast<const long long*>(words + static_cast<std::size_t>(y) * nw),
      lanes);
}

EBBIOT_AVX2 inline RowSum horizontalSum(__m256i centre) {
  const __m256i zero = _mm256_setzero_si256();
  // Lane k's west word is lane k - 1 and its east word lane k + 1; past
  // either end of the register the word is 0.
  const __m256i prev = _mm256_blend_epi32(
      _mm256_permute4x64_epi64(centre, _MM_SHUFFLE(2, 1, 0, 0)), zero, 0x03);
  const __m256i next = _mm256_blend_epi32(
      _mm256_permute4x64_epi64(centre, _MM_SHUFFLE(3, 3, 2, 1)), zero, 0xC0);
  const __m256i west = _mm256_or_si256(_mm256_slli_epi64(centre, 1),
                                       _mm256_srli_epi64(prev, 63));
  const __m256i east = _mm256_or_si256(_mm256_srli_epi64(centre, 1),
                                       _mm256_slli_epi64(next, 63));
  RowSum sum;
  fullAdd(west, centre, east, sum.parity, sum.carry);
  return sum;
}

/// count = w1 + 2 * (w2a + w2b) + 4 * w4 over the 3x3 patch, and
/// count > 4 iff (w4 and any other bit) or (w1 and both weight-2 bits).
EBBIOT_AVX2 inline __m256i majority(const RowSum& north, const RowSum& centre,
                                    const RowSum& south) {
  __m256i w1;
  __m256i w2a;
  __m256i w2b;
  __m256i w4;
  fullAdd(north.parity, centre.parity, south.parity, w1, w2a);
  fullAdd(north.carry, centre.carry, south.carry, w2b, w4);
  const __m256i any = _mm256_or_si256(w1, _mm256_or_si256(w2a, w2b));
  return _mm256_or_si256(_mm256_and_si256(w4, any),
                         _mm256_and_si256(w1, _mm256_and_si256(w2a, w2b)));
}

EBBIOT_AVX2 void majority3Avx2(const BinaryImage& input, BinaryImage& output,
                               std::span<std::uint64_t> rowScratch) {
  const std::size_t nw = input.wordsPerRow();
  if (nw > kLanes) {
    majority3Portable(input, output, rowScratch);
    return;
  }
  EBBIOT_ASSERT(input.sameShape(output));
  output.clear();
  const RowSpan band = majority3Band(input);
  if (band.empty()) {
    return;
  }
  // `lanes` keeps the row's nw words; `keep` also drops the last word's
  // padding bits (x >= width).
  alignas(32) std::uint64_t laneWords[kLanes] = {};
  alignas(32) std::uint64_t keepWords[kLanes] = {};
  for (std::size_t k = 0; k < nw; ++k) {
    laneWords[k] = ~std::uint64_t{0};
    keepWords[k] = k + 1 == nw ? input.tailMask() : ~std::uint64_t{0};
  }
  const __m256i lanes =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(laneWords));
  const __m256i keep =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(keepWords));
  const std::uint64_t* words = input.wordRow(0);
  const int h = input.height();
  RowSum north = horizontalSum(loadRow(words, nw, h, band.begin - 1, lanes));
  RowSum centre = horizontalSum(loadRow(words, nw, h, band.begin, lanes));
  for (int y = band.begin; y < band.end; ++y) {
    const RowSum south = horizontalSum(loadRow(words, nw, h, y + 1, lanes));
    const __m256i row =
        _mm256_and_si256(majority(north, centre, south), keep);
    if (_mm256_testz_si256(row, row) == 0) {
      _mm256_maskstore_epi64(
          reinterpret_cast<long long*>(output.mutableWordRow(y)), lanes, row);
    }
    north = centre;
    centre = south;
  }
}

}  // namespace
#endif

Majority3Kernel majority3Avx2Kernel() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) {
    return &majority3Avx2;
  }
#endif
  return nullptr;
}

}  // namespace ebbiot::median_detail
