// Shared run-extraction primitives.
//
// A "run" is a maximal interval of consecutive set elements along one row
// (or one histogram axis).  Runs are the unit the word-parallel stages
// reason about: the run-based CCA labeller unions *runs* instead of
// pixels, and the histogram RPN's 1-D run finding (Section II-B) is the
// same scan over bins.  Two scanners live here:
//
//   * forEachRun       — generic scalar scan over any indexed predicate.
//                        Backs findRunsInto (src/ebbi/histogram.hpp), so
//                        the histogram RPN and the CCA labeller share one
//                        run vocabulary.
//   * forEachSetRunInWords — bit-scan over a 64-bit word row (ctz on the
//                        word to find a run start, ctz of the complement
//                        to find its end), so a row costs a handful of
//                        word ops instead of one branch per pixel.  Used
//                        by the run-based CCA over BinaryImage word rows.
//
// Both emit half-open [begin, end) intervals in ascending order.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace ebbiot {

/// A maximal horizontal run of set pixels, half-open [begin, end).
struct PixelRun {
  int begin = 0;
  int end = 0;

  [[nodiscard]] int length() const { return end - begin; }
  friend bool operator==(const PixelRun&, const PixelRun&) = default;
};

/// Scan indices [0, n) and emit the maximal runs where isSet(i) holds, as
/// half-open bounds emit(begin, end).
template <typename IsSetFn, typename EmitFn>
void forEachRun(int n, IsSetFn&& isSet, EmitFn&& emit) {
  int begin = -1;
  for (int i = 0; i < n; ++i) {
    if (isSet(i)) {
      if (begin < 0) {
        begin = i;
      }
    } else if (begin >= 0) {
      emit(begin, i);
      begin = -1;
    }
  }
  if (begin >= 0) {
    emit(begin, n);
  }
}

/// Emit the maximal runs of set bits in a word row (bit i of word k =
/// index 64*k + i), via ctz bit scans: whole blank words are skipped in
/// one compare, and a run costs two bit scans regardless of its length.
/// Callers must keep padding bits beyond the row's logical width zero
/// (BinaryImage's word-row invariant), so runs never leak past the width.
template <typename EmitFn>
void forEachSetRunInWords(const std::uint64_t* words, std::size_t nWords,
                          EmitFn&& emit) {
  std::size_t k = 0;
  if (nWords == 0) {
    return;
  }
  std::uint64_t w = words[0];
  while (true) {
    while (w == 0) {
      if (++k >= nWords) {
        return;
      }
      w = words[k];
    }
    const int s = std::countr_zero(w);
    const int begin = static_cast<int>(k) * 64 + s;
    // Length of the all-ones stretch starting at bit s.
    int len = std::countr_zero(~(w >> s));
    if (s + len == 64) {
      // Run continues across the word boundary: swallow all-ones words,
      // then the leading ones of the first word that is not all ones.
      while (++k < nWords && words[k] == ~std::uint64_t{0}) {
        len += 64;
      }
      if (k >= nWords) {
        emit(begin, begin + len);
        return;
      }
      w = words[k];
      const int extra = std::countr_zero(~w);  // < 64: w is not all ones
      len += extra;
      w &= ~((std::uint64_t{1} << static_cast<unsigned>(extra)) - 1);
      emit(begin, begin + len);
      continue;
    }
    // Run ends inside this word: clear its bits and keep scanning.
    w &= ~(((std::uint64_t{1} << static_cast<unsigned>(len)) - 1)
           << static_cast<unsigned>(s));
    emit(begin, begin + len);
  }
}

}  // namespace ebbiot
