// The AVX-512 VBMI record kernels behind FrameParser's record checks and
// decodeEventsInto(), and the run-time test for them.  One masked 36-byte
// load and one zero-masking byte permute turn four 9-byte records into
// four 16-byte Events: x, y and polarity land in place and dt lands
// zero-extended in t.  The check folds those lanes into running maxima
// and compares them once; the decode adds tStart to the t lanes, stores
// 64 bytes and keeps the running maximum of dt alone.  The last 1-3
// records use narrower masks, so no byte past the records is read or
// written.  Both kernels return exactly what the portable kernels in
// wire_format.cpp return.
#include <array>
#include <cstddef>

#include "src/common/error.hpp"
#include "src/node/wire_format.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ebbiot::detail {

#if defined(__x86_64__)
namespace {

static_assert(sizeof(Event) == 16 && offsetof(Event, x) == 0 &&
                  offsetof(Event, y) == 2 && offsetof(Event, p) == 4 &&
                  offsetof(Event, t) == 8,
              "the permute writes Events in this layout");
static_assert(kRecordXOffset == 0 && kRecordYOffset == 2 &&
                  kRecordPolarityOffset == 4 && kRecordDtOffset == 5,
              "the permute reads records in this layout");

constexpr std::size_t kRecordsPerStep = 4;

/// Bytes of the first n records of a step.
constexpr __mmask64 recordBytes(std::size_t n) {
  return (__mmask64{1} << (n * kFrameEventSize)) - 1;
}

/// Bytes of the first n (< 4) Event lanes of a step.
constexpr __mmask64 eventBytes(std::size_t n) {
  return (__mmask64{1} << (n * sizeof(Event))) - 1;
}

/// The Event bytes the permute fills: x, y, p (bytes 0-4) and the low
/// four bytes of t (8-11) of every lane.  Padding and t's high bytes are
/// zeroed.
constexpr __mmask64 kFilledBytes = 0x0F1F'0F1F'0F1F'0F1FULL;
/// Where the fields sit in a step of four Event lanes: words 0 and 1 (x,
/// y), dword 2 (t, holding dt) and byte 4 (p) of every lane.
constexpr __mmask32 kXyWords = 0x0303'0303U;
constexpr __mmask16 kDtDwords = 0x4444U;
constexpr __mmask64 kPolarityBytes = 0x0010'0010'0010'0010ULL;

/// vpermb index: byte b of Event lane k takes byte 9k + b of the step for
/// x, y and p, and byte 9k + 5 + (b - 8) for dt.
constexpr std::array<std::uint8_t, 64> makeSpreadIndex() {
  std::array<std::uint8_t, 64> index{};
  for (std::size_t k = 0; k < kRecordsPerStep; ++k) {
    const std::size_t rec = k * kFrameEventSize;
    for (std::size_t b = 0; b < kRecordDtOffset; ++b) {
      index[k * sizeof(Event) + b] = static_cast<std::uint8_t>(rec + b);
    }
    for (std::size_t b = 0; b < sizeof(std::uint32_t); ++b) {
      index[k * sizeof(Event) + offsetof(Event, t) + b] =
          static_cast<std::uint8_t>(rec + kRecordDtOffset + b);
    }
  }
  return index;
}
constexpr std::array<std::uint8_t, 64> kSpreadIndex = makeSpreadIndex();

#define EBBIOT_VBMI __attribute__((target("avx512f,avx512bw,avx512vbmi")))

/// The first n (1-4) records at rec as n Event lanes; lanes past n are 0.
EBBIOT_VBMI inline __m512i spread(const std::byte* rec, std::size_t n,
                                  __m512i index) {
  const __m512i raw = _mm512_maskz_loadu_epi8(recordBytes(n), rec);
  return _mm512_maskz_permutexvar_epi8(kFilledBytes, index, raw);
}

EBBIOT_VBMI bool checkRecordsVbmi(std::span<const std::byte> records,
                                  const RecordLimits& limits) {
  const __m512i index = _mm512_loadu_si512(kSpreadIndex.data());
  const __m512i one = _mm512_set1_epi8(1);
  __m512i maxXy = _mm512_setzero_si512();  // 16-bit lanes: x, y
  __m512i maxDt = _mm512_setzero_si512();  // 32-bit lanes: dt
  // OR of p + 1 over every record: +1 and -1 give 2 and 0, so the OR
  // has no bit but bit 1 set iff every polarity is valid.
  __m512i pPlusOne = _mm512_setzero_si512();
  const std::byte* rec = records.data();
  std::size_t n = records.size() / kFrameEventSize;
  for (; n >= kRecordsPerStep;
       n -= kRecordsPerStep, rec += kRecordsPerStep * kFrameEventSize) {
    const __m512i v = spread(rec, kRecordsPerStep, index);
    maxXy = _mm512_max_epu16(maxXy, v);
    maxDt = _mm512_mask_max_epu32(maxDt, kDtDwords, maxDt, v);
    pPlusOne = _mm512_or_si512(pPlusOne, _mm512_add_epi8(v, one));
  }
  if (n > 0) {
    // Empty lanes read x = y = dt = 0, which pass; their polarity 0
    // would not, so the add leaves those lanes 0.
    const __m512i v = spread(rec, n, index);
    maxXy = _mm512_max_epu16(maxXy, v);
    maxDt = _mm512_mask_max_epu32(maxDt, kDtDwords, maxDt, v);
    pPlusOne = _mm512_or_si512(pPlusOne,
                               _mm512_maskz_add_epi8(eventBytes(n), v, one));
  }
  const __m512i xyLimit = _mm512_set1_epi32(static_cast<int>(
      std::uint32_t{limits.width} | std::uint32_t{limits.height} << 16));
  const __mmask32 xyBad =
      _mm512_mask_cmpge_epu16_mask(kXyWords, maxXy, xyLimit);
  const __mmask16 dtBad = _mm512_mask_cmpge_epu32_mask(
      kDtDwords, maxDt,
      _mm512_set1_epi32(static_cast<int>(limits.durationUs)));
  const __mmask64 pBad = _mm512_mask_test_epi8_mask(
      kPolarityBytes, pPlusOne, _mm512_set1_epi8(~2));  // any bit but bit 1
  return (xyBad | dtBad | pBad) != 0;
}

EBBIOT_VBMI bool decodeRecordsVbmi(std::span<const std::byte> records,
                                   TimeUs tStart, std::uint32_t durationUs,
                                   std::span<Event> out) {
  EBBIOT_ASSERT(records.size() == out.size() * kFrameEventSize);
  const __m512i index = _mm512_loadu_si512(kSpreadIndex.data());
  const __m512i start = _mm512_set1_epi64(tStart);
  constexpr __mmask8 kTLanes = 0xAA;  // the odd 64-bit lanes hold t
  __m512i maxDt = _mm512_setzero_si512();  // 32-bit lanes: dt
  const std::byte* rec = records.data();
  Event* dst = out.data();
  std::size_t n = out.size();
  for (; n >= kRecordsPerStep; n -= kRecordsPerStep,
                               rec += kRecordsPerStep * kFrameEventSize,
                               dst += kRecordsPerStep) {
    const __m512i v = spread(rec, kRecordsPerStep, index);
    maxDt = _mm512_mask_max_epu32(maxDt, kDtDwords, maxDt, v);
    _mm512_storeu_si512(dst, _mm512_mask_add_epi64(v, kTLanes, v, start));
  }
  if (n > 0) {
    // Empty lanes read dt = 0: late only at durationUs = 0, where every
    // record is.
    const __m512i v = spread(rec, n, index);
    maxDt = _mm512_mask_max_epu32(maxDt, kDtDwords, maxDt, v);
    _mm512_mask_storeu_epi64(dst, static_cast<__mmask8>((1U << (2 * n)) - 1),
                             _mm512_mask_add_epi64(v, kTLanes, v, start));
  }
  return !out.empty() &&
         _mm512_mask_cmpge_epu32_mask(
             kDtDwords, maxDt,
             _mm512_set1_epi32(static_cast<int>(durationUs))) != 0;
}

}  // namespace
#endif

const RecordKernels* vbmiRecordKernels() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vbmi")) {
    static constexpr RecordKernels kVbmi{&checkRecordsVbmi,
                                         &decodeRecordsVbmi};
    return &kVbmi;
  }
#endif
  return nullptr;
}

}  // namespace ebbiot::detail
