// The two CRC32 kernels behind crc32() and the run-time choice between
// them.  Both advance the same raw (pre-inverted) CRC register, so the
// carry-less fold hands its last 0-15 bytes to the slice-by-8 loop and
// every result is bit-identical to the portable kernel.
#include "src/node/wire_format.hpp"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ebbiot {
namespace {

constexpr std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// Slice-by-8 tables: kCrcTables[0] is the bytewise table and
/// kCrcTables[s][i] is the CRC of byte i followed by s zero bytes, so one
/// step folds eight input bytes with eight independent lookups (8 KB of
/// static data).
constexpr std::array<std::array<std::uint32_t, 256>, 8> makeCrcTables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  tables[0] = makeCrcTable();
  for (std::size_t s = 1; s < tables.size(); ++s) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[s - 1][i];
      tables[s][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables =
    makeCrcTables();

std::uint64_t load64Le(const std::byte* p) {
  std::uint64_t v = 0;
  for (std::size_t i = 8; i-- > 0;) {
    v = (v << 8) | static_cast<std::uint64_t>(p[i]);
  }
  return v;
}

/// Slice-by-8: advances the raw CRC register `c` over n bytes at p.
std::uint32_t sliceBy8(std::uint32_t c, const std::byte* p, std::size_t n) {
  const auto& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t v = load64Le(p) ^ c;
    c = t[7][v & 0xFFu] ^ t[6][(v >> 8) & 0xFFu] ^ t[5][(v >> 16) & 0xFFu] ^
        t[4][(v >> 24) & 0xFFu] ^ t[3][(v >> 32) & 0xFFu] ^
        t[2][(v >> 40) & 0xFFu] ^ t[1][(v >> 48) & 0xFFu] ^ t[0][v >> 56];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)
__m128i load16(const std::byte* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// x * k + next in GF(2)[x]: the low and high 64-bit halves of x are
/// multiplied by the low and high constants of k, whose exponents match
/// the fold distance.
__attribute__((target("pclmul"))) __m128i fold16(__m128i x, __m128i k,
                                                  __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Carry-less-multiply fold of Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
/// bit-reflected domain of 0xEDB88320.  Advances the raw CRC register `c`
/// over n bytes at p, where n >= 64 and n is a multiple of 16: four
/// 128-bit lanes fold 64 bytes per step, the lanes fold into one, the
/// remaining 16-byte blocks fold into it, and a Barrett reduction takes
/// the 128-bit remainder to 32 bits.  Only whole 16-byte blocks inside
/// [p, p + n) are loaded.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t clmulFold(
    std::uint32_t c, const std::byte* p, std::size_t n) {
  // Each pair holds x^k mod P(x) for the two exponents k that a fold over
  // the commented distance needs, bit-reflected and shifted left by one.
  const __m128i k64 = _mm_set_epi64x(0x01C6E41596, 0x0154442BD4);  // 512 b
  const __m128i k16 = _mm_set_epi64x(0x00CCAA009E, 0x01751997D0);  // 128 b
  const __m128i k8 = _mm_set_epi64x(0, 0x0163CD6124);               // 64 b
  // Low: P(x); high: the Barrett quotient mu = x^64 / P(x); both reflected.
  const __m128i barrett = _mm_set_epi64x(0x01F7011641, 0x01DB710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold16(x0, k64, load16(p));
    x1 = fold16(x1, k64, load16(p + 16));
    x2 = fold16(x2, k64, load16(p + 32));
    x3 = fold16(x3, k64, load16(p + 48));
  }
  __m128i x = fold16(x0, k16, x1);
  x = fold16(x, k16, x2);
  x = fold16(x, k16, x3);
  for (; n >= 16; p += 16, n -= 16) {
    x = fold16(x, k16, load16(p));
  }

  // 128 -> 96 bits: fold the low 64 bits onto the high 64.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k16, 0x10));
  // 96 -> 64 bits: fold the low 32 bits onto the high 64.
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k8, 0x00));
  // Barrett: q = (low32(x) * mu) mod x^32, x ^= q * P; the CRC is in the
  // second 32-bit lane.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

std::uint32_t crc32Clmul(std::span<const std::byte> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  if (n >= 64) {
    const std::size_t folded = n & ~std::size_t{15};
    c = clmulFold(c, p, folded);
    p += folded;
    n -= folded;
  }
  return sliceBy8(c, p, n) ^ 0xFFFFFFFFu;
}
#endif

}  // namespace

namespace detail {

std::uint32_t crc32Portable(std::span<const std::byte> bytes) {
  return sliceBy8(0xFFFFFFFFu, bytes.data(), bytes.size()) ^ 0xFFFFFFFFu;
}

Crc32Kernel crc32ClmulKernel() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return &crc32Clmul;
  }
#endif
  return nullptr;
}

}  // namespace detail

std::uint32_t crc32(std::span<const std::byte> bytes) {
  static const detail::Crc32Kernel kernel = [] {
    const detail::Crc32Kernel clmul = detail::crc32ClmulKernel();
    return clmul != nullptr ? clmul : &detail::crc32Portable;
  }();
  return kernel(bytes);
}

}  // namespace ebbiot
