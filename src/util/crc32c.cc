// CRC-32C kernels: SSE4.2 `crc32` in three interleaved streams, and a
// portable slicing-by-8 table loop. Both compute the same function; the
// dispatch-equivalence tests pin them to each other and to the RFC 3720
// vectors.
//
// The hardware loop follows the well-known three-stream layout: a
// `crc32` instruction has a latency of three cycles but issues one per
// cycle, so three independent streams over adjacent blocks keep the unit
// busy. Block CRCs are then combined with the identity
//   reg(A|B) = shift(reg(A), |B|) ^ reg_from_zero(B),
// where shift(r, len) — feeding `len` zero bytes through the register —
// is linear in r and is applied with four precomputed 256-entry tables.
//
// All loads go through memcpy (DecodeFixed*), so unaligned inputs are
// defined behaviour and the sanitizer builds run these paths clean.

#include "util/crc32c.h"

#include "util/coding.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MSV_CRC_X86 1
#include <nmmintrin.h>
#endif

namespace msv {
namespace {

// Reflected Castagnoli polynomial (0x1EDC6F41 bit-reversed).
constexpr uint32_t kPoly = 0x82F63B78u;

// Slicing-by-8 tables: t[0] is the classic byte table; t[k][b] is the
// register after byte b is followed by k zero bytes.
struct SliceTables {
  uint32_t t[8][256];
  SliceTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      t[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
  }
};

const SliceTables& Slices() {
  static const SliceTables tables;
  return tables;
}

// Raw-register update (no pre/post inversion).
uint32_t UpdateSlicing8(uint32_t crc, const char* p, size_t n) {
  const SliceTables& s = Slices();
  for (; n >= 8; n -= 8, p += 8) {
    uint32_t lo = DecodeFixed32(p) ^ crc;
    uint32_t hi = DecodeFixed32(p + 4);
    crc = s.t[7][lo & 0xffu] ^ s.t[6][(lo >> 8) & 0xffu] ^
          s.t[5][(lo >> 16) & 0xffu] ^ s.t[4][lo >> 24] ^
          s.t[3][hi & 0xffu] ^ s.t[2][(hi >> 8) & 0xffu] ^
          s.t[1][(hi >> 16) & 0xffu] ^ s.t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = s.t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef MSV_CRC_X86

// Block sizes of the two interleaved passes: each pass runs three
// streams over three adjacent blocks of this many bytes.
constexpr size_t kLongBlock = 8192;
constexpr size_t kShortBlock = 256;

// shift(r, len) as four byte-indexed tables: the operator is linear, so
// it is the XOR of its values on r's four bytes.
struct ShiftTable {
  uint32_t t[4][256];
  explicit ShiftTable(size_t len) {
    // Column b of the operator: register 1<<b pushed through len zero
    // bytes with the byte table.
    const SliceTables& s = Slices();
    uint32_t column[32];
    for (int b = 0; b < 32; ++b) {
      uint32_t crc = 1u << b;
      for (size_t i = 0; i < len; ++i) crc = s.t[0][crc & 0xffu] ^ (crc >> 8);
      column[b] = crc;
    }
    for (int k = 0; k < 4; ++k) {
      for (uint32_t v = 0; v < 256; ++v) {
        uint32_t out = 0;
        for (int bit = 0; bit < 8; ++bit) {
          if ((v >> bit) & 1u) out ^= column[8 * k + bit];
        }
        t[k][v] = out;
      }
    }
  }
  uint32_t Shift(uint32_t crc) const {
    return t[0][crc & 0xffu] ^ t[1][(crc >> 8) & 0xffu] ^
           t[2][(crc >> 16) & 0xffu] ^ t[3][crc >> 24];
  }
};

const ShiftTable& LongShift() {
  static const ShiftTable table(kLongBlock);
  return table;
}

const ShiftTable& ShortShift() {
  static const ShiftTable table(kShortBlock);
  return table;
}

bool HostHasSse42() {
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
}

// Three streams over p[0, block), p[block, 2 block), p[2 block, 3 block)
// per step, while at least 3 * block bytes remain.
__attribute__((target("sse4.2"))) inline uint64_t ThreeWay(
    uint64_t crc0, const char** pp, size_t* np, size_t block,
    const ShiftTable& shift) {
  const char* p = *pp;
  size_t n = *np;
  while (n >= 3 * block) {
    uint64_t crc1 = 0, crc2 = 0;
    const char* end = p + block;
    for (; p < end; p += 8) {
      crc0 = _mm_crc32_u64(crc0, DecodeFixed64(p));
      crc1 = _mm_crc32_u64(crc1, DecodeFixed64(p + block));
      crc2 = _mm_crc32_u64(crc2, DecodeFixed64(p + 2 * block));
    }
    crc0 = shift.Shift(static_cast<uint32_t>(crc0)) ^ crc1;
    crc0 = shift.Shift(static_cast<uint32_t>(crc0)) ^ crc2;
    p += 2 * block;
    n -= 3 * block;
  }
  *pp = p;
  *np = n;
  return crc0;
}

// Raw-register update with the SSE4.2 instruction.
__attribute__((target("sse4.2"))) uint32_t UpdateSse42(uint32_t crc,
                                                        const char* p,
                                                        size_t n) {
  // Byte steps up to an 8-byte boundary keep the word loads aligned.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, static_cast<unsigned char>(*p));
    ++p;
    --n;
  }
  uint64_t crc0 = crc;
  crc0 = ThreeWay(crc0, &p, &n, kLongBlock, LongShift());
  crc0 = ThreeWay(crc0, &p, &n, kShortBlock, ShortShift());
  for (; n >= 8; n -= 8, p += 8) crc0 = _mm_crc32_u64(crc0, DecodeFixed64(p));
  crc = static_cast<uint32_t>(crc0);
  for (; n > 0; --n, ++p) {
    crc = _mm_crc32_u8(crc, static_cast<unsigned char>(*p));
  }
  return crc;
}

#endif  // MSV_CRC_X86

}  // namespace

uint32_t Crc32cAt([[maybe_unused]] util::CpuLevel level, const char* data,
                  size_t n, uint32_t init) {
#ifdef MSV_CRC_X86
  // Every level above kScalar is executable on x86-64 (SSE2 is baseline),
  // so only the SSE4.2 bit needs checking.
  if (level != util::CpuLevel::kScalar && HostHasSse42()) {
    return ~UpdateSse42(~init, data, n);
  }
#endif
  return ~UpdateSlicing8(~init, data, n);
}

uint32_t Crc32c(const char* data, size_t n, uint32_t init) {
  return Crc32cAt(util::ActiveCpuLevel(), data, n, init);
}

}  // namespace msv
