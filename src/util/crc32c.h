// CRC-32C (Castagnoli) checksums for on-disk integrity.
//
// Every leaf read is verified, so this is on the read path of every
// sample. Two kernels compute the same function:
//   - SSE4.2 `crc32`, three interleaved streams over 8 KiB blocks, then
//     over 256 B blocks, then one stream of 8-byte words; the stream CRCs
//     are folded with precomputed shift-by-zeros tables;
//   - portable slicing-by-8 (eight 256-entry tables, 8 bytes per step).
// Dispatch follows util::ActiveCpuLevel(): the hardware kernel runs when
// the level is above kScalar and cpuid reports SSE4.2, so
// MSV_CPU_FEATURES=scalar selects slicing-by-8.

#ifndef MSV_UTIL_CRC32C_H_
#define MSV_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

#include "util/cpu.h"

namespace msv {

/// CRC-32C of `data[0, n)`, seeded with `init` (pass a previous Crc32c
/// result to extend a running checksum).
uint32_t Crc32c(const char* data, size_t n, uint32_t init = 0);

/// Crc32c with the dispatch level pinned instead of ActiveCpuLevel(), for
/// the kernel-equivalence tests. kScalar selects slicing-by-8; any other
/// level selects SSE4.2 where the host has it.
uint32_t Crc32cAt(util::CpuLevel level, const char* data, size_t n,
                  uint32_t init = 0);

/// Masked CRC, RocksDB/LevelDB style: storing the CRC of data that itself
/// contains CRCs is error-prone, so stored checksums are rotated+offset.
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

inline uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace msv

#endif  // MSV_UTIL_CRC32C_H_
