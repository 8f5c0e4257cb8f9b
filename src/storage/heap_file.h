// HeapFile: an unordered sequence of fixed-size records in one file.
//
// Format:
//   bytes [0, 64)   header: magic, version, record size, record count
//   bytes [64, ...) records, densely packed
//
// Heap files are the input/output unit of the external sorter and the
// storage format of the randomly-permuted-file baseline. The scanner reads
// in large sequential chunks so a full scan costs near the device's
// sequential bandwidth, as in the paper's baseline.

#ifndef MSV_STORAGE_HEAP_FILE_H_
#define MSV_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/env.h"
#include "util/result.h"

namespace msv::storage {

/// Append-only writer; call Finish() to persist the header.
class HeapFileWriter {
 public:
  /// Creates (or truncates) `name` in `env` for records of `record_size`
  /// bytes. `buffer_bytes` controls write batching.
  static Result<std::unique_ptr<HeapFileWriter>> Create(
      io::Env* env, const std::string& name, size_t record_size,
      size_t buffer_bytes = 1 << 20);

  /// Appends one record of exactly record_size bytes.
  Status Append(const char* record);

  /// Flushes buffered records and writes the final header. The writer must
  /// not be used afterwards.
  Status Finish();

  uint64_t records_written() const { return count_; }
  size_t record_size() const { return record_size_; }

 private:
  HeapFileWriter(std::unique_ptr<io::File> file, size_t record_size,
                 size_t buffer_bytes);
  Status FlushBuffer();

  std::unique_ptr<io::File> file_;
  size_t record_size_;
  std::vector<char> buffer_;
  size_t buffered_ = 0;
  uint64_t count_ = 0;
  uint64_t write_offset_;
  bool finished_ = false;
};

/// Read access to a finished heap file.
class HeapFile {
 public:
  /// Opens an existing heap file and validates its header.
  static Result<std::unique_ptr<HeapFile>> Open(io::Env* env,
                                                const std::string& name);

  uint64_t record_count() const { return count_; }
  size_t record_size() const { return record_size_; }
  /// Total size in bytes including the header (scan-time denominator).
  uint64_t file_bytes() const;

  /// Reads record `index` into `out` (record_size bytes).
  Status ReadRecord(uint64_t index, char* out) const;

  /// Sequential scanner: each refill is one read of up to a chunk.
  class Scanner {
   public:
    /// Returns a pointer to the next record, or nullptr at end. The pointer
    /// is valid until the next call.
    Result<const char*> Next();

    /// Records returned so far.
    uint64_t position() const { return pos_; }

   private:
    friend class HeapFile;
    Scanner(const HeapFile* file, size_t chunk_records);

    const HeapFile* file_;
    std::vector<char> chunk_;
    uint64_t pos_ = 0;        // next record index in the file
    size_t chunk_start_ = 0;  // record index of chunk_[0]
    size_t chunk_count_ = 0;  // records currently in chunk_
    size_t chunk_capacity_;   // records per chunk
  };

  /// Creates a scanner reading `chunk_bytes` per I/O, rounded down to
  /// whole records (at least one). The chunk is the scanner's whole
  /// batching policy and its buffer: each refill is a single read of up
  /// to `chunk_bytes`, so a larger chunk means fewer refill seeks at
  /// proportionally more memory. A caller wanting exactly k records per
  /// refill passes k * record_size().
  Scanner NewScanner(size_t chunk_bytes = 4 << 20) const;

 private:
  HeapFile(std::unique_ptr<io::File> file, size_t record_size,
           uint64_t count);

  std::unique_ptr<io::File> file_;
  size_t record_size_;
  uint64_t count_;
};

/// Scanner chunk of two `block_bytes` blocks, each rounded down to whole
/// records (at least one): every refill is one read of twice the block,
/// so a scan costs half the refill seeks at twice the buffer memory.
size_t TwoBlockChunk(size_t block_bytes, size_t record_size);

/// Header constants shared with tests.
inline constexpr uint64_t kHeapFileMagic = 0x3153564d50414548ULL;  // "HEAPMSV1"
inline constexpr size_t kHeapFileHeaderSize = 64;

}  // namespace msv::storage

#endif  // MSV_STORAGE_HEAP_FILE_H_
