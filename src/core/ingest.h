// Ingest primitives for the updatable sample view's LSM-style write path.
//
// A MaterializedSampleView absorbs Insert() into an in-memory Memtable
// whose records are made durable by a write-ahead log (WalWriter). When
// the memtable reaches its size threshold it is sealed: its WAL is synced
// and kept as the only durable copy, and its records, sorted by the first
// key, become an immutable in-memory run (Memtable::Sealed). A background
// compaction folds runs into a fresh ACE tree. A checksummed manifest
// (ViewManifest) names the live tree generation and the highest WAL id
// folded into it; its atomic rewrite at compaction is the single commit
// point, so recovery after a crash at any point sees either the old or
// the new tree, never a mix, and replays every WAL the tree lacks.
//
// File naming, all under the view's name prefix:
//   <view>.manifest     checksummed manifest (the commit point)
//   <view>.base.g<N>    ACE tree generation N (never overwritten in place)
//   <view>.wal.<N>      write-ahead log of memtable N (raw records); the
//                       durable copy of run N once that memtable is sealed
// Ids are drawn from one monotone counter so a file name is never reused
// across the view's lifetime.

#ifndef MSV_CORE_INGEST_H_
#define MSV_CORE_INGEST_H_

#include <cstdint>
#include <memory>
#include <string>

#include "io/env.h"
#include "sampling/range_query.h"
#include "sampling/sample_stream.h"
#include "storage/record.h"
#include "util/result.h"

namespace msv::core {

/// Knobs for the view's write path.
struct IngestOptions {
  /// Memtable record count that triggers a flush to a sorted run.
  size_t memtable_max_records = 4096;
  /// Run compaction on a background thread. When false, runs accumulate
  /// in memory until an explicit Compact()/Rebuild().
  bool background_compaction = true;
};

/// An append-only in-memory buffer of fixed-size records: the mutable
/// head of the view, and once sealed an immutable sorted run. Not
/// internally synchronized — the owning view guards the live memtable
/// with its mutex; sealed runs are read-only and shared freely.
class Memtable {
 public:
  Memtable(uint64_t id, size_t record_size)
      : id_(id), record_size_(record_size) {}

  uint64_t id() const { return id_; }
  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Appends `count` records of record_size bytes each.
  void Append(const char* records, size_t count);

  const char* record(uint64_t i) const {
    return data_.data() + i * record_size_;
  }

  /// Appends the records matching `query` to `out`, packed, in record
  /// order (a sealed run's is key order). On a sealed run the matches on
  /// the first key are one slice, found by binary search; only k-d
  /// queries filter that slice further.
  void CollectMatches(const storage::RecordLayout& layout,
                      const sampling::RangeQuery& query,
                      sampling::SampleBatch* out) const;

  /// An immutable copy with the records stably sorted by the first key
  /// dimension (the run order), under the same id. Insert takes any
  /// bytes, so a key can be NaN, which `<` cannot order: a run holding a
  /// NaN first key is not binary-searched.
  std::shared_ptr<const Memtable> Sealed(
      const storage::RecordLayout& layout) const;

 private:
  uint64_t id_;
  size_t record_size_;
  std::string data_;
  uint64_t count_ = 0;
  /// Records are in ascending first-key order with no NaN first key.
  bool key_sorted_ = false;
};

/// Appends raw records to a view WAL. The format is a bare concatenation
/// of fixed-size records: replay truncates at the last whole record, so a
/// torn tail write loses only the unacknowledged suffix. Every append is
/// synced, so an acknowledged insert survives power loss.
class WalWriter {
 public:
  /// Opens `name` for appending, creating it (and making the creation
  /// directory-durable) when missing. A torn tail — a trailing partial
  /// record left by a crash mid-append — is truncated away (and the
  /// repair synced) before the first new append, so record boundaries
  /// stay aligned across any number of crash/replay cycles.
  static Result<std::unique_ptr<WalWriter>> Open(io::Env* env,
                                                 const std::string& name,
                                                 size_t record_size);

  /// Appends `count` records; they are crash-durable when this returns
  /// OK.
  Status Append(const char* records, size_t record_size, size_t count);

  /// Makes every appended record crash-durable.
  Status Sync() { return file_->Sync(); }

  uint64_t bytes() const { return offset_; }

 private:
  WalWriter(std::unique_ptr<io::File> file, uint64_t offset)
      : file_(std::move(file)), offset_(offset) {}

  std::unique_ptr<io::File> file_;
  uint64_t offset_;
};

/// Reads every whole record of WAL `name` (missing file: empty). A
/// trailing partial record — a torn write at the crash point — is
/// silently dropped; it was never acknowledged durable.
Result<std::string> ReadWal(io::Env* env, const std::string& name,
                            size_t record_size);

/// The durable description of a view's live file set. Saving it
/// atomically (tmp + Sync + rename-over + SyncDir) commits a compaction;
/// every field is covered by a masked CRC32C.
struct ViewManifest {
  /// File name of the live ACE tree generation.
  std::string base_file;
  /// Next unallocated id for memtables and base generations.
  uint64_t next_id = 1;
  /// Highest memtable id whose records are in the base tree; WALs with
  /// ids <= folded are dead.
  uint64_t folded = 0;
};

Status SaveManifest(io::Env* env, const std::string& file,
                    const ViewManifest& manifest);
Result<ViewManifest> LoadManifest(io::Env* env, const std::string& file);

}  // namespace msv::core

#endif  // MSV_CORE_INGEST_H_
