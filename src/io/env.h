// Storage environment abstraction (RocksDB-style Env).
//
// All file access in the library goes through Env/File so that every index
// structure can run unchanged against:
//   * MemEnv    - an in-process byte-vector filesystem (fast, deterministic;
//                 the default for tests and simulated-disk benchmarks), or
//   * PosixEnv  - real files on the host filesystem.
//
// The simulated-disk benchmark harness wraps either Env with SimEnv (see
// disk_model.h) to charge modeled seek/rotation/transfer time per access.

#ifndef MSV_IO_ENV_H_
#define MSV_IO_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace msv::io {

/// One positional read inside a File::ReadBatch call. `got` is filled
/// with the number of bytes actually read (short only at end-of-file,
/// matching File::Read).
struct ReadRequest {
  uint64_t offset = 0;
  size_t n = 0;
  char* scratch = nullptr;
  size_t got = 0;
};

/// A random-access file supporting positional reads/writes and append.
/// The library's implementations (MemEnv, PosixEnv, SimEnv) are safe for
/// concurrent use: positional reads may proceed in parallel and writes are
/// serialized against them. Third-party implementations should match that
/// contract before handing files to concurrent samplers.
class File {
 public:
  virtual ~File() = default;

  /// Reads up to `n` bytes starting at `offset` into `scratch`. Returns the
  /// number of bytes actually read (short only at end-of-file).
  virtual Result<size_t> Read(uint64_t offset, size_t n, char* scratch) = 0;

  /// Reads `count` positional requests in array order, one Read each, and
  /// sets each request's `got` to what that Read returned. A batch costs
  /// exactly what its requests cost as separate Reads on every backend:
  /// nothing is coalesced below the caller, so a caller that wants one
  /// device access for a contiguous byte range issues one Read for it.
  /// Stops at the first failed request; earlier requests keep their `got`.
  /// Virtual only so that decorators outside the library can observe
  /// whole batches; the library's backends do not override it.
  virtual Status ReadBatch(ReadRequest* reqs, size_t count);

  /// Writes `n` bytes at `offset`, extending the file if needed.
  virtual Status Write(uint64_t offset, const char* data, size_t n) = 0;

  /// Appends `n` bytes at the current end of file.
  virtual Status Append(const char* data, size_t n) = 0;

  /// Current file size in bytes.
  virtual Result<uint64_t> Size() const = 0;

  /// Truncates or extends the file to exactly `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;

  /// Flushes this file's data to stable storage. Durability contract per
  /// backend (see DESIGN.md §9):
  ///   * MemEnv   - no-op (memory is the storage);
  ///   * PosixEnv - fsync(2) on the descriptor, so the data survives a
  ///     crash — but a *newly created* file's directory entry does not
  ///     until Env::SyncDir() is also called;
  ///   * FaultInjectionEnv - marks the current contents as surviving a
  ///     simulated crash (DropUnsyncedData).
  virtual Status Sync() = 0;

  /// Reads exactly `n` bytes or fails with IOError.
  Status ReadExact(uint64_t offset, size_t n, char* scratch);
};

/// Factory and namespace for files.
class Env {
 public:
  virtual ~Env() = default;

  /// Opens `name`; creates it when `create` is true, otherwise fails with
  /// NotFound for missing files. An existing file is opened as-is (never
  /// truncated).
  virtual Result<std::unique_ptr<File>> OpenFile(const std::string& name,
                                                 bool create) = 0;

  virtual Status DeleteFile(const std::string& name) = 0;

  /// Atomically replaces `to` (if any) with `from`. `from` must exist.
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;
  /// Returns true iff `name` exists. Errors other than "not found" (for
  /// PosixEnv: EACCES, EMFILE, ...) surface as a Status, never as `false`.
  virtual Result<bool> FileExists(const std::string& name) = 0;
  virtual Result<std::vector<std::string>> ListFiles() = 0;

  /// Flushes directory metadata to stable storage. After a file is created
  /// or renamed, its directory entry is only crash-durable once SyncDir()
  /// returns OK (the atomic-build protocol is: write `<name>.tmp`, Sync()
  /// it, RenameFile() to `<name>`, SyncDir()). Backends without a real
  /// directory (MemEnv) inherit this no-op default.
  virtual Status SyncDir() { return Status::OK(); }

  /// Process-wide in-memory environment (never nullptr).
  static Env* Memory();
};

/// Creates a fresh, private in-memory environment.
std::unique_ptr<Env> NewMemEnv();

/// Creates an environment backed by the host filesystem rooted at `root`
/// (file names are interpreted relative to it; "" is the working
/// directory). The directory must exist.
std::unique_ptr<Env> NewPosixEnv(std::string root);

/// Replaces small file `name` with `contents` atomically: writes
/// `<name>.tmp`, Sync()s it, renames it over `name` and syncs the
/// directory, so a crash at any point leaves the previous file or the new
/// one, never a torn one. A failed tmp write deletes the tmp best-effort.
Status WriteFileAtomic(Env* env, const std::string& name,
                       std::string_view contents);

}  // namespace msv::io

#endif  // MSV_IO_ENV_H_
