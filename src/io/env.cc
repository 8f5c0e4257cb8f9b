#include "io/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>

#include "util/logging.h"
#include "util/sync.h"

namespace msv::io {

Status File::ReadExact(uint64_t offset, size_t n, char* scratch) {
  MSV_ASSIGN_OR_RETURN(size_t got, Read(offset, n, scratch));
  if (got != n) {
    return Status::IOError("short read: wanted " + std::to_string(n) +
                           " bytes at offset " + std::to_string(offset) +
                           ", got " + std::to_string(got));
  }
  return Status::OK();
}

Status File::ReadBatch(ReadRequest* reqs, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    MSV_ASSIGN_OR_RETURN(reqs[i].got,
                         Read(reqs[i].offset, reqs[i].n, reqs[i].scratch));
  }
  return Status::OK();
}

namespace {

// ---------------------------------------------------------------------------
// In-memory environment
// ---------------------------------------------------------------------------

// Shared state of one in-memory file. Handles from concurrent OpenFile()
// calls alias the same data, so concurrent readers (e.g. parallel sampler
// workers) take the lock shared and writers take it exclusive.
struct MemFileData {
  mutable SharedMutex mu;
  std::vector<char> bytes MSV_GUARDED_BY(mu);
};

class MemFile : public File {
 public:
  explicit MemFile(std::shared_ptr<MemFileData> data)
      : data_(std::move(data)) {}

  Result<size_t> Read(uint64_t offset, size_t n, char* scratch) override {
    ReaderLock lock(data_->mu);
    const auto& bytes = data_->bytes;
    if (offset >= bytes.size()) return static_cast<size_t>(0);
    size_t avail = bytes.size() - static_cast<size_t>(offset);
    size_t got = std::min(n, avail);
    std::memcpy(scratch, bytes.data() + offset, got);
    return got;
  }

  Status Write(uint64_t offset, const char* data, size_t n) override {
    if (n > std::numeric_limits<uint64_t>::max() - offset) {
      return Status::InvalidArgument(
          "MemFile::Write offset + length overflows uint64: offset=" +
          std::to_string(offset) + " n=" + std::to_string(n));
    }
    uint64_t end = offset + n;
    if (end > std::numeric_limits<size_t>::max()) {
      return Status::IOError("MemFile::Write beyond addressable memory: " +
                             std::to_string(end));
    }
    WriterLock lock(data_->mu);
    auto& bytes = data_->bytes;
    if (end > bytes.size()) bytes.resize(static_cast<size_t>(end));
    std::memcpy(bytes.data() + offset, data, n);
    return Status::OK();
  }

  Status Append(const char* data, size_t n) override {
    WriterLock lock(data_->mu);
    auto& bytes = data_->bytes;
    bytes.insert(bytes.end(), data, data + n);
    return Status::OK();
  }

  Result<uint64_t> Size() const override {
    ReaderLock lock(data_->mu);
    return static_cast<uint64_t>(data_->bytes.size());
  }

  Status Truncate(uint64_t size) override {
    WriterLock lock(data_->mu);
    data_->bytes.resize(static_cast<size_t>(size));
    return Status::OK();
  }

  Status Sync() override { return Status::OK(); }

 private:
  std::shared_ptr<MemFileData> data_;
};

class MemEnv : public Env {
 public:
  Result<std::unique_ptr<File>> OpenFile(const std::string& name,
                                         bool create) override {
    MutexLock lock(mu_);
    auto it = files_.find(name);
    if (it == files_.end()) {
      if (!create) {
        return Status::NotFound("no such file: " + name);
      }
      it = files_.emplace(name, std::make_shared<MemFileData>()).first;
    }
    return std::unique_ptr<File>(new MemFile(it->second));
  }

  Status DeleteFile(const std::string& name) override {
    MutexLock lock(mu_);
    if (files_.erase(name) == 0) {
      return Status::NotFound("no such file: " + name);
    }
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    MutexLock lock(mu_);
    auto it = files_.find(from);
    if (it == files_.end()) {
      return Status::NotFound("no such file: " + from);
    }
    files_[to] = it->second;
    files_.erase(it);
    return Status::OK();
  }

  Result<bool> FileExists(const std::string& name) override {
    MutexLock lock(mu_);
    return files_.count(name) > 0;
  }

  Result<std::vector<std::string>> ListFiles() override {
    MutexLock lock(mu_);
    std::vector<std::string> names;
    names.reserve(files_.size());
    for (const auto& [name, _] : files_) names.push_back(name);
    return names;
  }

 private:
  Mutex mu_;
  std::map<std::string, std::shared_ptr<MemFileData>> files_ MSV_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// POSIX environment (fd-based)
// ---------------------------------------------------------------------------

Status PosixError(const std::string& context, int err) {
  // glibc strerror is thread-safe (per-thread buffer); the portable
  // strerror_r dance is not worth it for error-path formatting.
  std::string msg =
      context + ": " + std::strerror(err);  // NOLINT(concurrency-mt-unsafe)
  if (err == ENOENT) return Status::NotFound(msg);
  return Status::IOError(msg);
}

// Positional pread/pwrite keep no shared cursor, so concurrent reads from
// sampler workers need no lock at all; only Append serializes (it must
// read the size and write at it atomically with respect to other appends
// through this handle).
class PosixFile : public File {
 public:
  explicit PosixFile(int fd) : fd_(fd) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Result<size_t> Read(uint64_t offset, size_t n, char* scratch) override {
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::pread(fd_, scratch + got, n - got,
                          static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError("pread at " + std::to_string(offset), errno);
      }
      if (r == 0) break;  // end of file
      got += static_cast<size_t>(r);
    }
    return got;
  }

  Status Write(uint64_t offset, const char* data, size_t n) override {
    return WriteAt(offset, data, n);
  }

  Status Append(const char* data, size_t n) override {
    MutexLock lock(append_mu_);
    MSV_ASSIGN_OR_RETURN(uint64_t size, Size());
    return WriteAt(size, data, n);
  }

  Result<uint64_t> Size() const override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return PosixError("fstat", errno);
    }
    return static_cast<uint64_t>(st.st_size);
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return PosixError("ftruncate to " + std::to_string(size), errno);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return PosixError("fsync", errno);
    }
    return Status::OK();
  }

 private:
  Status WriteAt(uint64_t offset, const char* data, size_t n) {
    size_t put = 0;
    while (put < n) {
      ssize_t w = ::pwrite(fd_, data + put, n - put,
                           static_cast<off_t>(offset + put));
      if (w < 0) {
        if (errno == EINTR) continue;
        return PosixError("pwrite at " + std::to_string(offset), errno);
      }
      put += static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Mutex append_mu_;
  int fd_;
};

class PosixEnv : public Env {
 public:
  explicit PosixEnv(std::string root) : root_(std::move(root)) {
    // An empty root is the working directory, spelled "./" so that
    // every path below is root_ + name.
    if (root_.empty()) root_ = ".";
    if (root_.back() != '/') root_ += '/';
  }

  Result<std::unique_ptr<File>> OpenFile(const std::string& name,
                                         bool create) override {
    std::string path = root_ + name;
    int flags = O_RDWR | O_CLOEXEC;
    if (create) flags |= O_CREAT;
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      return PosixError("open " + path, errno);
    }
    return std::unique_ptr<File>(new PosixFile(fd));
  }

  Status DeleteFile(const std::string& name) override {
    std::string path = root_ + name;
    if (::unlink(path.c_str()) != 0) {
      // Only a missing file is NotFound; EACCES, EISDIR, ... are I/O
      // errors the caller must not mistake for "already gone".
      return PosixError("unlink " + path, errno);
    }
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename((root_ + from).c_str(), (root_ + to).c_str()) != 0) {
      return PosixError("rename " + from + " -> " + to, errno);
    }
    return Status::OK();
  }

  Result<bool> FileExists(const std::string& name) override {
    std::string path = root_ + name;
    struct stat st;
    if (::stat(path.c_str(), &st) == 0) return true;
    // ENOENT: definitively absent. ENOTDIR: a path component is a file,
    // so `name` cannot exist either. Anything else (EACCES, EMFILE, ...)
    // means we could not determine existence — surface the error.
    if (errno == ENOENT || errno == ENOTDIR) return false;
    return PosixError("stat " + path, errno);
  }

  Result<std::vector<std::string>> ListFiles() override {
    DIR* d = ::opendir(root_.c_str());
    if (d == nullptr) {
      return PosixError("opendir " + root_, errno);
    }
    std::vector<std::string> names;
    errno = 0;
    while (struct dirent* entry = ::readdir(d)) {
      std::string n = entry->d_name;
      if (n == "." || n == "..") continue;
      // Only regular files participate in the Env namespace.
      struct stat st;
      if (::stat((root_ + n).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
        names.push_back(std::move(n));
      }
      errno = 0;
    }
    int err = errno;
    ::closedir(d);
    if (err != 0) {
      return PosixError("readdir " + root_, err);
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  Status SyncDir() override {
    int fd = ::open(root_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
      return PosixError("open dir " + root_, errno);
    }
    Status st = Status::OK();
    if (::fsync(fd) != 0) {
      st = PosixError("fsync dir " + root_, errno);
    }
    ::close(fd);
    return st;
  }

 private:
  std::string root_;
};

}  // namespace

Env* Env::Memory() {
  static MemEnv* env = new MemEnv();
  return env;
}

std::unique_ptr<Env> NewMemEnv() { return std::make_unique<MemEnv>(); }

Status WriteFileAtomic(Env* env, const std::string& name,
                       std::string_view contents) {
  const std::string tmp_name = name + ".tmp";
  auto write_tmp = [&]() -> Status {
    MSV_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                         env->OpenFile(tmp_name, /*create=*/true));
    MSV_RETURN_IF_ERROR(file->Truncate(0));
    MSV_RETURN_IF_ERROR(file->Write(0, contents.data(), contents.size()));
    return file->Sync();
  };
  Status st = write_tmp();
  if (!st.ok()) {
    env->DeleteFile(tmp_name).IgnoreError();  // best-effort scratch cleanup
    return st;
  }
  MSV_RETURN_IF_ERROR(env->RenameFile(tmp_name, name));
  return env->SyncDir();
}

std::unique_ptr<Env> NewPosixEnv(std::string root) {
  return std::make_unique<PosixEnv>(std::move(root));
}

}  // namespace msv::io
