// An io::Env decorator that counts and times the I/O of the files it
// opens. The benchmark hands it to query::Executor::Open, so every layer
// above io runs unchanged while the io layer's work is measured at its
// boundary: read requests, bytes and time; writes, bytes and syncs.
//
// Counting is off until set_enabled(true); while off, every call is a
// plain forward, so the untraced phases pay one relaxed load per call.

#ifndef PERFBENCH_COUNTING_ENV_H_
#define PERFBENCH_COUNTING_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/env.h"
#include "span_log.h"

namespace perfbench {

class CountingEnv : public msv::io::Env {
 public:
  struct Counts {
    uint64_t reads = 0;  ///< read requests (a ReadBatch of k counts k)
    uint64_t read_bytes = 0;
    uint64_t read_ns = 0;
    uint64_t writes = 0;  ///< Write and Append calls
    uint64_t write_bytes = 0;
    uint64_t syncs = 0;  ///< File::Sync and Env::SyncDir calls
  };

  /// `base` must outlive this env and every file opened through it.
  explicit CountingEnv(msv::io::Env* base) : base_(base) {}

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  Counts counts() const;

  /// While set (and enabled), each read call is recorded as an "io.read"
  /// span under the calling thread's open span.
  void set_span_log(SpanLog* log) { log_.store(log); }
  /// While set (and enabled), the bytes of every read request are
  /// appended to `sink`, one string per request. Only for a single
  /// reading thread: the sink is not locked.
  void set_capture(std::vector<std::string>* sink) { capture_.store(sink); }

  msv::Result<std::unique_ptr<msv::io::File>> OpenFile(const std::string& name,
                                                       bool create) override;
  msv::Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  msv::Status RenameFile(const std::string& from,
                         const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  msv::Result<bool> FileExists(const std::string& name) override {
    return base_->FileExists(name);
  }
  msv::Result<std::vector<std::string>> ListFiles() override {
    return base_->ListFiles();
  }
  msv::Status SyncDir() override;

 private:
  friend class CountingFile;

  void AddRead(uint64_t requests, uint64_t bytes, uint64_t ns);
  void AddWrite(uint64_t bytes);
  void AddSync() { syncs_.fetch_add(1, std::memory_order_relaxed); }
  SpanLog* span_log() const { return log_.load(); }
  void Capture(const char* data, size_t n) {
    if (std::vector<std::string>* sink = capture_.load()) {
      sink->emplace_back(data, n);
    }
  }

  msv::io::Env* const base_;
  std::atomic<bool> enabled_{false};
  std::atomic<SpanLog*> log_{nullptr};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> read_ns_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<std::vector<std::string>*> capture_{nullptr};
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_ENV_H_
