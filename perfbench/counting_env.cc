#include "counting_env.h"

#include <chrono>

namespace perfbench {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

class CountingFile : public msv::io::File {
 public:
  CountingFile(std::unique_ptr<msv::io::File> base, CountingEnv* env)
      : base_(std::move(base)), env_(env) {}

  // Capturing copies bytes inside the io.read span; the probes never set
  // a span log and a capture sink at the same time.
  msv::Result<size_t> Read(uint64_t offset, size_t n, char* scratch) override {
    if (!env_->enabled()) return base_->Read(offset, n, scratch);
    ScopedSpan span(env_->span_log(), "io.read");
    const auto start = std::chrono::steady_clock::now();
    msv::Result<size_t> got = base_->Read(offset, n, scratch);
    env_->AddRead(1, got.ok() ? *got : 0, ElapsedNs(start));
    if (got.ok()) env_->Capture(scratch, *got);
    return got;
  }

  msv::Status ReadBatch(msv::io::ReadRequest* reqs, size_t count) override {
    if (!env_->enabled()) return base_->ReadBatch(reqs, count);
    ScopedSpan span(env_->span_log(), "io.read");
    const auto start = std::chrono::steady_clock::now();
    msv::Status st = base_->ReadBatch(reqs, count);
    uint64_t bytes = 0;
    for (size_t i = 0; i < count; ++i) bytes += reqs[i].got;
    env_->AddRead(count, bytes, ElapsedNs(start));
    if (st.ok()) {
      for (size_t i = 0; i < count; ++i) {
        env_->Capture(reqs[i].scratch, reqs[i].got);
      }
    }
    return st;
  }

  msv::Status Write(uint64_t offset, const char* data, size_t n) override {
    if (env_->enabled()) env_->AddWrite(n);
    return base_->Write(offset, data, n);
  }
  msv::Status Append(const char* data, size_t n) override {
    if (env_->enabled()) env_->AddWrite(n);
    return base_->Append(data, n);
  }
  msv::Result<uint64_t> Size() const override { return base_->Size(); }
  msv::Status Truncate(uint64_t size) override {
    return base_->Truncate(size);
  }
  msv::Status Sync() override {
    if (env_->enabled()) env_->AddSync();
    return base_->Sync();
  }

 private:
  std::unique_ptr<msv::io::File> base_;
  CountingEnv* env_;
};

CountingEnv::Counts CountingEnv::counts() const {
  Counts c;
  c.reads = reads_.load(std::memory_order_relaxed);
  c.read_bytes = read_bytes_.load(std::memory_order_relaxed);
  c.read_ns = read_ns_.load(std::memory_order_relaxed);
  c.writes = writes_.load(std::memory_order_relaxed);
  c.write_bytes = write_bytes_.load(std::memory_order_relaxed);
  c.syncs = syncs_.load(std::memory_order_relaxed);
  return c;
}

msv::Result<std::unique_ptr<msv::io::File>> CountingEnv::OpenFile(
    const std::string& name, bool create) {
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<msv::io::File> file,
                       base_->OpenFile(name, create));
  return std::unique_ptr<msv::io::File>(
      new CountingFile(std::move(file), this));
}

msv::Status CountingEnv::SyncDir() {
  if (enabled()) AddSync();
  return base_->SyncDir();
}

void CountingEnv::AddRead(uint64_t requests, uint64_t bytes, uint64_t ns) {
  reads_.fetch_add(requests, std::memory_order_relaxed);
  read_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  read_ns_.fetch_add(ns, std::memory_order_relaxed);
}

void CountingEnv::AddWrite(uint64_t bytes) {
  writes_.fetch_add(1, std::memory_order_relaxed);
  write_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

}  // namespace perfbench
