#include "io/disk_model.h"

#include <cmath>
#include <map>

#include "util/logging.h"

namespace msv::io {

Status DiskModelOptions::Validate() const {
  if (seek_ms < 0 || rotational_ms < 0 || request_overhead_ms < 0) {
    return Status::InvalidArgument("disk latencies must be non-negative");
  }
  if (transfer_mb_per_s <= 0) {
    return Status::InvalidArgument("transfer rate must be positive");
  }
  return Status::OK();
}

DiskDevice::DiskDevice(DiskModelOptions options) : options_(options) {
  MSV_CHECK_MSG(options_.Validate().ok(), "invalid DiskModelOptions");
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  c_reads_ = reg.GetCounter("io.disk.reads");
  c_writes_ = reg.GetCounter("io.disk.writes");
  c_read_bytes_ = reg.GetCounter("io.disk.read_bytes");
  c_written_bytes_ = reg.GetCounter("io.disk.written_bytes");
  c_seeks_ = reg.GetCounter("io.disk.seeks");
  c_sequential_ = reg.GetCounter("io.disk.sequential_ios");
  c_busy_us_ = reg.GetCounter("io.disk.busy_us");
  h_access_us_ = reg.GetHistogram("io.disk.access_us");
  g_clock_ms_ = reg.GetGauge("io.disk.clock_ms");
}

namespace {
// Per-thread attribution of modeled busy time (see ThreadDiskBusyUs()).
thread_local uint64_t tls_disk_busy_us = 0;
}  // namespace

uint64_t ThreadDiskBusyUs() { return tls_disk_busy_us; }

void DiskDevice::Access(uint64_t pos, uint64_t len, bool is_write) {
  // Serialized-arm model: one request owns the arm at a time. Seek vs
  // sequential is judged against the head position the previous request
  // (from any thread) left behind, so interleaved readers pay the seeks
  // a real shared disk would.
  MutexLock lock(mu_);
  double ms = options_.request_overhead_ms;
  bool sequential = head_valid_ && pos == head_pos_;
  if (!sequential) {
    ms += options_.seek_ms + options_.rotational_ms;
    ++totals_.seeks;
    c_seeks_->Add();
  } else {
    ++totals_.sequential_ios;
    c_sequential_->Add();
  }
  ms += static_cast<double>(len) / (options_.transfer_mb_per_s * 1e6) * 1e3;
  clock_.AdvanceMs(ms);
  g_clock_ms_->Set(clock_.NowMs());
  // One rounding, shared by the struct total, the registry counter, the
  // latency histogram and the per-thread attribution, so all four views
  // agree to the microsecond.
  uint64_t us = static_cast<uint64_t>(std::llround(ms * 1000.0));
  totals_.busy_us += us;
  tls_disk_busy_us += us;
  c_busy_us_->Add(us);
  h_access_us_->Record(us);
  head_pos_ = pos + len;
  head_valid_ = true;
  if (is_write) {
    ++totals_.writes;
    totals_.written_bytes += len;
    c_writes_->Add();
    c_written_bytes_->Add(len);
  } else {
    ++totals_.reads;
    totals_.read_bytes += len;
    c_reads_->Add();
    c_read_bytes_->Add(len);
  }
}

DiskStats DiskDevice::stats() const {
  MutexLock lock(mu_);
  return totals_;
}

double DiskDevice::SequentialScanMs(uint64_t bytes) const {
  return options_.seek_ms + options_.rotational_ms +
         options_.request_overhead_ms +
         static_cast<double>(bytes) / (options_.transfer_mb_per_s * 1e6) * 1e3;
}

namespace {

// Region of the simulated platter assigned to one file. Files get disjoint
// 1 TiB-aligned slots in open order, so intra-file offsets map directly to
// device positions and inter-file switches always cost a seek.
constexpr uint64_t kFileRegionBytes = 1ULL << 40;

class SimFile : public File {
 public:
  SimFile(std::unique_ptr<File> inner, std::shared_ptr<DiskDevice> device,
          uint64_t region_base)
      : inner_(std::move(inner)),
        device_(std::move(device)),
        region_base_(region_base) {}

  Result<size_t> Read(uint64_t offset, size_t n, char* scratch) override {
    MSV_ASSIGN_OR_RETURN(size_t got, inner_->Read(offset, n, scratch));
    if (got > 0) device_->Access(region_base_ + offset, got, /*is_write=*/false);
    return got;
  }

  Status Write(uint64_t offset, const char* data, size_t n) override {
    MSV_RETURN_IF_ERROR(inner_->Write(offset, data, n));
    device_->Access(region_base_ + offset, n, /*is_write=*/true);
    return Status::OK();
  }

  Status Append(const char* data, size_t n) override {
    MSV_ASSIGN_OR_RETURN(uint64_t size, inner_->Size());
    MSV_RETURN_IF_ERROR(inner_->Append(data, n));
    device_->Access(region_base_ + size, n, /*is_write=*/true);
    return Status::OK();
  }

  Result<uint64_t> Size() const override { return inner_->Size(); }
  Status Truncate(uint64_t size) override { return inner_->Truncate(size); }
  Status Sync() override { return inner_->Sync(); }

 private:
  std::unique_ptr<File> inner_;
  std::shared_ptr<DiskDevice> device_;
  uint64_t region_base_;
};

class SimEnv : public Env {
 public:
  SimEnv(Env* inner, std::shared_ptr<DiskDevice> device)
      : inner_(inner), device_(std::move(device)) {}

  Result<std::unique_ptr<File>> OpenFile(const std::string& name,
                                         bool create) override {
    MSV_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                         inner_->OpenFile(name, create));
    uint64_t base;
    {
      MutexLock lock(mu_);
      auto it = regions_.find(name);
      if (it == regions_.end()) {
        base = next_region_;
        next_region_ += kFileRegionBytes;
        regions_.emplace(name, base);
      } else {
        base = it->second;
      }
    }
    return std::unique_ptr<File>(
        new SimFile(std::move(file), device_, base));
  }

  Status DeleteFile(const std::string& name) override {
    return inner_->DeleteFile(name);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return inner_->RenameFile(from, to);
  }
  Result<bool> FileExists(const std::string& name) override {
    return inner_->FileExists(name);
  }
  Result<std::vector<std::string>> ListFiles() override {
    return inner_->ListFiles();
  }
  Status SyncDir() override { return inner_->SyncDir(); }

 private:
  Env* inner_;
  std::shared_ptr<DiskDevice> device_;
  Mutex mu_;
  std::map<std::string, uint64_t> regions_ MSV_GUARDED_BY(mu_);
  uint64_t next_region_ MSV_GUARDED_BY(mu_) = 0;
};

}  // namespace

std::unique_ptr<Env> NewSimEnv(Env* inner,
                               std::shared_ptr<DiskDevice> device) {
  return std::make_unique<SimEnv>(inner, std::move(device));
}

}  // namespace msv::io
