#include "io/buffer_pool.h"

#include <limits>

#include "util/logging.h"

namespace msv::io {

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr) pool_->Unpin(frame_);
    pool_ = other.pool_;
    frame_ = other.frame_;
    data_ = other.data_;
    size_ = other.size_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

PageRef::~PageRef() {
  if (pool_ != nullptr) pool_->Unpin(frame_);
}

BufferPool::BufferPool(size_t page_size, size_t capacity_pages)
    : page_size_(page_size), capacity_(capacity_pages) {
  MSV_CHECK(page_size_ > 0);
  MSV_CHECK(capacity_ > 0);
  {
    MutexLock lock(mu_);
    frames_.resize(capacity_);
    map_.reserve(capacity_ * 2);
  }
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  c_hits_ = reg.GetCounter("io.pool.hits");
  c_misses_ = reg.GetCounter("io.pool.misses");
  c_evictions_ = reg.GetCounter("io.pool.evictions");
  g_resident_ = reg.GetGauge("io.pool.resident_pages");
  g_capacity_ = reg.GetGauge("io.pool.capacity_pages");
  g_capacity_->Set(static_cast<double>(capacity_));
  g_resident_->Set(0.0);
}

BufferPoolStats BufferPool::stats() const {
  MutexLock lock(mu_);
  return totals_;
}

size_t BufferPool::resident_pages() const {
  MutexLock lock(mu_);
  return map_.size();
}

std::string BufferPool::CheckAccounting() const {
  MutexLock lock(mu_);
  size_t valid = 0;
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (f.pins < 0) {
      return "frame " + std::to_string(i) + ": negative pin count";
    }
    if (!f.valid && f.pins != 0) {
      return "frame " + std::to_string(i) + ": invalid frame is pinned";
    }
    if (f.valid) {
      ++valid;
      auto it = map_.find(Key{f.file_id, f.page_no});
      if (it == map_.end() || it->second != i) {
        return "frame " + std::to_string(i) +
               ": valid frame missing from the map";
      }
    }
  }
  if (valid != map_.size()) {
    return "map has " + std::to_string(map_.size()) + " entries but " +
           std::to_string(valid) + " valid frames";
  }
  if (totals_.evictions > totals_.misses) return "more evictions than misses";
  return "";
}

void BufferPool::Unpin(size_t frame) {
  MutexLock lock(mu_);
  MSV_DCHECK(frame < frames_.size());
  MSV_DCHECK(frames_[frame].pins > 0);
  --frames_[frame].pins;
}

Result<size_t> BufferPool::FindVictim() {
  // Linear scan is fine at the pool sizes the baselines use.
  size_t victim = frames_.size();
  uint64_t oldest = std::numeric_limits<uint64_t>::max();
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (!f.valid) return i;
    if (f.pins == 0 && f.tick < oldest) {
      oldest = f.tick;
      victim = i;
    }
  }
  if (victim == frames_.size()) {
    return Status::ResourceExhausted("buffer pool: all pages pinned");
  }
  return victim;
}

void BufferPool::Evict(Frame& f) {
  map_.erase(Key{f.file_id, f.page_no});
  f.valid = false;
  g_resident_->Set(static_cast<double>(map_.size()));
}

Result<PageRef> BufferPool::Get(File* file, uint64_t file_id,
                                uint64_t page_no) {
  Key key{file_id, page_no};
  MutexLock lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    Frame& f = frames_[it->second];
    ++totals_.hits;
    c_hits_->Add();
    f.tick = ++tick_;
    ++f.pins;
    return PageRef(this, it->second, f.data.data(), f.length);
  }

  ++totals_.misses;
  c_misses_->Add();
  MSV_ASSIGN_OR_RETURN(size_t frame_idx, FindVictim());
  Frame& f = frames_[frame_idx];
  if (f.valid) {
    ++totals_.evictions;
    c_evictions_->Add();
    Evict(f);
  }
  if (f.data.size() != page_size_) f.data.resize(page_size_);

  // The read happens under the lock, so two threads missing on the same
  // page never fill two frames. The frame is invalid and unpinned here,
  // so no concurrent reader can observe the bytes mid-write.
  MSV_ASSIGN_OR_RETURN(
      size_t got,
      file->Read(page_no * page_size_, page_size_, f.data.data()));
  if (got == 0) {
    return Status::OutOfRange("page " + std::to_string(page_no) +
                              " is beyond end of file");
  }

  f.file_id = file_id;
  f.page_no = page_no;
  f.length = got;
  f.pins = 1;
  f.tick = ++tick_;
  f.valid = true;
  map_.emplace(key, frame_idx);
  g_resident_->Set(static_cast<double>(map_.size()));
  return PageRef(this, frame_idx, f.data.data(), f.length);
}

void BufferPool::Clear() {
  MutexLock lock(mu_);
  for (Frame& f : frames_) {
    if (f.valid && f.pins == 0) Evict(f);
  }
}

}  // namespace msv::io
