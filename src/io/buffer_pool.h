// Read-only LRU buffer pool with page pinning.
//
// Index samplers (notably ranked B+-Tree sampling, Sec. 2.2 of the paper)
// depend heavily on the DBMS buffer manager: once a leaf page is cached,
// further samples from it are free. The pool caches fixed-size pages of a
// File keyed by (file id, page number) and evicts the least-recently-used
// unpinned page when full. It serves the index baselines only; ACE leaves
// are read straight from their File, one Read per leaf, and never pass
// through a pool.
//
// Concurrency: the pool is safely shareable across threads. One mutex
// guards the frame table, the page map, the LRU tick and the counters
// (monotone totals; windows are caller-side deltas).
// A page's bytes are written only while its frame is invalid (no pins)
// under that lock; the returned PageRef pins the frame, which blocks
// eviction, so readers can use the bytes lock-free for the PageRef's
// lifetime.

#ifndef MSV_IO_BUFFER_POOL_H_
#define MSV_IO_BUFFER_POOL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/env.h"
#include "obs/metrics.h"
#include "util/result.h"
#include "util/sync.h"

namespace msv::io {

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
  }

  BufferPoolStats operator-(const BufferPoolStats& b) const {
    return BufferPoolStats{hits - b.hits, misses - b.misses,
                           evictions - b.evictions};
  }
};

class BufferPool;

/// A pinned view of one cached page. The page stays resident while any
/// PageRef to it is alive. Movable, not copyable.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef();

  /// Page bytes; size() bytes long (short final pages keep logical size).
  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool valid() const { return pool_ != nullptr; }

 private:
  friend class BufferPool;
  PageRef(BufferPool* pool, size_t frame, const char* data, size_t size)
      : pool_(pool), frame_(frame), data_(data), size_(size) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  const char* data_ = nullptr;
  size_t size_ = 0;
};

/// Fixed-capacity page cache, shareable across threads (exact LRU with
/// per-frame pinning; see the file comment for the locking model).
class BufferPool {
 public:
  /// `capacity_pages` frames of `page_size` bytes each.
  BufferPool(size_t page_size, size_t capacity_pages);

  /// Returns a pinned reference to page `page_no` of `file`, reading it on
  /// a miss. `file_id` must uniquely identify the file across calls.
  /// Safe from any thread; `file` must support concurrent Read()s.
  Result<PageRef> Get(File* file, uint64_t file_id, uint64_t page_no);

  /// Drops every unpinned page (e.g. between benchmark queries).
  void Clear();

  size_t page_size() const { return page_size_; }
  size_t capacity() const { return capacity_; }
  /// Counters since pool construction; never reset. A caller that wants
  /// one window subtracts two snapshots (`after - before`).
  BufferPoolStats stats() const;

  /// Number of frames currently holding a page.
  size_t resident_pages() const;

  /// Accounting invariant check for tests: pin counts are non-negative,
  /// resident frames match the map, and (when no PageRef is outstanding)
  /// no frame is pinned. Returns a violation message or an empty string.
  std::string CheckAccounting() const;

 private:
  friend class PageRef;

  /// A frame's `data` bytes are readable without the lock while the
  /// frame is pinned (pins block eviction and rewrites), which is why
  /// PageRef carries a raw data pointer rather than a Frame ref.
  struct Frame {
    std::vector<char> data;
    uint64_t file_id = 0;
    uint64_t page_no = 0;
    size_t length = 0;  // logical bytes (short at EOF)
    int pins = 0;
    uint64_t tick = 0;
    bool valid = false;
  };

  struct Key {
    uint64_t file_id;
    uint64_t page_no;
    bool operator==(const Key& o) const {
      return file_id == o.file_id && page_no == o.page_no;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(k.file_id * 0x9e3779b97f4a7c15ULL ^
                                   k.page_no);
    }
  };

  void Unpin(size_t frame);
  /// Index of the frame to fill: an empty one, else the unpinned frame
  /// with the oldest access tick.
  Result<size_t> FindVictim() MSV_REQUIRES(mu_);
  /// Invalidates the resident frame `f` and drops it from the map.
  void Evict(Frame& f) MSV_REQUIRES(mu_);

  const size_t page_size_;
  const size_t capacity_;
  mutable Mutex mu_;
  std::vector<Frame> frames_ MSV_GUARDED_BY(mu_);
  std::unordered_map<Key, size_t, KeyHash> map_ MSV_GUARDED_BY(mu_);
  BufferPoolStats totals_ MSV_GUARDED_BY(mu_);
  uint64_t tick_ MSV_GUARDED_BY(mu_) = 0;

  // Registry series shared by every pool (process-wide totals; the
  // gauges are last-writer-wins across pools).
  obs::Counter* c_hits_;
  obs::Counter* c_misses_;
  obs::Counter* c_evictions_;
  obs::Gauge* g_resident_;
  obs::Gauge* g_capacity_;
};

}  // namespace msv::io

#endif  // MSV_IO_BUFFER_POOL_H_
