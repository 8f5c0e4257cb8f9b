#include "core/ingest.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "util/crc32c.h"

namespace msv::core {

// ---------------------------------------------------------------------------
// Memtable
// ---------------------------------------------------------------------------

namespace {

/// First index in [0, n) at which `pred` is false, for a `pred` that is
/// true on a prefix of the indices and false on the rest.
template <typename Pred>
uint64_t PartitionPoint(uint64_t n, Pred pred) {
  uint64_t lo = 0;
  uint64_t hi = n;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void Memtable::Append(const char* records, size_t count) {
  data_.append(records, count * record_size_);
  count_ += count;
}

void Memtable::CollectMatches(const storage::RecordLayout& layout,
                              const sampling::RangeQuery& query,
                              sampling::SampleBatch* out) const {
  out->record_size = record_size_;
  uint64_t first = 0;
  uint64_t last = count_;
  if (key_sorted_) {
    // The records passing the closed [lo, hi] test on the first key are
    // one slice. `!(key >= lo)` rather than `key < lo` keeps a NaN bound
    // matching nothing, as RangeQuery::Matches does.
    const sampling::Interval& bound = query.bounds[0];
    first = PartitionPoint(count_, [&](uint64_t i) {
      return !(layout.Key(record(i), 0) >= bound.lo);
    });
    last = std::max(first, PartitionPoint(count_, [&](uint64_t i) {
                      return layout.Key(record(i), 0) <= bound.hi;
                    }));
    if (query.dims == 1) {
      out->AppendN(record(first), last - first);
      return;
    }
  }
  const size_t n = static_cast<size_t>(last - first);
  auto idx = std::make_unique_for_overwrite<uint32_t[]>(n);
  const size_t matches = query.MatchBatch(layout, record(first), n, idx.get());
  out->Reserve(matches);
  for (size_t i = 0; i < matches; ++i) out->Append(record(first + idx[i]));
}

std::shared_ptr<const Memtable> Memtable::Sealed(
    const storage::RecordLayout& layout) const {
  std::vector<const char*> recs;
  recs.reserve(count_);
  for (uint64_t i = 0; i < count_; ++i) recs.push_back(record(i));
  std::stable_sort(recs.begin(), recs.end(),
                   [&layout](const char* a, const char* b) {
                     return layout.Key(a, 0) < layout.Key(b, 0);
                   });
  auto run = std::make_shared<Memtable>(id_, record_size_);
  run->data_.reserve(data_.size());
  for (const char* rec : recs) run->data_.append(rec, record_size_);
  run->count_ = count_;
  run->key_sorted_ = std::none_of(recs.begin(), recs.end(), [&](const char* r) {
    return std::isnan(layout.Key(r, 0));
  });
  return run;
}

// ---------------------------------------------------------------------------
// WalWriter / ReadWal
// ---------------------------------------------------------------------------

Result<std::unique_ptr<WalWriter>> WalWriter::Open(io::Env* env,
                                                   const std::string& name,
                                                   size_t record_size) {
  MSV_ASSIGN_OR_RETURN(bool existed, env->FileExists(name));
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<io::File> file,
                       env->OpenFile(name, /*create=*/true));
  MSV_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (!existed) {
    // The empty WAL's directory entry must survive a crash, or records
    // acknowledged after syncing its data would vanish with the file.
    MSV_RETURN_IF_ERROR(env->SyncDir());
  }
  const uint64_t whole = (size / record_size) * record_size;
  if (whole != size) {
    // Torn tail from a crash mid-append. Replay already ignores it, but
    // appending after the garbage would misalign every later record on
    // the *next* replay — truncate to the last whole-record boundary and
    // make the repair durable before anything lands after it.
    MSV_RETURN_IF_ERROR(file->Truncate(whole));
    MSV_RETURN_IF_ERROR(file->Sync());
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(std::move(file), whole));
}

Status WalWriter::Append(const char* records, size_t record_size,
                         size_t count) {
  const size_t n = record_size * count;
  MSV_RETURN_IF_ERROR(file_->Write(offset_, records, n));
  MSV_RETURN_IF_ERROR(file_->Sync());
  offset_ += n;
  return Status::OK();
}

Result<std::string> ReadWal(io::Env* env, const std::string& name,
                            size_t record_size) {
  MSV_ASSIGN_OR_RETURN(bool exists, env->FileExists(name));
  if (!exists) return std::string();
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<io::File> file,
                       env->OpenFile(name, /*create=*/false));
  MSV_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  const uint64_t whole = (size / record_size) * record_size;
  std::string data(whole, '\0');
  if (whole > 0) {
    MSV_RETURN_IF_ERROR(file->ReadExact(0, whole, data.data()));
  }
  return data;
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

namespace {

constexpr char kManifestMagic[] = "msview2";

std::string ManifestPayload(const ViewManifest& m) {
  std::ostringstream out;
  out << "base " << m.base_file << "\n";
  out << "next " << m.next_id << "\n";
  out << "folded " << m.folded << "\n";
  return out.str();
}

}  // namespace

Status SaveManifest(io::Env* env, const std::string& file,
                    const ViewManifest& manifest) {
  const std::string payload = ManifestPayload(manifest);
  const uint32_t crc =
      MaskCrc(Crc32c(payload.data(), payload.size()));
  std::ostringstream out;
  out << kManifestMagic << " " << crc << "\n" << payload;
  // Atomic replace: a crash mid-save leaves the previous manifest — and
  // with it the previous file set — intact.
  return io::WriteFileAtomic(env, file, out.str());
}

Result<ViewManifest> LoadManifest(io::Env* env, const std::string& file) {
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<io::File> f,
                       env->OpenFile(file, /*create=*/false));
  MSV_ASSIGN_OR_RETURN(uint64_t size, f->Size());
  std::string contents(size, '\0');
  MSV_RETURN_IF_ERROR(f->ReadExact(0, size, contents.data()));

  const size_t eol = contents.find('\n');
  if (eol == std::string::npos) {
    return Status::Corruption("view manifest: missing header line");
  }
  std::istringstream header(contents.substr(0, eol));
  std::string magic;
  uint32_t stored_crc = 0;
  header >> magic >> stored_crc;
  if (magic != kManifestMagic) {
    return Status::Corruption("view manifest: bad magic '" + magic + "'");
  }
  const std::string payload = contents.substr(eol + 1);
  const uint32_t actual =
      MaskCrc(Crc32c(payload.data(), payload.size()));
  if (actual != stored_crc) {
    return Status::Corruption("view manifest: checksum mismatch");
  }

  ViewManifest m;
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;  // NOLINT(msv-hot-path-alloc) manifest parse, recovery-time cold path
    fields >> kind;
    if (kind == "base") {
      fields >> m.base_file;
    } else if (kind == "next") {
      fields >> m.next_id;
    } else if (kind == "folded") {
      fields >> m.folded;
    } else {
      return Status::Corruption("view manifest: bad line '" + line + "'");
    }
  }
  if (m.base_file.empty()) {
    return Status::Corruption("view manifest: no base file");
  }
  return m;
}

}  // namespace msv::core
