#include "storage/heap_file.h"

#include <algorithm>
#include <cstring>

#include "util/coding.h"
#include "util/logging.h"

namespace msv::storage {

namespace {
constexpr uint32_t kFormatVersion = 1;

void WriteHeader(char* dst, size_t record_size, uint64_t count) {
  std::memset(dst, 0, kHeapFileHeaderSize);
  EncodeFixed64(dst, kHeapFileMagic);
  EncodeFixed32(dst + 8, kFormatVersion);
  EncodeFixed32(dst + 12, static_cast<uint32_t>(record_size));
  EncodeFixed64(dst + 16, count);
}
}  // namespace

// ---------------------------------------------------------------------------
// HeapFileWriter
// ---------------------------------------------------------------------------

Result<std::unique_ptr<HeapFileWriter>> HeapFileWriter::Create(
    io::Env* env, const std::string& name, size_t record_size,
    size_t buffer_bytes) {
  if (record_size == 0) {
    return Status::InvalidArgument("record_size must be positive");
  }
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<io::File> file,
                       env->OpenFile(name, /*create=*/true));
  MSV_RETURN_IF_ERROR(file->Truncate(0));
  // Reserve the header now; the final header (with the true count) is
  // rewritten in Finish().
  char header[kHeapFileHeaderSize];
  WriteHeader(header, record_size, 0);
  MSV_RETURN_IF_ERROR(file->Write(0, header, sizeof(header)));
  return std::unique_ptr<HeapFileWriter>(
      new HeapFileWriter(std::move(file), record_size, buffer_bytes));
}

HeapFileWriter::HeapFileWriter(std::unique_ptr<io::File> file,
                               size_t record_size, size_t buffer_bytes)
    : file_(std::move(file)),
      record_size_(record_size),
      write_offset_(kHeapFileHeaderSize) {
  size_t cap = std::max(buffer_bytes, record_size);
  cap -= cap % record_size;  // whole records only
  buffer_.resize(cap);
}

Status HeapFileWriter::Append(const char* record) {
  MSV_DCHECK(!finished_);
  if (buffered_ + record_size_ > buffer_.size()) {
    MSV_RETURN_IF_ERROR(FlushBuffer());
  }
  std::memcpy(buffer_.data() + buffered_, record, record_size_);
  buffered_ += record_size_;
  ++count_;
  return Status::OK();
}

Status HeapFileWriter::FlushBuffer() {
  if (buffered_ == 0) return Status::OK();
  MSV_RETURN_IF_ERROR(file_->Write(write_offset_, buffer_.data(), buffered_));
  write_offset_ += buffered_;
  buffered_ = 0;
  return Status::OK();
}

Status HeapFileWriter::Finish() {
  MSV_DCHECK(!finished_);
  MSV_RETURN_IF_ERROR(FlushBuffer());
  char header[kHeapFileHeaderSize];
  WriteHeader(header, record_size_, count_);
  MSV_RETURN_IF_ERROR(file_->Write(0, header, sizeof(header)));
  MSV_RETURN_IF_ERROR(file_->Sync());
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// HeapFile
// ---------------------------------------------------------------------------

Result<std::unique_ptr<HeapFile>> HeapFile::Open(io::Env* env,
                                                 const std::string& name) {
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<io::File> file,
                       env->OpenFile(name, /*create=*/false));
  char header[kHeapFileHeaderSize];
  MSV_RETURN_IF_ERROR(file->ReadExact(0, sizeof(header), header));
  if (DecodeFixed64(header) != kHeapFileMagic) {
    return Status::Corruption("bad heap file magic in " + name);
  }
  uint32_t version = DecodeFixed32(header + 8);
  if (version != kFormatVersion) {
    return Status::Corruption("unsupported heap file version " +
                              std::to_string(version));
  }
  size_t record_size = DecodeFixed32(header + 12);
  uint64_t count = DecodeFixed64(header + 16);
  if (record_size == 0) {
    return Status::Corruption("zero record size in " + name);
  }
  MSV_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (size < kHeapFileHeaderSize + count * record_size) {
    return Status::Corruption("heap file " + name + " shorter than header claims");
  }
  return std::unique_ptr<HeapFile>(
      new HeapFile(std::move(file), record_size, count));
}

HeapFile::HeapFile(std::unique_ptr<io::File> file, size_t record_size,
                   uint64_t count)
    : file_(std::move(file)), record_size_(record_size), count_(count) {}

uint64_t HeapFile::file_bytes() const {
  return kHeapFileHeaderSize + count_ * record_size_;
}

Status HeapFile::ReadRecord(uint64_t index, char* out) const {
  if (index >= count_) {
    return Status::OutOfRange("record index " + std::to_string(index) +
                              " >= count " + std::to_string(count_));
  }
  return file_->ReadExact(kHeapFileHeaderSize + index * record_size_,
                          record_size_, out);
}

size_t TwoBlockChunk(size_t block_bytes, size_t record_size) {
  return 2 * std::max<size_t>(1, block_bytes / record_size) * record_size;
}

HeapFile::Scanner HeapFile::NewScanner(size_t chunk_bytes) const {
  size_t chunk_records = std::max<size_t>(1, chunk_bytes / record_size_);
  return Scanner(this, chunk_records);
}

HeapFile::Scanner::Scanner(const HeapFile* file, size_t chunk_records)
    : file_(file), chunk_capacity_(chunk_records) {
  chunk_.resize(chunk_capacity_ * file_->record_size_);
}

Result<const char*> HeapFile::Scanner::Next() {
  if (pos_ >= file_->count_) return static_cast<const char*>(nullptr);
  if (pos_ < chunk_start_ || pos_ >= chunk_start_ + chunk_count_ ||
      chunk_count_ == 0) {
    // Refill starting at pos_ with one read of up to a chunk.
    const size_t rec = file_->record_size_;
    size_t want = static_cast<size_t>(
        std::min<uint64_t>(chunk_capacity_, file_->count_ - pos_));
    MSV_RETURN_IF_ERROR(file_->file_->ReadExact(
        kHeapFileHeaderSize + pos_ * rec, want * rec, chunk_.data()));
    chunk_start_ = static_cast<size_t>(pos_);
    chunk_count_ = want;
  }
  const char* rec =
      chunk_.data() + (pos_ - chunk_start_) * file_->record_size_;
  ++pos_;
  return rec;
}

}  // namespace msv::storage
