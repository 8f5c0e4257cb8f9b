#include "permuted/permuted_file.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/coding.h"
#include "util/logging.h"
#include "util/random.h"

namespace msv::permuted {

namespace {
using storage::HeapFile;
using storage::HeapFileWriter;
}  // namespace

Status BuildPermutedFile(io::Env* env, const std::string& input_name,
                         const std::string& output_name,
                         const PermuteOptions& options) {
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> input,
                       HeapFile::Open(env, input_name));
  const size_t record_size = input->record_size();
  const size_t keyed_size = record_size + sizeof(uint64_t);

  // Pass A: prepend a random sort key to every record.
  const std::string keyed_name = output_name + ".keyed";
  {
    MSV_ASSIGN_OR_RETURN(std::unique_ptr<HeapFileWriter> writer,
                         HeapFileWriter::Create(env, keyed_name, keyed_size));
    Pcg64 rng(options.seed);
    std::vector<char> buf(keyed_size);
    auto scanner = input->NewScanner();
    for (;;) {
      MSV_ASSIGN_OR_RETURN(const char* rec, scanner.Next());
      if (rec == nullptr) break;
      EncodeFixed64(buf.data(), rng.Next());
      std::memcpy(buf.data() + sizeof(uint64_t), rec, record_size);
      MSV_RETURN_IF_ERROR(writer->Append(buf.data()));
    }
    MSV_RETURN_IF_ERROR(writer->Finish());
  }
  input.reset();

  // External sort on the random key (TPMMS), in place over the scratch
  // keyed file.
  extsort::SortOptions sort_options = options.sort;
  sort_options.temp_prefix = output_name + ".sortrun";
  MSV_RETURN_IF_ERROR(extsort::ExternalSort(
      env, keyed_name, keyed_name,
      [](const char* a, const char* b) {
        return DecodeFixed64(a) < DecodeFixed64(b);
      },
      sort_options));

  // Pass B: strip the key while writing the final file (the paper notes
  // the key is removed during the final TPMMS pass; we keep the sorter
  // generic and strip in a separate sequential pass).
  {
    MSV_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> sorted,
                         HeapFile::Open(env, keyed_name));
    MSV_ASSIGN_OR_RETURN(
        std::unique_ptr<HeapFileWriter> writer,
        HeapFileWriter::Create(env, output_name, record_size));
    auto scanner = sorted->NewScanner();
    for (;;) {
      MSV_ASSIGN_OR_RETURN(const char* rec, scanner.Next());
      if (rec == nullptr) break;
      MSV_RETURN_IF_ERROR(writer->Append(rec + sizeof(uint64_t)));
    }
    MSV_RETURN_IF_ERROR(writer->Finish());
  }
  env->DeleteFile(keyed_name).IgnoreError();  // best-effort scratch cleanup
  return Status::OK();
}

PermutedFileSampler::PermutedFileSampler(const storage::HeapFile* file,
                                         storage::RecordLayout layout,
                                         sampling::RangeQuery query)
    : file_(file),
      layout_(std::move(layout)),
      query_(query),
      scanner_(file->NewScanner(kChunkBytes)),
      records_per_pull_(
          std::max<size_t>(1, kChunkBytes / file->record_size())) {
  MSV_CHECK(query_.Validate(layout_).ok());
  done_ = file_->record_count() == 0;
}

Result<sampling::SampleBatch> PermutedFileSampler::NextBatch() {
  sampling::SampleBatch batch;
  batch.record_size = file_->record_size();
  if (done_) return batch;
  for (size_t i = 0; i < records_per_pull_; ++i) {
    MSV_ASSIGN_OR_RETURN(const char* rec, scanner_.Next());
    if (rec == nullptr) {
      done_ = true;
      break;
    }
    ++scanned_;
    if (query_.Matches(layout_, rec)) {
      batch.Append(rec);
      ++returned_;
    }
  }
  return batch;
}

}  // namespace msv::permuted
