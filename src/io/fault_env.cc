#include "io/fault_env.h"

#include <map>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/sync.h"

namespace msv::io {
namespace internal {

// Which counter slot an operation occupies, for mode targeting: kShortRead
// only shortens reads, kShortWrite only tears writes; a mismatched op kind
// at the armed index degrades to a plain injected error.
enum class OpKind { kRead, kWrite, kOther };

// What the gate decided for one operation.
enum class FaultAction { kNone, kFail, kShortRead, kShortWrite };

struct FaultState {
  explicit FaultState(Env* in)
      : inner(in),
        c_ops(obs::MetricRegistry::Global().GetCounter("io.fault.ops")),
        c_errors(obs::MetricRegistry::Global().GetCounter(
            "io.fault.injected_errors")),
        c_short_reads(
            obs::MetricRegistry::Global().GetCounter("io.fault.short_reads")),
        c_short_writes(
            obs::MetricRegistry::Global().GetCounter("io.fault.short_writes")),
        c_crashes(
            obs::MetricRegistry::Global().GetCounter("io.fault.crashes")) {}

  /// Consumes one op-counter slot and decides this operation's fate.
  /// Sets `*at` to the operation's index (for error messages).
  FaultAction Gate(OpKind kind, int64_t* at) {
    MutexLock lock(mu);
    int64_t idx = op_count++;
    *at = idx;
    c_ops->Add();
    if (fail_at < 0) return FaultAction::kNone;
    bool hit = sticky ? idx >= fail_at : idx == fail_at;
    if (!hit) return FaultAction::kNone;
    fired = true;
    if (mode == FaultMode::kShortRead && kind == OpKind::kRead) {
      c_short_reads->Add();
      return FaultAction::kShortRead;
    }
    if (mode == FaultMode::kShortWrite && kind == OpKind::kWrite) {
      c_short_writes->Add();
      return FaultAction::kShortWrite;
    }
    c_errors->Add();
    return FaultAction::kFail;
  }

  static Status Injected(int64_t at) {
    return Status::IOError("injected fault at op " + std::to_string(at));
  }

  Env* inner;
  Mutex mu;
  int64_t op_count MSV_GUARDED_BY(mu) = 0;
  int64_t fail_at MSV_GUARDED_BY(mu) = -1;  // -1: disarmed
  FaultMode mode MSV_GUARDED_BY(mu) = FaultMode::kError;
  bool sticky MSV_GUARDED_BY(mu) = true;
  bool fired MSV_GUARDED_BY(mu) = false;
  /// name -> bytes as of the file's last Sync(). Travels with renames.
  std::map<std::string, std::string> synced MSV_GUARDED_BY(mu);
  /// name -> bytes surviving a crash (entry dir-synced + data synced).
  std::map<std::string, std::string> durable MSV_GUARDED_BY(mu);

  obs::Counter* c_ops;
  obs::Counter* c_errors;
  obs::Counter* c_short_reads;
  obs::Counter* c_short_writes;
  obs::Counter* c_crashes;
};

namespace {

/// Reads the full current contents of `file` (uncounted inner access).
Result<std::string> Slurp(File* file) {
  MSV_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  std::string bytes(static_cast<size_t>(size), '\0');
  if (size > 0) {
    MSV_RETURN_IF_ERROR(file->ReadExact(0, bytes.size(), bytes.data()));
  }
  return bytes;
}

/// Replaces the inner file `name` with exactly `bytes`.
Status Restore(Env* inner, const std::string& name, const std::string& bytes) {
  MSV_ASSIGN_OR_RETURN(auto file, inner->OpenFile(name, /*create=*/true));
  MSV_RETURN_IF_ERROR(file->Truncate(0));
  if (!bytes.empty()) {
    MSV_RETURN_IF_ERROR(file->Write(0, bytes.data(), bytes.size()));
  }
  return Status::OK();
}

class FaultFile : public File {
 public:
  FaultFile(std::shared_ptr<FaultState> state, std::string name,
            std::unique_ptr<File> inner)
      : state_(std::move(state)),
        name_(std::move(name)),
        inner_(std::move(inner)) {}

  Result<size_t> Read(uint64_t offset, size_t n, char* scratch) override {
    int64_t at = 0;
    FaultAction action = state_->Gate(OpKind::kRead, &at);
    if (action == FaultAction::kFail) return FaultState::Injected(at);
    MSV_ASSIGN_OR_RETURN(size_t got, inner_->Read(offset, n, scratch));
    if (action == FaultAction::kShortRead) return got / 2;
    return got;
  }

  Status Write(uint64_t offset, const char* data, size_t n) override {
    int64_t at = 0;
    FaultAction action = state_->Gate(OpKind::kWrite, &at);
    if (action == FaultAction::kFail) return FaultState::Injected(at);
    if (action == FaultAction::kShortWrite) {
      // Torn write: half the payload lands, then the device dies.
      MSV_RETURN_IF_ERROR(inner_->Write(offset, data, n / 2));
      return FaultState::Injected(at);
    }
    return inner_->Write(offset, data, n);
  }

  Status Append(const char* data, size_t n) override {
    int64_t at = 0;
    FaultAction action = state_->Gate(OpKind::kWrite, &at);
    if (action == FaultAction::kFail) return FaultState::Injected(at);
    if (action == FaultAction::kShortWrite) {
      MSV_RETURN_IF_ERROR(inner_->Append(data, n / 2));
      return FaultState::Injected(at);
    }
    return inner_->Append(data, n);
  }

  Result<uint64_t> Size() const override { return inner_->Size(); }

  Status Truncate(uint64_t size) override {
    int64_t at = 0;
    if (state_->Gate(OpKind::kOther, &at) != FaultAction::kNone) {
      return FaultState::Injected(at);
    }
    return inner_->Truncate(size);
  }

  Status Sync() override {
    int64_t at = 0;
    if (state_->Gate(OpKind::kOther, &at) != FaultAction::kNone) {
      return FaultState::Injected(at);
    }
    MSV_RETURN_IF_ERROR(inner_->Sync());
    MSV_ASSIGN_OR_RETURN(std::string bytes, Slurp(inner_.get()));
    MutexLock lock(state_->mu);
    state_->synced[name_] = bytes;
    // fsync makes the *data* durable; if the directory entry already is,
    // the whole file now survives a crash.
    auto it = state_->durable.find(name_);
    if (it != state_->durable.end()) it->second = std::move(bytes);
    return Status::OK();
  }

 private:
  std::shared_ptr<FaultState> state_;
  std::string name_;
  std::unique_ptr<File> inner_;
};

}  // namespace
}  // namespace internal

using internal::FaultAction;
using internal::FaultState;
using internal::OpKind;

FaultInjectionEnv::FaultInjectionEnv(Env* inner)
    : state_(std::make_shared<FaultState>(inner)) {
  // Pre-existing files predate the simulated crash window: both their
  // contents and their directory entries are durable as-is. An inner env
  // that cannot enumerate files simply starts with an empty durable set.
  auto names = inner->ListFiles();
  if (names.ok()) {
    // The state is freshly constructed and unshared, but `synced`/`durable`
    // belong to FaultState (not the object under construction), so the
    // analysis rightly wants its lock held.
    MutexLock lock(state_->mu);
    for (const std::string& name : *names) {
      auto file = inner->OpenFile(name, /*create=*/false);
      if (!file.ok()) continue;
      auto bytes = internal::Slurp(file->get());
      if (!bytes.ok()) continue;
      state_->synced[name] = *bytes;
      state_->durable[name] = std::move(*bytes);
    }
  }
}

FaultInjectionEnv::~FaultInjectionEnv() = default;

Result<std::unique_ptr<File>> FaultInjectionEnv::OpenFile(
    const std::string& name, bool create) {
  int64_t at = 0;
  if (state_->Gate(OpKind::kOther, &at) != FaultAction::kNone) {
    return FaultState::Injected(at);
  }
  MSV_ASSIGN_OR_RETURN(auto inner, state_->inner->OpenFile(name, create));
  return std::unique_ptr<File>(
      new internal::FaultFile(state_, name, std::move(inner)));
}

Status FaultInjectionEnv::DeleteFile(const std::string& name) {
  int64_t at = 0;
  if (state_->Gate(OpKind::kOther, &at) != FaultAction::kNone) {
    return FaultState::Injected(at);
  }
  MSV_RETURN_IF_ERROR(state_->inner->DeleteFile(name));
  MutexLock lock(state_->mu);
  // The durable image keeps the entry: unlink is a directory mutation and
  // only SyncDir() commits it — a crash resurrects the file.
  state_->synced.erase(name);
  return Status::OK();
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  int64_t at = 0;
  if (state_->Gate(OpKind::kOther, &at) != FaultAction::kNone) {
    return FaultState::Injected(at);
  }
  MSV_RETURN_IF_ERROR(state_->inner->RenameFile(from, to));
  MutexLock lock(state_->mu);
  // The data-synced state travels with the inode; entry durability of the
  // rename itself waits for SyncDir().
  auto it = state_->synced.find(from);
  if (it != state_->synced.end()) {
    state_->synced[to] = std::move(it->second);
    state_->synced.erase(it);
  } else {
    state_->synced.erase(to);
  }
  return Status::OK();
}

Result<bool> FaultInjectionEnv::FileExists(const std::string& name) {
  return state_->inner->FileExists(name);
}

Result<std::vector<std::string>> FaultInjectionEnv::ListFiles() {
  return state_->inner->ListFiles();
}

Status FaultInjectionEnv::SyncDir() {
  int64_t at = 0;
  if (state_->Gate(OpKind::kOther, &at) != FaultAction::kNone) {
    return FaultState::Injected(at);
  }
  MSV_RETURN_IF_ERROR(state_->inner->SyncDir());
  MSV_ASSIGN_OR_RETURN(auto names, state_->inner->ListFiles());
  MutexLock lock(state_->mu);
  // Every live directory entry is durable now; data durability is still
  // whatever the files' own Sync() history says. Entries no longer live
  // (deleted or renamed away) are committed as gone.
  std::map<std::string, std::string> durable;
  for (const std::string& name : names) {
    auto synced_it = state_->synced.find(name);
    if (synced_it != state_->synced.end()) {
      durable[name] = synced_it->second;
      continue;
    }
    auto old_it = state_->durable.find(name);
    // Entry durable but data never synced: the strict model keeps nothing.
    durable[name] = old_it != state_->durable.end() ? old_it->second : "";
  }
  state_->durable = std::move(durable);
  return Status::OK();
}

void FaultInjectionEnv::ArmFault(int64_t fail_at_op, FaultMode mode,
                                 bool sticky) {
  MutexLock lock(state_->mu);
  state_->fail_at = fail_at_op;
  state_->mode = mode;
  state_->sticky = sticky;
  state_->fired = false;
}

void FaultInjectionEnv::ClearFault() {
  MutexLock lock(state_->mu);
  state_->fail_at = -1;
}

int64_t FaultInjectionEnv::op_count() const {
  MutexLock lock(state_->mu);
  return state_->op_count;
}

bool FaultInjectionEnv::fault_fired() const {
  MutexLock lock(state_->mu);
  return state_->fired;
}

Status FaultInjectionEnv::DropUnsyncedData() {
  // Snapshot the durable image, then rebuild the inner env to match it.
  // Uncounted: this is the simulated power loss itself, not a workload op.
  std::map<std::string, std::string> durable;
  {
    MutexLock lock(state_->mu);
    state_->c_crashes->Add();
    durable = state_->durable;
  }
  MSV_ASSIGN_OR_RETURN(auto names, state_->inner->ListFiles());
  for (const std::string& name : names) {
    if (durable.count(name) == 0) {
      MSV_RETURN_IF_ERROR(state_->inner->DeleteFile(name));
    }
  }
  for (const auto& [name, bytes] : durable) {
    MSV_RETURN_IF_ERROR(internal::Restore(state_->inner, name, bytes));
  }
  MutexLock lock(state_->mu);
  state_->synced = durable;
  return Status::OK();
}

std::unique_ptr<FaultInjectionEnv> NewFaultInjectionEnv(Env* inner) {
  return std::make_unique<FaultInjectionEnv>(inner);
}

}  // namespace msv::io
