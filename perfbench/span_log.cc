#include "span_log.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

namespace perfbench {

namespace {

/// The calling thread's open spans, innermost last: (id, statement).
thread_local std::vector<std::pair<uint64_t, uint64_t>> t_open;

}  // namespace

int64_t SelfTimeNs(const SpanRecord& span,
                   const std::vector<SpanRecord>& children) {
  std::vector<std::pair<int64_t, int64_t>> covered;
  covered.reserve(children.size());
  for (const SpanRecord& child : children) {
    const int64_t lo = std::max(span.start_ns, child.start_ns);
    const int64_t hi = std::min(span.end_ns, child.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  int64_t busy = 0;
  int64_t run_lo = 0;
  int64_t run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) busy += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) busy += run_hi - run_lo;
  return span.duration_ns() - busy;
}

uint64_t SpanLog::Begin(const char* name, uint64_t stmt) {
  uint64_t parent = 0;
  if (!t_open.empty()) {
    parent = t_open.back().first;
    if (stmt == 0) stmt = t_open.back().second;
  }
  const int64_t now = NowNs();
  uint64_t id = 0;
  {
    msv::MutexLock lock(mu_);
    id = spans_.size() + 1;
    spans_.push_back(SpanRecord{id, parent, stmt, name, now, now});
  }
  t_open.emplace_back(id, stmt);
  return id;
}

void SpanLog::End(uint64_t id) {
  const int64_t now = NowNs();
  if (!t_open.empty() && t_open.back().first == id) t_open.pop_back();
  msv::MutexLock lock(mu_);
  spans_[id - 1].end_ns = now;
}

uint64_t SpanLog::Record(const char* name, uint64_t stmt, uint64_t parent,
                         int64_t start_ns, int64_t end_ns) {
  msv::MutexLock lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back(SpanRecord{id, parent, stmt, name, start_ns, end_ns});
  return id;
}

std::vector<SpanRecord> SpanLog::Snapshot() const {
  msv::MutexLock lock(mu_);
  return spans_;
}

msv::Status SpanLog::WriteJson(const std::string& path) const {
  const std::vector<SpanRecord> spans = Snapshot();
  std::unique_ptr<FILE, int (*)(FILE*)> out(std::fopen(path.c_str(), "w"),
                                            &std::fclose);
  if (out == nullptr) return msv::Status::IOError("cannot write " + path);
  std::fputs("[\n", out.get());
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(out.get(),
                 "{\"id\":%llu,\"parent\":%llu,\"stmt\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.stmt), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", out.get());
  if (std::ferror(out.get()) != 0) {
    return msv::Status::IOError("short write to " + path);
  }
  return msv::Status::OK();
}

SpanIndex::SpanIndex(std::vector<SpanRecord> spans) : spans_(std::move(spans)) {
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) children_[s.parent].push_back(s);
  }
}

std::map<uint64_t, int64_t> SpanIndex::SumByStatement(const std::string& name,
                                                      bool self_time) const {
  static const std::vector<SpanRecord> kNone;
  std::map<uint64_t, int64_t> sums;
  for (const SpanRecord& s : spans_) {
    if (s.name != name) continue;
    int64_t ns = s.duration_ns();
    if (self_time) {
      auto it = children_.find(s.id);
      ns = SelfTimeNs(s, it != children_.end() ? it->second : kNone);
    }
    sums[s.stmt] += ns;
  }
  return sums;
}

}  // namespace perfbench
