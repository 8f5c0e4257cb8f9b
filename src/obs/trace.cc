#include "obs/trace.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/logging.h"

namespace msv::obs {

namespace {

thread_local Tracer* g_active_tracer = nullptr;

std::string& MutableThreadLabel() {
  static thread_local std::string label;
  return label;
}

std::string FormatMetricValue(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

}  // namespace

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    id_ = other.id_;
    other.tracer_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

void Span::AddAttr(const std::string& key, const std::string& value) {
  if (!tracer_) return;
  for (Tracer::OpenSpan& o : tracer_->open_) {
    if (o.id == id_) {
      tracer_->records_[o.record_index].attrs.emplace_back(key, value);
      return;
    }
  }
}

void Span::AddAttr(const std::string& key, uint64_t value) {
  AddAttr(key, std::to_string(value));
}

void Span::AddMetric(const std::string& name, double value) {
  if (!tracer_) return;
  for (Tracer::OpenSpan& o : tracer_->open_) {
    if (o.id == id_) {
      tracer_->records_[o.record_index].metrics.emplace_back(name, value);
      return;
    }
  }
}

void Span::End() {
  if (!tracer_) return;
  tracer_->EndSpan(id_);
  tracer_ = nullptr;
  id_ = 0;
}

Tracer::Tracer(MetricRegistry* registry)
    : registry_(registry ? registry : &MetricRegistry::Global()) {}

void Tracer::RefreshCounterCache() {
  uint64_t v = registry_->version();
  if (v == counters_version_) return;
  registry_->ListCounters(&counters_);
  counters_version_ = v;
}

Span Tracer::StartSpan(std::string name) {
  // records_ already includes still-open spans (a record is created at
  // open), so it alone is the span total.
  if (records_.size() >= kMaxSpans) {
    ++dropped_;
    return Span();
  }
  RefreshCounterCache();
  OpenSpan o;
  o.id = next_id_++;
  o.start = std::chrono::steady_clock::now();
  o.baseline.reserve(counters_.size());
  for (const auto& [cname, c] : counters_) {
    o.baseline.emplace_back(c, c->Value());
  }
  SpanRecord rec;
  rec.id = o.id;
  rec.parent = open_.empty() ? 0 : open_.back().id;
  rec.depth = static_cast<uint32_t>(open_.size());
  rec.name = std::move(name);
  if (!ThreadLabel().empty()) {
    rec.attrs.emplace_back("thread", ThreadLabel());
  }
  o.record_index = records_.size();
  records_.push_back(std::move(rec));
  open_.push_back(std::move(o));
  return Span(this, open_.back().id);
}

void Tracer::EndSpan(uint64_t id) {
  // Find the span on the open stack; spans ended out of order (a parent
  // ended before its children) force-close descendants LIFO.
  size_t pos = open_.size();
  for (size_t i = open_.size(); i-- > 0;) {
    if (open_[i].id == id) {
      pos = i;
      break;
    }
  }
  if (pos == open_.size()) return;  // already closed via a parent
  auto now = std::chrono::steady_clock::now();
  while (open_.size() > pos) {
    OpenSpan o = std::move(open_.back());
    open_.pop_back();
    SpanRecord& rec = records_[o.record_index];
    rec.wall_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - o.start)
            .count());
    RefreshCounterCache();
    for (const auto& [cname, c] : counters_) {
      uint64_t base = 0;
      for (const auto& [bc, bv] : o.baseline) {
        if (bc == c) {
          base = bv;
          break;
        }
      }
      uint64_t v = c->Value();
      if (v > base) {
        rec.metrics.emplace_back(cname, static_cast<double>(v - base));
      }
    }
  }
}

void Tracer::AddEvent(const std::string& name,
                      std::vector<std::pair<std::string, double>> fields) {
  if (open_.empty()) return;
  SpanRecord& rec = records_[open_.back().record_index];
  rec.events.push_back(SpanRecord::Event{name, std::move(fields)});
}

std::string Tracer::ToTree(bool include_wall) const {
  std::string out;
  for (const SpanRecord& rec : records_) {
    out.append(static_cast<size_t>(rec.depth) * 2, ' ');
    out += rec.name;
    for (const auto& [k, v] : rec.attrs) {
      out += " " + k + "=" + v;
    }
    if (!rec.metrics.empty()) {
      out += " [";
      for (size_t i = 0; i < rec.metrics.size(); ++i) {
        if (i) out += " ";
        out += rec.metrics[i].first + "=" +
               FormatMetricValue(rec.metrics[i].second);
      }
      out += "]";
    }
    if (include_wall) {
      out += " (wall " + std::to_string(rec.wall_us) + " us)";
    }
    out += "\n";
    for (const SpanRecord::Event& ev : rec.events) {
      out.append(static_cast<size_t>(rec.depth) * 2 + 2, ' ');
      out += "* " + ev.name;
      for (const auto& [k, v] : ev.fields) {
        out += " " + k + "=" + FormatMetricValue(v);
      }
      out += "\n";
    }
  }
  return out;
}

Json Tracer::ToJson() const {
  Json root = Json::Object();
  Json spans = Json::Array();
  for (const SpanRecord& rec : records_) {
    Json j = Json::Object();
    j["id"] = rec.id;
    j["parent"] = rec.parent;
    j["name"] = rec.name;
    j["wall_us"] = rec.wall_us;
    if (!rec.attrs.empty()) {
      Json attrs = Json::Object();
      for (const auto& [k, v] : rec.attrs) attrs[k] = v;
      j["attrs"] = std::move(attrs);
    }
    if (!rec.metrics.empty()) {
      Json metrics = Json::Object();
      for (const auto& [k, v] : rec.metrics) metrics[k] = v;
      j["metrics"] = std::move(metrics);
    }
    if (!rec.events.empty()) {
      Json events = Json::Array();
      for (const SpanRecord::Event& ev : rec.events) {
        Json je = Json::Object();
        je["name"] = ev.name;
        for (const auto& [k, v] : ev.fields) je[k] = v;
        events.Append(std::move(je));
      }
      j["events"] = std::move(events);
    }
    spans.Append(std::move(j));
  }
  root["spans"] = std::move(spans);
  if (dropped_ > 0) root["dropped_spans"] = static_cast<uint64_t>(dropped_);
  return root;
}

Tracer* Tracer::Active() { return g_active_tracer; }

void SetThreadLabel(std::string label) {
  MutableThreadLabel() = std::move(label);
}

const std::string& ThreadLabel() { return MutableThreadLabel(); }

ScopedTracer::ScopedTracer(Tracer* tracer) : prev_(g_active_tracer) {
  g_active_tracer = tracer;
}

ScopedTracer::~ScopedTracer() { g_active_tracer = prev_; }

Span StartTraceSpan(std::string name) {
  Tracer* t = Tracer::Active();
  if (!t) return Span();
  return t->StartSpan(std::move(name));
}

void AddTraceEvent(const std::string& name,
                   std::vector<std::pair<std::string, double>> fields) {
  Tracer* t = Tracer::Active();
  if (!t) return;
  t->AddEvent(name, std::move(fields));
}

bool ExportTraceIfRequested(const Tracer& tracer) {
  // Read-only env lookup; the process never calls setenv concurrently.
  const char* path = std::getenv("MSV_TRACE");  // NOLINT(concurrency-mt-unsafe)
  if (!path || !*path) return false;
  std::ofstream out(path, std::ios::app);
  if (!out) {
    MSV_LOG(Warn) << "cannot open trace export file " << path;
    return false;
  }
  out << tracer.ToJson().Dump() << "\n";
  return true;
}

}  // namespace msv::obs
