#include "obs/prometheus.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

namespace msv::obs {

namespace {

using Labels = std::vector<std::pair<std::string, std::string>>;

bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool IsNameChar(char c) { return IsNameStart(c) || (c >= '0' && c <= '9'); }

std::string FormatValue(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.007e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else if (std::isinf(v)) {
    return v > 0 ? "+Inf" : "-Inf";
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Splits a registry series name of the MetricRegistry::Labeled shape
/// ("name{k1=v1,k2=v2}") into base name and label pairs. Names without
/// a '{' come back label-free.
void SplitLabeled(const std::string& series, std::string* base,
                  Labels* labels) {
  labels->clear();
  size_t brace = series.find('{');
  if (brace == std::string::npos || series.back() != '}') {
    *base = series;
    return;
  }
  *base = series.substr(0, brace);
  size_t pos = brace + 1;
  size_t end = series.size() - 1;
  while (pos < end) {
    size_t comma = series.find(',', pos);
    if (comma == std::string::npos || comma > end) comma = end;
    size_t eq = series.find('=', pos);
    if (eq == std::string::npos || eq > comma) {
      labels->emplace_back(series.substr(pos, comma - pos), "");
    } else {
      labels->emplace_back(series.substr(pos, eq - pos),
                           series.substr(eq + 1, comma - eq - 1));
    }
    pos = comma + 1;
  }
}

std::string SanitizeLabelName(const std::string& name) {
  std::string out = name;
  if (out.empty()) out = "_";
  if (!IsNameStart(out[0]) || out[0] == ':') out[0] = '_';
  for (char& c : out) {
    if (!IsNameChar(c) || c == ':') c = '_';
  }
  return out;
}

std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ",";
    out += SanitizeLabelName(labels[i].first) + "=\"" +
           EscapeLabelValue(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

/// One series of a family: its labels and its value in the snapshot.
struct Series {
  Labels labels;
  const Json* value;
};

struct Family {
  std::string name;
  std::vector<Series> series;
};

/// The series of one snapshot section ("counters", "gauges" or
/// "histograms") grouped by Prometheus family, families in the order
/// they first appear. Series of one family need not be adjacent in the
/// snapshot's name order: "a.b" < "a.b.c" < "a.b{k=v}".
std::vector<Family> GroupByFamily(const Json* section,
                                  const std::string& suffix) {
  std::vector<Family> families;
  if (section == nullptr) return families;
  std::map<std::string, size_t> index;
  for (const auto& [series, value] : section->members()) {
    std::string base;
    Labels labels;
    SplitLabeled(series, &base, &labels);
    std::string name = PrometheusName(base) + suffix;
    auto [it, inserted] = index.emplace(name, families.size());
    if (inserted) families.push_back(Family{std::move(name), {}});
    families[it->second].series.push_back(Series{std::move(labels), &value});
  }
  return families;
}

/// A numeric member, 0 when absent.
double Number(const Json& object, const std::string& key) {
  const Json* v = object.Find(key);
  return v != nullptr ? v->AsNumber() : 0.0;
}

std::string SampleLine(const std::string& name, const Labels& labels,
                       double value) {
  return name + RenderLabels(labels) + " " + FormatValue(value) + "\n";
}

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out = "msv_";
  out.reserve(name.size() + 4);
  for (char c : name) {
    out.push_back(IsNameChar(c) && c != ':' ? c : '_');
  }
  return out;
}

std::string RenderPrometheus(const Json& metrics) {
  std::string out;
  for (const Family& f : GroupByFamily(metrics.Find("counters"), "_total")) {
    out += "# TYPE " + f.name + " counter\n";
    for (const Series& s : f.series) {
      out += SampleLine(f.name, s.labels, Number(*s.value, "total"));
    }
  }
  for (const Family& f : GroupByFamily(metrics.Find("gauges"), "")) {
    out += "# TYPE " + f.name + " gauge\n";
    for (const Series& s : f.series) {
      out += SampleLine(f.name, s.labels, s.value->AsNumber());
    }
  }
  for (const Family& f : GroupByFamily(metrics.Find("histograms"), "")) {
    out += "# TYPE " + f.name + " histogram\n";
    for (const Series& s : f.series) {
      // Cumulative buckets only at the upper edges of non-empty cells:
      // the full 160-cell grid would bloat every scrape, and cumulative
      // semantics make the skipped (empty) boundaries recoverable.
      double cum = 0;
      if (const Json* cells = s.value->Find("cells")) {
        for (const Json& cell : cells->items()) {
          if (cell.size() != 2) continue;
          cum += cell.at(1).AsNumber();
          Labels ls = s.labels;
          ls.emplace_back("le", FormatValue(cell.at(0).AsNumber()));
          out += SampleLine(f.name + "_bucket", ls, cum);
        }
      }
      // _count mirrors the +Inf bucket (derived from the cells) so the
      // document is consistent even when Record() raced the snapshot.
      const double total = cum + Number(*s.value, "overflow");
      Labels ls = s.labels;
      ls.emplace_back("le", "+Inf");
      out += SampleLine(f.name + "_bucket", ls, total);
      out += SampleLine(f.name + "_sum", s.labels, Number(*s.value, "sum"));
      out += SampleLine(f.name + "_count", s.labels, total);
    }
  }
  return out;
}

}  // namespace msv::obs
