#include "prometheus_text.h"

#include <cmath>
#include <cstdlib>
#include <map>

#include "util/logging.h"

namespace msv::obs {

namespace {

bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool IsNameChar(char c) { return IsNameStart(c) || (c >= '0' && c <= '9'); }

bool IsValidName(const std::string& s) {
  if (s.empty() || !IsNameStart(s[0])) return false;
  for (char c : s) {
    if (!IsNameChar(c)) return false;
  }
  return true;
}

/// Cursor over one sample line.
class LineParser {
 public:
  LineParser(const std::string& line, size_t lineno)
      : line_(line), lineno_(lineno) {}

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("prom line " + std::to_string(lineno_) +
                                   ": " + what + " in '" + line_ + "'");
  }

  Result<PromSample> Parse() {
    PromSample s;
    size_t start = pos_;
    while (pos_ < line_.size() && IsNameChar(line_[pos_])) ++pos_;
    s.name = line_.substr(start, pos_ - start);
    if (!IsValidName(s.name)) return Error("bad metric name");
    if (pos_ < line_.size() && line_[pos_] == '{') {
      ++pos_;
      MSV_RETURN_IF_ERROR(ParseLabels(&s.labels));
    }
    SkipSpace();
    if (pos_ >= line_.size()) return Error("missing value");
    start = pos_;
    while (pos_ < line_.size() && !IsSpace(line_[pos_])) ++pos_;
    std::string value = line_.substr(start, pos_ - start);
    if (value == "+Inf" || value == "Inf") {
      s.value = HUGE_VAL;
    } else if (value == "-Inf") {
      s.value = -HUGE_VAL;
    } else if (value == "NaN") {
      s.value = NAN;
    } else {
      char* end = nullptr;
      s.value = std::strtod(value.c_str(), &end);
      if (end != value.c_str() + value.size()) return Error("bad value");
    }
    SkipSpace();
    if (pos_ < line_.size()) {
      // Optional millisecond timestamp.
      start = pos_;
      while (pos_ < line_.size() && !IsSpace(line_[pos_])) ++pos_;
      std::string ts = line_.substr(start, pos_ - start);
      char* end = nullptr;
      (void)std::strtoll(ts.c_str(), &end, 10);  // NOLINT(msv-status-ignored) only `end` matters
      if (end != ts.c_str() + ts.size()) return Error("bad timestamp");
      SkipSpace();
      if (pos_ < line_.size()) return Error("trailing characters");
    }
    return s;
  }

 private:
  static bool IsSpace(char c) { return c == ' ' || c == '\t'; }

  void SkipSpace() {
    while (pos_ < line_.size() && IsSpace(line_[pos_])) ++pos_;
  }

  Status ParseLabels(Labels* labels) {
    SkipSpace();
    if (pos_ < line_.size() && line_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      SkipSpace();
      size_t start = pos_;
      while (pos_ < line_.size() && IsNameChar(line_[pos_]) &&
             line_[pos_] != ':') {
        ++pos_;
      }
      std::string name = line_.substr(start, pos_ - start);
      if (name.empty() || !IsNameStart(name[0])) {
        return Error("bad label name");
      }
      SkipSpace();
      if (pos_ >= line_.size() || line_[pos_] != '=') {
        return Error("expected '='");
      }
      ++pos_;
      SkipSpace();
      if (pos_ >= line_.size() || line_[pos_] != '"') {
        return Error("expected '\"'");
      }
      ++pos_;
      std::string value;
      while (pos_ < line_.size() && line_[pos_] != '"') {
        char c = line_[pos_++];
        if (c == '\\') {
          if (pos_ >= line_.size()) return Error("bad label escape");
          char e = line_[pos_++];
          if (e == 'n') {
            value.push_back('\n');
          } else if (e == '\\' || e == '"') {
            value.push_back(e);
          } else {
            return Error("bad label escape");
          }
        } else {
          value.push_back(c);
        }
      }
      if (pos_ >= line_.size()) return Error("unterminated label value");
      ++pos_;  // closing quote
      labels->emplace_back(std::move(name), std::move(value));
      SkipSpace();
      if (pos_ < line_.size() && line_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < line_.size() && line_[pos_] == '}') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or '}'");
    }
  }

  const std::string& line_;
  size_t lineno_;
  size_t pos_ = 0;
};

bool IsKnownType(const std::string& t) {
  return t == "counter" || t == "gauge" || t == "histogram" ||
         t == "summary" || t == "untyped";
}

/// The family a sample with `name` belongs to, given the declared
/// families: exact match, or for histograms/summaries the name with a
/// `_bucket`/`_sum`/`_count` suffix stripped.
PromFamily* FamilyFor(std::vector<PromFamily>* families,
                      const std::string& name) {
  for (PromFamily& f : *families) {
    if (f.name == name) return &f;
    if (f.type == "histogram" || f.type == "summary") {
      if (name == f.name + "_bucket" || name == f.name + "_sum" ||
          name == f.name + "_count") {
        return &f;
      }
    }
  }
  return nullptr;
}

}  // namespace

Result<std::vector<PromFamily>> ParsePrometheusText(const std::string& text) {
  std::vector<PromFamily> families;
  size_t lineno = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only "# TYPE name kind" is structural; HELP and free comments
      // pass through.
      if (line.compare(0, 7, "# TYPE ") == 0) {
        std::string rest = line.substr(7);
        size_t sp = rest.find(' ');
        if (sp == std::string::npos) {
          return Status::InvalidArgument("prom line " +
                                         std::to_string(lineno) +
                                         ": TYPE missing kind");
        }
        PromFamily f;
        f.name = rest.substr(0, sp);
        f.type = rest.substr(sp + 1);
        if (!IsValidName(f.name)) {
          return Status::InvalidArgument("prom line " +
                                         std::to_string(lineno) +
                                         ": bad family name '" + f.name + "'");
        }
        if (!IsKnownType(f.type)) {
          return Status::InvalidArgument("prom line " +
                                         std::to_string(lineno) +
                                         ": unknown type '" + f.type + "'");
        }
        for (const PromFamily& existing : families) {
          if (existing.name == f.name) {
            return Status::InvalidArgument(
                "prom line " + std::to_string(lineno) +
                ": duplicate TYPE for '" + f.name + "'");
          }
        }
        families.push_back(std::move(f));
      }
      continue;
    }
    MSV_ASSIGN_OR_RETURN(PromSample s, LineParser(line, lineno).Parse());
    PromFamily* f = FamilyFor(&families, s.name);
    if (!f) {
      return Status::InvalidArgument("prom line " + std::to_string(lineno) +
                                     ": sample '" + s.name +
                                     "' has no preceding TYPE");
    }
    f->samples.push_back(std::move(s));
  }
  return families;
}

Status ValidatePrometheusText(const std::string& text) {
  MSV_ASSIGN_OR_RETURN(std::vector<PromFamily> families,
                       ParsePrometheusText(text));
  for (const PromFamily& f : families) {
    if (f.samples.empty()) {
      return Status::InvalidArgument("prom family '" + f.name +
                                     "' declared but has no samples");
    }
    if (f.type == "counter") {
      if (f.name.size() < 6 ||
          f.name.compare(f.name.size() - 6, 6, "_total") != 0) {
        return Status::InvalidArgument("prom counter '" + f.name +
                                       "' not named *_total");
      }
      for (const PromSample& s : f.samples) {
        if (s.value < 0) {
          return Status::InvalidArgument("prom counter '" + f.name +
                                         "' has negative sample");
        }
      }
    }
    if (f.type == "histogram") {
      // Bucket order, cumulativeness and +Inf == _count hold per series:
      // the samples that share one label set apart from `le`.
      struct SeriesCheck {
        double prev_le = -HUGE_VAL;
        double prev_cum = -1.0;
        double inf_bucket = -1.0;
        double count = -1.0;
        bool saw_sum = false;
      };
      std::map<Labels, SeriesCheck> series;
      for (const PromSample& s : f.samples) {
        Labels key;
        const std::string* le = nullptr;
        for (const auto& label : s.labels) {
          if (label.first == "le") {
            le = &label.second;
          } else {
            key.push_back(label);
          }
        }
        SeriesCheck& c = series[key];
        if (s.name == f.name + "_bucket") {
          if (!le) {
            return Status::InvalidArgument("prom histogram '" + f.name +
                                           "' bucket without le label");
          }
          double edge =
              (*le == "+Inf") ? HUGE_VAL : std::strtod(le->c_str(), nullptr);
          if (edge <= c.prev_le) {
            return Status::InvalidArgument("prom histogram '" + f.name +
                                           "' buckets not in le order");
          }
          if (s.value < c.prev_cum) {
            return Status::InvalidArgument("prom histogram '" + f.name +
                                           "' buckets not cumulative");
          }
          c.prev_le = edge;
          c.prev_cum = s.value;
          if (std::isinf(edge)) c.inf_bucket = s.value;
        } else if (s.name == f.name + "_sum") {
          c.saw_sum = true;
        } else if (s.name == f.name + "_count") {
          c.count = s.value;
        }
      }
      for (const auto& [labels, c] : series) {
        if (c.inf_bucket < 0) {
          return Status::InvalidArgument("prom histogram '" + f.name +
                                         "' missing +Inf bucket");
        }
        if (!c.saw_sum || c.count < 0) {
          return Status::InvalidArgument("prom histogram '" + f.name +
                                         "' missing _sum or _count");
        }
        if (c.count != c.inf_bucket) {
          return Status::InvalidArgument("prom histogram '" + f.name +
                                         "' _count != +Inf bucket");
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace msv::obs
