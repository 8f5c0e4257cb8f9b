// Minimal JSON document model for the observability exporters (metrics
// snapshots, trace dumps, BENCH_* records) and their round-trip tests.
//
// Deliberately tiny: null / bool / number / string / array / object,
// UTF-8 passed through verbatim, numbers stored as double (exporter
// values are counters and microsecond totals, well inside the 2^53
// integer-exact range). \uXXXX escapes decode to UTF-8, including
// surrogate pairs for supplementary-plane code points; lone surrogates
// are rejected. Not a general-purpose parser — no comments — but
// Parse(Dump(x)) == x for everything the exporters emit, which is the
// contract the golden tests pin down.

#ifndef MSV_OBS_JSON_H_
#define MSV_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/result.h"

namespace msv::obs {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}          // NOLINT(implicit)
  Json(double n) : type_(Type::kNumber), number_(n) {}    // NOLINT(implicit)
  Json(int n) : Json(static_cast<double>(n)) {}           // NOLINT(implicit)
  Json(int64_t n) : Json(static_cast<double>(n)) {}       // NOLINT(implicit)
  Json(uint64_t n) : Json(static_cast<double>(n)) {}      // NOLINT(implicit)
  Json(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT

  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }

  /// Array access. Append() requires kArray.
  void Append(Json v);
  size_t size() const { return array_.size(); }
  const Json& at(size_t i) const { return array_[i]; }
  const std::vector<Json>& items() const { return array_; }

  /// Object access. operator[] inserts a null member on first use and
  /// requires kObject; Find returns nullptr when absent.
  Json& operator[](const std::string& key);
  const Json* Find(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return object_;
  }

  /// Serializes. `indent` > 0 pretty-prints with that many spaces per
  /// level; 0 emits the compact single-line form.
  std::string Dump(int indent = 0) const;

  /// Deepest array/object nesting Parse() accepts. The documents the
  /// repo writes (export lines, traces, BENCH records) nest at most six
  /// levels.
  static constexpr int kMaxDepth = 64;

  /// Parses one JSON document (trailing whitespace allowed). Nesting past
  /// kMaxDepth is InvalidArgument.
  static Result<Json> Parse(const std::string& text);

  bool operator==(const Json& other) const;
  bool operator!=(const Json& other) const { return !(*this == other); }

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  /// Insertion-ordered so exporter output is deterministic.
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace msv::obs

#endif  // MSV_OBS_JSON_H_
