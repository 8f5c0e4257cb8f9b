#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.h"

namespace msv::obs {

namespace {

/// Appends `s` quoted. Each run of characters that need no escape is
/// copied with one append, so an answer with few line breaks costs about
/// one memcpy.
void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  size_t run = 0;  // start of the characters not yet appended
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    // Pointer and length, not (s, pos, n): GCC 12 flags the substring
    // overload, inlined beside the literal appends, with a false
    // -Wrestrict.
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default: {
        // Any other control character, as \u00XX in lowercase hex.
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xf]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

void AppendNumber(std::string* out, double v) {
  // Integers (the common case: counters, µs totals) print without a
  // decimal point so the output diffs cleanly.
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.007e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    *out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Json> ParseDocument() {
    MSV_ASSIGN_OR_RETURN(Json v, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("json: trailing characters at offset " +
                                     std::to_string(pos_));
    }
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  Result<Json> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end");
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Each level recurses once; cap it so a hostile document cannot
      // exhaust the stack.
      if (++depth_ > Json::kMaxDepth) {
        return Error("nesting deeper than " +
                     std::to_string(Json::kMaxDepth));
      }
      Result<Json> v = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return v;
    }
    if (c == '"') {
      MSV_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Json(std::move(s));
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return Json(true);
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return Json(false);
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return Json();
    }
    char* end = nullptr;
    double v = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return Error("bad value");
    pos_ = static_cast<size_t>(end - text_.c_str());
    return Json(v);
  }

  /// Consumes exactly four hex digits at pos_; strict — strtoul-style
  /// whitespace/sign/short prefixes are rejected.
  bool ParseHex4(unsigned* code) {
    if (pos_ + 4 > text_.size()) return false;
    unsigned v = 0;
    for (size_t i = 0; i < 4; ++i) {
      char c = text_[pos_ + i];
      unsigned digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<unsigned>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<unsigned>(c - 'A') + 10;
      } else {
        return false;
      }
      v = (v << 4) | digit;
    }
    pos_ += 4;
    *code = v;
    return true;
  }

  static void AppendUtf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xc0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xe0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else {
      out->push_back(static_cast<char>(0xf0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    }
  }

  Result<std::string> ParseString() {
    MSV_DCHECK(text_[pos_] == '"');
    ++pos_;
    std::string out;
    for (;;) {
      // Copy the run up to the next quote or backslash in one append.
      size_t stop = pos_;
      while (stop < text_.size() && text_[stop] != '"' &&
             text_[stop] != '\\') {
        ++stop;
      }
      out.append(text_.data() + pos_, stop - pos_);
      pos_ = stop;
      if (pos_ >= text_.size()) return Error("unterminated string");
      if (text_[pos_++] == '"') return out;
      if (pos_ >= text_.size()) return Error("bad escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'u': {
          unsigned code = 0;
          if (!ParseHex4(&code)) return Error("bad \\u escape");
          if (code >= 0xdc00 && code <= 0xdfff) {
            return Error("lone low surrogate");
          }
          if (code >= 0xd800 && code <= 0xdbff) {
            // High surrogate: must be followed by \uDC00..\uDFFF; the
            // pair encodes one supplementary-plane code point.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("unpaired high surrogate");
            }
            pos_ += 2;
            unsigned low = 0;
            if (!ParseHex4(&low)) return Error("bad \\u escape");
            if (low < 0xdc00 || low > 0xdfff) {
              return Error("unpaired high surrogate");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
          }
          AppendUtf8(&out, code);
          break;
        }
        default:
          return Error("bad escape");
      }
    }
  }

  Result<Json> ParseArray() {
    ++pos_;  // '['
    Json arr = Json::Array();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      MSV_ASSIGN_OR_RETURN(Json v, ParseValue());
      arr.Append(std::move(v));
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return arr;
      }
      return Error("expected ',' or ']'");
    }
  }

  Result<Json> ParseObject() {
    ++pos_;  // '{'
    Json obj = Json::Object();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected member name");
      }
      MSV_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':'");
      }
      ++pos_;
      MSV_ASSIGN_OR_RETURN(Json v, ParseValue());
      obj[key] = std::move(v);
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return obj;
      }
      return Error("expected ',' or '}'");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects open at pos_
};

}  // namespace

void Json::Append(Json v) {
  MSV_DCHECK(type_ == Type::kArray);
  array_.push_back(std::move(v));
}

Json& Json::operator[](const std::string& key) {
  MSV_DCHECK(type_ == Type::kObject);
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(key, Json());
  return object_.back().second;
}

const Json* Json::Find(const std::string& key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::DumpTo(std::string* out, int indent, int depth) const {
  // A line break and the indent of the members (pad) or of the closing
  // bracket (close_pad); empty when compact.
  std::string close_pad;
  std::string pad;
  if (indent > 0) {
    close_pad.push_back('\n');
    close_pad.append(static_cast<size_t>(indent * depth), ' ');
    pad = close_pad;
    pad.append(static_cast<size_t>(indent), ' ');
  }
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(out, number_);
      break;
    case Type::kString:
      AppendEscaped(out, string_);
      break;
    case Type::kArray: {
      if (array_.empty()) {
        *out += "[]";
        break;
      }
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i) out->push_back(',');
        *out += pad;
        array_[i].DumpTo(out, indent, depth + 1);
      }
      *out += close_pad;
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        *out += "{}";
        break;
      }
      out->push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i) out->push_back(',');
        *out += pad;
        AppendEscaped(out, object_[i].first);
        *out += indent > 0 ? ": " : ":";
        object_[i].second.DumpTo(out, indent, depth + 1);
      }
      *out += close_pad;
      out->push_back('}');
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

Result<Json> Json::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

}  // namespace msv::obs
