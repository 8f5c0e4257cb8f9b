#include "query/format.h"

#include <charconv>
#include <limits>

#include "util/coding.h"

namespace msv::query {

namespace {

// The longest "%.4f" of a finite double: a sign, the 309 integer digits
// of DBL_MAX, the point and four decimals.
constexpr size_t kFixed4Chars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + 4;

}  // namespace

void AppendFixed4(std::string* out, double v) {
  // The buffer holds any value, so to_chars cannot fail.
  char buf[kFixed4Chars];
  char* end =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 4)
          .ptr;
  out->append(buf, static_cast<size_t>(end - buf));
}

std::string Fixed4(double v) {
  std::string s;
  AppendFixed4(&s, v);
  return s;
}

void AppendRow(std::string* out, const TableSchema& schema,
               const char* record) {
  for (size_t c = 0; c < schema.columns.size(); ++c) {
    const Column& column = schema.columns[c];
    if (c) out->append(" | ");
    const char* field = record + column.offset;
    switch (column.type) {
      case ColumnType::kDouble:
        AppendFixed4(out, DecodeDouble(field));
        break;
      case ColumnType::kUint64: {
        char buf[std::numeric_limits<uint64_t>::digits10 + 1];
        char* end =
            std::to_chars(buf, buf + sizeof(buf), DecodeFixed64(field)).ptr;
        out->append(buf, static_cast<size_t>(end - buf));
        break;
      }
    }
  }
  out->push_back('\n');
}

}  // namespace msv::query
