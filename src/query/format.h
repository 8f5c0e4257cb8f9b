// Answer text: the number formatter every executor line uses, and the
// SAMPLE row renderer.
//
// Numbers are appended with std::to_chars straight into the answer string,
// so a row costs its bytes and no stream or locale machinery. The output
// is exactly what printf prints: "%.4f" for doubles (NaN, ±inf and -0.0
// included, ties rounded to even on the exact binary value) and the
// decimal integer for uint64 columns.

#ifndef MSV_QUERY_FORMAT_H_
#define MSV_QUERY_FORMAT_H_

#include <cstdint>
#include <string>

#include "query/catalog.h"

namespace msv::query {

/// Appends `v` as printf("%.4f", v) prints it.
void AppendFixed4(std::string* out, double v);

/// printf("%.4f", v) as a string.
std::string Fixed4(double v);

/// Appends one SAMPLE row: each column of `record` under `schema`, joined
/// by " | ", then '\n'. kDouble columns print as AppendFixed4; kUint64
/// columns print the stored integer, exact above 2^53.
void AppendRow(std::string* out, const TableSchema& schema,
               const char* record);

}  // namespace msv::query

#endif  // MSV_QUERY_FORMAT_H_
