// Wire protocol for the MSVQL server: length-prefixed JSON frames.
//
// Each frame is a 4-byte big-endian payload length followed by that many
// bytes of UTF-8 JSON. Requests carry one MSVQL script:
//
//   {"id": 17, "statement": "ESTIMATE AVG(amount) FROM sv ... WITHIN 2%;"}
//
// Responses echo the id and either succeed:
//
//   {"id": 17, "ok": true, "output": "...", "elapsed_us": 1234,
//    "estimate": {"value": ..., "half_width": ..., "samples": ...,
//                 "confidence": ..., "is_partial": false,
//                 "deadline_us": 0, "elapsed_us": ...}}
//
// (the "estimate" member appears only when the script's last statement
// produced a point estimate) or fail with a typed error so clients can
// distinguish backpressure from their own bugs:
//
//   {"id": 17, "ok": false,
//    "error": {"kind": "overload" | "parse" | "exec" | "protocol",
//              "message": "..."}}
//
// The decoder is incremental (feed bytes as they arrive, frames come out
// as they complete) and enforces a maximum frame size (kMaxFrameBytes) so
// one client cannot balloon server memory.

#ifndef MSV_SERVE_PROTOCOL_H_
#define MSV_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "obs/json.h"
#include "obs/log.h"
#include "util/result.h"

namespace msv::serve {

/// Frame length prefix: 4 bytes, big endian.
inline constexpr size_t kFrameHeaderBytes = 4;
/// Ceiling on a single frame's payload.
inline constexpr size_t kMaxFrameBytes = 1 << 20;

/// Prepends the length header to `payload`.
std::string EncodeFrame(const std::string& payload);

/// Incremental frame reassembly over a byte stream.
class FrameDecoder {
 public:
  void Feed(const char* data, size_t n) { buf_.append(data, n); }

  enum class Outcome {
    kFrame,     ///< *payload holds one complete frame's payload
    kNeedMore,  ///< header or body incomplete; feed more bytes
    kTooLarge,  ///< declared length exceeds kMaxFrameBytes; drop the client
  };
  Outcome Next(std::string* payload);

  /// True when a frame header has arrived but its body has not — the
  /// state a slow-loris client parks a connection in.
  bool mid_frame() const { return !buf_.empty(); }
  size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// One parsed request.
struct Request {
  uint64_t id = 0;        ///< echoed verbatim in the response
  bool has_id = false;    ///< "id" member present
  std::string statement;  ///< MSVQL script text
};

/// Typed failure classes (stable wire strings via ErrorKindName).
enum class ErrorKind {
  kOverload,  ///< admission queue full; retry later
  kParse,     ///< MSVQL did not parse
  kExec,      ///< statement failed during execution
  kProtocol,  ///< request frame was not valid protocol JSON
};
const char* ErrorKindName(ErrorKind kind);

/// Parses a request payload. Protocol errors (bad JSON, missing or
/// non-string "statement") come back as InvalidArgument.
Result<Request> ParseRequest(const std::string& payload);

/// Builds the success response payload. `ledger` contributes the
/// structured "estimate" member when the executed script left one.
std::string EncodeResultResponse(const Request& request,
                                 const std::string& output,
                                 const obs::StatementLedger& ledger,
                                 uint64_t elapsed_us);

/// Builds the typed-error response payload.
std::string EncodeErrorResponse(const Request& request, ErrorKind kind,
                                const std::string& message);

}  // namespace msv::serve

#endif  // MSV_SERVE_PROTOCOL_H_
