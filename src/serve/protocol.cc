#include "serve/protocol.h"

#include <cstring>
#include <optional>

#include "util/numeric.h"

namespace msv::serve {

std::string EncodeFrame(const std::string& payload) {
  const uint32_t n = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.push_back(static_cast<char>((n >> 24) & 0xff));
  frame.push_back(static_cast<char>((n >> 16) & 0xff));
  frame.push_back(static_cast<char>((n >> 8) & 0xff));
  frame.push_back(static_cast<char>(n & 0xff));
  frame.append(payload);
  return frame;
}

FrameDecoder::Outcome FrameDecoder::Next(std::string* payload) {
  if (buf_.size() < kFrameHeaderBytes) return Outcome::kNeedMore;
  const auto* p = reinterpret_cast<const unsigned char*>(buf_.data());
  const size_t n = (static_cast<size_t>(p[0]) << 24) |
                   (static_cast<size_t>(p[1]) << 16) |
                   (static_cast<size_t>(p[2]) << 8) | static_cast<size_t>(p[3]);
  if (n > kMaxFrameBytes) return Outcome::kTooLarge;
  if (buf_.size() < kFrameHeaderBytes + n) return Outcome::kNeedMore;
  payload->assign(buf_, kFrameHeaderBytes, n);
  buf_.erase(0, kFrameHeaderBytes + n);
  return Outcome::kFrame;
}

const char* ErrorKindName(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kOverload:
      return "overload";
    case ErrorKind::kParse:
      return "parse";
    case ErrorKind::kExec:
      return "exec";
    case ErrorKind::kProtocol:
      return "protocol";
  }
  return "unknown";
}

Result<Request> ParseRequest(const std::string& payload) {
  auto parsed = obs::Json::Parse(payload);
  if (!parsed.ok()) {
    return Status::InvalidArgument("request is not valid JSON: " +
                                   std::string(parsed.status().message()));
  }
  const obs::Json& doc = *parsed;
  if (doc.type() != obs::Json::Type::kObject) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  Request request;
  if (const obs::Json* id = doc.Find("id")) {
    if (id->type() != obs::Json::Type::kNumber) {
      return Status::InvalidArgument("request \"id\" must be a number");
    }
    // Ids are echoed as JSON numbers, i.e. doubles: only integers in
    // [0, 2^53] survive the round trip exactly.
    std::optional<uint64_t> v = ExactUint(id->AsNumber());
    if (!v) {
      return Status::InvalidArgument(
          "request \"id\" must be an integer in [0, 2^53]");
    }
    request.id = *v;
    request.has_id = true;
  }
  const obs::Json* statement = doc.Find("statement");
  if (statement == nullptr) {
    return Status::InvalidArgument("request missing \"statement\"");
  }
  if (statement->type() != obs::Json::Type::kString) {
    return Status::InvalidArgument("request \"statement\" must be a string");
  }
  request.statement = statement->AsString();
  return request;
}

std::string EncodeResultResponse(const Request& request,
                                 const std::string& output,
                                 const obs::StatementLedger& ledger,
                                 uint64_t elapsed_us) {
  obs::Json doc = obs::Json::Object();
  if (request.has_id) doc["id"] = request.id;
  doc["ok"] = true;
  doc["output"] = output;
  doc["elapsed_us"] = elapsed_us;
  if (ledger.has_estimate) {
    obs::Json estimate = obs::Json::Object();
    estimate["value"] = ledger.estimate_value;
    estimate["half_width"] = ledger.ci_half_width;
    estimate["samples"] = ledger.samples;
    estimate["confidence"] = ledger.confidence;
    estimate["is_partial"] = ledger.is_partial;
    estimate["target_rel_pct"] = ledger.target_rel_pct;
    estimate["deadline_us"] = ledger.deadline_us;
    estimate["elapsed_us"] = ledger.elapsed_us;
    doc["estimate"] = std::move(estimate);
  }
  return doc.Dump();
}

std::string EncodeErrorResponse(const Request& request, ErrorKind kind,
                                const std::string& message) {
  obs::Json doc = obs::Json::Object();
  if (request.has_id) doc["id"] = request.id;
  doc["ok"] = false;
  obs::Json error = obs::Json::Object();
  error["kind"] = ErrorKindName(kind);
  error["message"] = message;
  doc["error"] = std::move(error);
  return doc.Dump();
}

}  // namespace msv::serve
