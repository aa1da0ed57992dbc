#include "net/protocol.h"

#include <charconv>
#include <cstring>
#include <utility>

#include "common/strings.h"
#include "net/frame.h"

namespace cxml::net {

namespace {

/// Splits `s` on single spaces; unlike common Split, adjacent
/// delimiters are an error surface here, so empty tokens are kept and
/// rejected by the per-verb arity checks.
std::vector<std::string_view> Tokens(std::string_view s) {
  return Split(s, ' ');
}

bool ParseU64(std::string_view digits, uint64_t* out) {
  return ParseDecimalU64(digits, out);
}

Status Malformed(std::string_view what, std::string_view line) {
  return status::ParseError(
      StrCat("malformed ", what, ": '", line, "'"));
}

Status ValidateToken(std::string_view token, const char* what) {
  if (token.empty()) {
    return status::InvalidArgument(StrCat(what, " must not be empty"));
  }
  if (token.size() > 256) {
    return status::InvalidArgument(StrCat(what, " exceeds 256 bytes"));
  }
  for (char c : token) {
    if (static_cast<unsigned char>(c) <= ' ' || c == 0x7f) {
      return status::InvalidArgument(StrCat(
          what, " '", token, "' contains whitespace or control bytes"));
    }
  }
  return Status::Ok();
}

StatusCode StatusCodeFromString(std::string_view name) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kAlreadyExists,
      StatusCode::kOutOfRange,   StatusCode::kFailedPrecondition,
      StatusCode::kParseError,   StatusCode::kValidationError,
      StatusCode::kUnimplemented, StatusCode::kInternal,
      StatusCode::kUnavailable,  StatusCode::kDeadlineExceeded,
  };
  for (StatusCode code : kCodes) {
    if (StatusCodeToString(code) == name) return code;
  }
  // An unknown code from a newer peer still surfaces as an error.
  return StatusCode::kInternal;
}

/// Everything before the first '\n' (or all of `payload`); `*body`
/// gets the rest.
std::string_view CommandLine(std::string_view payload,
                             std::string_view* body) {
  size_t newline = payload.find('\n');
  if (newline == std::string_view::npos) {
    *body = std::string_view();
    return payload;
  }
  *body = payload.substr(newline + 1);
  return payload.substr(0, newline);
}

void AppendOpLines(std::string* out, const std::vector<EditOp>& ops) {
  for (const EditOp& op : ops) {
    if (op.kind == EditOp::Kind::kSelect) {
      *out += StrFormat("SELECT %zu %zu\n", op.chars.begin, op.chars.end);
    } else {
      *out += StrFormat("APPLY %u ", op.hierarchy);
      *out += op.tag;
      out->push_back('\n');
    }
  }
}

/// Parses SELECT/APPLY (and, when `commit` is non-null, COMMIT) lines
/// into `*ops`. A null `commit` (EOP body) rejects COMMIT lines.
Status ParseOpLines(std::string_view body, std::vector<EditOp>* ops,
                    bool* commit) {
  while (!body.empty()) {
    std::string_view rest;
    std::string_view op_line = CommandLine(body, &rest);
    body = rest;
    if (commit != nullptr && *commit && !op_line.empty()) {
      return Malformed("EDIT op after COMMIT", op_line);
    }
    if (op_line.empty()) continue;  // tolerate a trailing newline
    std::vector<std::string_view> op = Tokens(op_line);
    if (op[0] == "COMMIT") {
      if (commit == nullptr) {
        return Malformed("COMMIT inside an EOP frame (use ECOMMIT)",
                         op_line);
      }
      if (op.size() != 1) return Malformed("COMMIT line", op_line);
      *commit = true;
    } else if (op[0] == "SELECT") {
      uint64_t begin = 0;
      uint64_t end = 0;
      if (op.size() != 3 || !ParseU64(op[1], &begin) ||
          !ParseU64(op[2], &end)) {
        return Malformed("SELECT line", op_line);
      }
      ops->push_back(EditOp::Select(begin, end));
    } else if (op[0] == "APPLY") {
      uint64_t hierarchy = 0;
      if (op.size() != 3 || !ParseU64(op[1], &hierarchy)) {
        return Malformed("APPLY line", op_line);
      }
      CXML_RETURN_IF_ERROR(ValidateToken(op[2], "APPLY tag"));
      ops->push_back(EditOp::Apply(static_cast<cmh::HierarchyId>(hierarchy),
                                   std::string(op[2])));
    } else {
      return Malformed("edit op", op_line);
    }
  }
  return Status::Ok();
}

}  // namespace

const char* VerbToString(Verb verb) {
  switch (verb) {
    case Verb::kQuery:
      return "QUERY";
    case Verb::kQueryPrepare:
      return "QPREPARE";
    case Verb::kQueryRun:
      return "QRUN";
    case Verb::kEdit:
      return "EDIT";
    case Verb::kEditBegin:
      return "EBEGIN";
    case Verb::kEditOp:
      return "EOP";
    case Verb::kEditCommit:
      return "ECOMMIT";
    case Verb::kEditAbort:
      return "EABORT";
    case Verb::kRegister:
      return "REGISTER";
    case Verb::kImport:
      return "IMPORT";
    case Verb::kRemove:
      return "REMOVE";
    case Verb::kCollectionQuery:
      return "QCOLL";
    case Verb::kList:
      return "LIST";
    case Verb::kStat:
      return "STAT";
    case Verb::kMetrics:
      return "METRICS";
    case Verb::kTrace:
      return "TRACE";
    case Verb::kPing:
      return "PING";
    case Verb::kSync:
      return "SYNC";
    case Verb::kPromote:
      return "PROMOTE";
    case Verb::kFault:
      return "FAULT";
  }
  return "PING";
}

Status ValidateDocumentName(std::string_view name) {
  return ValidateToken(name, "document name");
}

Status ValidateCollectionPattern(std::string_view pattern) {
  return ValidateToken(pattern, "collection pattern");
}

Status ValidateEditOps(const std::vector<EditOp>& ops) {
  for (const EditOp& op : ops) {
    if (op.kind == EditOp::Kind::kApply) {
      CXML_RETURN_IF_ERROR(ValidateToken(op.tag, "APPLY tag"));
    }
  }
  return Status::Ok();
}

std::string RenderRequest(const Request& request) {
  switch (request.verb) {
    case Verb::kQuery:
      return StrCat("QUERY ", request.document, " ",
                    request.kind == service::QueryKind::kXQuery ? "XQUERY"
                                                                : "XPATH",
                    "\n", request.body);
    case Verb::kQueryPrepare:
      return StrCat("QPREPARE ",
                    request.kind == service::QueryKind::kXQuery ? "XQUERY"
                                                                : "XPATH",
                    "\n", request.body);
    case Verb::kQueryRun:
      return StrCat("QRUN ", request.document, " ",
                    StrFormat("%llu",
                              static_cast<unsigned long long>(request.qid)));
    case Verb::kRegister:
      return StrCat("REGISTER ", request.document, "\n", request.body);
    case Verb::kImport:
      return StrCat("IMPORT ", request.document, " ", request.format, "\n",
                    request.body);
    case Verb::kRemove:
      return StrCat("REMOVE ", request.document);
    case Verb::kCollectionQuery:
      return StrCat("QCOLL ", request.pattern, " ",
                    StrFormat("%llu",
                              static_cast<unsigned long long>(request.qid)));
    case Verb::kList:
      return "LIST";
    case Verb::kStat:
      return "STAT";
    case Verb::kMetrics:
      return "METRICS";
    case Verb::kTrace:
      return StrFormat("TRACE %llu",
                       static_cast<unsigned long long>(request.count));
    case Verb::kSync:
      return StrCat(
          "SYNC ", request.document, " ",
          StrFormat("%llu",
                    static_cast<unsigned long long>(request.from_version)));
    case Verb::kPing:
      return "PING";
    case Verb::kPromote:
      return "PROMOTE";
    case Verb::kFault: {
      std::string out = StrCat("FAULT ", request.fault_action);
      if (!request.fault_point.empty()) {
        out += StrCat(" ", request.fault_point);
      }
      if (!request.fault_spec.empty()) {
        out += StrCat(" ", request.fault_spec);
      }
      return out;
    }
    case Verb::kEditBegin:
      return StrCat("EBEGIN ", request.document);
    case Verb::kEditCommit:
      return "ECOMMIT";
    case Verb::kEditAbort:
      return "EABORT";
    case Verb::kEdit: {
      std::string out = StrCat("EDIT ", request.document, "\n");
      AppendOpLines(&out, request.ops);
      out += "COMMIT";
      return out;
    }
    case Verb::kEditOp: {
      std::string out = "EOP\n";
      AppendOpLines(&out, request.ops);
      // Drop the final '\n' so an empty-tolerant parser sees no blank.
      if (!request.ops.empty()) out.pop_back();
      return out;
    }
  }
  return "PING";
}

Result<Request> ParseRequest(std::string_view payload) {
  std::string_view body;
  std::string_view line = CommandLine(payload, &body);
  std::vector<std::string_view> tokens = Tokens(line);
  if (tokens.empty() || tokens[0].empty()) {
    return Malformed("command line", line);
  }
  std::string_view verb = tokens[0];
  Request request;

  if (verb == "PING" || verb == "LIST" || verb == "STAT" ||
      verb == "METRICS" || verb == "ECOMMIT" || verb == "EABORT" ||
      verb == "PROMOTE") {
    if (tokens.size() != 1) return Malformed("command line", line);
    request.verb = verb == "PING"      ? Verb::kPing
                   : verb == "LIST"    ? Verb::kList
                   : verb == "STAT"    ? Verb::kStat
                   : verb == "METRICS" ? Verb::kMetrics
                   : verb == "ECOMMIT" ? Verb::kEditCommit
                   : verb == "PROMOTE" ? Verb::kPromote
                                       : Verb::kEditAbort;
    return request;
  }
  if (verb == "FAULT") {
    request.verb = Verb::kFault;
    if (tokens.size() < 2) return Malformed("FAULT command line", line);
    request.fault_action = std::string(tokens[1]);
    if (request.fault_action == "LIST" || request.fault_action == "CLEAR") {
      if (tokens.size() != 2) return Malformed("FAULT command line", line);
      return request;
    }
    if (request.fault_action == "SEED") {
      uint64_t seed = 0;
      if (tokens.size() != 3 || !ParseU64(tokens[2], &seed)) {
        return Malformed("FAULT SEED line", line);
      }
      request.fault_spec = std::string(tokens[2]);
      return request;
    }
    if (request.fault_action == "DISARM") {
      if (tokens.size() != 3) return Malformed("FAULT DISARM line", line);
      CXML_RETURN_IF_ERROR(ValidateToken(tokens[2], "fault point"));
      request.fault_point = std::string(tokens[2]);
      return request;
    }
    if (request.fault_action == "ARM") {
      if (tokens.size() != 4) return Malformed("FAULT ARM line", line);
      CXML_RETURN_IF_ERROR(ValidateToken(tokens[2], "fault point"));
      CXML_RETURN_IF_ERROR(ValidateToken(tokens[3], "fault spec"));
      request.fault_point = std::string(tokens[2]);
      request.fault_spec = std::string(tokens[3]);
      return request;
    }
    return Malformed("FAULT action", tokens[1]);
  }
  if (verb == "TRACE") {
    if (tokens.size() != 2) return Malformed("TRACE command line", line);
    request.verb = Verb::kTrace;
    if (!ParseU64(tokens[1], &request.count) || request.count == 0) {
      return Malformed("TRACE count", tokens[1]);
    }
    return request;
  }
  if (verb == "REMOVE" || verb == "REGISTER" || verb == "EBEGIN") {
    if (tokens.size() != 2) return Malformed("command line", line);
    request.verb = verb == "REMOVE"   ? Verb::kRemove
                   : verb == "EBEGIN" ? Verb::kEditBegin
                                      : Verb::kRegister;
    request.document = std::string(tokens[1]);
    CXML_RETURN_IF_ERROR(ValidateDocumentName(request.document));
    if (request.verb == Verb::kRegister) {
      request.body = std::string(body);
    }
    return request;
  }
  if (verb == "EOP") {
    if (tokens.size() != 1) return Malformed("EOP command line", line);
    request.verb = Verb::kEditOp;
    CXML_RETURN_IF_ERROR(ParseOpLines(body, &request.ops,
                                      /*commit=*/nullptr));
    if (request.ops.empty()) {
      return status::ParseError("EOP carries no operations");
    }
    return request;
  }
  if (verb == "QPREPARE") {
    if (tokens.size() != 2) return Malformed("QPREPARE command line", line);
    request.verb = Verb::kQueryPrepare;
    if (tokens[1] == "XPATH") {
      request.kind = service::QueryKind::kXPath;
    } else if (tokens[1] == "XQUERY") {
      request.kind = service::QueryKind::kXQuery;
    } else {
      return Malformed("QPREPARE kind", tokens[1]);
    }
    if (body.empty()) {
      return status::ParseError("QPREPARE carries no expression body");
    }
    request.body = std::string(body);
    return request;
  }
  if (verb == "SYNC") {
    if (tokens.size() != 3) return Malformed("SYNC command line", line);
    request.verb = Verb::kSync;
    request.document = std::string(tokens[1]);
    CXML_RETURN_IF_ERROR(ValidateDocumentName(request.document));
    if (!ParseU64(tokens[2], &request.from_version)) {
      return Malformed("SYNC from_version", tokens[2]);
    }
    return request;
  }
  if (verb == "IMPORT") {
    if (tokens.size() != 3) return Malformed("IMPORT command line", line);
    request.verb = Verb::kImport;
    request.document = std::string(tokens[1]);
    CXML_RETURN_IF_ERROR(ValidateDocumentName(request.document));
    CXML_RETURN_IF_ERROR(ValidateToken(tokens[2], "IMPORT format"));
    request.format = std::string(tokens[2]);
    if (body.empty()) {
      return status::ParseError("IMPORT carries no markup body");
    }
    request.body = std::string(body);
    return request;
  }
  if (verb == "QCOLL") {
    if (tokens.size() != 3) return Malformed("QCOLL command line", line);
    request.verb = Verb::kCollectionQuery;
    request.pattern = std::string(tokens[1]);
    CXML_RETURN_IF_ERROR(ValidateCollectionPattern(request.pattern));
    if (!ParseU64(tokens[2], &request.qid)) {
      return Malformed("QCOLL id", tokens[2]);
    }
    return request;
  }
  if (verb == "QRUN") {
    if (tokens.size() != 3) return Malformed("QRUN command line", line);
    request.verb = Verb::kQueryRun;
    request.document = std::string(tokens[1]);
    CXML_RETURN_IF_ERROR(ValidateDocumentName(request.document));
    if (!ParseU64(tokens[2], &request.qid)) {
      return Malformed("QRUN id", tokens[2]);
    }
    return request;
  }
  if (verb == "QUERY") {
    if (tokens.size() != 3) return Malformed("QUERY command line", line);
    request.verb = Verb::kQuery;
    request.document = std::string(tokens[1]);
    CXML_RETURN_IF_ERROR(ValidateDocumentName(request.document));
    if (tokens[2] == "XPATH") {
      request.kind = service::QueryKind::kXPath;
    } else if (tokens[2] == "XQUERY") {
      request.kind = service::QueryKind::kXQuery;
    } else {
      return Malformed("QUERY kind", tokens[2]);
    }
    if (body.empty()) {
      return status::ParseError("QUERY carries no expression body");
    }
    request.body = std::string(body);
    return request;
  }
  if (verb == "EDIT") {
    if (tokens.size() != 2) return Malformed("EDIT command line", line);
    request.verb = Verb::kEdit;
    request.document = std::string(tokens[1]);
    CXML_RETURN_IF_ERROR(ValidateDocumentName(request.document));
    bool committed = false;
    CXML_RETURN_IF_ERROR(ParseOpLines(body, &request.ops, &committed));
    if (!committed) {
      return status::ParseError("EDIT body must end with a COMMIT line");
    }
    if (request.ops.empty()) {
      return status::ParseError("EDIT commits no operations");
    }
    return request;
  }
  return Malformed("CXP/1 verb", verb);
}

std::string RenderOps(const std::vector<EditOp>& ops) {
  std::string out;
  AppendOpLines(&out, ops);
  return out;
}

Result<std::vector<EditOp>> ParseOps(std::string_view body) {
  std::vector<EditOp> ops;
  CXML_RETURN_IF_ERROR(ParseOpLines(body, &ops, /*commit=*/nullptr));
  return ops;
}

std::string RenderItems(const std::vector<std::string>& items,
                        uint64_t version, bool cache_hit) {
  // Sized once for the worst case, then written in place: each length
  // prefix is one to_chars, each item one memcpy (a per-item StrFormat
  // used to cost more than the copy of a large cached answer).
  constexpr size_t kU64Digits = 20;
  size_t bound = 3 * kU64Digits + 6;  // "OK <n> <version> <hit>\n"
  for (const std::string& item : items) bound += kU64Digits + 2 + item.size();
  std::string out(bound, '\0');
  char* p = out.data();
  char* const end = p + bound;
  std::memcpy(p, "OK ", 3);
  p = std::to_chars(p + 3, end, items.size()).ptr;
  *p++ = ' ';
  p = std::to_chars(p, end, version).ptr;
  *p++ = ' ';
  *p++ = cache_hit ? '1' : '0';
  *p++ = '\n';
  for (const std::string& item : items) {
    p = std::to_chars(p, end, item.size()).ptr;
    *p++ = ' ';
    std::memcpy(p, item.data(), item.size());
    p += item.size();
    *p++ = '\n';
  }
  out.resize(static_cast<size_t>(p - out.data()));
  return out;
}

std::string RenderVersion(uint64_t version) {
  return StrFormat("OK 0 %llu 0\n",
                   static_cast<unsigned long long>(version));
}

std::string RenderOk() { return "OK 0 0 0\n"; }

std::string RenderError(const Status& status) {
  std::string message = status.ok() ? std::string("unspecified")
                                    : status.message();
  // The ERR line is the whole payload: newlines inside the message
  // would read as garbage items on a naive peer.
  for (char& c : message) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return StrCat("ERR ", StatusCodeToString(status.ok()
                                               ? StatusCode::kInternal
                                               : status.code()),
                " ", message);
}

Result<Response> ParseResponse(std::string_view payload) {
  std::string_view body;
  std::string_view line = CommandLine(payload, &body);
  if (StartsWith(line, "ERR ")) {
    std::string_view rest = line.substr(4);
    size_t space = rest.find(' ');
    std::string_view code = space == std::string_view::npos
                                ? rest
                                : rest.substr(0, space);
    std::string_view message = space == std::string_view::npos
                                   ? std::string_view()
                                   : rest.substr(space + 1);
    Response response;
    response.status = Status(StatusCodeFromString(code),
                             std::string(message));
    if (response.status.ok()) {
      return Malformed("ERR response", line);
    }
    return response;
  }
  std::vector<std::string_view> tokens = Tokens(line);
  uint64_t count = 0;
  uint64_t version = 0;
  uint64_t hit = 0;
  if (tokens.size() != 4 || tokens[0] != "OK" ||
      !ParseU64(tokens[1], &count) || !ParseU64(tokens[2], &version) ||
      !ParseU64(tokens[3], &hit) || hit > 1) {
    return Malformed("response status line", line);
  }
  Response response;
  response.version = version;
  response.cache_hit = hit == 1;
  // Every item costs at least "0 \n" = 3 body bytes, so a count beyond
  // the body size is a lie — reject it before reserve() turns a
  // hostile status line into a giant allocation.
  if (count > body.size()) {
    return Malformed("response item count", line);
  }
  response.items.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    size_t space = body.find(' ');
    uint64_t length = 0;
    if (space == std::string_view::npos ||
        !ParseU64(body.substr(0, space), &length)) {
      return Malformed("response item header", body.substr(0, 32));
    }
    body.remove_prefix(space + 1);
    if (body.size() < length + 1 || body[length] != '\n') {
      return status::ParseError(
          StrFormat("response item %llu truncated",
                    static_cast<unsigned long long>(i)));
    }
    response.items.emplace_back(body.substr(0, length));
    body.remove_prefix(length + 1);
  }
  if (!body.empty()) {
    return status::ParseError("trailing bytes after the last response item");
  }
  return response;
}

}  // namespace cxml::net
