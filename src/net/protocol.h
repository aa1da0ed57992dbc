#ifndef CXML_NET_PROTOCOL_H_
#define CXML_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cmh/hierarchy.h"
#include "common/interval.h"
#include "common/result.h"
#include "service/query_cache.h"

namespace cxml::net {

/// CXP/1 — the wire protocol of the document service. Each frame
/// payload (see frame.h) is one message. Requests put a text command
/// line first; everything after the first newline is the body, which
/// may be arbitrary bytes:
///
///   QUERY <doc> XPATH|XQUERY \n <expression>
///   QPREPARE XPATH|XQUERY \n <expression>
///   QRUN <doc> <qid>
///   EDIT <doc> \n (SELECT <begin> <end> | APPLY <hierarchy> <tag>)... COMMIT
///   EBEGIN <doc>
///   EOP \n (SELECT <begin> <end> | APPLY <hierarchy> <tag>)...
///   ECOMMIT
///   EABORT
///   REGISTER <doc> \n <CXG1 snapshot bytes>
///   IMPORT <doc> xml|tei|html \n <markup bytes>
///   REMOVE <doc>
///   QCOLL <pattern> <qid>
///   LIST
///   STAT
///   METRICS
///   TRACE <n>
///   PING
///   SYNC <doc> <from_version>
///   PROMOTE
///   FAULT LIST | FAULT CLEAR | FAULT SEED <n> |
///   FAULT ARM <point> <spec> | FAULT DISARM <point>
///
/// QPREPARE compiles the expression server-side once (parse + static
/// analysis, see service::QueryService::Prepare) and answers
/// `OK 0 <qid> 0` — the prepared-query id rides in the version slot.
/// QRUN then executes the handle against any document with a QUERY-
/// shaped response, without re-sending or re-parsing the expression.
/// Handle ids are per-connection (a QRUN with an unknown or another
/// connection's qid earns ERR NotFound) and die with it; the handles
/// themselves are deduplicated service-wide by canonical text, so many
/// connections preparing the same query share one compiled object.
///
/// EDIT op lines apply in order to one server-side EditTransaction;
/// the COMMIT line (required, last) publishes it — an optimistic
/// conflict comes back as an ERR FailedPrecondition frame, exactly as
/// the in-process API surfaces it. EBEGIN/EOP/ECOMMIT/EABORT are the
/// same transaction spread over frames: EBEGIN clones the current
/// snapshot into a transaction held in the connection's state machine
/// (answering with the base version), EOP frames apply ops to it, and
/// ECOMMIT publishes — so a commit that lands on another connection in
/// between surfaces the optimistic conflict to this one. At most one
/// open transaction per connection; closing the connection aborts it.
/// Responses share one shape:
///
///   OK <nitems> <version> <hit:0|1> \n (<len> <item bytes> \n)...
///   ERR <StatusCode> <message>
///
/// so REGISTER/EDIT answer with zero items and the published version,
/// LIST/STAT answer with one item per name / "key value" line, and
/// QUERY answers with the string-rendered result items (length-
/// prefixed: items may contain spaces and newlines).
///
/// METRICS answers with exactly one item: the service registry's full
/// Prometheus-style text exposition (obs::Registry::RenderText) —
/// every counter, gauge, and histogram STAT summarises, plus the
/// latency histograms STAT has no room for. TRACE <n> answers with one
/// item per retained request trace (newest first, at most n), each a
/// multi-line obs::Trace::Render dump of the request's timed stages.
///
/// SYNC is the replication verb: a follower asks for everything that
/// happened to <doc> after <from_version>. The response is
/// QUERY-shaped — one item per encoded WAL record (wal::EncodeRecord
/// bytes: length-prefixed, CRC-checked, strictly ascending versions,
/// all > from_version), with the primary's current version in the
/// version slot so a follower sent zero items (caught up, or level
/// with a log that has not appended the newest publish yet) still
/// learns its lag. Only logged versions ship; a follower that has
/// fallen behind the primary's retained tail receives one
/// full-snapshot record instead of history. Primaries answer SYNC
/// only when a durability log is attached (net::SyncSource);
/// otherwise it earns ERR Unimplemented.
///
/// PROMOTE is the failover verb: a read-only `--follow` replica stops
/// tailing its primary, seals the inherited log with a promotion
/// record, and starts accepting writes — answering with the version
/// frontier it promoted at (the max across documents). On a server
/// with no promotion hook (a born-primary) it earns
/// ERR FailedPrecondition.
///
/// FAULT is the fault-injection admin verb (see fault::Injector): LIST
/// answers one item per armed point, ARM/DISARM/CLEAR/SEED mutate the
/// schedule table. A server started without an injector answers
/// ERR Unimplemented.
///
/// IMPORT is the ingestion verb: the body is external markup (strict
/// XML, TEI with overlap conventions, or lenient HTML — see
/// ingest::Format) that the server parses into a multi-hierarchy
/// GODDAG and registers as <doc> at version 1, answering like
/// REGISTER. The body is size-capped (ServerOptions::max_import_bytes)
/// and a parse or convention error rejects the frame with
/// ERR InvalidArgument *without* registering anything. Like REGISTER
/// it requires allow_register and is refused on read-only replicas.
///
/// QCOLL is the collection-query verb: it runs a prepared handle (a
/// qid from QPREPARE on this connection, like QRUN) over every
/// document whose name matches <pattern> (glob: `*` any run, `?` one
/// character), fanning out across store shards on the query pool. The
/// response is QUERY-shaped with one item per result, each prefixed
/// `<document>\t`, merged in (document, rank) order; the number of
/// matched documents rides in the version slot. Results are capped
/// per collection (ServerOptions::max_collection_results) — a
/// truncated answer flips the hit flag to 0 and is cut in merge
/// order. No matching document earns ERR NotFound.

enum class Verb : uint8_t {
  kQuery,
  kQueryPrepare,
  kQueryRun,
  kEdit,
  kEditBegin,
  kEditOp,
  kEditCommit,
  kEditAbort,
  kRegister,
  kImport,
  kRemove,
  kCollectionQuery,
  kList,
  kStat,
  kMetrics,
  kTrace,
  kPing,
  kSync,
  kPromote,
  kFault,
};

const char* VerbToString(Verb verb);

/// One line of an EDIT body, mirroring edit::EditSession's
/// select-then-apply interaction model.
struct EditOp {
  enum class Kind : uint8_t { kSelect, kApply };
  Kind kind = Kind::kSelect;
  /// kSelect: the character range.
  Interval chars;
  /// kApply: the target hierarchy and tag.
  cmh::HierarchyId hierarchy = 0;
  std::string tag;

  static EditOp Select(size_t begin, size_t end) {
    EditOp op;
    op.kind = Kind::kSelect;
    op.chars = Interval(begin, end);
    return op;
  }
  static EditOp Apply(cmh::HierarchyId hierarchy, std::string tag) {
    EditOp op;
    op.kind = Kind::kApply;
    op.hierarchy = hierarchy;
    op.tag = std::move(tag);
    return op;
  }
};

/// A parsed request — the server's view of one frame, and the value
/// the client renders one from.
struct Request {
  Verb verb = Verb::kPing;
  /// QUERY / EDIT / REGISTER / REMOVE target.
  std::string document;
  /// QUERY / QPREPARE: how `body` is interpreted.
  service::QueryKind kind = service::QueryKind::kXPath;
  /// QUERY / QPREPARE: the expression; REGISTER: the CXG1 bytes;
  /// IMPORT: the external markup bytes.
  std::string body;
  /// IMPORT: the markup dialect token ("xml" | "tei" | "html").
  std::string format;
  /// QCOLL: the document-name glob pattern.
  std::string pattern;
  /// QRUN / QCOLL: the prepared-query id returned by QPREPARE.
  uint64_t qid = 0;
  /// TRACE: how many retained traces to return (newest first).
  uint64_t count = 0;
  /// SYNC: return records with version > from_version.
  uint64_t from_version = 0;
  /// EDIT / EOP: the op sequence (EDIT's trailing COMMIT is implicit
  /// in the struct form — rendering appends it, parsing requires it).
  std::vector<EditOp> ops;
  /// FAULT: the subcommand ("LIST", "CLEAR", "SEED", "ARM", "DISARM"),
  /// its target point, and the ARM spec / SEED value.
  std::string fault_action;
  std::string fault_point;
  std::string fault_spec;
};

/// A parsed response. `status` carries the application-level ERR (a
/// transport-intact frame whose command failed); the surrounding
/// Result is reserved for malformed payloads.
struct Response {
  Status status;
  std::vector<std::string> items;
  uint64_t version = 0;
  bool cache_hit = false;

  bool ok() const { return status.ok(); }
};

/// Document names travel unquoted on the command line: nonempty,
/// at most 256 bytes, no whitespace or control bytes.
Status ValidateDocumentName(std::string_view name);

/// QCOLL patterns travel under the same token rules (glob characters
/// `*` and `?` pass; whitespace and control bytes do not).
Status ValidateCollectionPattern(std::string_view pattern);

/// APPLY tags travel unquoted on an op line under the same rules — a
/// tag with embedded whitespace would change the line's arity, and a
/// newline would inject a whole op. Enforced when rendering (client)
/// and when parsing (server).
Status ValidateEditOps(const std::vector<EditOp>& ops);

std::string RenderRequest(const Request& request);
Result<Request> ParseRequest(std::string_view payload);

/// The op-line sub-grammar (`SELECT <begin> <end>` / `APPLY <h> <tag>`
/// lines, newline-separated, no COMMIT) on its own — the wire text is
/// also the WAL's replayable record payload, so durability and
/// replication re-parse exactly what the server parsed.
std::string RenderOps(const std::vector<EditOp>& ops);
Result<std::vector<EditOp>> ParseOps(std::string_view body);

/// Response renderers (server side).
std::string RenderItems(const std::vector<std::string>& items,
                        uint64_t version, bool cache_hit);
std::string RenderVersion(uint64_t version);
std::string RenderOk();
std::string RenderError(const Status& status);

/// Response parser (client side). Fails only on unparseable payloads;
/// an ERR frame parses into a Response carrying its Status.
Result<Response> ParseResponse(std::string_view payload);

}  // namespace cxml::net

#endif  // CXML_NET_PROTOCOL_H_
