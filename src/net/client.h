#ifndef CXML_NET_CLIENT_H_
#define CXML_NET_CLIENT_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "service/query_cache.h"

namespace cxml::net {

/// Degradation policy for Client: per-request deadlines, transparent
/// reconnect, and bounded exponential-backoff retry. Retries apply
/// ONLY to idempotent verbs (QUERY/QRUN/QCOLL/LIST/STAT/SYNC, plus
/// PING/METRICS/TRACE) — a write (EDIT/ECOMMIT/REGISTER/IMPORT/...) whose
/// connection dies mid-call has an unknown outcome and must surface
/// the error instead of risking a double-apply. A reconnect before
/// anything is sent is safe for every verb and happens for all.
struct RetryPolicy {
  /// Total tries per Call: the first attempt plus retries. 1 disables
  /// retry entirely.
  int max_attempts = 4;
  /// Backoff before retry k is min(base << k, max) milliseconds, with
  /// uniform jitter in [delay/2, delay] so a fleet of retrying clients
  /// doesn't stampede in lockstep. A server shed response's
  /// retry_after_ms hint raises the floor of the computed delay.
  int backoff_base_ms = 10;
  int backoff_max_ms = 500;
  /// Per-attempt deadline on socket sends and receives (SO_SNDTIMEO /
  /// SO_RCVTIMEO); an attempt that exceeds it fails with
  /// kDeadlineExceeded and the connection closes (the response may
  /// still be in flight — the stream is no longer aligned). 0 = none.
  int deadline_ms = 0;
  /// Jitter RNG seed, so chaos tests replay deterministically.
  uint64_t seed = 1;
};

/// Blocking CXP/1 client: one TCP connection, one outstanding request
/// at a time (Call writes a frame, then reads until the matching
/// response frame). Not thread-safe — give each thread its own Client,
/// as the load generator does. A transport or framing failure is
/// terminal for the underlying connection, but Call reconnects and
/// retries per RetryPolicy (idempotent verbs only), counting
/// cxml_retry_* on the global metrics registry.
class Client {
 public:
  static Result<Client> Connect(const std::string& host, uint16_t port,
                                RetryPolicy policy = RetryPolicy());

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_.valid(); }
  /// Successful retried attempts + reconnects this client performed —
  /// the local view of the cxml_retry_* counters.
  uint64_t retries() const { return retries_; }

  /// Round trip with the policy applied: reconnects a dead connection
  /// before sending (safe for every verb — nothing is in flight), then
  /// retries transport failures, deadline hits, and ERR Unavailable
  /// shed responses with jittered backoff — idempotent verbs only.
  /// The Result is transport-level; an ERR frame from the server
  /// arrives as an ok() Result whose Response carries the non-OK
  /// Status.
  Result<Response> Call(const Request& request);

  /// Convenience wrappers folding the two error layers into one.
  Result<Response> Query(const std::string& document,
                         const std::string& expression,
                         service::QueryKind kind);
  /// Compiles an expression server-side (QPREPARE) and returns its
  /// prepared-query id. The id is bound to this connection and dies
  /// with it; Run executes it against any document without re-sending
  /// the expression bytes.
  Result<uint64_t> Prepare(service::QueryKind kind,
                           const std::string& expression);
  /// Executes a prepared query (QRUN) — a QUERY-shaped response.
  /// Unknown ids come back as the server's ERR NotFound.
  Result<Response> Run(const std::string& document, uint64_t qid);
  /// Uploads CXG1 snapshot bytes; returns the registered version (1).
  Result<uint64_t> Register(const std::string& document,
                            std::string snapshot_bytes);
  /// Uploads external markup (IMPORT): the server parses `payload` as
  /// `format` ("xml" | "tei" | "html") into a multi-hierarchy GODDAG
  /// and registers it as `document`, returning the version (1). A
  /// rejected parse surfaces as the server's ERR InvalidArgument with
  /// nothing registered. Not idempotent (it publishes a version), so
  /// never auto-retried mid-call.
  Result<uint64_t> Import(const std::string& document,
                          const std::string& format, std::string payload);
  /// Runs a prepared query over every document matching the glob
  /// `pattern` (QCOLL): one item per result, `<document>\t`-prefixed,
  /// merged in (document, rank) order; the matched-document count
  /// rides in the version slot and cache_hit=false flags a truncated
  /// collection.
  Result<Response> CollectionRun(const std::string& pattern, uint64_t qid);
  Status Remove(const std::string& document);
  /// Applies `ops` in one server-side transaction and commits; returns
  /// the published version. A conflicting commit returns the server's
  /// FailedPrecondition.
  Result<uint64_t> Edit(const std::string& document,
                        std::vector<EditOp> ops);
  /// Cross-frame transaction: Begin clones server-side state bound to
  /// this connection (returns the base version), EditOps applies ops
  /// to it, EditCommit publishes (FailedPrecondition on conflict) and
  /// EditAbort discards. Disconnecting aborts implicitly.
  Result<uint64_t> EditBegin(const std::string& document);
  Status EditOps(std::vector<EditOp> ops);
  Result<uint64_t> EditCommit();
  Status EditAbort();
  /// Replication tail (SYNC): encoded WAL records for `document` with
  /// version > from_version — one response item each — plus the
  /// primary's current version in the version slot. Zero items means
  /// nothing to ship yet: caught up, or the primary's log has not
  /// appended its newest publish. Requires a primary with a durability
  /// log attached.
  Result<Response> Sync(const std::string& document, uint64_t from_version);
  Result<std::vector<std::string>> List();
  /// "key value" lines of server/service/cache counters.
  Result<std::vector<std::string>> Stat();
  /// The server's full Prometheus-style text exposition (METRICS):
  /// every counter, gauge, and latency histogram in one blob.
  Result<std::string> Metrics();
  /// The newest `n` sampled request traces (TRACE), each a multi-line
  /// per-stage timing dump, newest first.
  Result<std::vector<std::string>> Traces(uint64_t n);
  Status Ping();
  /// Failover (PROMOTE): asks a read-only follower to become a
  /// writable primary; returns the version frontier it promoted at.
  /// Never auto-retried — promotion must stay an explicit decision.
  Result<uint64_t> Promote();
  /// Fault-injection admin (FAULT <action> [point [spec]]). LIST
  /// answers one item per armed point with the seed in the version
  /// slot; the mutating actions answer OK.
  Result<Response> Fault(const std::string& action,
                         const std::string& point = "",
                         const std::string& spec = "");

 private:
  Client(Fd fd, std::string host, uint16_t port, RetryPolicy policy)
      : fd_(std::move(fd)), host_(std::move(host)), port_(port),
        policy_(policy), rng_(policy.seed) {}

  /// One unretried round trip on the current connection; any failure
  /// closes the fd so the next Call reconnects.
  Result<Response> CallOnce(const Request& request);
  /// Re-establishes the connection (fresh socket, fresh frame decoder,
  /// deadlines re-applied).
  Status Reconnect();
  /// Sleeps the jittered backoff before retry `attempt`, honouring the
  /// server's retry_after_ms floor when one was given (0 = none).
  void Backoff(int attempt, int server_hint_ms);

  Fd fd_;
  std::string host_;
  uint16_t port_ = 0;
  RetryPolicy policy_;
  std::mt19937_64 rng_;
  uint64_t retries_ = 0;
  FrameDecoder decoder_;
};

}  // namespace cxml::net

#endif  // CXML_NET_CLIENT_H_
