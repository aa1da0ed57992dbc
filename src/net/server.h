#ifndef CXML_NET_SERVER_H_
#define CXML_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "fault/injector.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "net/sync.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/document_store.h"
#include "service/query_service.h"
#include "service/thread_pool.h"

namespace cxml::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port() after Start.
  uint16_t port = 0;
  /// Workers executing decoded requests. QUERY and QRUN evaluate on the
  /// worker itself; QCOLL fans out over the QueryService's pool and the
  /// writes wait on its writer lane, blocking their worker meanwhile. A
  /// QRUN the result cache answers never needs one (see Server).
  size_t num_workers = 4;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// When false, REGISTER/IMPORT/REMOVE answer ERR Unimplemented — a
  /// read-mostly edge exposed to untrusted clients should not accept
  /// document uploads.
  bool allow_register = true;
  /// Cap on an IMPORT frame's markup body. Parsing external markup is
  /// CPU-bound on a worker thread, so the cap bounds the work one
  /// frame can demand (the frame decoder's max_frame_bytes already
  /// bounds the bytes). Oversized imports earn ERR InvalidArgument.
  size_t max_import_bytes = 8 * 1024 * 1024;
  /// Per-collection cap on QCOLL result items summed across the
  /// matched documents; a collection answering more is cut off in
  /// (document, rank) order and flagged truncated (hit slot = 0).
  size_t max_collection_results = 4096;
  /// Cap on live QPREPARE handles per connection — a remote peer must
  /// not grow server memory without bound by preparing forever (the
  /// compiled objects are deduplicated service-wide, but the qid table
  /// itself is per-connection). Exceeding it earns ERR
  /// FailedPrecondition; 0 disables QPREPARE entirely.
  size_t max_prepared_per_conn = 1024;
  /// Per-connection read/idle deadline: a connection on which no bytes
  /// arrive, no response bytes drain, and no request is in flight for
  /// this long is closed (its open EBEGIN transaction aborts with it),
  /// so half-open peers and idle keepalives cannot pin fds forever —
  /// while a client waiting on a slow query is never reaped
  /// mid-request. 0 disables the deadline.
  int idle_timeout_ms = 0;
  /// Requests slower than this (end-to-end µs, measured from frame
  /// decode to response render) emit one structured slow-query log
  /// line with per-stage micros; 0 disables. Forwarded to the
  /// service's Tracer at Start().
  uint64_t slow_query_us = 0;
  /// When true, every mutating verb (EDIT, EBEGIN/EOP/ECOMMIT/EABORT,
  /// REGISTER, IMPORT, REMOVE) answers ERR FailedPrecondition. A replication
  /// follower serves reads this way so local writers cannot fork the
  /// replica's history away from the primary's.
  bool read_only = false;
  /// The durability log backing the SYNC verb, or nullptr — without
  /// one, SYNC answers ERR Unimplemented. Not owned; must outlive the
  /// server. Typically the primary's wal::WalManager.
  SyncSource* sync_source = nullptr;
  /// Load-shedding bounds on decoded-but-unserved requests. When a
  /// connection's own queue reaches max_queued_per_conn, or the
  /// server-wide total reaches max_queued_global, the new request is
  /// answered — in pipeline order, without being executed — with
  /// `ERR Unavailable ... retry_after_ms=<shed_retry_after_ms>`, so
  /// overload costs bounded memory and bounded queueing delay instead
  /// of unbounded latency. Idempotent clients honour the hint and
  /// retry (net::Client does); writers surface the error.
  size_t max_queued_per_conn = 64;
  size_t max_queued_global = 1024;
  /// The retry hint carried inside a shed response's message.
  int shed_retry_after_ms = 50;
  /// Failover hook: PROMOTE runs this on a worker thread (null on a
  /// born-primary, which answers ERR FailedPrecondition). On Ok the
  /// server flips read-only off and answers with the returned version
  /// frontier. Must tolerate being called more than once.
  std::function<Result<uint64_t>()> promote_handler;
  /// The FAULT admin verb's target, and the injector consulted by the
  /// server's own fault points (net.accept / net.read_drop /
  /// net.write_stall_ms). nullptr leaves every hook a dead branch and
  /// makes FAULT answer ERR Unimplemented. Not owned; must outlive
  /// the server.
  fault::Injector* injector = nullptr;
};

struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t frames_received = 0;
  uint64_t responses_sent = 0;
  /// Framing violations; each costs its connection.
  uint64_t protocol_errors = 0;
  /// Well-framed requests answered with an ERR payload.
  uint64_t request_errors = 0;
  /// Connections closed by the read/idle deadline.
  uint64_t idle_disconnects = 0;
  /// Requests answered ERR Unavailable without executing — refused
  /// admission under overload, or rejected unstarted during drain.
  uint64_t sheds = 0;
};

/// The CXP/1 network front-end: one poll(2) loop accepts, reads and
/// closes every socket (all non-blocking), and a ThreadPool executes
/// decoded requests against DocumentStore/QueryService.
///
/// Per connection the receive side is a FrameDecoder state machine;
/// decoded payloads queue per connection and at most one worker
/// serves a connection at a time (claiming its whole backlog), so
/// pipelined requests are
/// answered strictly in order while separate connections proceed in
/// parallel. The connection also carries protocol state across
/// frames: an EBEGIN'd EditTransaction lives on it until ECOMMIT /
/// EABORT / disconnect, which is what lets a remote editor observe an
/// optimistic conflict with a commit that landed in between. The
/// QPREPARE handle table (qid → service::QueryHandle) lives on the
/// connection the same way — bounded by
/// ServerOptions::max_prepared_per_conn, dropped on disconnect — so
/// QRUN frames execute compiled queries without ever re-sending or
/// re-parsing expression bytes (the handles themselves are immutable
/// and deduplicated service-wide, so concurrent QRUNs from many
/// connections share one compiled object).
///
/// Writes route through the service's per-document WritePipeline:
/// single-frame EDITs join the document's group commit (one clone +
/// one publish + one cache invalidation per batch), and ECOMMIT
/// queues the connection's cross-frame transaction behind the
/// document's pending writes — FIFO per document, with stale bases
/// still losing deterministically as ERR FailedPrecondition.
///
/// A QRUN decoded on a connection with no worker running and nothing
/// queued is looked up in the result cache by the poll thread itself
/// (QueryService::ExecuteCached); a hit is rendered and sent from
/// there, with no hand-off to a worker. Misses and every other verb go
/// to a worker. The poll thread never compiles, evaluates, waits on a
/// future or sleeps.
///
/// Responses go out through the connection's outbox. Whoever appends
/// to an empty outbox sends at once: a worker sends its own frame
/// under the connection's lock, the lock the poll thread closes the
/// socket under, and wakes the poll loop (self-pipe) only when the
/// socket would not take it all or the send failed; the poll loop
/// flushes the rest under POLLOUT. A malformed frame gets one ERR
/// frame and a close — framing is unrecoverable once the length
/// prefix is untrustworthy.
/// An optional read/idle deadline (ServerOptions::idle_timeout_ms)
/// closes connections that neither deliver bytes nor drain responses.
class Server {
 public:
  Server(service::DocumentStore* store, service::QueryService* service,
         ServerOptions options = ServerOptions());
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the poll thread + workers.
  Status Start();
  /// Graceful drain, then teardown. The listener stops accepting and
  /// reads stop, but the poll thread keeps flushing while workers
  /// finish the requests they already started — so an in-flight
  /// commit's ack still reaches its client — and answer every
  /// queued-unstarted request ERR Unavailable. Only then do sockets
  /// close and threads join. Idempotent; wired to SIGTERM in
  /// cxml_serverd.
  void Stop();

  bool running() const { return running_.load(); }
  /// The bound port (after Start); useful with options.port == 0.
  uint16_t port() const { return port_; }
  ServerStats stats() const;

 private:
  struct Conn;

  void PollLoop();
  /// Poll-thread helpers. AcceptNew returns false when accept() failed
  /// hard (fd exhaustion) and the poll loop should back off briefly.
  bool AcceptNew();
  /// Closes connections whose read/idle deadline expired; returns the
  /// poll timeout (ms) until the next deadline, or -1 when the
  /// deadline is disabled or no connection is open.
  int SweepIdle();
  void ReadFrom(const std::shared_ptr<Conn>& conn);
  void FlushTo(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  /// Worker entry: drains `conn`'s request queue, one frame at a time.
  void ServeConnection(std::shared_ptr<Conn> conn);
  /// Worker side of the outbox: appends one response frame and, when
  /// the outbox was empty, sends it; wakes the poll loop only for what
  /// the socket would not take, or after a failed send. Returns whether
  /// more requests wait; when none do, the worker is done with `conn`.
  bool Respond(Conn* conn, std::string_view response);
  /// Poll thread: answers `payload` from the result cache when it is a
  /// QRUN hit next in line on `conn`, appending the response to the
  /// outbox; false (nothing counted, nothing traced) sends it to a
  /// worker as usual.
  bool AnswerFromCache(Conn* conn, std::string_view payload);
  /// Wakes the poll loop (self-pipe write; callable from any thread).
  void Wake();

  /// Request execution (worker threads; `conn` carries the open
  /// edit transaction, touched only by the connection's one worker).
  /// `trace` (possibly null) is this request's trace: HandleRequest
  /// adds the decode stage and the label, the query paths hang
  /// service/respond stages under it.
  std::string HandleRequest(Conn* conn, std::string_view payload,
                            const obs::TracePtr& trace);
  Result<std::string> Dispatch(Conn* conn, const Request& request,
                               const obs::TracePtr& trace);
  Result<std::string> DoQuery(const Request& request,
                              const obs::TracePtr& trace);
  Result<std::string> DoQueryPrepare(Conn* conn, const Request& request);
  Result<std::string> DoQueryRun(Conn* conn, const Request& request,
                                 const obs::TracePtr& trace);
  /// Shared QUERY/QRUN tail: service + respond trace stages around the
  /// prepared-handle execution.
  Result<std::string> RunPrepared(const std::string& document,
                                  const service::QueryHandle& handle,
                                  const obs::TracePtr& trace);
  Result<std::string> DoImport(const Request& request);
  Result<std::string> DoCollectionQuery(Conn* conn, const Request& request,
                                        const obs::TracePtr& trace);
  Result<std::string> DoEdit(const Request& request);
  Result<std::string> DoEditBegin(Conn* conn, const Request& request);
  Result<std::string> DoEditOp(Conn* conn, const Request& request);
  Result<std::string> DoEditCommit(Conn* conn);
  Result<std::string> DoEditAbort(Conn* conn);
  Result<std::string> DoStat();
  Result<std::string> DoMetrics();
  Result<std::string> DoTrace(const Request& request);
  Result<std::string> DoSync(const Request& request);
  Result<std::string> DoPromote();
  Result<std::string> DoFault(const Request& request);

  service::DocumentStore* store_;
  service::QueryService* service_;
  ServerOptions options_;

  Fd listener_;
  Fd wake_read_;
  Fd wake_write_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  /// Set first during Stop(): no new accepts or reads, but the poll
  /// thread keeps flushing until in-flight work has answered.
  std::atomic<bool> draining_{false};
  /// Mutable mirror of options_.read_only — PROMOTE flips it off at
  /// runtime, which is what turns a follower into a writable primary.
  std::atomic<bool> read_only_{false};
  /// Decoded requests admitted but not yet served, across all
  /// connections (shed markers excluded) — the global shed bound.
  std::atomic<size_t> queued_total_{0};
  std::thread poll_thread_;

  mutable std::mutex mu_;
  std::map<int, std::shared_ptr<Conn>> conns_;

  /// Front-end tallies on the service's registry (fetched once in the
  /// constructor), so METRICS exposes them next to the service's own
  /// and stats()/STAT read the same numbers.
  obs::Counter* connections_accepted_ = nullptr;
  obs::Counter* frames_received_ = nullptr;
  obs::Counter* responses_sent_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Counter* request_errors_ = nullptr;
  obs::Counter* idle_disconnects_ = nullptr;
  obs::Counter* shed_total_ = nullptr;
  /// Ingestion tallies: IMPORT frames that registered a document vs
  /// rejected their markup, and the parse-to-GODDAG latency.
  obs::Counter* imports_total_ = nullptr;
  obs::Counter* import_errors_ = nullptr;
  obs::Histogram* import_us_ = nullptr;
  /// Currently open connections (accepted − closed).
  obs::Gauge* open_conns_ = nullptr;
  /// End-to-end request latency as the server sees it: decode →
  /// response rendered (socket write time excluded).
  obs::Histogram* request_us_ = nullptr;
  /// Responses the poll thread answered from the result cache itself.
  obs::Counter* inline_responses_ = nullptr;

  /// Declared last so workers stop before the state above dies.
  std::unique_ptr<service::ThreadPool> workers_;
};

}  // namespace cxml::net

#endif  // CXML_NET_SERVER_H_
