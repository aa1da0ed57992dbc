#include "net/server.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "ingest/ingest.h"
#include "service/collection_query.h"
#include "storage/binary.h"

namespace cxml::net {

namespace {

/// A pipeline write's wire answer: the published version once the
/// write is acked (durable, on a WAL-armed server), its error
/// otherwise.
Result<std::string> AwaitWrite(std::future<service::EditResponse> write) {
  service::EditResponse response = write.get();
  if (!response.ok()) return response.status;
  return RenderVersion(response.version);
}

/// A QRUN's trace label: the canonical hash is the result-cache
/// identity and the join key against the slow-query log.
std::string QueryRunLabel(const Request& request,
                          const service::PreparedQuery& query) {
  return StrFormat("QRUN %s qid=%llu hash=%016llx", request.document.c_str(),
                   static_cast<unsigned long long>(request.qid),
                   static_cast<unsigned long long>(query.canonical_hash));
}

}  // namespace

/// Per-connection state. The FrameDecoder and the read side belong to
/// the poll thread alone. `mu` guards the request queue and the outbox,
/// the seams shared with worker threads, and the socket's life: a
/// worker sends on `fd` only under `mu` and while not `dead`, and the
/// poll thread (the socket's only closer) closes it only under `mu`.
struct Server::Conn {
  Conn(Fd socket, size_t max_frame_bytes)
      : fd(std::move(socket)), fd_number(fd.get()),
        decoder(max_frame_bytes) {}

  Fd fd;
  /// Survives fd.Close() so the conns_ map entry can still be erased.
  const int fd_number;
  FrameDecoder decoder;
  /// Last moment bytes arrived or response bytes drained — the
  /// read/idle deadline's clock. Poll-thread only (accept, read, and
  /// flush all happen there), so it needs no lock.
  std::chrono::steady_clock::time_point last_activity =
      std::chrono::steady_clock::now();

  /// One decoded request awaiting a worker. `shed` marks a request
  /// refused admission under overload at enqueue time: its payload is
  /// dropped and the worker answers ERR Unavailable in pipeline order
  /// without parsing or executing anything.
  struct Pending {
    std::string payload;
    bool shed = false;
  };

  std::mutex mu;
  /// Decoded request payloads awaiting a worker (FIFO per connection:
  /// pipelined requests are answered in order).
  std::deque<Pending> requests;
  /// At most one worker drains `requests` at a time. Set by the poll
  /// thread when it starts one; cleared under `mu` by that worker in the
  /// same critical section in which it finds the queue empty.
  bool worker_active = false;
  /// When a worker last finished a request (under `mu`). The idle sweep
  /// folds it into `last_activity`, so the deadline clock restarts when
  /// in-flight work completes, even when the worker sent the response
  /// itself and the poll thread saw nothing of it.
  std::chrono::steady_clock::time_point completed_at{};
  /// Rendered response frames not yet taken by the socket, from
  /// `out_offset` on. Whoever finds it empty sends what it appends;
  /// bytes left over are flushed by the poll thread under POLLOUT.
  std::string outbox;
  size_t out_offset = 0;
  /// Set after a framing violation: one ERR frame goes out, then the
  /// connection closes once the outbox drains.
  bool close_after_flush = false;
  /// The poll thread dropped the connection; workers discard output.
  bool dead = false;

  /// The EBEGIN'd transaction, if any — cross-frame protocol state.
  /// Only the connection's one active worker touches it, while
  /// `worker_active` is set (requests are served strictly in order), so
  /// it needs no lock; dropping the connection discards it, which
  /// aborts the edit.
  std::unique_ptr<service::EditTransaction> txn;
  /// Every op the open transaction applied successfully, across EOP
  /// frames, in order. ECOMMIT renders them into the commit's WAL
  /// op-set so a cross-frame edit replays like a single-frame EDIT.
  /// Same single-worker discipline (and no lock) as `txn`.
  std::vector<EditOp> txn_ops;

  /// The QPREPARE handle table: qid → prepared query. The active worker
  /// reads and writes it as it does `txn`. The poll thread also reads
  /// it, to answer a cached QRUN, but only after seeing under `mu` that
  /// no worker is active and nothing is queued; only the poll thread
  /// starts a worker, so none can start while it reads. Dropped with
  /// the connection; bounded by ServerOptions::max_prepared_per_conn.
  std::map<uint64_t, service::QueryHandle> prepared;
  uint64_t next_qid = 1;

  /// Response bytes still waiting for the socket. Reads `fd` under
  /// `mu`, so it is safe off the poll thread (Stop's drain loop).
  bool HasOutput() {
    std::lock_guard<std::mutex> lock(mu);
    return fd.valid() && out_offset < outbox.size();
  }

  /// Sends the outbox until it drains or the socket would block; the
  /// caller holds `mu` and has checked `dead`. Returns false when the
  /// peer is gone; `*progress`, if given, is set when any byte went out.
  bool SendOutbox(bool* progress = nullptr) {
    while (out_offset < outbox.size()) {
      ssize_t n = send(fd.get(), outbox.data() + out_offset,
                       outbox.size() - out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        out_offset += static_cast<size_t>(n);
        if (progress != nullptr) *progress = true;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;  // peer vanished mid-response
    }
    if (out_offset == outbox.size()) {
      outbox.clear();
      out_offset = 0;
    } else if (out_offset > (1u << 20)) {
      // Keep a slow reader's backlog from pinning flushed bytes.
      outbox.erase(0, out_offset);
      out_offset = 0;
    }
    return true;
  }
};

Server::Server(service::DocumentStore* store,
               service::QueryService* service, ServerOptions options)
    : store_(store), service_(service), options_(std::move(options)) {
  obs::Registry* registry = service_->registry();
  connections_accepted_ =
      registry->GetCounter("cxml_server_connections_total");
  frames_received_ = registry->GetCounter("cxml_server_frames_total");
  responses_sent_ = registry->GetCounter("cxml_server_responses_total");
  protocol_errors_ =
      registry->GetCounter("cxml_server_protocol_errors_total");
  request_errors_ =
      registry->GetCounter("cxml_server_request_errors_total");
  idle_disconnects_ =
      registry->GetCounter("cxml_server_idle_disconnects_total");
  shed_total_ = registry->GetCounter("cxml_shed_total");
  imports_total_ = registry->GetCounter("cxml_ingest_imports_total");
  import_errors_ = registry->GetCounter("cxml_ingest_import_errors_total");
  import_us_ = registry->GetHistogram("cxml_ingest_import_us");
  open_conns_ = registry->GetGauge("cxml_server_open_conns");
  request_us_ = registry->GetHistogram("cxml_server_request_us");
  inline_responses_ = registry->GetCounter("cxml_server_inline_total");
  read_only_.store(options_.read_only);
  if (options_.slow_query_us > 0) {
    service_->tracer().set_slow_query_us(options_.slow_query_us);
  }
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load()) {
    return status::FailedPrecondition("server already started");
  }
  CXML_ASSIGN_OR_RETURN(
      listener_, ListenTcp(options_.bind_address, options_.port));
  CXML_RETURN_IF_ERROR(SetNonBlocking(listener_));
  CXML_ASSIGN_OR_RETURN(port_, LocalPort(listener_));

  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    listener_.Close();
    return status::Internal(StrCat("pipe: ", strerror(errno)));
  }
  wake_read_ = Fd(pipe_fds[0]);
  wake_write_ = Fd(pipe_fds[1]);
  CXML_RETURN_IF_ERROR(SetNonBlocking(wake_read_));
  CXML_RETURN_IF_ERROR(SetNonBlocking(wake_write_));

  workers_ = std::make_unique<service::ThreadPool>(options_.num_workers);
  stopping_.store(false);
  running_.store(true);
  poll_thread_ = std::thread([this] { PollLoop(); });
  return Status::Ok();
}

void Server::Stop() {
  if (!running_.exchange(false)) return;
  // Drain phase: the poll loop stops accepting and reading but keeps
  // flushing, so the acks of requests a worker already started still
  // reach their clients. Workers answer queued-unstarted requests
  // ERR Unavailable (they were never executed, so rejecting them
  // leaves no half-done state) and Shutdown() returns only when every
  // connection's queue is empty.
  draining_.store(true);
  Wake();
  if (workers_ != nullptr) workers_->Shutdown();
  // Give the still-running poll thread a bounded window to flush the
  // final responses before the sockets close under it.
  for (int i = 0; i < 200; ++i) {
    bool pending = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [fd, conn] : conns_) {
        if (conn->HasOutput()) {
          pending = true;
          break;
        }
      }
    }
    if (!pending) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stopping_.store(true);
  Wake();
  if (poll_thread_.joinable()) poll_thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [fd, conn] : conns_) {
    std::lock_guard<std::mutex> conn_lock(conn->mu);
    conn->dead = true;
    conn->fd.Close();
  }
  open_conns_->Add(-static_cast<int64_t>(conns_.size()));
  conns_.clear();
  listener_.Close();
  wake_read_.Close();
  wake_write_.Close();
}

void Server::Wake() {
  char byte = 'w';
  // Nonblocking: a full pipe already guarantees a pending wakeup.
  ssize_t ignored = write(wake_write_.get(), &byte, 1);
  (void)ignored;
}

void Server::PollLoop() {
  std::vector<struct pollfd> fds;
  std::vector<std::shared_ptr<Conn>> polled;
  // Set when accept() failed hard (EMFILE etc.): skip the listener for
  // one bounded-timeout round instead of busy-spinning on a level-
  // triggered POLLIN that accept can't clear.
  bool accept_backoff = false;
  while (!stopping_.load()) {
    // Drain mode (Stop() in progress): no accepts, no reads — only
    // flush what workers still produce, on a short fixed timeout.
    const bool draining = draining_.load();
    // Enforce the read/idle deadline first so expired connections are
    // gone before this round's pollfd set is built.
    int timeout = draining ? 20 : SweepIdle();
    if (accept_backoff) timeout = timeout < 0 ? 50 : std::min(timeout, 50);
    fds.clear();
    polled.clear();
    fds.push_back({listener_.get(),
                   static_cast<short>(accept_backoff || draining ? 0 : POLLIN),
                   0});
    fds.push_back({wake_read_.get(), POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [fd, conn] : conns_) {
        short events = 0;
        {
          std::lock_guard<std::mutex> conn_lock(conn->mu);
          if (!conn->close_after_flush && !draining) events |= POLLIN;
          if (conn->out_offset < conn->outbox.size()) events |= POLLOUT;
        }
        fds.push_back({fd, events, 0});
        polled.push_back(conn);
      }
    }

    int ready = poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; Stop() cleans up
    }
    if (stopping_.load()) break;

    if ((fds[1].revents & POLLIN) != 0) {
      char drain[256];
      while (read(wake_read_.get(), drain, sizeof(drain)) > 0) {
      }
    }
    accept_backoff = false;
    if (!draining && (fds[0].revents & POLLIN) != 0) {
      accept_backoff = !AcceptNew();
    }

    for (size_t i = 2; i < fds.size(); ++i) {
      const std::shared_ptr<Conn>& conn = polled[i - 2];
      short revents = fds[i].revents;
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        CloseConn(conn);
        continue;
      }
      if (!draining && (revents & (POLLIN | POLLHUP)) != 0) ReadFrom(conn);
      // Flushing every pending outbox here, not only on POLLOUT, sends
      // what ReadFrom answered from the cache and what a worker could
      // not send (it woke this loop) without another poll round.
      // HasOutput is false once ReadFrom closed the connection.
      if (conn->HasOutput()) FlushTo(conn);
    }
  }
}

int Server::SweepIdle() {
  if (options_.idle_timeout_ms <= 0) return -1;
  const auto deadline = std::chrono::milliseconds(options_.idle_timeout_ms);
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<Conn>> expired;
  int next_ms = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [fd, conn] : conns_) {
      bool busy;
      {
        std::lock_guard<std::mutex> conn_lock(conn->mu);
        // In-flight server-side work exempts the connection; a
        // pending *outbox* deliberately does not — FlushTo refreshes
        // the clock on real drain progress, so a peer that stops
        // reading its response still times out (slowloris guard).
        busy = conn->worker_active || !conn->requests.empty();
        // A request finished since the last sweep was activity, even
        // though the worker can't touch the poll-thread-owned clock.
        conn->last_activity =
            std::max(conn->last_activity, conn->completed_at);
      }
      if (busy) {
        // A client waiting on a slow in-flight request is not idle —
        // the deadline clock restarts when the work finishes. Nothing
        // need wake this loop then (a worker that sends its whole
        // response does not), so the next sweep comes within a
        // deadline of now.
        conn->last_activity = now;
      }
      auto idle = now - conn->last_activity;
      if (idle >= deadline) {
        expired.push_back(conn);
        continue;
      }
      int remaining = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - idle)
              .count()) +
          1;
      next_ms = next_ms < 0 ? remaining : std::min(next_ms, remaining);
    }
  }
  for (const std::shared_ptr<Conn>& conn : expired) {
    // Closing aborts any open EBEGIN transaction with the connection;
    // in-flight workers discard their output into the dead outbox.
    idle_disconnects_->Add();
    CloseConn(conn);
  }
  return next_ms;
}

bool Server::AcceptNew() {
  for (;;) {
    int fd = accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      // EMFILE/ENFILE and friends leave the pending connection queued,
      // so the listener stays readable — tell the poll loop to back
      // off instead of spinning.
      return false;
    }
    Fd socket(fd);
    if (fault::Injector::Check(options_.injector, "net.accept")) {
      continue;  // injected accept failure: RAII closes the new socket
    }
    if (!SetNonBlocking(socket).ok() || !SetNoDelay(socket).ok()) {
      continue;  // RAII closes the broken socket
    }
    auto conn =
        std::make_shared<Conn>(std::move(socket), options_.max_frame_bytes);
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns_.emplace(conn->fd_number, conn);
    }
    connections_accepted_->Add();
    open_conns_->Add();
  }
}

void Server::ReadFrom(const std::shared_ptr<Conn>& conn) {
  char buffer[64 * 1024];
  bool enqueued = false;
  bool close_now = false;
  for (;;) {
    ssize_t n = recv(conn->fd.get(), buffer, sizeof(buffer), 0);
    if (n == 0) {
      // Orderly EOF. Undelivered responses have no reader; drop the
      // connection (in-flight workers discard into the dead outbox).
      close_now = true;
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_now = true;
      break;
    }
    conn->last_activity = std::chrono::steady_clock::now();
    Status fed =
        conn->decoder.Feed(std::string_view(buffer, static_cast<size_t>(n)));
    std::string payload;
    while (conn->decoder.Next(&payload)) {
      frames_received_->Add();
      if (fault::Injector::Check(options_.injector, "net.read_drop")) {
        // Injected mid-read connection loss: the decoded request (and
        // anything behind it) vanishes without a response, exactly as
        // a peer reset would make it.
        close_now = true;
        break;
      }
      if (AnswerFromCache(conn.get(), payload)) continue;
      std::lock_guard<std::mutex> lock(conn->mu);
      // Admission control: over either queue bound the request is
      // remembered only as a shed marker (payload dropped — bounded
      // memory), and the worker answers it ERR Unavailable in order.
      bool shed =
          conn->requests.size() >= options_.max_queued_per_conn ||
          queued_total_.load(std::memory_order_relaxed) >=
              options_.max_queued_global;
      if (shed) {
        shed_total_->Add();
        conn->requests.push_back({std::string(), true});
      } else {
        queued_total_.fetch_add(1, std::memory_order_relaxed);
        conn->requests.push_back({std::move(payload), false});
      }
      enqueued = true;
    }
    if (close_now) break;
    if (!fed.ok()) {
      // Framing is unrecoverable: poison the connection — drop queued
      // requests (their responses could otherwise land after the ERR
      // or be cut off mid-flush) so the ERR frame is the last thing
      // this client reads, then close once it drains.
      protocol_errors_->Add();
      std::lock_guard<std::mutex> lock(conn->mu);
      size_t admitted = 0;
      for (const Conn::Pending& pending : conn->requests) {
        if (!pending.shed) ++admitted;
      }
      if (admitted > 0) {
        queued_total_.fetch_sub(admitted, std::memory_order_relaxed);
      }
      conn->requests.clear();
      enqueued = false;
      AppendFrame(&conn->outbox, RenderError(fed));
      conn->close_after_flush = true;
      break;
    }
    if (static_cast<size_t>(n) < sizeof(buffer)) break;
  }

  if (enqueued) {
    bool spawn = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->worker_active && !conn->requests.empty()) {
        conn->worker_active = true;
        spawn = true;
      }
    }
    if (spawn && !workers_->Submit([this, conn] { ServeConnection(conn); })) {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->worker_active = false;  // shutting down; Stop() closes us
    }
  }
  if (close_now) CloseConn(conn);
}

void Server::FlushTo(const std::shared_ptr<Conn>& conn) {
  bool close_now;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    bool progress = false;
    close_now = !conn->SendOutbox(&progress) ||
                (conn->outbox.empty() && conn->close_after_flush);
    // A peer actively draining a large response is not idle, even if it
    // has nothing new to ask yet.
    if (progress) conn->last_activity = std::chrono::steady_clock::now();
  }
  if (close_now) CloseConn(conn);
}

void Server::CloseConn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->dead = true;
    // Un-admit anything still queued, or the global shed bound would
    // count phantom requests forever after the connection dies.
    size_t admitted = 0;
    for (const Conn::Pending& pending : conn->requests) {
      if (!pending.shed) ++admitted;
    }
    if (admitted > 0) {
      queued_total_.fetch_sub(admitted, std::memory_order_relaxed);
    }
    conn->requests.clear();
    // Under `mu`: a worker may be sending on this socket.
    conn->fd.Close();
  }
  std::lock_guard<std::mutex> lock(mu_);
  // erase() is what decides whether *this* call closed the connection
  // — CloseConn can race nothing (poll thread only), but it can be
  // reached twice for one conn (e.g. POLLERR after an idle expiry), and
  // the gauge must drop exactly once.
  if (conns_.erase(conn->fd_number) > 0) open_conns_->Sub();
}

void Server::ServeConnection(std::shared_ptr<Conn> conn) {
  for (;;) {
    Conn::Pending pending;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->dead || conn->requests.empty()) {
        conn->worker_active = false;
        return;
      }
      pending = std::move(conn->requests.front());
      conn->requests.pop_front();
    }
    if (!pending.shed) {
      queued_total_.fetch_sub(1, std::memory_order_relaxed);
    }
    // Every response is accounted before Respond, which may put it on
    // the wire at once: a METRICS or TRACE the client sends next must
    // already see this request.
    if (pending.shed || draining_.load(std::memory_order_relaxed)) {
      // Refused admission under overload, or queued but never started
      // when Stop() began: answered without executing, so rejecting it
      // leaves no half-done state — unlike the request a worker is
      // mid-way through, which runs to completion and acks.
      if (!pending.shed) shed_total_->Add();
      responses_sent_->Add();
      if (!Respond(conn.get(),
                   RenderError(status::Unavailable(StrFormat(
                       "%s; retry_after_ms=%d",
                       pending.shed ? "server overloaded"
                                    : "server shutting down",
                       options_.shed_retry_after_ms))))) {
        return;
      }
      continue;
    }
    // One trace per request, opened before decode so its start is the
    // request's t0; Finish stamps the total, applies the slow-query
    // threshold, and samples it into the TRACE ring.
    obs::Trace::Clock::time_point started = obs::Trace::Clock::now();
    obs::TracePtr trace = service_->tracer().Start();
    std::string response = HandleRequest(conn.get(), pending.payload, trace);
    if (auto stall =
            fault::Injector::Check(options_.injector, "net.write_stall_ms")) {
      // Injected response stall: the worker (not the poll thread)
      // sleeps, so one slow response models a congested peer without
      // freezing every connection.
      std::this_thread::sleep_for(std::chrono::milliseconds(stall.value));
    }
    service_->tracer().Finish(trace);
    request_us_->Observe(
        std::chrono::duration<double, std::micro>(
            obs::Trace::Clock::now() - started)
            .count());
    responses_sent_->Add();
    if (!Respond(conn.get(), response)) return;
  }
}

bool Server::Respond(Conn* conn, std::string_view response) {
  bool wake = false;
  bool more;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->completed_at = std::chrono::steady_clock::now();
    // close_after_flush means the connection was poisoned by a framing
    // error: nothing may follow the ERR frame.
    if (!conn->dead && !conn->close_after_flush) {
      const bool was_empty = conn->outbox.empty();
      AppendFrame(&conn->outbox, response);
      // A non-empty outbox already has a flush pending on the poll
      // thread, which takes this frame along.
      if (was_empty) wake = !conn->SendOutbox() || !conn->outbox.empty();
    }
    // With nothing queued the worker gives the connection back in this
    // same critical section, so a client that has read this response
    // finds the connection idle when its next request arrives.
    more = !conn->dead && !conn->requests.empty();
    if (!more) conn->worker_active = false;
  }
  if (wake) Wake();
  return more;
}

bool Server::AnswerFromCache(Conn* conn, std::string_view payload) {
  // Screens, cheapest first. Only a QRUN can be answered here, and only
  // one that is next in line — no worker running, nothing queued —
  // which keeps pipeline order and leaves `prepared` no other reader.
  // An armed write stall sleeps before the response goes out, and that
  // sleep belongs on a worker.
  if (payload.substr(0, 5) != "QRUN ") return false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->worker_active || !conn->requests.empty() ||
        conn->close_after_flush) {
      return false;
    }
  }
  if (fault::Injector::Armed(options_.injector, "net.write_stall_ms")) {
    return false;
  }
  // From here on the request is traced as the worker would trace it; a
  // miss drops the unfinished trace, and the worker starts its own.
  obs::Trace::Clock::time_point started = obs::Trace::Clock::now();
  obs::TracePtr trace = service_->tracer().Start();
  obs::TraceSpan decode(trace, "decode");
  Result<Request> request = ParseRequest(payload);
  if (!request.ok()) return false;
  auto it = conn->prepared.find(request->qid);
  if (it == conn->prepared.end()) return false;
  decode.End();
  obs::TraceSpan service_span(trace, "service");
  service::QueryResponse response;
  if (!service_->ExecuteCached(request->document, it->second, trace,
                               service_span.index(), &response)) {
    return false;
  }
  service_span.End();
  if (trace != nullptr) trace->set_label(QueryRunLabel(*request, *it->second));
  std::string rendered;
  {
    obs::TraceSpan respond(trace, "respond");
    rendered = RenderItems(*response.items, response.version,
                           response.cache_hit);
  }
  service_->tracer().Finish(trace);
  request_us_->Observe(std::chrono::duration<double, std::micro>(
                           obs::Trace::Clock::now() - started)
                           .count());
  responses_sent_->Add();
  inline_responses_->Add();
  // The poll loop flushes it right after this ReadFrom.
  std::lock_guard<std::mutex> lock(conn->mu);
  AppendFrame(&conn->outbox, rendered);
  return true;
}

std::string Server::HandleRequest(Conn* conn, std::string_view payload,
                                  const obs::TracePtr& trace) {
  obs::TraceSpan decode(trace, "decode");
  Result<Request> request = ParseRequest(payload);
  if (request.ok() && trace != nullptr) {
    trace->set_label(request->document.empty()
                         ? std::string(VerbToString(request->verb))
                         : StrCat(VerbToString(request->verb), " ",
                                  request->document));
  }
  decode.End();
  Result<std::string> response =
      request.ok() ? Dispatch(conn, *request, trace)
                   : Result<std::string>(request.status());
  if (response.ok()) return std::move(response).value();
  request_errors_->Add();
  return RenderError(response.status());
}

Result<std::string> Server::Dispatch(Conn* conn, const Request& request,
                                     const obs::TracePtr& trace) {
  if (read_only_.load(std::memory_order_relaxed)) {
    switch (request.verb) {
      case Verb::kEdit:
      case Verb::kEditBegin:
      case Verb::kEditOp:
      case Verb::kEditCommit:
      case Verb::kEditAbort:
      case Verb::kRegister:
      case Verb::kImport:
      case Verb::kRemove:
        return status::FailedPrecondition(StrCat(
            VerbToString(request.verb),
            " rejected: this server is read-only (replication follower)"));
      default:
        break;
    }
  }
  switch (request.verb) {
    case Verb::kPing:
      return RenderOk();
    case Verb::kList:
      return RenderItems(store_->ListDocuments(), 0, false);
    case Verb::kStat:
      return DoStat();
    case Verb::kMetrics:
      return DoMetrics();
    case Verb::kTrace:
      return DoTrace(request);
    case Verb::kSync:
      return DoSync(request);
    case Verb::kPromote:
      return DoPromote();
    case Verb::kFault:
      return DoFault(request);
    case Verb::kQuery:
      return DoQuery(request, trace);
    case Verb::kQueryPrepare:
      return DoQueryPrepare(conn, request);
    case Verb::kQueryRun:
      return DoQueryRun(conn, request, trace);
    case Verb::kEdit:
      return DoEdit(request);
    case Verb::kEditBegin:
      return DoEditBegin(conn, request);
    case Verb::kEditOp:
      return DoEditOp(conn, request);
    case Verb::kEditCommit:
      return DoEditCommit(conn);
    case Verb::kEditAbort:
      return DoEditAbort(conn);
    case Verb::kRegister: {
      if (!options_.allow_register) {
        return status::Unimplemented(
            "REGISTER is disabled on this server");
      }
      CXML_ASSIGN_OR_RETURN(storage::LoadedGoddag doc,
                            storage::Load(request.body));
      return AwaitWrite(service_->pipeline().SubmitRegister(
          request.document, std::move(doc)));
    }
    case Verb::kImport:
      return DoImport(request);
    case Verb::kCollectionQuery:
      return DoCollectionQuery(conn, request, trace);
    case Verb::kRemove: {
      if (!options_.allow_register) {
        return status::Unimplemented("REMOVE is disabled on this server");
      }
      // A removal acks as version 0: the plain OK line.
      return AwaitWrite(service_->pipeline().SubmitRemove(request.document));
    }
  }
  return status::Internal("unhandled CXP/1 verb");
}

Result<std::string> Server::DoQuery(const Request& request,
                                    const obs::TracePtr& trace) {
  // Resolve to a prepared handle first — the same compile-or-cache
  // path the string Execute takes internally — so the trace label can
  // carry the canonical query hash (the result-cache identity, and the
  // join key against the slow-query log). A compile failure falls back
  // to the string path, which accounts the failed request exactly as
  // it always has.
  Result<service::QueryHandle> handle =
      service_->Prepare(request.body, request.kind);
  if (!handle.ok()) {
    service::QueryResponse response =
        service_->Execute({request.document, request.body, request.kind});
    if (!response.ok()) return response.status;
    return RenderItems(*response.items, response.version,
                       response.cache_hit);
  }
  if (trace != nullptr) {
    trace->set_label(StrFormat(
        "QUERY %s %s hash=%016llx", request.document.c_str(),
        request.kind == service::QueryKind::kXPath ? "XPATH" : "XQUERY",
        static_cast<unsigned long long>((*handle)->canonical_hash)));
  }
  return RunPrepared(request.document, *handle, trace);
}

Result<std::string> Server::RunPrepared(const std::string& document,
                                        const service::QueryHandle& handle,
                                        const obs::TracePtr& trace) {
  obs::TraceSpan service_span(trace, "service");
  service::QueryResponse response =
      service_->Execute(document, handle, trace, service_span.index());
  service_span.End();
  if (!response.ok()) return response.status;
  obs::TraceSpan respond(trace, "respond");
  return RenderItems(*response.items, response.version, response.cache_hit);
}

Result<std::string> Server::DoQueryPrepare(Conn* conn,
                                           const Request& request) {
  if (conn->prepared.size() >= options_.max_prepared_per_conn) {
    return status::FailedPrecondition(StrFormat(
        "too many prepared queries on this connection (max %zu)",
        options_.max_prepared_per_conn));
  }
  // Compilation is document-independent: a bad expression fails here,
  // once, instead of on every QRUN. The service dedupes by canonical
  // text, so equal queries from other connections share the handle.
  CXML_ASSIGN_OR_RETURN(service::QueryHandle handle,
                        service_->Prepare(request.body, request.kind));
  uint64_t qid = conn->next_qid++;
  conn->prepared.emplace(qid, std::move(handle));
  // The qid rides in the version slot of the OK line.
  return RenderVersion(qid);
}

Result<std::string> Server::DoQueryRun(Conn* conn, const Request& request,
                                       const obs::TracePtr& trace) {
  auto it = conn->prepared.find(request.qid);
  if (it == conn->prepared.end()) {
    return status::NotFound(StrFormat(
        "unknown prepared query id %llu on this connection",
        static_cast<unsigned long long>(request.qid)));
  }
  if (trace != nullptr) trace->set_label(QueryRunLabel(request, *it->second));
  return RunPrepared(request.document, it->second, trace);
}

Result<std::string> Server::DoImport(const Request& request) {
  if (!options_.allow_register) {
    return status::Unimplemented("IMPORT is disabled on this server");
  }
  if (request.body.size() > options_.max_import_bytes) {
    import_errors_->Add();
    return status::InvalidArgument(StrFormat(
        "IMPORT body of %zu bytes exceeds the %zu-byte cap",
        request.body.size(), options_.max_import_bytes));
  }
  Result<ingest::Format> format = ingest::ParseFormat(request.format);
  if (!format.ok()) {
    import_errors_->Add();
    return format.status();
  }
  const auto started = std::chrono::steady_clock::now();
  ingest::ImportOptions opts;
  opts.format = *format;
  Result<ingest::ImportedDocument> imported =
      ingest::Import(request.body, opts);
  if (!imported.ok()) {
    // A parse or convention error rejects the frame before the store
    // is touched — nothing is registered, LIST is unchanged.
    import_errors_->Add();
    return imported.status().WithContext(
        StrCat("importing '", request.document, "'"));
  }
  // Publication is a pipeline registration, exactly like a REGISTER
  // upload: a WAL-armed server acks only once the import's checkpoint
  // is on disk, and followers replicate it over SYNC.
  CXML_ASSIGN_OR_RETURN(
      std::string response,
      AwaitWrite(service_->pipeline().SubmitRegister(
          request.document, std::move(imported->doc))));
  imports_total_->Add();
  import_us_->Observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count()));
  return response;
}

Result<std::string> Server::DoCollectionQuery(Conn* conn,
                                              const Request& request,
                                              const obs::TracePtr& trace) {
  auto it = conn->prepared.find(request.qid);
  if (it == conn->prepared.end()) {
    return status::NotFound(StrFormat(
        "unknown prepared query id %llu on this connection",
        static_cast<unsigned long long>(request.qid)));
  }
  if (trace != nullptr) {
    trace->set_label(StrFormat(
        "QCOLL %s qid=%llu hash=%016llx", request.pattern.c_str(),
        static_cast<unsigned long long>(request.qid),
        static_cast<unsigned long long>(it->second->canonical_hash)));
  }
  obs::TraceSpan service_span(trace, "service");
  service::CollectionQueryOptions copts;
  copts.max_results = options_.max_collection_results;
  service::CollectionResponse response = service::RunCollectionQuery(
      service_, request.pattern, it->second, copts, trace,
      service_span.index());
  service_span.End();
  if (!response.ok()) return response.status;
  obs::TraceSpan respond(trace, "respond");
  // One wire item per result, document-prefixed, already in
  // (document, rank) order; the fan-out width rides in the version
  // slot and a truncated collection clears the hit flag.
  std::vector<std::string> items;
  items.reserve(response.total_items);
  for (const service::CollectionDocResult& doc : response.docs) {
    for (const std::string& item : doc.items) {
      items.push_back(StrCat(doc.document, "\t", item));
    }
  }
  return RenderItems(items, response.matched, !response.truncated);
}

Result<std::string> Server::DoEdit(const Request& request) {
  // The op-set joins the document's writer pipeline: grouped with
  // other pending EDITs into one clone + one publish + one cache
  // invalidation. A failing op (prevalidation, overlap, range) fails
  // only this op-set — as ERR with the op's own status — while the
  // rest of the batch commits. The op lines ride along as the WAL
  // payload: the same text the wire carried replays the commit.
  return AwaitWrite(service_->SubmitEdit(
      request.document,
      [ops = request.ops](edit::EditSession& session) -> Status {
        for (const EditOp& op : ops) {
          if (op.kind == EditOp::Kind::kSelect) {
            CXML_RETURN_IF_ERROR(session.Select(op.chars));
          } else {
            CXML_RETURN_IF_ERROR(
                session.Apply(op.hierarchy, op.tag).status());
          }
        }
        return Status::Ok();
      },
      {RenderOps(request.ops)}));
}

Result<std::string> Server::DoEditBegin(Conn* conn,
                                        const Request& request) {
  if (conn->txn != nullptr) {
    return status::FailedPrecondition(StrCat(
        "connection already has an open transaction on '",
        conn->txn->document(), "'"));
  }
  CXML_ASSIGN_OR_RETURN(service::EditTransaction txn,
                        store_->BeginEdit(request.document));
  conn->txn =
      std::make_unique<service::EditTransaction>(std::move(txn));
  conn->txn_ops.clear();
  return RenderVersion(conn->txn->base_version());
}

Result<std::string> Server::DoEditOp(Conn* conn, const Request& request) {
  if (conn->txn == nullptr) {
    return status::FailedPrecondition("EOP without an open transaction");
  }
  // A failed op leaves the transaction open: the session prevalidated
  // and rejected it, nothing was applied, and the client may try a
  // different range or EABORT.
  for (const EditOp& op : request.ops) {
    if (op.kind == EditOp::Kind::kSelect) {
      CXML_RETURN_IF_ERROR(conn->txn->session().Select(op.chars));
    } else {
      CXML_RETURN_IF_ERROR(
          conn->txn->session().Apply(op.hierarchy, op.tag).status());
    }
    // Recorded only once applied: a rejected op changed nothing, so it
    // must not appear in the commit's replay payload.
    conn->txn_ops.push_back(op);
  }
  return RenderOk();
}

Result<std::string> Server::DoEditCommit(Conn* conn) {
  if (conn->txn == nullptr) {
    return status::FailedPrecondition(
        "ECOMMIT without an open transaction");
  }
  // Win or lose, the transaction is finished for this connection — a
  // conflicting (FailedPrecondition) commit cannot retry; the client
  // starts over from the new base, as in-process losers do. The commit
  // itself queues behind the document's pending pipeline writes (FIFO),
  // so a group commit the client observed stays observed.
  std::unique_ptr<service::EditTransaction> txn = std::move(conn->txn);
  std::string document = txn->document();
  // The frames' accumulated ops become one WAL op-set: EOP selections
  // are cumulative across frames (no ClearSelection between them), so
  // replaying them back-to-back in a single session reproduces the
  // transaction's final state exactly.
  std::vector<std::string> wal_op_sets;
  if (!conn->txn_ops.empty()) {
    wal_op_sets.push_back(RenderOps(conn->txn_ops));
  }
  conn->txn_ops.clear();
  return AwaitWrite(service_->SubmitCommit(
      std::move(document), std::move(txn), std::move(wal_op_sets)));
}

Result<std::string> Server::DoEditAbort(Conn* conn) {
  if (conn->txn == nullptr) {
    return status::FailedPrecondition(
        "EABORT without an open transaction");
  }
  conn->txn.reset();  // drops the private clone; nothing was published
  conn->txn_ops.clear();
  return RenderOk();
}

Result<std::string> Server::DoMetrics() {
  // One item: the registry's whole Prometheus-style exposition. The
  // server's own counters live in the same registry, so this is the
  // process's single metrics surface.
  return RenderItems({service_->registry()->RenderText()}, 0, false);
}

Result<std::string> Server::DoTrace(const Request& request) {
  return RenderItems(service_->tracer().Recent(request.count), 0, false);
}

Result<std::string> Server::DoSync(const Request& request) {
  if (options_.sync_source == nullptr) {
    return status::Unimplemented(
        "SYNC requires a durability log (start with --data-dir)");
  }
  // A quarter of the frame budget bounds the payload bytes; framing,
  // item headers, and the snapshot-fallback record (always shipped
  // whole) ride in the remaining slack.
  CXML_ASSIGN_OR_RETURN(
      SyncBatch batch,
      options_.sync_source->ReadSince(request.document, request.from_version,
                                      options_.max_frame_bytes / 4));
  return RenderItems(batch.records, batch.current_version, false);
}

Result<std::string> Server::DoPromote() {
  if (options_.promote_handler == nullptr) {
    return status::FailedPrecondition(
        "PROMOTE rejected: this server was born a primary (no follower "
        "to promote)");
  }
  // The handler drains the follower's replication tail, seals the
  // inherited log with a promotion record, and reports the version
  // frontier it promoted at. Only after it succeeds do writes open —
  // so the first accepted EDIT lands in a sealed, fresh WAL epoch.
  CXML_ASSIGN_OR_RETURN(uint64_t frontier, options_.promote_handler());
  read_only_.store(false, std::memory_order_relaxed);
  return RenderVersion(frontier);
}

Result<std::string> Server::DoFault(const Request& request) {
  fault::Injector* injector = options_.injector;
  if (injector == nullptr) {
    return status::Unimplemented(
        "FAULT requires fault injection support (start with --fault-seed "
        "or --fault)");
  }
  if (request.fault_action == "LIST") {
    return RenderItems(injector->Describe(), injector->seed(), false);
  }
  if (request.fault_action == "CLEAR") {
    injector->DisarmAll();
    return RenderOk();
  }
  if (request.fault_action == "SEED") {
    // The parser validated the token as a decimal u64.
    injector->Reseed(std::strtoull(request.fault_spec.c_str(), nullptr, 10));
    return RenderOk();
  }
  if (request.fault_action == "ARM") {
    CXML_RETURN_IF_ERROR(
        injector->Arm(request.fault_point, request.fault_spec));
    return RenderOk();
  }
  if (request.fault_action == "DISARM") {
    if (!injector->Disarm(request.fault_point)) {
      return status::NotFound(
          StrCat("fault point '", request.fault_point, "' is not armed"));
    }
    return RenderOk();
  }
  return status::Internal(
      StrCat("unhandled FAULT action '", request.fault_action, "'"));
}

Result<std::string> Server::DoStat() {
  service::ServiceStats stats = service_->stats();
  std::vector<std::string> items;
  items.push_back(
      StrFormat("documents %zu", store_->ListDocuments().size()));
  items.push_back(StrFormat("service_requests %llu",
                            static_cast<unsigned long long>(stats.requests)));
  items.push_back(StrFormat("service_errors %llu",
                            static_cast<unsigned long long>(stats.errors)));
  items.push_back(StrFormat(
      "service_prepares %llu",
      static_cast<unsigned long long>(stats.prepares)));
  items.push_back(StrFormat(
      "index_patches %llu",
      static_cast<unsigned long long>(stats.index_patches)));
  items.push_back(StrFormat(
      "index_rebuilds %llu",
      static_cast<unsigned long long>(stats.index_rebuilds)));
  items.push_back(StrFormat(
      "write_edits %llu",
      static_cast<unsigned long long>(stats.writes.edits)));
  items.push_back(StrFormat(
      "write_batches %llu",
      static_cast<unsigned long long>(stats.writes.batches)));
  items.push_back(StrFormat("cache_hits %llu",
                            static_cast<unsigned long long>(stats.cache.hits)));
  items.push_back(
      StrFormat("cache_misses %llu",
                static_cast<unsigned long long>(stats.cache.misses)));
  items.push_back(StrFormat("cache_size %zu", stats.cache.size));
  items.push_back(StrFormat("cache_hit_rate %.4f", stats.cache.hit_rate()));
  items.push_back(
      StrFormat("server_connections %llu",
                static_cast<unsigned long long>(
                    connections_accepted_->Value())));
  items.push_back(StrFormat(
      "server_frames %llu",
      static_cast<unsigned long long>(frames_received_->Value())));
  items.push_back(StrFormat(
      "server_responses %llu",
      static_cast<unsigned long long>(responses_sent_->Value())));
  items.push_back(StrFormat(
      "server_protocol_errors %llu",
      static_cast<unsigned long long>(protocol_errors_->Value())));
  items.push_back(StrFormat(
      "server_request_errors %llu",
      static_cast<unsigned long long>(request_errors_->Value())));
  items.push_back(StrFormat(
      "server_idle_disconnects %llu",
      static_cast<unsigned long long>(idle_disconnects_->Value())));
  items.push_back(StrFormat(
      "server_sheds %llu",
      static_cast<unsigned long long>(shed_total_->Value())));
  return RenderItems(items, 0, false);
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.connections_accepted = connections_accepted_->Value();
  stats.frames_received = frames_received_->Value();
  stats.responses_sent = responses_sent_->Value();
  stats.protocol_errors = protocol_errors_->Value();
  stats.request_errors = request_errors_->Value();
  stats.idle_disconnects = idle_disconnects_->Value();
  stats.sheds = shed_total_->Value();
  return stats;
}

}  // namespace cxml::net
