// cxbench: the layered CXP/1 benchmark of cxml_serverd.
//
//   cxbench --serverd PATH --workload NAME --seed N --seconds S --trace 0|1
//
// Starts the server under test as child processes, loads it with seeded
// inputs, drives one workload over the wire for S seconds and checks
// every answer. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it records spans around its own calls, runs the in-process
// layer probes, scrapes METRICS deltas, and reports the per-layer
// metrics. The last stdout line is one JSON object. See README.md.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "gen.h"
#include "ingest/ingest.h"
#include "net/protocol.h"
#include "probe.h"
#include "report.h"
#include "service/document_store.h"
#include "service/query_service.h"
#include "storage/binary.h"
#include "wal/log.h"
#include "wal/manager.h"
#include "wire.h"

namespace cxbench {
namespace {

using cxml::Result;
using cxml::Status;
using cxml::StrCat;
using cxml::StrFormat;
using cxml::net::Request;
using cxml::net::Response;
using cxml::net::Verb;
using cxml::service::QueryKind;

constexpr size_t kContentChars = 20000;
/// Each run measures this many rounds, each on freshly set-up servers;
/// after the checks, kExtraSetups more set-ups are timed and torn down
/// at once. setup_s is the median of all of them.
constexpr int kRounds = 10;
constexpr int kExtraSetups = 8;
constexpr size_t kReadConnections = 4;
/// read_cold's closed-loop connections: three evaluations run at once,
/// and the fourth core stays free for the server's network thread and
/// the load generator, whose wake-ups otherwise set the latency tail.
constexpr size_t kColdConnections = 3;
/// read_cold draws from a family this many times the server's default
/// result-cache capacity (1024), so hits stay rare.
constexpr size_t kColdFamilyMin = 32 * 1024;
/// edit_durable's open-loop rates: about half of what this machine
/// sustains before the read backlog grows (see README.md).
constexpr double kEditRate = 100.0;
constexpr double kReadRatePerConn = 150.0;
constexpr size_t kCorpusDocs = 32;
constexpr size_t kCorpusQueriesPerConn = 128;
/// Rolled-in documents resident at once next to the corpus.
constexpr size_t kInboxDocs = 4;
/// Payload pairs kept for the codec probe.
constexpr size_t kPayloadSamples = 48;
/// Spans written to the trace file; the totals cover every span.
constexpr size_t kSpansWritten = 100000;

struct Options {
  std::string serverd;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string out_dir = ".bench_out";
};

// ---------------------------------------------------------------- lanes

/// What one load-generating thread saw. Merged into a Phase at the end.
struct Lane {
  explicit Lane(bool traced) : spans(traced) {}
  Samples read, op, late;
  uint64_t reads = 0;
  uint64_t attempted = 0, failed = 0, rejected = 0;
  size_t backlog_max = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::string>> payloads;
  SpanLog spans;

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
  void KeepPayload(const std::string& request, const std::string& response) {
    if (payloads.size() < kPayloadSamples / 4) {
      payloads.emplace_back(request, response);
    }
  }
};

/// One measured round.
struct Phase {
  double seconds = 0;
  Samples read, op, late;
  uint64_t reads = 0;
  uint64_t attempted = 0, failed = 0, rejected = 0;
  size_t backlog_max = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::string>> payloads;
  std::vector<std::unique_ptr<Lane>> lanes;

  Lane* NewLane(bool traced) {
    lanes.push_back(std::make_unique<Lane>(traced));
    return lanes.back().get();
  }
  void Collect() {
    for (const auto& lane : lanes) {
      read.Merge(lane->read);
      op.Merge(lane->op);
      late.Merge(lane->late);
      reads += lane->reads;
      attempted += lane->attempted;
      failed += lane->failed;
      rejected += lane->rejected;
      backlog_max = std::max(backlog_max, lane->backlog_max);
      errors.insert(errors.end(), lane->errors.begin(), lane->errors.end());
      payloads.insert(payloads.end(), lane->payloads.begin(),
                      lane->payloads.end());
    }
  }
};

/// One closed-loop round trip, spanned as encode / roundtrip / decode
/// under a root span named after the verb. Returns the response and its
/// latency (encode through decode).
Result<Response> TimedCall(Conn& conn, const Request& request, Lane* lane,
                           const char* verb, double* us,
                           std::string* raw_request = nullptr,
                           std::string* raw_response = nullptr) {
  SpanLog* spans = &lane->spans;
  int root = spans->Begin(verb);
  Clock::time_point t0 = Clock::now();
  std::string payload;
  {
    ScopedSpan s(spans, "encode", root);
    payload = cxml::net::RenderRequest(request);
  }
  Result<std::string> received = std::string();
  {
    ScopedSpan s(spans, "roundtrip", root);
    Status sent = conn.Send(payload);
    received = sent.ok() ? conn.Recv() : Result<std::string>(sent);
  }
  if (!received.ok()) {
    spans->End(root);
    return received.status();
  }
  Result<Response> response = cxml::status::Internal("unparsed");
  {
    ScopedSpan s(spans, "decode", root);
    response = cxml::net::ParseResponse(*received);
  }
  *us = UsSince(t0);
  spans->End(root);
  if (raw_request != nullptr) *raw_request = std::move(payload);
  if (raw_response != nullptr) *raw_response = std::move(*received);
  return response;
}

/// Runs `body(lane)` on `threads` threads until `deadline`; `body`
/// performs one request per call. The time between one request's
/// response and the next send is the generator's lateness.
void ClosedLoop(Phase* phase, size_t threads, bool traced,
                Clock::time_point deadline,
                const std::function<void(size_t, size_t, Lane*)>& body) {
  std::vector<Lane*> lanes;
  for (size_t t = 0; t < threads; ++t) lanes.push_back(phase->NewLane(traced));
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Lane* lane = lanes[t];
      Clock::time_point prev = Clock::now();
      for (size_t i = 0; Clock::now() < deadline; ++i) {
        lane->late.Add(UsSince(prev));
        body(t, i, lane);
        prev = Clock::now();
      }
    });
  }
  for (std::thread& w : workers) w.join();
}

/// An open-loop lane: requests go out on a schedule regardless of
/// responses (pipelined on one connection), and each is timed from when
/// it was due. The schedule has a fixed mean rate: evenly spaced, or,
/// with a nonzero `jitter_seed`, gaps drawn uniformly from [0.5, 1.5]
/// times the mean (so lanes do not phase-lock with each other, without
/// a Poisson schedule's bursts). `make(i)` renders request i;
/// `done(i, due, us, payload)` handles its response.
class OpenLoopLane {
 public:
  using Make = std::function<std::string(size_t)>;
  using Done = std::function<void(size_t, Clock::time_point, double,
                                  Result<std::string>)>;

  OpenLoopLane(Conn* conn, Lane* lane, double rate, uint64_t jitter_seed,
               Make make, Done done)
      : conn_(conn), lane_(lane), rate_(rate), jitter_seed_(jitter_seed),
        make_(std::move(make)), done_(std::move(done)) {}

  void Run(Clock::time_point start, Clock::time_point deadline) {
    std::thread receiver([&] { Receive(); });
    std::mt19937_64 rng(jitter_seed_);
    std::uniform_real_distribution<double> jitter(0.5, 1.5);
    double offset_s = 0;
    for (size_t i = 0;; ++i) {
      Clock::time_point due =
          start + std::chrono::nanoseconds(static_cast<int64_t>(offset_s * 1e9));
      offset_s += (jitter_seed_ != 0 ? jitter(rng) : 1.0) / rate_;
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (send_failed_) break;
      }
      std::string payload = make_(i);
      Clock::time_point sent = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_.push_back({i, due, sent});
        lane_->backlog_max = std::max(lane_->backlog_max, inflight_.size());
      }
      lane_->late.Add(UsBetween(due, sent));
      ++lane_->attempted;
      if (!conn_->Send(payload).ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        send_failed_ = true;
        break;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      sending_done_ = true;
    }
    receiver.join();
  }

 private:
  struct InFlight {
    size_t index;
    Clock::time_point due;
    Clock::time_point sent;
  };

  void Receive() {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (inflight_.empty() && (sending_done_ || send_failed_)) return;
      }
      // Block for the next response only when one is owed.
      bool owed = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        owed = !inflight_.empty();
      }
      if (!owed) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      Result<std::string> payload = conn_->Recv();
      Clock::time_point received = Clock::now();
      bool lost = !payload.ok();
      InFlight request;
      {
        std::lock_guard<std::mutex> lock(mu_);
        request = inflight_.front();
        inflight_.pop_front();
      }
      // Spans (receiver thread only): queued behind the schedule, on
      // the wire, then handled here.
      int root = lane_->spans.Record("request", request.due, received);
      lane_->spans.Record("late", request.due, request.sent, root);
      lane_->spans.Record("roundtrip", request.sent, received, root);
      {
        ScopedSpan handle(&lane_->spans, "handle", root);
        done_(request.index, request.due, UsBetween(request.due, received),
              std::move(payload));
      }
      if (lost) {
        // The stream is lost: everything still in flight failed too.
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t n = inflight_.size(); n > 0; --n) lane_->Fail("lost");
        inflight_.clear();
        send_failed_ = true;
        return;
      }
    }
  }

  Conn* conn_;
  Lane* lane_;
  double rate_;
  uint64_t jitter_seed_;
  Make make_;
  Done done_;
  std::mutex mu_;
  std::deque<InFlight> inflight_;
  bool sending_done_ = false;
  bool send_failed_ = false;
};

bool IsEditRejection(const Status& st) {
  return st.code() == cxml::StatusCode::kValidationError ||
         st.code() == cxml::StatusCode::kFailedPrecondition;
}

Request QrunRequest(const std::string& doc, uint64_t qid) {
  Request r;
  r.verb = Verb::kQueryRun;
  r.document = doc;
  r.qid = qid;
  return r;
}

Result<std::vector<uint64_t>> PrepareAll(Conn& conn,
                                         const std::vector<Query>& queries) {
  std::vector<uint64_t> qids;
  for (const Query& q : queries) {
    Request r;
    r.verb = Verb::kQueryPrepare;
    r.kind = q.kind;
    r.body = q.text;
    CXML_ASSIGN_OR_RETURN(Response response, conn.CallOk(r));
    qids.push_back(response.version);
  }
  return qids;
}

Status RegisterDoc(Conn& conn, const std::string& name,
                   const std::string& cxg1) {
  Request r;
  r.verb = Verb::kRegister;
  r.document = name;
  r.body = cxg1;
  return conn.CallOk(r).status();
}

Result<Response> ImportDoc(Conn& conn, const std::string& name,
                           const std::string& markup) {
  Request r;
  r.verb = Verb::kImport;
  r.document = name;
  r.format = "tei";
  r.body = markup;
  return conn.CallOk(r);
}

// ------------------------------------------------------------ workloads

/// One workload: its inputs, its servers and its traffic. Main sets it
/// up and measures it once per round, checks the last round's answers,
/// and (traced) hands its inputs to the layer probes.
class Workload {
 public:
  explicit Workload(const Options& opt) : opt_(opt) {}
  virtual ~Workload() = default;

  /// Seeded inputs, generated once and not timed.
  virtual Status Generate() = 0;
  /// Servers up, inputs loaded, caches warm: the timed set-up.
  virtual Status SetUp(const std::string& dir) = 0;
  virtual void TearDown() {
    follower_.reset();
    primary_.reset();
  }
  /// Drives traffic until `deadline` into `phase`.
  virtual void Measure(Phase* phase, bool traced,
                       Clock::time_point deadline) = 0;
  /// Post-window correctness checks; each problem found is reported.
  virtual void Check(std::vector<std::string>* problems) = 0;
  /// Inputs for the in-process layer probes.
  virtual Status Probes(ProbeInputs* in) = 0;
  /// A document (name and CXG1) the primary serves, and a cheap cached
  /// query over it, for the edge and trace-cost probes.
  virtual std::pair<std::string, std::string> ProbeDoc() = 0;
  virtual Query ProbeQuery() = 0;
  /// Whether the primary keeps a WAL (and a follower tails it).
  virtual bool Durable() const { return false; }
  /// Per-layer numbers only this workload's wire traffic yields.
  virtual void AddWireLayers(Report*) {}

  ServerProcess* primary() { return primary_.get(); }
  ServerProcess* follower() { return follower_.get(); }

 protected:
  Status StartPrimary(std::vector<std::string> args) {
    args.insert(args.begin(), {"--content-chars", "0"});
    CXML_ASSIGN_OR_RETURN(primary_, ServerProcess::Start(opt_.serverd, args));
    return Status::Ok();
  }

  const Options& opt_;
  std::unique_ptr<ServerProcess> primary_;
  std::unique_ptr<ServerProcess> follower_;
};

/// Shared by the single-manuscript workloads.
class ManuscriptWorkload : public Workload {
 public:
  using Workload::Workload;

  Status GenerateManuscript() {
    CXML_ASSIGN_OR_RETURN(ms_, MakeManuscript(opt_.seed, kContentChars));
    CXML_ASSIGN_OR_RETURN(oracle_, Oracle::Load(ms_.cxg1));
    CXML_ASSIGN_OR_RETURN(edits_, MakeEditStream(opt_.seed, kContentChars,
                                                 4096, 12));
    return Status::Ok();
  }
  std::pair<std::string, std::string> ProbeDoc() override {
    return {"ms", ms_.cxg1};
  }
  Query ProbeQuery() override { return Query{QueryKind::kXPath, "count(//w)"}; }
  Status ManuscriptProbes(ProbeInputs* in, std::vector<Query> queries) {
    in->read_doc = ms_.cxg1;
    in->queries = std::move(queries);
    in->collection = {{"ms", ms_.cxg1}};
    in->collection_pattern = "ms";
    in->write_doc = ms_.cxg1;
    in->edits = edits_;
    in->tei = {MakeTeiDocument(opt_.seed, 0, kContentChars)};
    return Status::Ok();
  }

 protected:
  Manuscript ms_;
  std::optional<Oracle> oracle_;
  std::vector<EditSpec> edits_;
};

// --------------------------------------------------------------- read_hot

class ReadHot : public ManuscriptWorkload {
 public:
  using ManuscriptWorkload::ManuscriptWorkload;

  Status Generate() override {
    CXML_RETURN_IF_ERROR(GenerateManuscript());
    CXML_ASSIGN_OR_RETURN(pool_, MakeTrafficReadPool(opt_.seed, kContentChars,
                                                     kReadConnections, 4096));
    for (const Query& q : pool_.queries) {
      CXML_ASSIGN_OR_RETURN(std::vector<std::string> items, oracle_->Answer(q));
      expected_.push_back(std::move(items));
    }
    return Status::Ok();
  }

  Status SetUp(const std::string&) override {
    CXML_RETURN_IF_ERROR(StartPrimary({}));
    conns_.clear();
    qids_.clear();
    for (size_t c = 0; c < kReadConnections; ++c) {
      CXML_ASSIGN_OR_RETURN(Conn conn, Conn::Open(primary_->port()));
      if (c == 0) CXML_RETURN_IF_ERROR(RegisterDoc(conn, "ms", ms_.cxg1));
      CXML_ASSIGN_OR_RETURN(std::vector<uint64_t> qids,
                            PrepareAll(conn, pool_.queries));
      conns_.push_back(std::make_unique<Conn>(std::move(conn)));
      qids_.push_back(std::move(qids));
    }
    // Warm the result cache with every query of the pool.
    for (size_t q = 0; q < pool_.queries.size(); ++q) {
      CXML_RETURN_IF_ERROR(
          conns_[0]->CallOk(QrunRequest("ms", qids_[0][q])).status());
    }
    return Status::Ok();
  }

  void Measure(Phase* phase, bool traced, Clock::time_point deadline) override {
    ClosedLoop(phase, kReadConnections, traced, deadline,
               [&](size_t c, size_t i, Lane* lane) {
      const std::vector<size_t>& stream = pool_.streams[c];
      size_t q = stream[(i + offset_) % stream.size()];
      double us = 0;
      std::string raw_req, raw_resp;
      bool keep = lane->payloads.size() < kPayloadSamples / 4 && i % 7 == 0;
      ++lane->attempted;
      auto response = TimedCall(*conns_[c], QrunRequest("ms", qids_[c][q]),
                                lane, "qrun", &us, keep ? &raw_req : nullptr,
                                keep ? &raw_resp : nullptr);
      if (!response.ok() || !response->ok()) {
        lane->Fail(response.ok() ? response->status.ToString()
                                 : response.status().ToString());
        return;
      }
      ScopedSpan verify(&lane->spans, "verify");
      if (response->items != expected_[q] || response->version != 1) {
        lane->Fail("wrong answer for " + pool_.queries[q].text);
        return;
      }
      lane->read.Add(us);
      lane->op.Add(us);
      ++lane->reads;
      if (keep) lane->KeepPayload(raw_req, raw_resp);
    });
    offset_ += 1000;
  }

  void Check(std::vector<std::string>* problems) override {
    // A seeded sample of the pool against the naive-scan oracle (the
    // indexed answers already matched every response).
    std::mt19937_64 rng(opt_.seed);
    for (int n = 0; n < 2; ++n) {
      size_t q = rng() % pool_.queries.size();
      auto naive = oracle_->Answer(pool_.queries[q], /*naive=*/true);
      if (!naive.ok() || *naive != expected_[q]) {
        problems->push_back("naive oracle disagrees on " +
                            pool_.queries[q].text);
      }
    }
  }

  Status Probes(ProbeInputs* in) override {
    return ManuscriptProbes(in, pool_.queries);
  }

 private:
  ReadPool pool_;
  std::vector<std::vector<std::string>> expected_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::vector<uint64_t>> qids_;
  size_t offset_ = 0;
};

// -------------------------------------------------------------- read_cold

class ReadCold : public ManuscriptWorkload {
 public:
  using ManuscriptWorkload::ManuscriptWorkload;

  Status Generate() override {
    CXML_RETURN_IF_ERROR(GenerateManuscript());
    family_ = std::make_unique<ColdFamily>(ms_, kColdFamilyMin);
    for (size_t c = 0; c < kColdConnections; ++c) {
      rngs_.emplace_back(opt_.seed * 31 + c);
    }
    return Status::Ok();
  }

  Status SetUp(const std::string&) override {
    CXML_RETURN_IF_ERROR(StartPrimary({}));
    conns_.clear();
    for (size_t c = 0; c < kColdConnections; ++c) {
      CXML_ASSIGN_OR_RETURN(Conn conn, Conn::Open(primary_->port()));
      conns_.push_back(std::make_unique<Conn>(std::move(conn)));
    }
    for (size_t c = 0; c < kColdConnections; ++c) {
      CXML_RETURN_IF_ERROR(RegisterDoc(*conns_[0], DocFor(c), ms_.cxg1));
      // One query builds the snapshot index before the window opens.
      Request warm;
      warm.verb = Verb::kQuery;
      warm.document = DocFor(c);
      warm.body = "count(//line)";
      CXML_RETURN_IF_ERROR(conns_[0]->CallOk(warm).status());
    }
    return Status::Ok();
  }
  /// Each connection reads its own copy of the manuscript, so their
  /// evaluations run on several workers at once. On one shared document
  /// they ran one at a time, and the speed of that one thread swung
  /// between runs of the same code on a shared host by more than the
  /// benchmark's bound; spread over the cores it swings half as much.
  static std::string DocFor(size_t c) { return StrFormat("ms%zu", c); }

  void Measure(Phase* phase, bool traced, Clock::time_point deadline) override {
    size_t base = answers_.size();
    answers_.resize(base + kColdConnections);
    ClosedLoop(phase, kColdConnections, traced, deadline,
               [&](size_t c, size_t i, Lane* lane) {
      size_t index = rngs_[c]() % family_->size();
      Query q = family_->At(index);
      Request r;
      r.verb = Verb::kQuery;
      r.document = DocFor(c);
      r.kind = q.kind;
      r.body = q.text;
      double us = 0;
      std::string raw_req, raw_resp;
      bool keep = lane->payloads.size() < kPayloadSamples / 4 && i % 7 == 0;
      ++lane->attempted;
      auto response = TimedCall(*conns_[c], r, lane, "query", &us,
                                keep ? &raw_req : nullptr,
                                keep ? &raw_resp : nullptr);
      if (!response.ok() || !response->ok()) {
        lane->Fail(response.ok() ? response->status.ToString()
                                 : response.status().ToString());
        return;
      }
      lane->read.Add(us);
      lane->op.Add(us);
      ++lane->reads;
      ScopedSpan verify(&lane->spans, "verify");
      answers_[base + c].emplace_back(index, HashItems(response->items));
      if (keep) lane->KeepPayload(raw_req, raw_resp);
    });
  }

  void Check(std::vector<std::string>* problems) override {
    // Every answer to one query text must be the same, and a seeded
    // sample must equal the in-process engines' answer (and, for a few
    // single-anchor templates, the naive-scan oracle's).
    std::map<size_t, uint64_t> seen;
    for (const auto& lane : answers_) {
      for (const auto& [index, hash] : lane) {
        auto [it, inserted] = seen.emplace(index, hash);
        if (!inserted && it->second != hash) {
          problems->push_back("inconsistent answers to " +
                              family_->At(index).text);
        }
      }
    }
    std::vector<std::pair<size_t, uint64_t>> all(seen.begin(), seen.end());
    std::mt19937_64 rng(opt_.seed ^ 0x5eed);
    std::shuffle(all.begin(), all.end(), rng);
    size_t naive_checks = 0;
    for (size_t n = 0; n < all.size() && n < 150; ++n) {
      Query q = family_->At(all[n].first);
      auto items = oracle_->Answer(q);
      if (!items.ok() || HashItems(*items) != all[n].second) {
        problems->push_back("wrong answer for " + q.text);
        continue;
      }
      size_t t = all[n].first % 12;
      if (naive_checks < 3 && (t == 0 || t == 3 || t == 5)) {
        ++naive_checks;
        auto naive = oracle_->Answer(q, /*naive=*/true);
        if (!naive.ok() || *naive != *items) {
          problems->push_back("naive oracle disagrees on " + q.text);
        }
      }
    }
  }

  Status Probes(ProbeInputs* in) override {
    std::vector<Query> sample;
    for (size_t i = 0; i < 36; ++i) {
      sample.push_back(family_->At((i * 7919 + opt_.seed) % family_->size()));
    }
    return ManuscriptProbes(in, std::move(sample));
  }
  std::pair<std::string, std::string> ProbeDoc() override {
    return {DocFor(0), ms_.cxg1};
  }

 private:
  std::unique_ptr<ColdFamily> family_;
  std::vector<std::unique_ptr<Conn>> conns_;
  /// One draw sequence per connection.
  std::vector<std::mt19937_64> rngs_;
  /// Per lane: (family index, answer hash) of every response.
  std::vector<std::vector<std::pair<size_t, uint64_t>>> answers_;
};

// ----------------------------------------------------------- edit_durable

class EditDurable : public ManuscriptWorkload {
 public:
  using ManuscriptWorkload::ManuscriptWorkload;

  bool Durable() const override { return true; }

  Status Generate() override {
    CXML_RETURN_IF_ERROR(GenerateManuscript());
    CXML_ASSIGN_OR_RETURN(pool_, MakeTrafficReadPool(opt_.seed, kContentChars,
                                                     2, 4096));
    // Uniform draws over the pool, not the skewed mix: with a version
    // every ~17 ms most reads then land on a fresh version and pay the
    // patched index and a cold evaluation, so the read median measures
    // what writes cost readers instead of straddling hits and misses.
    std::mt19937_64 rng(opt_.seed * 6151 + 3);
    for (std::vector<size_t>& stream : pool_.streams) {
      for (size_t& q : stream) q = rng() % pool_.queries.size();
    }
    return Status::Ok();
  }

  Status SetUp(const std::string& dir) override {
    data_dir_ = dir + "/primary";
    CXML_RETURN_IF_ERROR(cxml::wal::RemoveDirRecursive(data_dir_));
    CXML_RETURN_IF_ERROR(StartPrimary(
        {"--data-dir", data_dir_, "--checkpoint-every", "64"}));
    CXML_ASSIGN_OR_RETURN(Conn edit, Conn::Open(primary_->port()));
    CXML_RETURN_IF_ERROR(RegisterDoc(edit, "ms", ms_.cxg1));
    edit_conn_ = std::make_unique<Conn>(std::move(edit));
    CXML_ASSIGN_OR_RETURN(
        follower_,
        ServerProcess::Start(opt_.serverd,
                             {"--follow",
                              StrFormat("127.0.0.1:%u", primary_->port())}));
    read_conns_.clear();
    qids_.clear();
    for (size_t c = 0; c < 2; ++c) {
      CXML_ASSIGN_OR_RETURN(Conn conn, Conn::Open(primary_->port()));
      CXML_ASSIGN_OR_RETURN(std::vector<uint64_t> qids,
                            PrepareAll(conn, pool_.queries));
      read_conns_.push_back(std::make_unique<Conn>(std::move(conn)));
      qids_.push_back(std::move(qids));
    }
    for (size_t q = 0; q < pool_.queries.size(); ++q) {
      CXML_RETURN_IF_ERROR(
          read_conns_[0]->CallOk(QrunRequest("ms", qids_[0][q])).status());
    }
    // The follower serves the document once it bootstrapped.
    CXML_ASSIGN_OR_RETURN(Conn watch, Conn::Open(follower_->port()));
    watch_conn_ = std::make_unique<Conn>(std::move(watch));
    // A constant query: its answer is free, its version slot is not.
    CXML_ASSIGN_OR_RETURN(
        std::vector<uint64_t> watch_qid,
        PrepareAll(*watch_conn_, {Query{QueryKind::kXPath, "1"}}));
    watch_qid_ = watch_qid[0];
    Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
    while (FollowerVersion() < 1) {
      if (Clock::now() > give_up) {
        return cxml::status::Internal("follower never bootstrapped");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    sent_edits_ = 0;
    std::lock_guard<std::mutex> lock(mu_);
    outcomes_.clear();
    acked_at_.clear();
    served_at_.clear();
    reads_at_.clear();
    last_follower_version_ = 0;
    return Status::Ok();
  }

  void Measure(Phase* phase, bool traced, Clock::time_point deadline) override {
    Clock::time_point start = Clock::now();
    Lane* edit_lane = phase->NewLane(traced);
    std::vector<Lane*> read_lanes = {phase->NewLane(traced),
                                     phase->NewLane(traced)};
    std::atomic<bool> stop_watch{false};

    size_t first_edit = sent_edits_;
    OpenLoopLane edits(
        edit_conn_.get(), edit_lane, kEditRate, 0,
        [&](size_t i) {
          const EditSpec& e = edits_[(first_edit + i) % edits_.size()];
          Request r;
          r.verb = Verb::kEdit;
          r.document = "ms";
          r.ops = e.ops;
          return cxml::net::RenderRequest(r);
        },
        [&](size_t i, Clock::time_point, double us, Result<std::string> raw) {
          std::lock_guard<std::mutex> lock(mu_);
          Clock::time_point now = Clock::now();
          auto response = raw.ok() ? cxml::net::ParseResponse(*raw)
                                   : Result<Response>(raw.status());
          size_t index = first_edit + i;
          if (!response.ok()) {
            edit_lane->Fail(response.status().ToString());
            outcomes_[index] = 'f';
            return;
          }
          if (response->ok()) {
            edit_lane->op.Add(us);
            outcomes_[index] = 'a';
            acked_at_.emplace(response->version, now);
          } else if (IsEditRejection(response->status)) {
            ++edit_lane->rejected;
            outcomes_[index] = 'r';
          } else {
            edit_lane->Fail(response->status.ToString());
            outcomes_[index] = 'f';
          }
        });

    std::vector<std::unique_ptr<OpenLoopLane>> reads;
    for (size_t c = 0; c < 2; ++c) {
      Lane* lane = read_lanes[c];
      reads.push_back(std::make_unique<OpenLoopLane>(
          read_conns_[c].get(), lane, kReadRatePerConn,
          opt_.seed * 2 + c + 1,
          [this, c](size_t i) {
            const std::vector<size_t>& stream = pool_.streams[c];
            size_t q = stream[i % stream.size()];
            return cxml::net::RenderRequest(QrunRequest("ms", qids_[c][q]));
          },
          [this, c, lane](size_t i, Clock::time_point, double us,
                          Result<std::string> raw) {
            auto response = raw.ok() ? cxml::net::ParseResponse(*raw)
                                     : Result<Response>(raw.status());
            if (!response.ok() || !response->ok()) {
              lane->Fail(response.ok() ? response->status.ToString()
                                       : response.status().ToString());
              return;
            }
            lane->read.Add(us);
            ++lane->reads;
            const std::vector<size_t>& stream = pool_.streams[c];
            size_t q = stream[i % stream.size()];
            if (i % 5 == 0) {
              std::lock_guard<std::mutex> lock(mu_);
              reads_at_[response->version].emplace_back(
                  q, HashItems(response->items));
            }
            if (raw.ok() && lane->payloads.size() < kPayloadSamples / 4 &&
                i % 11 == 0) {
              lane->KeepPayload(cxml::net::RenderRequest(
                                    QrunRequest("ms", qids_[c][q])),
                                *raw);
            }
          }));
    }

    // The follower watcher: polls the replica's version every
    // millisecond; the first time it serves v is v's replication time.
    std::thread watcher([&] {
      Clock::time_point tick = Clock::now();
      while (!stop_watch.load()) {
        uint64_t v = FollowerVersion();
        Clock::time_point now = Clock::now();
        if (v > 0) {
          std::lock_guard<std::mutex> lock(mu_);
          for (uint64_t u = last_follower_version_ + 1; u <= v; ++u) {
            served_at_.emplace(u, now);
          }
          last_follower_version_ = std::max(last_follower_version_, v);
        }
        tick += std::chrono::milliseconds(1);
        std::this_thread::sleep_until(tick);
      }
    });

    std::vector<std::thread> threads;
    threads.emplace_back([&] { edits.Run(start, deadline); });
    for (auto& r : reads) {
      OpenLoopLane* lane = r.get();
      threads.emplace_back([lane, start, deadline] { lane->Run(start, deadline); });
    }
    for (std::thread& t : threads) t.join();
    sent_edits_ = first_edit + edit_lane->attempted;
    // Let the replica catch up before the watcher stops (bounded).
    uint64_t target = PrimaryVersion();
    Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < give_up) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (last_follower_version_ >= target) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop_watch.store(true);
    watcher.join();
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [version, acked] : acked_at_) {
      auto it = served_at_.find(version);
      if (it != served_at_.end()) lag_.Add(UsBetween(acked, it->second));
    }
    for (const auto& [i, outcome] : outcomes_) {
      if (outcome == 'a') user_bytes_ += edits_[i % edits_.size()].op_text.size();
    }
  }

  void AddWireLayers(Report* report) override {
    report->Add("wal.repl_lag_p50_us", lag_.Median(), "us", lag_.size());
  }

  void Check(std::vector<std::string>* problems) override {
    // 1. The replica caught up: same version, same answers.
    uint64_t version = PrimaryVersion();
    if (FollowerVersion() != version) {
      problems->push_back(StrFormat("follower at %llu, primary at %llu",
                                    (unsigned long long)FollowerVersion(),
                                    (unsigned long long)version));
    }
    // 2. The in-process replay of the same edit stream accepts and
    //    rejects exactly what the server did and answers identically,
    //    at a seeded sample of versions and at the end.
    cxml::service::DocumentStore store;
    if (!store.RegisterBytes("ms", ms_.cxg1).ok()) {
      problems->push_back("replay: register failed");
      return;
    }
    cxml::service::QueryService service(&store);
    std::vector<cxml::service::QueryHandle> handles;
    for (const Query& q : pool_.queries) {
      auto h = service.Prepare(q.text, q.kind);
      if (!h.ok()) {
        problems->push_back("replay: prepare failed");
        return;
      }
      handles.push_back(*h);
    }
    std::set<uint64_t> sampled;
    {
      std::mt19937_64 rng(opt_.seed);
      std::lock_guard<std::mutex> lock(mu_);
      std::vector<uint64_t> versions;
      for (const auto& [v, reads] : reads_at_) versions.push_back(v);
      std::shuffle(versions.begin(), versions.end(), rng);
      for (size_t n = 0; n < versions.size() && n < 8; ++n) {
        sampled.insert(versions[n]);
      }
    }
    auto check_version = [&](uint64_t v) {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = reads_at_.find(v);
      if (it == reads_at_.end()) return;
      for (const auto& [q, hash] : it->second) {
        auto r = service.Execute("ms", handles[q]);
        if (!r.ok() || HashItems(*r.items) != hash) {
          problems->push_back(StrFormat("wrong answer at version %llu for ",
                                        (unsigned long long)v) +
                              pool_.queries[q].text);
          return;
        }
      }
    };
    check_version(1);
    for (size_t i = 0; i < sent_edits_; ++i) {
      std::string op_text = edits_[i % edits_.size()].op_text;
      auto r = service.ExecuteEdit("ms", [op_text](cxml::edit::EditSession& s) {
        return cxml::wal::ApplyOpSets(s, {op_text});
      });
      char expect = 'f';
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = outcomes_.find(i);
        if (it != outcomes_.end()) expect = it->second;
      }
      char got = r.ok() ? 'a' : IsEditRejection(r.status) ? 'r' : 'f';
      if (expect != got) {
        problems->push_back(StrFormat("edit %zu: server '%c', replay '%c'", i,
                                      expect, got));
        return;
      }
      if (r.ok() && sampled.count(r.version) > 0) check_version(r.version);
    }
    auto replay_version = store.GetVersion("ms");
    if (!replay_version.ok() || *replay_version != version) {
      problems->push_back("replay ends at a different version");
    }
    std::vector<uint64_t> expected;
    for (const auto& h : handles) {
      auto r = service.Execute("ms", h);
      expected.push_back(r.ok() ? HashItems(*r.items) : 0);
    }
    auto compare = [&](Conn& conn, const char* who) {
      auto qids = PrepareAll(conn, pool_.queries);
      if (!qids.ok()) {
        problems->push_back(StrCat(who, ": prepare failed"));
        return;
      }
      for (size_t q = 0; q < qids->size(); ++q) {
        auto r = conn.CallOk(QrunRequest("ms", (*qids)[q]));
        if (!r.ok() || r->version != version ||
            HashItems(r->items) != expected[q]) {
          problems->push_back(StrCat(who, " answers differ on ",
                                     pool_.queries[q].text));
          return;
        }
      }
    };
    compare(*read_conns_[0], "primary");
    compare(*watch_conn_, "follower");
    // 3. A primary recovered from its data directory alone.
    read_conns_.clear();
    edit_conn_.reset();
    if (!primary_->Stop().ok()) problems->push_back("primary unclean stop");
    auto recovered = ServerProcess::Start(
        opt_.serverd, {"--content-chars", "0", "--data-dir", data_dir_});
    if (!recovered.ok()) {
      problems->push_back("recovery: " + recovered.status().ToString());
      return;
    }
    auto conn = Conn::Open((*recovered)->port());
    if (!conn.ok()) {
      problems->push_back("recovery: cannot connect");
      return;
    }
    compare(*conn, "recovered primary");
  }

  Status Probes(ProbeInputs* in) override {
    return ManuscriptProbes(in, pool_.queries);
  }

  const std::string& data_dir() const { return data_dir_; }
  /// Op-text bytes of every accepted EDIT, over all rounds.
  uint64_t user_bytes() const { return user_bytes_; }

 private:
  uint64_t FollowerVersion() {
    auto r = watch_conn_->CallOk(QrunRequest("ms", watch_qid_));
    return r.ok() ? r->version : 0;
  }
  uint64_t PrimaryVersion() {
    auto r = read_conns_[0]->CallOk(QrunRequest("ms", qids_[0][0]));
    return r.ok() ? r->version : 0;
  }

  ReadPool pool_;
  std::string data_dir_;
  std::unique_ptr<Conn> edit_conn_;
  std::vector<std::unique_ptr<Conn>> read_conns_;
  std::vector<std::vector<uint64_t>> qids_;
  std::unique_ptr<Conn> watch_conn_;
  uint64_t watch_qid_ = 0;
  size_t sent_edits_ = 0;

  std::mutex mu_;
  std::map<size_t, char> outcomes_;
  std::map<uint64_t, Clock::time_point> acked_at_;
  std::map<uint64_t, Clock::time_point> served_at_;
  uint64_t last_follower_version_ = 0;
  /// Over all rounds: replication lags and accepted op-text bytes.
  Samples lag_;
  uint64_t user_bytes_ = 0;
  std::map<uint64_t, std::vector<std::pair<size_t, uint64_t>>> reads_at_;
};

// ----------------------------------------------------------------- corpus

std::string InboxDocName(size_t i) { return StrFormat("inbox/d%06zu", i); }

class Corpus : public Workload {
 public:
  using Workload::Workload;

  Status Generate() override {
    for (size_t i = 0; i < kCorpusDocs; ++i) {
      resident_.push_back(MakeTeiDocument(opt_.seed, i, kContentChars));
    }
    for (size_t c = 0; c < 2; ++c) {
      std::vector<Query> queries;
      for (size_t i = 0; i < kCorpusQueriesPerConn; ++i) {
        queries.push_back(CorpusQuery(opt_.seed, c * kCorpusQueriesPerConn + i));
      }
      queries_.push_back(std::move(queries));
    }
    CXML_ASSIGN_OR_RETURN(write_ms_, MakeManuscript(opt_.seed, kContentChars));
    CXML_ASSIGN_OR_RETURN(edits_, MakeEditStream(opt_.seed, kContentChars,
                                                 256, 12));
    return Status::Ok();
  }

  Status SetUp(const std::string&) override {
    CXML_RETURN_IF_ERROR(StartPrimary({}));
    CXML_ASSIGN_OR_RETURN(Conn import, Conn::Open(primary_->port()));
    for (size_t i = 0; i < kCorpusDocs; ++i) {
      CXML_RETURN_IF_ERROR(
          ImportDoc(import, CorpusDocName(i), resident_[i]).status());
    }
    import_conn_ = std::make_unique<Conn>(std::move(import));
    coll_conns_.clear();
    qids_.clear();
    for (size_t c = 0; c < 2; ++c) {
      CXML_ASSIGN_OR_RETURN(Conn conn, Conn::Open(primary_->port()));
      CXML_ASSIGN_OR_RETURN(std::vector<uint64_t> qids,
                            PrepareAll(conn, queries_[c]));
      coll_conns_.push_back(std::make_unique<Conn>(std::move(conn)));
      qids_.push_back(std::move(qids));
    }
    oldest_ = kCorpusDocs;
    next_ = kCorpusDocs;
    // One collection query builds every document's index and engines.
    Request warm;
    warm.verb = Verb::kCollectionQuery;
    warm.pattern = "corpus/*";
    warm.qid = qids_[0][0];
    return coll_conns_[0]->CallOk(warm).status();
  }

  void Measure(Phase* phase, bool traced, Clock::time_point deadline) override {
    Lane* import_lane = phase->NewLane(traced);
    std::thread importer([&] {
      // Rolling imports land outside corpus/*: the server fails a
      // collection query whose document is removed mid-fan-out, so a
      // REMOVE inside the pattern would fail concurrent QCOLLs.
      Lane* lane = import_lane;
      Clock::time_point prev = Clock::now();
      while (Clock::now() < deadline) {
        std::string markup = MakeTeiDocument(opt_.seed, next_, kContentChars);
        lane->late.Add(UsSince(prev));
        double us = 0;
        Request r;
        r.verb = Verb::kImport;
        r.document = InboxDocName(next_);
        r.format = "tei";
        r.body = std::move(markup);
        ++lane->attempted;
        auto response = TimedCall(*import_conn_, r, lane, "import", &us);
        if (!response.ok() || !response->ok()) {
          lane->Fail(response.ok() ? response->status.ToString()
                                   : response.status().ToString());
          break;
        }
        lane->op.Add(us);
        ++next_;
        if (next_ - oldest_ > kInboxDocs) {
          Request remove;
          remove.verb = Verb::kRemove;
          remove.document = InboxDocName(oldest_);
          ++lane->attempted;
          auto removed = TimedCall(*import_conn_, remove, lane, "remove", &us);
          if (!removed.ok() || !removed->ok()) {
            lane->Fail("remove failed");
            break;
          }
          ++oldest_;
        }
        prev = Clock::now();
      }
    });
    size_t base = samples_.size();
    samples_.resize(base + 2);
    ClosedLoop(phase, 2, traced, deadline, [&](size_t c, size_t i, Lane* lane) {
      size_t q = (i * 37 + c * 11 + opt_.seed) % kCorpusQueriesPerConn;
      Request r;
      r.verb = Verb::kCollectionQuery;
      r.pattern = "corpus/*";
      r.qid = qids_[c][q];
      double us = 0;
      std::string raw_req, raw_resp;
      bool keep = lane->payloads.size() < kPayloadSamples / 4 && i % 5 == 0;
      ++lane->attempted;
      auto response = TimedCall(*coll_conns_[c], r, lane, "qcoll", &us,
                                keep ? &raw_req : nullptr,
                                keep ? &raw_resp : nullptr);
      if (!response.ok() || !response->ok()) {
        lane->Fail(response.ok() ? response->status.ToString()
                                 : response.status().ToString());
        return;
      }
      // The matched-document count rides in the version slot; the hit
      // flag is 0 only for a truncated collection.
      if (response->version != kCorpusDocs || !response->cache_hit) {
        lane->Fail("unexpected collection shape");
        return;
      }
      lane->read.Add(us);
      ++lane->reads;
      if (keep) lane->KeepPayload(raw_req, raw_resp);
      if (i % 25 == 0) samples_[base + c].push_back({c, q, response->items});
    });
    importer.join();
  }

  void Check(std::vector<std::string>* problems) override {
    // Sampled QCOLL rows against the in-process engines on the same
    // imported markup, document by document.
    std::mt19937_64 rng(opt_.seed);
    std::vector<Sample> picked;
    for (const auto& lane : samples_) {
      for (const Sample& s : lane) picked.push_back(s);
    }
    std::shuffle(picked.begin(), picked.end(), rng);
    if (picked.size() > 6) picked.resize(6);
    for (const Sample& s : picked) {
      std::map<std::string, std::vector<std::string>> by_doc;
      std::vector<std::string> order;
      for (const std::string& row : s.rows) {
        size_t tab = row.find('\t');
        if (tab == std::string::npos) {
          problems->push_back("malformed QCOLL row");
          return;
        }
        std::string doc = row.substr(0, tab);
        if (by_doc.count(doc) == 0) order.push_back(doc);
        by_doc[doc].push_back(row.substr(tab + 1));
      }
      if (!std::is_sorted(order.begin(), order.end())) {
        problems->push_back("QCOLL rows out of document order");
      }
      for (const auto& [doc, items] : by_doc) {
        size_t index = std::strtoul(doc.c_str() + 8, nullptr, 10);
        auto oracle = OracleFor(index);
        if (!oracle.ok()) {
          problems->push_back("oracle: " + oracle.status().ToString());
          return;
        }
        auto want = (*oracle)->Answer(queries_[s.conn][s.query]);
        if (!want.ok() || *want != items) {
          problems->push_back("wrong QCOLL rows for " + doc + " on " +
                              queries_[s.conn][s.query].text);
          return;
        }
      }
    }
    // QCOLL equals the per-document QRUN results in (document, rank)
    // order, now that the corpus is quiet.
    Request list;
    list.verb = Verb::kList;
    auto listed = coll_conns_[0]->CallOk(list);
    if (!listed.ok()) {
      problems->push_back("LIST failed");
      return;
    }
    std::vector<std::string> docs;
    for (const std::string& doc : listed->items) {
      if (doc.compare(0, 7, "corpus/") == 0) docs.push_back(doc);
    }
    for (size_t n = 0; n < 4; ++n) {
      size_t q = (n * 29 + opt_.seed) % kCorpusQueriesPerConn;
      Request coll;
      coll.verb = Verb::kCollectionQuery;
      coll.pattern = "corpus/*";
      coll.qid = qids_[0][q];
      auto rows = coll_conns_[0]->CallOk(coll);
      if (!rows.ok()) {
        problems->push_back("QCOLL failed after the window");
        return;
      }
      std::vector<std::string> expect;
      for (const std::string& doc : docs) {
        auto per_doc = coll_conns_[0]->CallOk(QrunRequest(doc, qids_[0][q]));
        if (!per_doc.ok()) {
          problems->push_back("QRUN failed on " + doc);
          return;
        }
        for (const std::string& item : per_doc->items) {
          expect.push_back(doc + "\t" + item);
        }
      }
      if (expect != rows->items) {
        problems->push_back("QCOLL differs from per-document QRUN on " +
                            queries_[0][q].text);
      }
    }
  }

  Status Probes(ProbeInputs* in) override {
    for (size_t i = 0; i < kCorpusDocs; ++i) {
      CXML_ASSIGN_OR_RETURN(cxml::ingest::ImportedDocument doc,
                            cxml::ingest::Import(resident_[i]));
      CXML_ASSIGN_OR_RETURN(std::string bytes, cxml::storage::Save(*doc.doc.g));
      if (i == 0) in->read_doc = bytes;
      in->collection.emplace_back(CorpusDocName(i), std::move(bytes));
    }
    in->collection_pattern = "corpus/*";
    in->queries.assign(queries_[0].begin(), queries_[0].begin() + 24);
    in->write_doc = write_ms_.cxg1;
    in->edits = edits_;
    in->tei.assign(resident_.begin(), resident_.begin() + 3);
    return Status::Ok();
  }

  std::pair<std::string, std::string> ProbeDoc() override {
    if (next_ == kCorpusDocs) {
      auto imported = cxml::ingest::Import(resident_[0]);
      return {CorpusDocName(0),
              imported.ok() ? cxml::storage::Save(*imported->doc.g).value_or("")
                            : ""};
    }
    size_t index = next_ - 1;
    auto imported = cxml::ingest::Import(
        MakeTeiDocument(opt_.seed, index, kContentChars));
    std::string bytes;
    if (imported.ok()) {
      bytes = cxml::storage::Save(*imported->doc.g).value_or("");
    }
    return {InboxDocName(index), bytes};
  }
  Query ProbeQuery() override { return Query{QueryKind::kXPath, "count(//s)"}; }

 private:
  struct Sample {
    size_t conn;
    size_t query;
    std::vector<std::string> rows;
  };

  Result<Oracle*> OracleFor(size_t index) {
    auto it = oracles_.find(index);
    if (it == oracles_.end()) {
      CXML_ASSIGN_OR_RETURN(
          cxml::ingest::ImportedDocument doc,
          cxml::ingest::Import(MakeTeiDocument(opt_.seed, index, kContentChars)));
      CXML_ASSIGN_OR_RETURN(std::string bytes, cxml::storage::Save(*doc.doc.g));
      CXML_ASSIGN_OR_RETURN(Oracle oracle, Oracle::Load(bytes));
      it = oracles_.emplace(index, std::move(oracle)).first;
    }
    return &it->second;
  }

  std::vector<std::string> resident_;
  std::vector<std::vector<Query>> queries_;
  Manuscript write_ms_;
  std::vector<EditSpec> edits_;
  std::unique_ptr<Conn> import_conn_;
  std::vector<std::unique_ptr<Conn>> coll_conns_;
  std::vector<std::vector<uint64_t>> qids_;
  size_t oldest_ = 0;
  size_t next_ = 0;
  std::vector<std::vector<Sample>> samples_;
  std::map<size_t, Oracle> oracles_;
};

// ------------------------------------------------------------------ main

std::unique_ptr<Workload> MakeWorkload(const Options& opt) {
  if (opt.workload == "read_hot") return std::make_unique<ReadHot>(opt);
  if (opt.workload == "read_cold") return std::make_unique<ReadCold>(opt);
  if (opt.workload == "edit_durable") return std::make_unique<EditDurable>(opt);
  if (opt.workload == "corpus") return std::make_unique<Corpus>(opt);
  return nullptr;
}

Result<Exposition> Scrape(ServerProcess* server) {
  CXML_ASSIGN_OR_RETURN(Conn conn, Conn::Open(server->port()));
  Request r;
  r.verb = Verb::kMetrics;
  CXML_ASSIGN_OR_RETURN(Response response, conn.CallOk(r));
  if (response.items.size() != 1) {
    return cxml::status::Internal("METRICS answered no exposition");
  }
  return Exposition::Parse(response.items[0]);
}

/// Closed-loop cached QRUN p50 (µs) against `port`, one connection.
Result<Samples> CachedQrun(uint16_t port, const std::string& doc,
                           const Query& q, double seconds) {
  CXML_ASSIGN_OR_RETURN(Conn conn, Conn::Open(port));
  CXML_ASSIGN_OR_RETURN(std::vector<uint64_t> qid, PrepareAll(conn, {q}));
  CXML_RETURN_IF_ERROR(conn.CallOk(QrunRequest(doc, qid[0])).status());
  Samples s;
  Clock::time_point end =
      Clock::now() + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  while (Clock::now() < end) {
    Clock::time_point t0 = Clock::now();
    CXML_RETURN_IF_ERROR(conn.CallOk(QrunRequest(doc, qid[0])).status());
    s.Add(UsSince(t0));
  }
  return s;
}

/// net.edge_us and obs.server_trace_cost_us: the same cached QRUN over
/// the wire (tracing on, the default), against a second server with
/// tracing off, and in process.
Status ProbeEdge(const Options& opt, Workload* w, Report* report) {
  auto [doc, cxg1] = w->ProbeDoc();
  Query q = w->ProbeQuery();
  CXML_ASSIGN_OR_RETURN(
      std::unique_ptr<ServerProcess> untraced,
      ServerProcess::Start(opt.serverd, {"--content-chars", "0",
                                         "--trace-sample-every", "0"}));
  {
    CXML_ASSIGN_OR_RETURN(Conn conn, Conn::Open(untraced->port()));
    CXML_RETURN_IF_ERROR(RegisterDoc(conn, doc, cxg1));
  }
  Samples traced_wire, untraced_wire;
  for (int round = 0; round < 3; ++round) {
    CXML_ASSIGN_OR_RETURN(Samples a,
                          CachedQrun(w->primary()->port(), doc, q, 0.2));
    CXML_ASSIGN_OR_RETURN(Samples b, CachedQrun(untraced->port(), doc, q, 0.2));
    traced_wire.Merge(a);
    untraced_wire.Merge(b);
  }
  CXML_RETURN_IF_ERROR(untraced->Stop());

  cxml::service::DocumentStore store;
  CXML_RETURN_IF_ERROR(store.RegisterBytes(doc, cxg1));
  cxml::service::QueryService service(&store);
  CXML_ASSIGN_OR_RETURN(cxml::service::QueryHandle handle,
                        service.Prepare(q.text, q.kind));
  Samples local;
  for (int i = 0; i < 4000; ++i) {
    Clock::time_point t0 = Clock::now();
    cxml::service::QueryResponse r = service.Execute(doc, handle);
    if (!r.ok()) return r.status;
    if (i > 0) local.Add(UsSince(t0));
  }
  report->Add("net.edge_us", traced_wire.Median() - local.Median(), "us",
              traced_wire.size());
  report->Add("obs.server_trace_cost_us",
              traced_wire.Median() - untraced_wire.Median(), "us",
              traced_wire.size());
  return Status::Ok();
}

void AddScrapedLayers(Workload* w, const Exposition& server,
                      const Exposition& follower, Report* report) {
  double hits = server.Scalar("cxml_cache_hits_total");
  double misses = server.Scalar("cxml_cache_misses_total");
  report->Add("service.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0, "ratio",
              static_cast<size_t>(hits + misses));
  report->Add("service.cache_lookups", hits + misses, "count");
  uint64_t n = 0;
  double wait_p50 =
      HistogramQuantile(server, "cxml_query_queue_us", 0.5, &n);
  report->Add("service.queue_wait_p50_us", wait_p50, "us", n);
  report->Add("service.queue_wait_p99_us",
              HistogramQuantile(server, "cxml_query_queue_us", 0.99),
              "us", n);
  double requests = server.Scalar("cxml_service_requests_total");
  double batches = server.Scalar("cxml_service_batches_total");
  report->Add("service.batch_size", batches > 0 ? requests / batches : 0,
              "requests/batch", static_cast<size_t>(batches));
  double patches = server.Scalar("cxml_index_patch_total");
  double rebuilds = server.Scalar("cxml_index_rebuild_total");
  report->Add("goddag.patch_ratio",
              patches + rebuilds > 0 ? patches / (patches + rebuilds) : 0,
              "ratio", static_cast<size_t>(patches + rebuilds));
  if (!w->Durable()) return;
  // The WAL and replica the workload drove.
  auto* durable = static_cast<EditDurable*>(w);
  double fsync_wait =
      HistogramQuantile(server, "cxml_wal_fsync_wait_us", 0.5, &n);
  report->Add("wal.fsync_wait_p50_us", fsync_wait, "us", n);
  double records = server.Scalar("cxml_wal_records_total");
  double fsyncs = server.Scalar("cxml_wal_fsyncs_total");
  report->Add("wal.commits_per_fsync", fsyncs > 0 ? records / fsyncs : 0,
              "records/fsync", static_cast<size_t>(fsyncs));
  double checkpoints =
      server.Scalar("cxml_wal_checkpoints_total");
  // Checkpoints are whole-document CXG1 images: count each at the size
  // of the newest one on disk.
  double image = 0;
  std::string doc_dir = durable->data_dir() + "/ms";
  if (auto files = cxml::wal::ListDir(doc_dir); files.ok()) {
    uint64_t newest = 0;
    for (const std::string& f : *files) {
      uint64_t v = 0;
      if (cxml::wal::ParseCheckpointFileName(f, &v) && v >= newest) {
        struct stat st;
        if (stat((doc_dir + "/" + f).c_str(), &st) == 0) {
          newest = v;
          image = static_cast<double>(st.st_size);
        }
      }
    }
  }
  double user = static_cast<double>(durable->user_bytes());
  double wal_bytes = server.Scalar("cxml_wal_bytes_total");
  report->Add("wal.bytes_per_user_byte",
              user > 0 ? (wal_bytes + checkpoints * image) / user : 0,
              "bytes/byte", static_cast<size_t>(user));
  report->Add("wal.snapshot_records",
              server.Scalar("cxml_wal_snapshot_records_total"),
              "count");
  report->Add("wal.checkpoints", checkpoints, "count");
  double checkpoint =
      HistogramQuantile(server, "cxml_wal_checkpoint_us", 0.5, &n);
  report->Add("wal.checkpoint_us", checkpoint, "us", n);
  double rounds = follower.Scalar("cxml_repl_syncs_total");
  double applied =
      follower.Scalar("cxml_repl_records_applied_total");
  report->Add("wal.sync_rounds_per_record", applied > 0 ? rounds / applied : 0,
              "rounds/record", static_cast<size_t>(applied));
  double apply_p50 =
      HistogramQuantile(follower, "cxml_repl_apply_us", 0.5, &n);
  report->Add("wal.follower_apply_us", apply_p50, "us", n);
}

/// End-to-end metrics over every round of one run. Each is a round's
/// figure (its throughput, median or p95), taken at the better quartile
/// over the rounds: on a shared host a neighbour's burst can only slow
/// a round, and it slows some rounds and not others, while a slower
/// program slows every round. The tail is p95 because edit_durable
/// acks only about 55 EDITs a second.
void AddEndToEnd(const std::vector<std::unique_ptr<Phase>>& rounds,
                 const Phase& all, Report* report, Report* layers) {
  Samples qps, read_p50, op_p50, op_p95, read_p99;
  for (const auto& r : rounds) {
    qps.Add(r->reads / r->seconds);
    read_p50.Add(r->read.Median());
    op_p50.Add(r->op.Median());
    op_p95.Add(r->op.Quantile(0.95));
    read_p99.Add(r->read.Quantile(0.99));
  }
  report->Add("read_qps", qps.Quantile(0.75), "1/s", all.reads);
  report->Add("read_p50_us", read_p50.Quantile(0.25), "us", all.read.size());
  report->Add("op_p50_us", op_p50.Quantile(0.25), "us", all.op.size());
  report->Add("op_p95_us", op_p95.Quantile(0.25), "us", all.op.size());
  // Open-loop read tails on edit_durable swing by more than any bound
  // from run to run on a shared host, so the read p99 is reported with
  // the layers instead, as the median over rounds.
  layers->Add("bench.read_p99_us", read_p99.Median(), "us", all.read.size());
}

int Main(const Options& opt) {
  std::unique_ptr<Workload> w = MakeWorkload(opt);
  if (w == nullptr) {
    std::fprintf(stderr, "cxbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  auto fail = [&](const Status& st) {
    std::fprintf(stderr, "cxbench: %s\n", st.ToString().c_str());
    if (w->primary() != nullptr) {
      std::fprintf(stderr, "primary output:\n%s\n",
                   w->primary()->Output().c_str());
    }
    return 1;
  };
  Clock::time_point run_start = Clock::now();
  auto stage = [&](const std::string& what) {
    std::printf("[%7.3f s] %s\n", UsSince(run_start) / 1e6, what.c_str());
    std::fflush(stdout);
  };
  Status generated = w->Generate();
  stage("inputs generated");
  if (!generated.ok()) return fail(generated.WithContext("generating inputs"));

  auto scrape = [&](ServerProcess* s) {
    if (s == nullptr) return Exposition();
    auto e = Scrape(s);
    return e.ok() ? *e : Exposition();
  };
  Samples setup;
  // The window is cut into rounds, each on freshly set-up servers. A
  // traced run records spans in its odd rounds only; the even rounds
  // are the untraced baseline for the tracing cost.
  Exposition server_delta, follower_delta;
  std::vector<std::unique_ptr<Phase>> rounds;
  double rss = 0;
  const double round_seconds = opt.seconds / kRounds;
  for (int r = 0; r < kRounds; ++r) {
    std::string dir = StrFormat("%s/round%d", opt.work_dir.c_str(), r);
    mkdir(dir.c_str(), 0755);
    Clock::time_point t0 = Clock::now();
    Status up = w->SetUp(dir);
    if (!up.ok()) return fail(up.WithContext("set-up"));
    setup.Add(UsSince(t0) / 1e6);
    Exposition before = scrape(w->primary());
    Exposition fbefore = scrape(w->follower());
    rounds.push_back(std::make_unique<Phase>());
    Clock::time_point start = Clock::now();
    w->Measure(rounds.back().get(), opt.trace && r % 2 == 1,
               start + std::chrono::microseconds(
                           static_cast<int64_t>(round_seconds * 1e6)));
    rounds.back()->seconds = UsSince(start) / 1e6;
    AccumulateDelta(&server_delta, before, scrape(w->primary()));
    AccumulateDelta(&follower_delta, fbefore, scrape(w->follower()));
    rss = std::max({rss, w->primary()->PeakRssMb(),
                    w->follower() != nullptr ? w->follower()->PeakRssMb() : 0});
    {
      Phase& p = *rounds.back();
      p.Collect();
      stage(StrFormat("round %d: %.1f reads/s, read p50 %.1f p99 %.1f us, "
                      "op p50 %.1f p95 %.1f us",
                      r, p.reads / p.seconds, p.read.Median(),
                      p.read.Quantile(0.99), p.op.Median(),
                      p.op.Quantile(0.95)));
    }
    if (r + 1 < kRounds) w->TearDown();
  }

  Phase all;
  for (auto& p : rounds) {
    all.seconds += p->seconds;
    all.read.Merge(p->read);
    all.op.Merge(p->op);
    all.late.Merge(p->late);
    all.reads += p->reads;
    all.attempted += p->attempted;
    all.failed += p->failed;
    all.rejected += p->rejected;
    all.backlog_max = std::max(all.backlog_max, p->backlog_max);
    all.errors.insert(all.errors.end(), p->errors.begin(), p->errors.end());
    all.payloads.insert(all.payloads.end(), p->payloads.begin(),
                        p->payloads.end());
  }

  Report e2e, layers;
  AddEndToEnd(rounds, all, &e2e, &layers);
  std::vector<std::string> problems;
  if (opt.trace) {
    w->AddWireLayers(&layers);
    AddScrapedLayers(w.get(), server_delta, follower_delta, &layers);
    Status edge = ProbeEdge(opt, w.get(), &layers);
    if (!edge.ok()) return fail(edge.WithContext("edge probe"));
    stage("wire layers measured");
  }
  w->Check(&problems);
  stage("answers checked");
  e2e.Add("server_rss_mb", rss, "MB");

  // The set-ups that are only timed come after the window: the shutdown
  // of their servers (WAL flushes on edit_durable) would still be
  // settling when the first round starts.
  w->TearDown();
  for (int i = 0; i < kExtraSetups; ++i) {
    std::string dir = StrFormat("%s/setup%d", opt.work_dir.c_str(), i);
    mkdir(dir.c_str(), 0755);
    Clock::time_point t0 = Clock::now();
    Status up = w->SetUp(dir);
    if (!up.ok()) return fail(up.WithContext("set-up"));
    setup.Add(UsSince(t0) / 1e6);
    w->TearDown();
  }
  stage("set-up timed");
  e2e.Add("setup_s", setup.Median(), "s", setup.size());

  if (opt.trace) {
    ProbeInputs in;
    Status filled = w->Probes(&in);
    if (!filled.ok()) return fail(filled.WithContext("probe inputs"));
    in.payloads = all.payloads;
    in.wal_probe = !w->Durable();
    in.work_dir = opt.work_dir;
    SpanLog probe_spans(true);
    Status probed = RunLayerProbes(in, &layers, &probe_spans);
    if (!probed.ok()) return fail(probed.WithContext("layer probes"));

    std::vector<const SpanLog*> logs;
    for (auto& p : rounds) {
      for (auto& lane : p->lanes) logs.push_back(&lane->spans);
    }
    logs.push_back(&probe_spans);
    mkdir(opt.out_dir.c_str(), 0755);
    // One bounded file per workload, so repeated runs do not pile up.
    std::string path = StrFormat("%s/spans-%s.jsonl", opt.out_dir.c_str(),
                                 opt.workload.c_str());
    std::vector<SpanTotals> totals = WriteSpans(path, logs, kSpansWritten);
    std::printf("spans written to %s, at most %zu (self time = span minus "
                "its children)\n",
                path.c_str(), kSpansWritten);
    for (const SpanTotals& t : totals) {
      std::printf("  span %-22s n=%-8zu total=%12.1f us  self=%12.1f us\n",
                  t.name.c_str(), t.count, t.total_us, t.self_us);
    }
    Samples untraced, traced;
    for (size_t r = 0; r < rounds.size(); ++r) {
      (r % 2 == 1 ? traced : untraced).Add(rounds[r]->read.Median());
    }
    layers.Add("bench.trace_overhead_pct",
               untraced.Median() > 0
                   ? (traced.Median() / untraced.Median() - 1) * 100
                   : 0,
               "%", traced.size());
    double q = 0;
    double late = all.late.Tail(&q);
    layers.Add("bench.gen_late_p99_us", late, "us", all.late.size(),
               StrFormat("p%g", q * 100));
    layers.Add("bench.read_backlog_max", static_cast<double>(all.backlog_max),
               "count");
    layers.Add("bench.edit_rejected", static_cast<double>(all.rejected), "count");
    layers.Add("bench.failed_frac",
               all.attempted > 0
                   ? static_cast<double>(all.failed) / all.attempted
                   : 0,
               "ratio", all.attempted);
  }
  stage("probes done");
  w->TearDown();
  (void)cxml::wal::RemoveDirRecursive(opt.work_dir);
  stage("torn down");

  for (const std::string& e : all.errors) {
    problems.push_back("operation failed: " + e);
  }
  bool correct = problems.empty();
  for (const std::string& p : problems) std::printf("PROBLEM %s\n", p.c_str());
  std::printf("workload %s seed %llu: %.2f s, %llu attempted, %llu failed, "
              "%llu edits rejected\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              all.seconds, static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed),
              static_cast<unsigned long long>(all.rejected));
  const Report& shown = opt.trace ? layers : e2e;
  auto print = [](const char* title, const Report& r) {
    std::printf("%s\n", title);
    for (const Metric& m : r.metrics()) {
      std::printf("  %-28s %14.3f %-14s n=%-8zu %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples, m.note.c_str());
    }
  };
  print("end-to-end:", e2e);
  if (opt.trace) print("per-layer:", layers);

  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(all.attempted, 1)),
      static_cast<unsigned long long>(all.failed));
  bool first = true;
  for (const Metric& m : shown.metrics()) {
    json += StrFormat("%s%s: {\"value\": %.17g, \"unit\": %s}",
                      first ? "" : ", ", JsonString(m.name).c_str(), m.value,
                      JsonString(m.unit).c_str());
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace cxbench

int main(int argc, char** argv) {
  cxbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--serverd") {
      opt.serverd = value;
    } else if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else {
      std::fprintf(stderr, "cxbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.serverd.empty() || opt.workload.empty() || opt.work_dir.empty() ||
      !(opt.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: cxbench --serverd PATH --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--out-dir DIR]\n");
    return 2;
  }
  mkdir(opt.work_dir.c_str(), 0755);
  return cxbench::Main(opt);
}
