#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "fault/injector.h"
#include "goddag/builder.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "service/document_store.h"
#include "service/query_service.h"
#include "storage/binary.h"
#include "workload/generator.h"

namespace cxml::net {
namespace {

// ------------------------------------------------------------- framing

TEST(FrameTest, RoundTripsPayloads) {
  FrameDecoder decoder;
  std::string wire = EncodeFrame("PING");
  AppendFrame(&wire, "");
  AppendFrame(&wire, std::string("binary\0bytes\nhere", 17));

  ASSERT_TRUE(decoder.Feed(wire).ok());
  std::string payload;
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "PING");
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, std::string("binary\0bytes\nhere", 17));
  EXPECT_FALSE(decoder.Next(&payload));
}

TEST(FrameTest, ReassemblesByteAtATime) {
  const std::string wire = EncodeFrame("QUERY ms XPATH\ncount(//w)");
  FrameDecoder decoder;
  std::string payload;
  for (size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(decoder.Feed(wire.substr(i, 1)).ok());
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(decoder.HasFrame());
    }
  }
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "QUERY ms XPATH\ncount(//w)");
}

TEST(FrameTest, RejectsMalformedHeaders) {
  {
    FrameDecoder decoder;
    EXPECT_EQ(decoder.Feed("HTTP/1.1 200 OK\n").code(),
              StatusCode::kParseError);
    // The error is sticky: framing is unrecoverable.
    EXPECT_EQ(decoder.Feed(EncodeFrame("PING")).code(),
              StatusCode::kParseError);
  }
  {
    FrameDecoder decoder;
    EXPECT_EQ(decoder.Feed("CXP1 12x\nhello").code(),
              StatusCode::kParseError);
  }
  {
    FrameDecoder decoder(/*max_frame_bytes=*/1024);
    EXPECT_EQ(decoder.Feed("CXP1 2048\n").code(), StatusCode::kParseError);
  }
  {
    FrameDecoder decoder;
    // An endless header (no newline) must not buffer forever.
    EXPECT_EQ(decoder.Feed(std::string(100, 'A')).code(),
              StatusCode::kParseError);
  }
  {
    FrameDecoder decoder;
    // Completed frames survive a later violation.
    std::string wire = EncodeFrame("PING");
    wire += "garbage without structure that overflows the header limit";
    EXPECT_EQ(decoder.Feed(wire).code(), StatusCode::kParseError);
    std::string payload;
    ASSERT_TRUE(decoder.Next(&payload));
    EXPECT_EQ(payload, "PING");
  }
}

// ------------------------------------------------------------ protocol

TEST(ProtocolTest, RequestRoundTrips) {
  Request query;
  query.verb = Verb::kQuery;
  query.document = "ms";
  query.kind = service::QueryKind::kXQuery;
  query.body = "for $w in //w\nreturn {string($w)}";
  auto parsed = ParseRequest(RenderRequest(query));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->verb, Verb::kQuery);
  EXPECT_EQ(parsed->document, "ms");
  EXPECT_EQ(parsed->kind, service::QueryKind::kXQuery);
  EXPECT_EQ(parsed->body, query.body);

  Request edit;
  edit.verb = Verb::kEdit;
  edit.document = "ms";
  edit.ops = {EditOp::Select(10, 50), EditOp::Apply(2, "a0")};
  parsed = ParseRequest(RenderRequest(edit));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->ops.size(), 2u);
  EXPECT_EQ(parsed->ops[0].kind, EditOp::Kind::kSelect);
  EXPECT_EQ(parsed->ops[0].chars, Interval(10, 50));
  EXPECT_EQ(parsed->ops[1].kind, EditOp::Kind::kApply);
  EXPECT_EQ(parsed->ops[1].hierarchy, 2u);
  EXPECT_EQ(parsed->ops[1].tag, "a0");

  Request reg;
  reg.verb = Verb::kRegister;
  reg.document = "up";
  reg.body = std::string("CXG1\0raw\nbinary", 15);
  parsed = ParseRequest(RenderRequest(reg));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->body, reg.body);

  for (Verb verb : {Verb::kList, Verb::kStat, Verb::kMetrics, Verb::kPing,
                    Verb::kEditCommit, Verb::kEditAbort}) {
    Request bare;
    bare.verb = verb;
    parsed = ParseRequest(RenderRequest(bare));
    ASSERT_TRUE(parsed.ok()) << VerbToString(verb);
    EXPECT_EQ(parsed->verb, verb);
  }

  Request trace;
  trace.verb = Verb::kTrace;
  trace.count = 16;
  parsed = ParseRequest(RenderRequest(trace));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->verb, Verb::kTrace);
  EXPECT_EQ(parsed->count, 16u);
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("FROB ms").ok());
  EXPECT_FALSE(ParseRequest("QUERY ms").ok());              // no kind
  EXPECT_FALSE(ParseRequest("QUERY ms SQL\nselect 1").ok());
  EXPECT_FALSE(ParseRequest("QUERY ms XPATH\n").ok());      // no body
  EXPECT_FALSE(ParseRequest("QUERY bad name XPATH\n//w").ok());
  EXPECT_FALSE(ParseRequest("REMOVE").ok());
  EXPECT_FALSE(ParseRequest("EDIT ms\nSELECT 1 2\nAPPLY 2 a0").ok())
      << "EDIT without COMMIT must not parse";
  EXPECT_FALSE(ParseRequest("EDIT ms\nCOMMIT").ok());
  EXPECT_FALSE(ParseRequest("EDIT ms\nSELECT 1\nCOMMIT").ok());
  EXPECT_FALSE(ParseRequest("EDIT ms\nCOMMIT\nSELECT 1 2").ok());
  EXPECT_FALSE(ParseRequest("EOP\nCOMMIT").ok());
  EXPECT_FALSE(ParseRequest("PING extra").ok());
  EXPECT_FALSE(ParseRequest("METRICS extra").ok());
  EXPECT_FALSE(ParseRequest("TRACE").ok());      // count required
  EXPECT_FALSE(ParseRequest("TRACE 0").ok());    // zero is meaningless
  EXPECT_FALSE(ParseRequest("TRACE ten").ok());
  EXPECT_FALSE(ParseRequest("TRACE 3 4").ok());
}

TEST(ProtocolTest, SyncRequestRoundTrips) {
  Request sync;
  sync.verb = Verb::kSync;
  sync.document = "ms";
  sync.from_version = 41;
  auto parsed = ParseRequest(RenderRequest(sync));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->verb, Verb::kSync);
  EXPECT_EQ(parsed->document, "ms");
  EXPECT_EQ(parsed->from_version, 41u);

  parsed = ParseRequest("SYNC ms 0");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->from_version, 0u);

  EXPECT_FALSE(ParseRequest("SYNC").ok());           // no document
  EXPECT_FALSE(ParseRequest("SYNC ms").ok());        // no version
  EXPECT_FALSE(ParseRequest("SYNC ms -1").ok());
  EXPECT_FALSE(ParseRequest("SYNC ms five").ok());
  EXPECT_FALSE(ParseRequest("SYNC ms 1 2").ok());
  // 20 digits overflow the wire integer cap.
  EXPECT_FALSE(ParseRequest("SYNC ms 18446744073709551615").ok());
}

TEST(ProtocolTest, ResponseRoundTrips) {
  std::vector<std::string> items = {"alpha", "", "two words",
                                    "multi\nline item"};
  auto parsed = ParseResponse(RenderItems(items, 7, true));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->ok());
  EXPECT_EQ(parsed->items, items);
  EXPECT_EQ(parsed->version, 7u);
  EXPECT_TRUE(parsed->cache_hit);

  parsed = ParseResponse(RenderVersion(42));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->version, 42u);
  EXPECT_TRUE(parsed->items.empty());

  // An application error crosses the wire with its code and message.
  parsed = ParseResponse(RenderError(
      status::FailedPrecondition("write conflict on 'ms'\nbase 3")));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(parsed->status.message().find("write conflict"),
            std::string::npos);

  EXPECT_FALSE(ParseResponse("YES 1 2 3\n").ok());
  EXPECT_FALSE(ParseResponse("OK 2 0 0\n5 hello\n").ok());  // missing item
  EXPECT_FALSE(ParseResponse("OK 1 0 0\n99 short\n").ok());
  EXPECT_FALSE(ParseResponse("OK 0 0 0\ntrailing").ok());
  // A hostile item count must be a parse error, not a giant reserve().
  EXPECT_FALSE(ParseResponse("OK 9999999999999999999 0 0\n").ok());
  EXPECT_FALSE(ParseResponse("OK 1000000000 0 0\n").ok());
}

/// RenderItems writes its decimals in place; the wire bytes must hold
/// across every digit-count boundary an item length or the header can
/// cross.
TEST(ProtocolTest, RenderItemsGoldenBytes) {
  EXPECT_EQ(RenderItems({}, 0, false), "OK 0 0 0\n");
  EXPECT_EQ(RenderItems({}, 18446744073709551615ull, true),
            "OK 0 18446744073709551615 1\n");

  const std::vector<std::string> items = {
      "",
      std::string(9, 'a'),
      std::string(10, 'b'),
      std::string(99, 'c'),
      std::string(100, 'd'),
      std::string(65536, 'e'),
  };
  const std::string golden = "OK 6 42 1\n"
                             "0 \n"
                             "9 " + items[1] + "\n"
                             "10 " + items[2] + "\n"
                             "99 " + items[3] + "\n"
                             "100 " + items[4] + "\n"
                             "65536 " + items[5] + "\n";
  EXPECT_EQ(RenderItems(items, 42, true), golden);
  // Item bytes are opaque: newlines and NULs travel as they are.
  const std::string binary("x\n\0y", 4);
  EXPECT_EQ(RenderItems({binary}, 7, false), "OK 1 7 0\n4 " + binary + "\n");

  EXPECT_EQ(EncodeFrame(""), "CXP1 0\n");
  EXPECT_EQ(EncodeFrame(golden), "CXP1 65790\n" + golden);
}

TEST(ProtocolTest, RejectsInjectionProneTags) {
  // A newline inside a tag would smuggle an extra op line; whitespace
  // would change the APPLY arity. Both are refused before rendering...
  EXPECT_EQ(ValidateEditOps({EditOp::Apply(2, "a0\nSELECT 0 40")}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateEditOps({EditOp::Apply(2, "my tag")}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateEditOps({EditOp::Apply(2, "")}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ValidateEditOps({EditOp::Select(0, 4),
                               EditOp::Apply(2, "a0")}).ok());
  // ...and the server-side parser rejects control bytes that survive
  // space-tokenization.
  EXPECT_FALSE(ParseRequest("EDIT ms\nAPPLY 2 bad\ttag\nCOMMIT").ok());
}

// ------------------------------------------------------- server fixture

constexpr size_t kContentChars = 3000;

const std::string& CorpusBytes() {
  static const std::string* bytes = [] {
    workload::GeneratorParams params;
    params.content_chars = kContentChars;
    auto corpus = workload::GenerateManuscript(params);
    EXPECT_TRUE(corpus.ok()) << corpus.status();
    auto g = goddag::Builder::Build(*corpus->doc);
    EXPECT_TRUE(g.ok()) << g.status();
    auto saved = storage::Save(*g);
    EXPECT_TRUE(saved.ok()) << saved.status();
    return new std::string(std::move(saved).value());
  }();
  return *bytes;
}

/// First offset >= `from` where an `a0` insert of length `len` fits
/// (within one hierarchy markup must stay nested, so inserts need gaps).
size_t FindFreeA0Gap(const goddag::Goddag& g, size_t from, size_t len) {
  std::vector<Interval> taken;
  for (goddag::NodeId node : g.ElementsByTag("a0")) {
    taken.push_back(g.char_range(node));
  }
  size_t offset = from;
  while (offset + len <= g.content().size()) {
    bool collides = false;
    for (const Interval& t : taken) {
      if (offset < t.end && t.begin < offset + len) {
        offset = t.end;
        collides = true;
        break;
      }
    }
    if (!collides) return offset;
  }
  ADD_FAILURE() << "no free a0 gap of length " << len;
  return 0;
}

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.RegisterBytes("ms", CorpusBytes()).ok());
    service_ = std::make_unique<service::QueryService>(
        &store_, service::QueryServiceOptions{/*num_threads=*/2,
                                              /*cache_capacity=*/256});
    ServerOptions options;
    options.num_workers = 4;
    server_ = std::make_unique<Server>(&store_, service_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    server_->Stop();
    server_.reset();
    service_.reset();
  }

  Client Connect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

  /// A free gap in the *current* snapshot, found through the back door
  /// the test conveniently has.
  Interval FreeGap(size_t from, size_t len = 40) {
    auto snap = store_.GetSnapshot("ms");
    EXPECT_TRUE(snap.ok());
    size_t offset = FindFreeA0Gap(*(*snap)->goddag, from, len);
    return Interval(offset, offset + len);
  }

  /// Responses the poll thread answered from the result cache.
  uint64_t InlineResponses() {
    return service_->registry()->GetCounter("cxml_server_inline_total")
        ->Value();
  }

  service::DocumentStore store_;
  std::unique_ptr<service::QueryService> service_;
  std::unique_ptr<Server> server_;
};

std::string Frame(const Request& request) {
  return EncodeFrame(RenderRequest(request));
}

Request PrepareRequest(service::QueryKind kind, std::string expression) {
  Request request;
  request.verb = Verb::kQueryPrepare;
  request.kind = kind;
  request.body = std::move(expression);
  return request;
}

Request RunRequest(std::string document, uint64_t qid) {
  Request request;
  request.verb = Verb::kQueryRun;
  request.document = std::move(document);
  request.qid = qid;
  return request;
}

/// Reads from a raw connection until `n` responses parsed or the peer
/// closed.
std::vector<Response> ReadResponses(const Fd& fd, FrameDecoder* decoder,
                                    size_t n) {
  std::vector<Response> responses;
  std::string buffer(64 * 1024, '\0');
  std::string payload;
  for (;;) {
    while (responses.size() < n && decoder->Next(&payload)) {
      auto parsed = ParseResponse(payload);
      EXPECT_TRUE(parsed.ok()) << parsed.status();
      if (parsed.ok()) responses.push_back(std::move(parsed).value());
    }
    if (responses.size() >= n) break;
    auto got = RecvSome(fd, buffer.data(), buffer.size());
    if (!got.ok() || *got == 0) break;
    EXPECT_TRUE(decoder->Feed(std::string_view(buffer.data(), *got)).ok());
  }
  return responses;
}

/// One sample line ("<name> <value>") of a METRICS exposition.
uint64_t MetricValue(const std::string& exposition, const std::string& name) {
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, name.size() + 1, name + " ") == 0) {
      return std::strtoull(line.c_str() + name.size() + 1, nullptr, 10);
    }
  }
  ADD_FAILURE() << "no sample line for " << name;
  return 0;
}

// -------------------------------------------------------- end to end

TEST_F(NetTest, PingListStat) {
  Client client = Connect();
  ASSERT_TRUE(client.Ping().ok());

  auto names = client.List();
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_EQ(*names, std::vector<std::string>{"ms"});

  auto stat = client.Stat();
  ASSERT_TRUE(stat.ok()) << stat.status();
  bool saw_documents = false;
  for (const std::string& line : *stat) {
    if (line == "documents 1") saw_documents = true;
  }
  EXPECT_TRUE(saw_documents) << "STAT misses 'documents 1'";
}

/// The acceptance scenario: a remote client registers a document,
/// queries it via Extended XPath and XQuery, commits an edit, and
/// observes the post-edit result — all over CXP/1.
TEST_F(NetTest, RegisterQueryEditObserve) {
  Client client = Connect();

  // Register a second document from raw CXG1 bytes.
  auto version = client.Register("remote", CorpusBytes());
  ASSERT_TRUE(version.ok()) << version.status();
  EXPECT_EQ(*version, 1u);
  auto names = client.List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"ms", "remote"}));

  // Extended XPath with the overlap axis, then XQuery over the wire.
  auto xpath = client.Query("remote", "count(//w[overlapping::line])",
                            service::QueryKind::kXPath);
  ASSERT_TRUE(xpath.ok()) << xpath.status();
  ASSERT_EQ(xpath->items.size(), 1u);
  EXPECT_GT(std::stoi(xpath->items[0]), 0);
  EXPECT_EQ(xpath->version, 1u);

  auto xquery = client.Query(
      "remote", "let $n := count(//w) return {string($n)}",
      service::QueryKind::kXQuery);
  ASSERT_TRUE(xquery.ok()) << xquery.status();
  ASSERT_EQ(xquery->items.size(), 1u);

  // A repeated query is served from the result cache.
  auto warm = client.Query("remote", "count(//w[overlapping::line])",
                           service::QueryKind::kXPath);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->items, xpath->items);

  // Edit: insert one <a0> annotation, observe the version bump and the
  // post-edit result of a fresh (invalidated) query.
  auto before = client.Query("remote", "count(//a0)",
                             service::QueryKind::kXPath);
  ASSERT_TRUE(before.ok());
  int a0_before = std::stoi(before->items[0]);

  auto snap = store_.GetSnapshot("remote");
  ASSERT_TRUE(snap.ok());
  size_t offset = FindFreeA0Gap(*(*snap)->goddag, 0, 40);
  auto committed = client.Edit(
      "remote", {EditOp::Select(offset, offset + 40), EditOp::Apply(2, "a0")});
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(*committed, 2u);

  auto after = client.Query("remote", "count(//a0)",
                            service::QueryKind::kXPath);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->cache_hit);
  EXPECT_EQ(after->version, 2u);
  EXPECT_EQ(std::stoi(after->items[0]), a0_before + 1);

  // Remove; further queries answer NotFound over the wire.
  ASSERT_TRUE(client.Remove("remote").ok());
  auto gone = client.Query("remote", "count(//w)",
                           service::QueryKind::kXPath);
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

TEST_F(NetTest, QueryErrorsSurfaceWithCodes) {
  Client client = Connect();
  auto bad = client.Query("ms", "//w[", service::QueryKind::kXPath);
  EXPECT_FALSE(bad.ok());
  auto missing = client.Query("ghost", "//w", service::QueryKind::kXPath);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The connection survives application errors.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

/// METRICS round trip: after real traffic, the exposition arrives as
/// one parseable blob holding the server's counters, the service's
/// histograms, and values consistent with STAT (which reads the same
/// registry).
TEST_F(NetTest, MetricsRoundTripMatchesStat) {
  Client client = Connect();
  ASSERT_TRUE(
      client.Query("ms", "count(//w)", service::QueryKind::kXPath).ok());
  ASSERT_TRUE(
      client.Query("ms", "count(//w)", service::QueryKind::kXPath).ok());

  auto exposition = client.Metrics();
  ASSERT_TRUE(exposition.ok()) << exposition.status();
  // At least one counter line and one histogram bucket line, each
  // "name value" with a numeric value.
  EXPECT_NE(exposition->find("cxml_server_frames_total "),
            std::string::npos);
  EXPECT_NE(exposition->find("cxml_service_requests_total 2"),
            std::string::npos);
  EXPECT_NE(exposition->find("cxml_cache_hits_total 1"),
            std::string::npos);
  EXPECT_NE(exposition->find("cxml_query_us_bucket{le="),
            std::string::npos);
  EXPECT_NE(exposition->find("cxml_query_us_count 2"), std::string::npos);
  EXPECT_NE(exposition->find("cxml_query_us_p50 "), std::string::npos);

  // STAT reads the same registry: its service_requests must agree with
  // the exposition's counter (plus the METRICS frame itself not yet
  // counted as a query).
  auto stat = client.Stat();
  ASSERT_TRUE(stat.ok()) << stat.status();
  bool saw = false;
  for (const std::string& line : *stat) {
    if (line == "service_requests 2") saw = true;
  }
  EXPECT_TRUE(saw) << "STAT disagrees with the registry";
}

/// The tentpole acceptance: one traced query surfaces at least four
/// distinct stages over the wire, and the root stages' micros account
/// for the request's end-to-end total (within 20%).
TEST_F(NetTest, TraceShowsStagesSummingToTotal) {
  Client client = Connect();
  // Cold overlap query on a fresh store: index build, cache miss, and
  // evaluation all land in this one request's trace, and the request
  // is slow enough that integer-µs rounding cannot hide the stages.
  ASSERT_TRUE(client
                  .Query("ms", "//w[overlapping::line]",
                         service::QueryKind::kXPath)
                  .ok());

  auto traces = client.Traces(10);
  ASSERT_TRUE(traces.ok()) << traces.status();
  ASSERT_FALSE(traces->empty());
  // Newest first; the QUERY is the most recent finished request.
  const std::string& trace = (*traces)[0];
  ASSERT_NE(trace.find("QUERY ms XPATH hash="), std::string::npos)
      << trace;

  // Header: "#<id> <label> total=<N>us".
  size_t total_pos = trace.find("total=");
  ASSERT_NE(total_pos, std::string::npos) << trace;
  uint64_t total_us =
      std::strtoull(trace.c_str() + total_pos + 6, nullptr, 10);
  ASSERT_GT(total_us, 0u) << trace;

  // Stage lines: "<indent>name <N>us[ (note)]". Roots indent exactly
  // two spaces; deeper stages are children and must not double-count.
  std::istringstream in(trace);
  std::string line;
  std::getline(in, line);  // header
  std::set<std::string> names;
  uint64_t root_sum_us = 0;
  while (std::getline(in, line)) {
    size_t name_begin = line.find_first_not_of(' ');
    ASSERT_NE(name_begin, std::string::npos) << trace;
    size_t name_end = line.find(' ', name_begin);
    ASSERT_NE(name_end, std::string::npos) << trace;
    names.insert(line.substr(name_begin, name_end - name_begin));
    if (name_begin == 2) {
      root_sum_us +=
          std::strtoull(line.c_str() + name_end + 1, nullptr, 10);
    }
  }
  EXPECT_GE(names.size(), 4u) << trace;
  EXPECT_TRUE(names.count("decode")) << trace;
  EXPECT_TRUE(names.count("service")) << trace;
  EXPECT_TRUE(names.count("eval")) << trace;
  // The roots (decode/service/respond) cover the end-to-end total to
  // within 20% — the instrumentation accounts for where time goes.
  EXPECT_GE(root_sum_us * 5, total_us * 4)
      << "roots sum to " << root_sum_us << "us of " << total_us << "us:\n"
      << trace;
  EXPECT_LE(root_sum_us, total_us + total_us / 5) << trace;

  // TRACE honors its count cap, newest first — and the previous TRACE
  // request was itself traced, so it is now the newest entry.
  auto capped = client.Traces(1);
  ASSERT_TRUE(capped.ok());
  ASSERT_EQ(capped->size(), 1u);
  EXPECT_NE((*capped)[0].find("TRACE"), std::string::npos)
      << (*capped)[0];
}

/// Pipeline order across both response paths: the first QRUN is a
/// cache hit the poll thread answers itself, and everything from the
/// queued miss on goes to a worker in order — the second QRUN too,
/// although its answer was cached when it arrived: it must see the
/// EDIT ahead of it.
TEST_F(NetTest, PipelinedHitMissEditHitPingAnswerInOrder) {
  auto connected = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(connected.ok()) << connected.status();
  Fd fd = std::move(connected).value();
  FrameDecoder decoder;
  ASSERT_TRUE(
      SendAll(fd, Frame(PrepareRequest(service::QueryKind::kXPath,
                                       "count(//a0)")) +
                      Frame(PrepareRequest(service::QueryKind::kXPath,
                                           "count(//w)")))
          .ok());
  std::vector<Response> prepared = ReadResponses(fd, &decoder, 2);
  ASSERT_EQ(prepared.size(), 2u);
  const uint64_t a0_qid = prepared[0].version;
  const uint64_t w_qid = prepared[1].version;
  ASSERT_TRUE(SendAll(fd, Frame(RunRequest("ms", a0_qid))).ok());
  std::vector<Response> warm = ReadResponses(fd, &decoder, 1);
  ASSERT_EQ(warm.size(), 1u);
  ASSERT_TRUE(warm[0].ok()) << warm[0].status;
  const int a0_before = std::stoi(warm[0].items[0]);

  const uint64_t inline_before = InlineResponses();
  Interval gap = FreeGap(0);
  Request edit;
  edit.verb = Verb::kEdit;
  edit.document = "ms";
  edit.ops = {EditOp::Select(gap.begin, gap.end), EditOp::Apply(2, "a0")};
  Request ping;
  ping.verb = Verb::kPing;
  ASSERT_TRUE(SendAll(fd, Frame(RunRequest("ms", a0_qid)) +
                              Frame(RunRequest("ms", w_qid)) + Frame(edit) +
                              Frame(RunRequest("ms", a0_qid)) + Frame(ping))
                  .ok());
  std::vector<Response> r = ReadResponses(fd, &decoder, 5);
  ASSERT_EQ(r.size(), 5u);
  ASSERT_TRUE(r[0].ok()) << r[0].status;
  EXPECT_TRUE(r[0].cache_hit);
  EXPECT_EQ(r[0].version, 1u);
  EXPECT_EQ(r[0].items, warm[0].items);
  ASSERT_TRUE(r[1].ok()) << r[1].status;
  EXPECT_FALSE(r[1].cache_hit);
  EXPECT_EQ(r[1].version, 1u);
  ASSERT_EQ(r[1].items.size(), 1u);
  EXPECT_GT(std::stoi(r[1].items[0]), 0);
  ASSERT_TRUE(r[2].ok()) << r[2].status;
  EXPECT_EQ(r[2].version, 2u);
  ASSERT_TRUE(r[3].ok()) << r[3].status;
  EXPECT_FALSE(r[3].cache_hit);
  EXPECT_EQ(r[3].version, 2u);
  ASSERT_EQ(r[3].items.size(), 1u);
  EXPECT_EQ(std::stoi(r[3].items[0]), a0_before + 1);
  EXPECT_TRUE(r[4].ok()) << r[4].status;
  EXPECT_TRUE(r[4].items.empty());
  // The second a0 count could not be a poll-thread hit: by the time its
  // connection was idle, the EDIT had moved the document past the
  // cached version.
  EXPECT_EQ(InlineResponses() - inline_before, 1u);
}

/// A hit answered on the poll thread is accounted exactly like a
/// worker's request, and before its bytes leave: the METRICS sent right
/// after it already counts it.
TEST_F(NetTest, PollThreadHitMovesMetricsByExactlyOneRequest) {
  Client client = Connect();
  auto qid = client.Prepare(service::QueryKind::kXPath, "count(//w)");
  ASSERT_TRUE(qid.ok()) << qid.status();
  ASSERT_TRUE(client.Run("ms", *qid).ok());  // the miss fills the cache

  // A METRICS frame is accounted after it renders its own snapshot, so
  // the next snapshot also counts it; the control pair measures that
  // share, and the hit's moves are what the pair around it adds.
  auto m0 = client.Metrics();
  auto m1 = client.Metrics();
  ASSERT_TRUE(m0.ok() && m1.ok());
  auto hit = client.Run("ms", *qid);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->cache_hit);
  auto m2 = client.Metrics();
  ASSERT_TRUE(m2.ok()) << m2.status();
  auto moved = [&](const std::string& name) {
    return static_cast<int64_t>(MetricValue(*m2, name) -
                                MetricValue(*m1, name)) -
           static_cast<int64_t>(MetricValue(*m1, name) -
                                MetricValue(*m0, name));
  };
  EXPECT_EQ(moved("cxml_service_requests_total"), 1);
  EXPECT_EQ(moved("cxml_cache_hits_total"), 1);
  EXPECT_EQ(moved("cxml_cache_misses_total"), 0);
  EXPECT_EQ(moved("cxml_server_request_us_count"), 1);
  EXPECT_EQ(moved("cxml_server_responses_total"), 1);
  EXPECT_EQ(moved("cxml_server_frames_total"), 1);
  EXPECT_EQ(moved("cxml_server_inline_total"), 1);
}

/// The poll thread's cache probe leaves nothing behind on a miss (the
/// worker makes the one counted lookup and the one trace), and a hit's
/// trace carries the same label and stages a worker's would.
TEST_F(NetTest, QrunHitTracesItsStagesAndAMissCountsOneLookup) {
  Client client = Connect();
  auto qid =
      client.Prepare(service::QueryKind::kXPath, "count(//w[overlapping::line])");
  ASSERT_TRUE(qid.ok()) << qid.status();

  const service::CacheStats before = service_->stats().cache;
  auto miss = client.Run("ms", *qid);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->cache_hit);
  const service::CacheStats after_miss = service_->stats().cache;
  EXPECT_EQ(after_miss.misses - before.misses, 1u);
  EXPECT_EQ(after_miss.hits - before.hits, 0u);

  auto hit = client.Run("ms", *qid);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->items, miss->items);
  const service::CacheStats after_hit = service_->stats().cache;
  EXPECT_EQ(after_hit.misses - after_miss.misses, 0u);
  EXPECT_EQ(after_hit.hits - after_miss.hits, 1u);

  // Newest first: the hit, the miss, the QPREPARE. The probe that
  // missed finished no trace of its own.
  auto traces = client.Traces(10);
  ASSERT_TRUE(traces.ok()) << traces.status();
  ASSERT_EQ(traces->size(), 3u);
  auto stages = [](const std::string& trace) {
    std::vector<std::string> lines;
    std::istringstream in(trace);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      size_t begin = line.find_first_not_of(' ');
      lines.push_back(line.substr(begin));
    }
    return lines;
  };
  const std::string label = StrFormat(
      "QRUN ms qid=%llu hash=", static_cast<unsigned long long>(*qid));
  const std::string& hit_trace = (*traces)[0];
  EXPECT_NE(hit_trace.find(label), std::string::npos) << hit_trace;
  std::vector<std::string> hit_stages = stages(hit_trace);
  ASSERT_EQ(hit_stages.size(), 4u) << hit_trace;
  EXPECT_EQ(hit_stages[0].rfind("decode ", 0), 0u) << hit_trace;
  EXPECT_EQ(hit_stages[1].rfind("service ", 0), 0u) << hit_trace;
  EXPECT_EQ(hit_stages[2].rfind("cache ", 0), 0u) << hit_trace;
  EXPECT_NE(hit_stages[2].find("(hit)"), std::string::npos) << hit_trace;
  EXPECT_EQ(hit_stages[3].rfind("respond ", 0), 0u) << hit_trace;
  // The cache stage nests under service.
  EXPECT_NE(hit_trace.find("\n    cache "), std::string::npos) << hit_trace;

  const std::string& miss_trace = (*traces)[1];
  EXPECT_NE(miss_trace.find(label), std::string::npos) << miss_trace;
  size_t caches = 0;
  for (const std::string& stage : stages(miss_trace)) {
    if (stage.rfind("cache ", 0) == 0) {
      ++caches;
      EXPECT_NE(stage.find("(miss)"), std::string::npos) << miss_trace;
    }
  }
  EXPECT_EQ(caches, 1u) << miss_trace;
}

/// A response far bigger than a socket's send buffer, to a client that
/// lets it pile up before reading, arrives whole on both paths: sent
/// by the worker that evaluated it (a miss), and by the poll thread
/// (the hit). The poll thread flushes what the socket would not take
/// under POLLOUT.
TEST_F(NetTest, ResponsesBiggerThanTheSocketBufferReachASlowReaderWhole) {
  Client client = Connect();
  auto text = client.Query("ms", "string(/)", service::QueryKind::kXPath);
  auto lines = client.Query("ms", "count(//line)", service::QueryKind::kXPath);
  ASSERT_TRUE(text.ok() && lines.ok());
  ASSERT_EQ(text->items.size(), 1u);
  const size_t n = std::stoul(lines->items[0]);
  const std::string item = text->items[0] + text->items[0];
  // At least 8 MB: twice the 4 MB ceiling Linux autotunes a TCP send
  // buffer to by default, with the reader's buffer shrunk below.
  ASSERT_GE(n * n * item.size(), size_t{8} << 20)
      << "the fixture document is too small for this test";

  auto connected = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(connected.ok()) << connected.status();
  Fd fd = std::move(connected).value();
  int rcvbuf = 16 * 1024;
  ASSERT_EQ(setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                       sizeof(rcvbuf)),
            0);
  FrameDecoder decoder;
  ASSERT_TRUE(SendAll(fd, Frame(PrepareRequest(
                              service::QueryKind::kXQuery,
                              "for $a in //line for $b in //line "
                              "return {concat(string(/), string(/))}")))
                  .ok());
  std::vector<Response> prepared = ReadResponses(fd, &decoder, 1);
  ASSERT_EQ(prepared.size(), 1u);
  ASSERT_TRUE(prepared[0].ok()) << prepared[0].status;

  for (bool expect_hit : {false, true}) {
    const uint64_t inline_before = InlineResponses();
    ASSERT_TRUE(SendAll(fd, Frame(RunRequest("ms", prepared[0].version))).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::vector<Response> got = ReadResponses(fd, &decoder, 1);
    ASSERT_EQ(got.size(), 1u);
    ASSERT_TRUE(got[0].ok()) << got[0].status;
    EXPECT_EQ(got[0].cache_hit, expect_hit);
    EXPECT_EQ(InlineResponses() - inline_before, expect_hit ? 1u : 0u);
    ASSERT_EQ(got[0].items.size(), n * n);
    for (const std::string& got_item : got[0].items) {
      ASSERT_EQ(got_item, item);
    }
  }
  // The connection is still in sync: a small request answers normally.
  Request ping;
  ping.verb = Verb::kPing;
  ASSERT_TRUE(SendAll(fd, Frame(ping)).ok());
  std::vector<Response> pong = ReadResponses(fd, &decoder, 1);
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_TRUE(pong[0].ok());
}

TEST_F(NetTest, MalformedFrameGetsErrAndClose) {
  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(SendAll(*fd, "GET / HTTP/1.1\r\nHost: x\r\n\r\n").ok());

  // One ERR frame comes back, then the server closes the connection.
  FrameDecoder decoder;
  std::string payload;
  char buffer[4096];
  bool closed = false;
  while (!decoder.HasFrame()) {
    auto n = RecvSome(*fd, buffer, sizeof(buffer));
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_NE(*n, 0u) << "server closed before sending the ERR frame";
    ASSERT_TRUE(decoder.Feed(std::string_view(buffer, *n)).ok());
  }
  ASSERT_TRUE(decoder.Next(&payload));
  auto response = ParseResponse(payload);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status.code(), StatusCode::kParseError);
  for (int i = 0; i < 100 && !closed; ++i) {
    auto n = RecvSome(*fd, buffer, sizeof(buffer));
    if (!n.ok() || *n == 0) closed = true;
  }
  EXPECT_TRUE(closed);
  EXPECT_GE(server_->stats().protocol_errors, 1u);

  // The server is still healthy for well-behaved clients.
  Client client = Connect();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetTest, OversizeFrameRejected) {
  // A tiny per-server frame ceiling: the query below frames fine on the
  // client (its own decoder only guards responses) but trips the
  // server's limit.
  service::DocumentStore store;
  ASSERT_TRUE(store.RegisterBytes("ms", CorpusBytes()).ok());
  service::QueryService service(&store, {2, 64});
  ServerOptions options;
  options.max_frame_bytes = 128;
  Server small(&store, &service, options);
  ASSERT_TRUE(small.Start().ok());

  auto client = Client::Connect("127.0.0.1", small.port());
  ASSERT_TRUE(client.ok());
  auto response = client->Query("ms", std::string(4096, ' ') + "count(//w)",
                                service::QueryKind::kXPath);
  EXPECT_EQ(response.status().code(), StatusCode::kParseError);
  small.Stop();
}

TEST_F(NetTest, CrossFrameTransactionConflictSurfaces) {
  Client editor = Connect();
  Client rival = Connect();

  // The editor opens a cross-frame transaction and stages an op.
  Interval gap1 = FreeGap(0);
  auto base = editor.EditBegin("ms");
  ASSERT_TRUE(base.ok()) << base.status();
  EXPECT_EQ(*base, 1u);
  ASSERT_TRUE(editor
                  .EditOps({EditOp::Select(gap1.begin, gap1.end),
                            EditOp::Apply(2, "a0")})
                  .ok());

  // A rival commit lands in between (single-frame EDIT, other range).
  Interval gap2 = FreeGap(800);
  auto rival_version = rival.Edit(
      "ms", {EditOp::Select(gap2.begin, gap2.end), EditOp::Apply(2, "a0")});
  ASSERT_TRUE(rival_version.ok()) << rival_version.status();
  EXPECT_EQ(*rival_version, 2u);

  // The editor's commit must now lose with the optimistic-conflict
  // code, exactly as an in-process EditTransaction::Commit would.
  auto lost = editor.EditCommit();
  EXPECT_EQ(lost.status().code(), StatusCode::kFailedPrecondition);

  // The transaction is consumed: a second ECOMMIT has nothing to act on.
  EXPECT_EQ(editor.EditCommit().status().code(),
            StatusCode::kFailedPrecondition);

  // Retry from the new base succeeds.
  Interval gap3 = FreeGap(1500);
  ASSERT_TRUE(editor.EditBegin("ms").ok());
  ASSERT_TRUE(editor
                  .EditOps({EditOp::Select(gap3.begin, gap3.end),
                            EditOp::Apply(2, "a0")})
                  .ok());
  auto retried = editor.EditCommit();
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(*retried, 3u);
  EXPECT_EQ(store_.GetVersion("ms").value_or(0), 3u);
}

TEST_F(NetTest, TransactionStateMachineEdges) {
  Client client = Connect();
  EXPECT_EQ(client.EditCommit().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.EditAbort().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.EditOps({EditOp::Select(0, 10)}).code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(client.EditBegin("ms").ok());
  // A second EBEGIN on the same connection is rejected...
  EXPECT_EQ(client.EditBegin("ms").status().code(),
            StatusCode::kFailedPrecondition);
  // ...a failing op (selection past the content) leaves it open...
  Interval gap = FreeGap(0);
  EXPECT_EQ(client.EditOps({EditOp::Select(0, 10'000'000)}).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(client
                  .EditOps({EditOp::Select(gap.begin, gap.end),
                            EditOp::Apply(2, "a0")})
                  .ok());
  // ...and EABORT discards it without publishing.
  ASSERT_TRUE(client.EditAbort().ok());
  EXPECT_EQ(store_.GetVersion("ms").value_or(0), 1u);

  // An abandoned transaction dies with its connection: a fresh client
  // can edit immediately (no server-side leak of the old clone).
  {
    Client holder = Connect();
    ASSERT_TRUE(holder.EditBegin("ms").ok());
  }  // disconnect aborts
  Interval gap2 = FreeGap(500);
  auto committed = client.Edit(
      "ms", {EditOp::Select(gap2.begin, gap2.end), EditOp::Apply(2, "a0")});
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(*committed, 2u);
}

TEST_F(NetTest, ConcurrentClients) {
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 50;
  const std::vector<std::string> mix = {
      "count(//w)",
      "//w[overlapping::line]",
      "count(//a0)",
      "count(//page/line)",
  };

  std::atomic<int> failures{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(kQueriesPerClient);
        return;
      }
      for (int i = 0; i < kQueriesPerClient; ++i) {
        auto response = client->Query(
            "ms", mix[(c + i) % mix.size()], service::QueryKind::kXPath);
        if (!response.ok()) {
          failures.fetch_add(1);
        } else if (response->cache_hit) {
          hits.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  // A 4-query mix over 400 requests must hit the shared result cache.
  EXPECT_GT(hits.load(), kClients * kQueriesPerClient / 2);
  ServerStats stats = server_->stats();
  EXPECT_GE(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.frames_received,
            static_cast<uint64_t>(kClients * kQueriesPerClient));
  EXPECT_EQ(stats.responses_sent, stats.frames_received);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST_F(NetTest, ConcurrentEditsGroupCommitWithoutConflicts) {
  // Disjoint gaps, precomputed against version 1. Before the writer
  // pipeline, concurrent single-frame EDITs raced BeginEdit/Commit and
  // some lost with FailedPrecondition; pipelined, they serialize into
  // group commits and every one of them lands.
  constexpr int kEditors = 6;
  std::vector<Interval> gaps;
  size_t a0_before = 0;
  {
    auto snap = store_.GetSnapshot("ms");
    ASSERT_TRUE(snap.ok());
    a0_before = (*snap)->goddag->ElementsByTag("a0").size();
    size_t from = 0;
    for (int i = 0; i < kEditors; ++i) {
      size_t offset = FindFreeA0Gap(*(*snap)->goddag, from, 40);
      gaps.push_back(Interval(offset, offset + 40));
      from = offset + 41;
    }
  }

  std::atomic<int> failures{0};
  std::atomic<uint64_t> max_version{0};
  std::vector<std::thread> editors;
  editors.reserve(kEditors);
  for (int c = 0; c < kEditors; ++c) {
    editors.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      auto version = client->Edit(
          "ms", {EditOp::Select(gaps[c].begin, gaps[c].end),
                 EditOp::Apply(2, "a0")});
      if (!version.ok()) {
        failures.fetch_add(1);
        return;
      }
      uint64_t seen = *version;
      uint64_t prev = max_version.load();
      while (seen > prev &&
             !max_version.compare_exchange_weak(prev, seen)) {
      }
    });
  }
  for (std::thread& t : editors) t.join();

  EXPECT_EQ(failures.load(), 0);
  uint64_t final_version = store_.GetVersion("ms").value_or(0);
  EXPECT_EQ(final_version, max_version.load());
  // Group commit: at most one version per edit, at least one overall.
  EXPECT_GE(final_version, 2u);
  EXPECT_LE(final_version, 1u + kEditors);

  auto snap = store_.GetSnapshot("ms");
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE((*snap)->goddag->Validate().ok());
  // Every annotation landed despite the concurrency — none were lost
  // to optimistic races.
  EXPECT_EQ((*snap)->goddag->ElementsByTag("a0").size(),
            a0_before + kEditors);
  Client reader = Connect();
  auto count = reader.Query("ms", "count(//a0)",
                            service::QueryKind::kXPath);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(std::stoul(count->items[0]), a0_before + kEditors);
  EXPECT_GE(service_->stats().writes.edits,
            static_cast<uint64_t>(kEditors));
}

TEST_F(NetTest, IdleConnectionsAreClosedActiveOnesSurvive) {
  service::DocumentStore store;
  ASSERT_TRUE(store.RegisterBytes("ms", CorpusBytes()).ok());
  service::QueryService service(&store, {2, 64});
  ServerOptions options;
  // Generous vs the 50ms ping cadence below: only a >400ms scheduler
  // stall could spuriously reap the active client on a loaded runner.
  options.idle_timeout_ms = 450;
  Server server(&store, &service, options);
  ASSERT_TRUE(server.Start().ok());

  // An active client outlives several deadline windows: each PING
  // refreshes its read-activity clock.
  auto active = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(active.ok());
  // A silent connection (never sends a byte) is reaped by the deadline;
  // the blocking recv sees the server-side close as EOF.
  auto idle = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(idle.ok()) << idle.status();

  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(active->Ping().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  char buffer[64];
  auto n = RecvSome(*idle, buffer, sizeof(buffer));
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 0u) << "idle connection was not closed by the deadline";
  EXPECT_GE(server.stats().idle_disconnects, 1u);

  // The survivor is still healthy after the reap.
  EXPECT_TRUE(active->Ping().ok());
  server.Stop();
}

/// With the idle deadline on, a connection whose last event was a
/// response its worker sent itself (no poll-loop wake-up) is still
/// reaped one deadline after that response, not never.
TEST(ServerEdgeTest, IdleConnectionReapedOnTimeAfterWorkerSentResponse) {
  service::DocumentStore store;
  service::QueryService service(&store, {2, 64});
  fault::Injector faults(1);
  ServerOptions options;
  options.idle_timeout_ms = 400;
  options.injector = &faults;
  Server server(&store, &service, options);
  ASSERT_TRUE(server.Start().ok());

  // The stall keeps the PING in flight while the poll loop sweeps, so
  // the connection is busy then; the worker sends the whole small
  // response itself.
  ASSERT_TRUE(faults.Arm("net.write_stall_ms", "once:100").ok());
  auto connected = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status();
  Fd fd = std::move(connected).value();
  ASSERT_TRUE(SetRecvTimeout(fd, 3000).ok());
  Request ping;
  ping.verb = Verb::kPing;
  ASSERT_TRUE(SendAll(fd, Frame(ping)).ok());
  FrameDecoder decoder;
  std::vector<Response> pong = ReadResponses(fd, &decoder, 1);
  ASSERT_EQ(pong.size(), 1u);
  const auto answered = std::chrono::steady_clock::now();

  char buffer[64];
  auto n = RecvSome(fd, buffer, sizeof(buffer));
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - answered);
  ASSERT_TRUE(n.ok()) << n.status() << " (no close within 3 s)";
  EXPECT_EQ(*n, 0u);
  EXPECT_GE(waited.count(), 300) << "reaped before the deadline";
  EXPECT_LT(waited.count(), 700) << "reaped late";
  EXPECT_EQ(server.stats().idle_disconnects, 1u);
  server.Stop();
}

/// An armed write stall still delays a QRUN the cache could answer,
/// but the sleep runs on a worker: the poll thread keeps answering
/// other connections meanwhile.
TEST(ServerEdgeTest, WriteStallDelaysCachedQrunOnAWorkerOnly) {
  service::DocumentStore store;
  ASSERT_TRUE(store.RegisterBytes("ms", CorpusBytes()).ok());
  service::QueryService service(&store, {2, 64});
  fault::Injector faults(1);
  ServerOptions options;
  options.num_workers = 2;
  options.injector = &faults;
  Server server(&store, &service, options);
  ASSERT_TRUE(server.Start().ok());
  obs::Counter* inline_total =
      service.registry()->GetCounter("cxml_server_inline_total");

  auto stalled = Client::Connect("127.0.0.1", server.port());
  auto other = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(stalled.ok() && other.ok());
  auto stalled_qid = stalled->Prepare(service::QueryKind::kXPath, "count(//w)");
  auto other_qid = other->Prepare(service::QueryKind::kXPath, "count(//w)");
  ASSERT_TRUE(stalled_qid.ok() && other_qid.ok());
  ASSERT_TRUE(stalled->Run("ms", *stalled_qid).ok());  // fills the cache
  ASSERT_TRUE(other->Run("ms", *other_qid).ok());
  const uint64_t inline_before = inline_total->Value();
  ASSERT_EQ(inline_before, 1u) << "the warm repeat was a poll-thread hit";

  ASSERT_TRUE(faults.Arm("net.write_stall_ms", "once:400").ok());
  const auto started = std::chrono::steady_clock::now();
  std::thread slow([&] {
    auto answer = stalled->Run("ms", *stalled_qid);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_TRUE(answer->cache_hit);
    EXPECT_GE(std::chrono::steady_clock::now() - started,
              std::chrono::milliseconds(400));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // The stall's one firing is spent on the first QRUN; this one, also
  // routed to a worker while the point is armed, answers at once.
  auto quick = other->Run("ms", *other_qid);
  const auto quick_done = std::chrono::steady_clock::now();
  slow.join();
  ASSERT_TRUE(quick.ok()) << quick.status();
  EXPECT_TRUE(quick->cache_hit);
  EXPECT_LT(quick_done - started, std::chrono::milliseconds(350))
      << "the poll thread slept through the stall";
  EXPECT_EQ(inline_total->Value(), inline_before);

  // Disarmed, the poll thread answers hits itself again.
  faults.DisarmAll();
  ASSERT_TRUE(other->Run("ms", *other_qid).ok());
  EXPECT_EQ(inline_total->Value(), inline_before + 1);
  server.Stop();
}

/// Clients that vanish while Stop() drains: the poll thread closes
/// their connections while Stop's drain loop polls every connection for
/// pending output (both read the socket, under the connection's lock),
/// and a slow reader's response still arrives whole.
TEST(ServerEdgeTest, StopDrainsWhileClientsDisconnect) {
  service::DocumentStore store;
  ASSERT_TRUE(store.RegisterBytes("ms", CorpusBytes()).ok());
  service::QueryService service(&store, {2, 64});
  Server server(&store, &service, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  // Connected and served once, so each is a live server-side connection.
  constexpr int kLeavers = 128;
  std::vector<Fd> leavers;
  Request ping;
  ping.verb = Verb::kPing;
  for (int i = 0; i < kLeavers; ++i) {
    auto fd = ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(fd.ok()) << fd.status();
    ASSERT_TRUE(SendAll(*fd, Frame(ping)).ok());
    FrameDecoder decoder;
    ASSERT_EQ(ReadResponses(*fd, &decoder, 1).size(), 1u);
    leavers.push_back(std::move(fd).value());
  }
  // The reader's answer is big and unread, so Stop's drain loop keeps
  // polling for its pending output while the leavers go.
  auto reader_fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(reader_fd.ok()) << reader_fd.status();
  Fd reader = std::move(reader_fd).value();
  int rcvbuf = 16 * 1024;
  ASSERT_EQ(setsockopt(reader.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                       sizeof(rcvbuf)),
            0);
  Request query;
  query.verb = Verb::kQuery;
  query.document = "ms";
  query.kind = service::QueryKind::kXQuery;
  query.body = "for $a in //line for $b in //line return {string(/)}";
  ASSERT_TRUE(SendAll(reader, Frame(query)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread stopper([&server] { server.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Resets (SO_LINGER 0), spread over the drain window: the poll thread
  // sees each as POLLERR and closes that connection.
  for (Fd& fd : leavers) {
    struct linger abort_close = {1, 0};
    setsockopt(fd.get(), SOL_SOCKET, SO_LINGER, &abort_close,
               sizeof(abort_close));
    fd.Close();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FrameDecoder decoder;
  std::vector<Response> answer = ReadResponses(reader, &decoder, 1);
  stopper.join();
  ASSERT_EQ(answer.size(), 1u);
  ASSERT_TRUE(answer[0].ok()) << answer[0].status;
  ASSERT_FALSE(answer[0].items.empty());
  for (const std::string& item : answer[0].items) {
    ASSERT_EQ(item, answer[0].items[0]);
  }
  EXPECT_FALSE(server.running());
}

/// A follower-style server (read_only): every mutating verb answers
/// FailedPrecondition while the read path stays fully alive — the
/// replica must never fork its primary's history.
TEST(ReadOnlyServerTest, RejectsWritesServesReads) {
  service::DocumentStore store;
  ASSERT_TRUE(store.RegisterBytes("ms", CorpusBytes()).ok());
  service::QueryService service(
      &store, service::QueryServiceOptions{/*num_threads=*/2,
                                           /*cache_capacity=*/64});
  ServerOptions options;
  options.num_workers = 2;
  options.read_only = true;
  Server server(&store, &service, options);
  ASSERT_TRUE(server.Start().ok());

  auto connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status();
  Client client = std::move(connected).value();

  // Reads flow.
  ASSERT_TRUE(client.Ping().ok());
  auto counted = client.Query("ms", "count(//w)", service::QueryKind::kXPath);
  ASSERT_TRUE(counted.ok()) << counted.status();

  // Writes bounce, single-shot and transactional alike.
  auto edited = client.Edit(
      "ms", {EditOp::Select(10, 50), EditOp::Apply(2, "a0")});
  EXPECT_EQ(edited.status().code(), StatusCode::kFailedPrecondition);
  auto registered = client.Register("up", CorpusBytes());
  EXPECT_EQ(registered.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.Remove("ms").code(), StatusCode::kFailedPrecondition);
  auto txn = client.EditBegin("ms");
  EXPECT_EQ(txn.status().code(), StatusCode::kFailedPrecondition);

  // The rejections left no trace: same version, connection healthy.
  auto version = store.GetVersion("ms");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u);
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

TEST_F(NetTest, ServerStopsCleanlyWithLiveConnections) {
  Client client = Connect();
  ASSERT_TRUE(client.Ping().ok());
  server_->Stop();
  // Whatever the client sees now must be an error, not a hang.
  EXPECT_FALSE(client.Ping().ok());
  // Stop is idempotent; Start-after-Stop is a fresh server elsewhere.
  server_->Stop();
}

}  // namespace
}  // namespace cxml::net
