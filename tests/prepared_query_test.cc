// PR 5: prepared queries — compile-once/bind-many handles across
// engine, service, cache, and wire. String and prepared submission
// must be byte-identical on the full equivalence sweep (Boethius +
// randomized synthetic manuscripts, XPath and XQuery alike);
// canonically identical textual variants must collapse to one cache
// entry and one deduplicated service handle; QPREPARE/QRUN must
// round-trip over CXP/1 with clean ERRs for stale handles and
// cross-kind misuse; and one shared handle must serve concurrent
// QRUNs from many connections.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "goddag/builder.h"
#include "goddag/snapshot_index.h"
#include "net/client.h"
#include "net/server.h"
#include "sacx/goddag_handler.h"
#include "service/document_store.h"
#include "service/query_service.h"
#include "storage/binary.h"
#include "test_util.h"
#include "workload/generator.h"
#include "xpath/compiled.h"
#include "xpath/engine.h"
#include "xquery/xquery.h"

namespace cxml {
namespace {

using goddag::NodeId;
using goddag::SnapshotIndex;
using service::QueryKind;
using testing::kSweepAbsoluteQueries;
using testing::kSweepRelativeQueries;

/// FLWOR queries for the XQuery side of the sweep (the absolute sweep
/// doubles as the bare-expression side).
const char* const kFlworQueries[] = {
    "for $w in //w[overlapping::line] return {string($w)}",
    "for $l in //line let $n := count($l/descendant::w) where $n > 1 "
    "order by $n descending return <line words=\"{$n}\"/>",
    "let $n := count(//w) return {$n}",
    "for $l in //line return <l>{string($l/descendant::w[1])}</l>",
    "for $w in //w where count($w/overlapping::s) > 0 "
    "return {string($w)}",
};

// ------------------------------------------------- engine equivalence

/// String vs prepared (and both vs the naive-scan oracle) must be
/// byte-identical on every sweep query, for XPath and XQuery.
void ExpectStringAndPreparedAgree(const goddag::Goddag& g) {
  auto index = std::make_shared<const SnapshotIndex>(g);
  xpath::XPathEngine via_string(g);
  via_string.UseSnapshotIndex(index);
  xpath::XPathEngine via_prepared(g);
  via_prepared.UseSnapshotIndex(index);
  xpath::XPathEngine naive(g);
  naive.SetAxisStrategy(xpath::AxisStrategy::kNaiveScan);

  for (const char* query : kSweepAbsoluteQueries) {
    auto compiled = xpath::XPathEngine::Prepare(query);
    ASSERT_TRUE(compiled.ok()) << query << ": " << compiled.status();
    auto prepared = via_prepared.EvaluateToStrings(**compiled);
    auto stringly = via_string.EvaluateToStrings(query);
    auto oracle = naive.EvaluateToStrings(query);
    ASSERT_TRUE(prepared.ok()) << query << ": " << prepared.status();
    ASSERT_TRUE(stringly.ok()) << query << ": " << stringly.status();
    ASSERT_TRUE(oracle.ok()) << query << ": " << oracle.status();
    EXPECT_EQ(*prepared, *stringly) << query;
    EXPECT_EQ(*prepared, *oracle) << query;
  }

  // Relative queries from several contexts, compiled once each.
  std::vector<NodeId> contexts;
  std::vector<NodeId> words = g.ElementsByTag("w");
  for (size_t i = 0; i < words.size(); i += words.size() / 4 + 1) {
    contexts.push_back(words[i]);
  }
  std::vector<NodeId> lines = g.ElementsByTag("line");
  if (!lines.empty()) contexts.push_back(lines[lines.size() / 2]);
  for (const char* query : kSweepRelativeQueries) {
    auto compiled = xpath::XPathEngine::Prepare(query);
    ASSERT_TRUE(compiled.ok()) << query << ": " << compiled.status();
    for (NodeId ctx : contexts) {
      auto prepared = via_prepared.EvaluateFrom(**compiled, ctx);
      auto stringly = via_string.EvaluateFrom(query, ctx);
      ASSERT_TRUE(prepared.ok()) << query << ": " << prepared.status();
      ASSERT_TRUE(stringly.ok()) << query << ": " << stringly.status();
      if (prepared->is_node_set()) {
        ASSERT_TRUE(stringly->is_node_set()) << query;
        EXPECT_EQ(prepared->nodes(), stringly->nodes())
            << query << " from node " << ctx;
      } else {
        EXPECT_EQ(prepared->ToString(g), stringly->ToString(g)) << query;
      }
    }
  }

  // XQuery: the absolute sweep as bare expressions + real FLWOR.
  xquery::XQueryEngine xq_string(g);
  xq_string.UseSnapshotIndex(index);
  xquery::XQueryEngine xq_prepared(g);
  xq_prepared.UseSnapshotIndex(index);
  auto check_xquery = [&](const char* query) {
    auto compiled = xquery::XQueryEngine::Prepare(query);
    ASSERT_TRUE(compiled.ok()) << query << ": " << compiled.status();
    auto prepared = xq_prepared.Run(**compiled);
    auto stringly = xq_string.Run(query);
    ASSERT_TRUE(prepared.ok()) << query << ": " << prepared.status();
    ASSERT_TRUE(stringly.ok()) << query << ": " << stringly.status();
    EXPECT_EQ(*prepared, *stringly) << query;
  };
  for (const char* query : kSweepAbsoluteQueries) check_xquery(query);
  for (const char* query : kFlworQueries) check_xquery(query);
}

TEST(PreparedEquivalence, Boethius) {
  auto fixture = testing::BoethiusFixture::Make();
  ExpectStringAndPreparedAgree(*fixture.g);
}

TEST(PreparedEquivalence, SyntheticManuscripts) {
  struct Config {
    size_t content_chars;
    size_t extra_hierarchies;
    double density;
    uint64_t seed;
  };
  for (const Config& config :
       {Config{500, 2, 8.0, 21}, Config{2'000, 1, 4.0, 22},
        Config{2'000, 3, 16.0, 23}}) {
    workload::GeneratorParams params;
    params.content_chars = config.content_chars;
    params.extra_hierarchies = config.extra_hierarchies;
    params.annotation_density = config.density;
    params.seed = config.seed;
    auto corpus = workload::GenerateManuscript(params);
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    auto g = sacx::ParseToGoddag(*corpus->cmh, corpus->SourceViews());
    ASSERT_TRUE(g.ok()) << g.status();
    ExpectStringAndPreparedAgree(*g);
  }
}

// ------------------------------------------------- compiled metadata

TEST(CompiledQuery, CanonicalCollapsesTextualVariants) {
  auto a = xpath::Compile("count(//w)");
  auto b = xpath::Compile("count( //w )");
  auto c = xpath::Compile("count(/descendant-or-self::node()/child::w)");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ((*a)->canonical(), (*b)->canonical());
  EXPECT_EQ((*a)->canonical_hash(), (*b)->canonical_hash());
  // The abbreviation // IS the desugared form — one identity.
  EXPECT_EQ((*a)->canonical(), (*c)->canonical());

  auto different = xpath::Compile("count(//line)");
  ASSERT_TRUE(different.ok());
  EXPECT_NE((*a)->canonical(), (*different)->canonical());
  EXPECT_NE((*a)->canonical_hash(), (*different)->canonical_hash());
}

TEST(CompiledQuery, CanonicalIsInjectiveForLiterals) {
  // Numeric literals beyond %g's six significant digits must not
  // collapse to one identity (a collision would hand one query the
  // other's compiled AST and cached results).
  auto a = xpath::Compile("count(//w[1000000])");
  auto b = xpath::Compile("count(//w[1000001])");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE((*a)->canonical(), (*b)->canonical());

  // A double-quoted literal containing a quote must not render
  // identically to a structurally different query ("a','b" is ONE
  // literal; 'a','b' is two).
  auto one = xpath::Compile("concat(\"a','b\")");
  auto two = xpath::Compile("concat('a','b')");
  ASSERT_TRUE(one.ok() && two.ok());
  EXPECT_NE((*one)->canonical(), (*two)->canonical());
}

TEST(CompiledQuery, XQueryCanonicalCollapsesTextualVariants) {
  auto a = xquery::Compile("for $w in //w return {string($w)}");
  auto b =
      xquery::Compile("for  $w  in  //w   return   { string( $w ) }");
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_TRUE((*a)->is_flwor());
  EXPECT_EQ((*a)->canonical(), (*b)->canonical());
  EXPECT_EQ((*a)->canonical_hash(), (*b)->canonical_hash());

  // A bare expression inherits the XPath canonical identity.
  auto bare = xquery::Compile("count( //w )");
  auto xp = xpath::Compile("count(//w)");
  ASSERT_TRUE(bare.ok() && xp.ok());
  EXPECT_FALSE((*bare)->is_flwor());
  EXPECT_EQ((*bare)->canonical(), (*xp)->canonical());
}

TEST(CompiledQuery, AnalysisRecordsPlansAndReferences) {
  auto compiled = xpath::Compile("//line/descendant(linguistic)::w[1]");
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ((*compiled)->hierarchies(),
            std::vector<std::string>{"linguistic"});
  EXPECT_EQ((*compiled)->tags(),
            (std::vector<std::string>{"line", "w"}));

  const xpath::Expr& expr = (*compiled)->expr();
  ASSERT_EQ(expr.kind, xpath::Expr::Kind::kPath);
  // Steps: descendant-or-self::node() / child::line /
  // descendant(linguistic)::w[1].
  ASSERT_EQ(expr.path.steps.size(), 3u);
  const xpath::Step& dos = expr.path.steps[0];
  EXPECT_EQ(dos.plan.positional, xpath::StepPlan::Positional::kNone);
  const xpath::Step& desc = expr.path.steps[2];
  EXPECT_EQ(desc.plan.positional, xpath::StepPlan::Positional::kFirst);

  auto last = xpath::Compile("//w[last()]");
  ASSERT_TRUE(last.ok());
  EXPECT_EQ((*last)->expr().path.steps.back().plan.positional,
            xpath::StepPlan::Positional::kLast);
  // A non-leading positional predicate is not pushable.
  auto guarded = xpath::Compile("//w[@x][1]");
  ASSERT_TRUE(guarded.ok());
  EXPECT_EQ((*guarded)->expr().path.steps.back().plan.positional,
            xpath::StepPlan::Positional::kNone);
}

// ------------------------------------------------------ service layer

constexpr size_t kContentChars = 2000;

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

/// First free gap (>= offset 5) for an `a0` insert: within one
/// hierarchy markup must stay nested, so the insert needs a range no
/// existing a0 annotation overlaps.
Interval FreeA0Gap(const goddag::Goddag& g, size_t len = 20) {
  std::vector<Interval> taken;
  for (NodeId node : g.ElementsByTag("a0")) {
    taken.push_back(g.char_range(node));
  }
  size_t offset = 5;
  while (offset + len <= g.content().size()) {
    bool collides = false;
    for (const Interval& t : taken) {
      if (offset < t.end && t.begin < offset + len) {
        offset = t.end;
        collides = true;
        break;
      }
    }
    if (!collides) return Interval(offset, offset + len);
  }
  ADD_FAILURE() << "no free a0 gap of length " << len;
  return Interval(0, len);
}

class PreparedServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.RegisterBytes("ms", CorpusBytes()).ok());
  }

  service::DocumentStore store_;
};

TEST_F(PreparedServiceTest, CanonicalVariantsShareOneCacheEntry) {
  service::QueryService service(&store_, {2, 64});
  service::QueryResponse cold =
      service.Execute({"ms", "count(//w)", QueryKind::kXPath});
  ASSERT_TRUE(cold.ok()) << cold.status;
  EXPECT_FALSE(cold.cache_hit);

  // Textually different, canonically identical — one entry, a hit.
  service::QueryResponse variant =
      service.Execute({"ms", "count(  //w  )", QueryKind::kXPath});
  ASSERT_TRUE(variant.ok()) << variant.status;
  EXPECT_TRUE(variant.cache_hit);
  EXPECT_EQ(variant.items.get(), cold.items.get());
  EXPECT_EQ(service.cache().stats().size, 1u);

  // Same canonical text under the other kind still misses (kind is in
  // the key).
  service::QueryResponse as_xquery =
      service.Execute({"ms", "count(//w)", QueryKind::kXQuery});
  ASSERT_TRUE(as_xquery.ok()) << as_xquery.status;
  EXPECT_FALSE(as_xquery.cache_hit);
  EXPECT_EQ(service.cache().stats().size, 2u);
}

TEST_F(PreparedServiceTest, PrepareDedupesAndSubmitsByHandle) {
  service::QueryService service(&store_, {2, 64});
  auto handle = service.Prepare("count(//w)", QueryKind::kXPath);
  ASSERT_TRUE(handle.ok()) << handle.status();
  // The exact text resolves through the raw-text LRU (no recompile),
  // a textual variant through the canonical registry — both share the
  // one object.
  auto same = service.Prepare("count(//w)", QueryKind::kXPath);
  auto variant = service.Prepare("count( //w )", QueryKind::kXPath);
  ASSERT_TRUE(same.ok() && variant.ok());
  EXPECT_EQ(handle->get(), same->get());
  EXPECT_EQ(handle->get(), variant->get());
  EXPECT_EQ(service.stats().prepares, 2u);  // original + variant compile

  // Handle submission shares the result cache with string submission.
  service::QueryResponse via_string =
      service.Execute({"ms", "count(//w)", QueryKind::kXPath});
  ASSERT_TRUE(via_string.ok());
  EXPECT_FALSE(via_string.cache_hit);
  service::QueryResponse via_handle = service.Execute("ms", *handle);
  ASSERT_TRUE(via_handle.ok()) << via_handle.status;
  EXPECT_TRUE(via_handle.cache_hit);
  EXPECT_EQ(via_handle.items.get(), via_string.items.get());

  // Parse failures surface through Prepare with the query in context.
  auto bad = service.Prepare("//w[", QueryKind::kXPath);
  EXPECT_FALSE(bad.ok());
  service::QueryResponse bad_exec =
      service.Execute({"ms", "//w[", QueryKind::kXPath});
  EXPECT_FALSE(bad_exec.ok());
}

TEST_F(PreparedServiceTest, OneHandleBindsAcrossVersions) {
  service::QueryService service(&store_, {2, 64});
  auto handle = service.Prepare("count(//a0)", QueryKind::kXPath);
  ASSERT_TRUE(handle.ok()) << handle.status();

  service::QueryResponse before = service.Execute("ms", *handle);
  ASSERT_TRUE(before.ok()) << before.status;
  EXPECT_EQ(before.version, 1u);

  auto txn = store_.BeginEdit("ms");
  ASSERT_TRUE(txn.ok()) << txn.status();
  Interval gap = FreeA0Gap(*store_.GetSnapshot("ms").value()->goddag);
  ASSERT_TRUE(txn->session().Select(gap).ok());
  ASSERT_TRUE(txn->session().Apply(2, "a0").ok());
  service::EditResponse committed =
      service
          .SubmitCommit("ms", std::make_unique<service::EditTransaction>(
                                  std::move(txn).value()))
          .get();
  ASSERT_TRUE(committed.ok()) << committed.status;

  // The same handle, rebound to the new version: fresh result.
  service::QueryResponse after = service.Execute("ms", *handle);
  ASSERT_TRUE(after.ok()) << after.status;
  EXPECT_EQ(after.version, 2u);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_NE((*before.items)[0], (*after.items)[0]);
}

// Held handles never expire, so the canonical registry prunes only once
// it has doubled since its last prune instead of rescanning on every
// Prepare past 4x the text LRU (1,024 entries here). Textual variants
// still find their live handle across prunes, and once the handles are
// released the next prune drops their entries.
TEST_F(PreparedServiceTest, RegistryPrunesWhileHandlesAreHeld) {
  service::QueryService service(&store_, {2, 64});
  constexpr size_t kHeld = 2000;
  std::vector<service::QueryHandle> held;
  for (size_t k = 0; k < kHeld; ++k) {
    auto handle =
        service.Prepare(StrFormat("count(//w) + %zu", k), QueryKind::kXPath);
    ASSERT_TRUE(handle.ok()) << handle.status();
    held.push_back(*handle);
    if (k % 250 == 249) {
      // The variant's text is new, and its original left the 256-entry
      // text LRU long ago: only the registry can answer it.
      auto variant = service.Prepare(StrFormat("count( //w )+%zu", k - 240),
                                     QueryKind::kXPath);
      ASSERT_TRUE(variant.ok()) << variant.status();
      EXPECT_EQ(variant->get(), held[k - 240].get()) << k;
    }
  }
  EXPECT_EQ(service.stats().prepared_registered, kHeld);
  EXPECT_EQ(service.stats().prepares, kHeld + kHeld / 250);

  held.clear();
  constexpr size_t kFresh = kHeld / 10;
  service::QueryHandle last;
  for (size_t k = 0; k < kFresh; ++k) {
    auto handle =
        service.Prepare(StrFormat("count(//s) + %zu", k), QueryKind::kXPath);
    ASSERT_TRUE(handle.ok()) << handle.status();
    last = *handle;
  }
  // A prune ran within those: what stays is at most the text LRU's
  // pins and what was prepared since.
  EXPECT_LE(service.stats().prepared_registered, 256 + kFresh);
  auto variant = service.Prepare(StrFormat("count( //s )+%zu", kFresh - 1),
                                 QueryKind::kXPath);
  ASSERT_TRUE(variant.ok()) << variant.status();
  EXPECT_EQ(variant->get(), last.get());
}

TEST_F(PreparedServiceTest, ConcurrentSubmitsOnOneSharedHandle) {
  service::QueryService service(&store_, {4, 256});
  auto handle =
      service.Prepare("count(//w[overlapping::line])", QueryKind::kXPath);
  ASSERT_TRUE(handle.ok()) << handle.status();

  service::QueryResponse expected = service.Execute("ms", *handle);
  ASSERT_TRUE(expected.ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        service::QueryResponse response = service.Execute("ms", *handle);
        if (!response.ok() || *response.items != *expected.items) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// -------------------------------------------------------- wire layer

class PreparedNetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.RegisterBytes("ms", CorpusBytes()).ok());
    service_ = std::make_unique<service::QueryService>(
        &store_, service::QueryServiceOptions{/*num_threads=*/2,
                                              /*cache_capacity=*/256});
    net::ServerOptions options;
    options.num_workers = 4;
    options.max_prepared_per_conn = 8;
    server_ =
        std::make_unique<net::Server>(&store_, service_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    server_->Stop();
    server_.reset();
    service_.reset();
  }

  net::Client Connect() {
    auto client = net::Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

  service::DocumentStore store_;
  std::unique_ptr<service::QueryService> service_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(PreparedNetTest, PrepareRunRoundTrip) {
  net::Client client = Connect();
  auto qid = client.Prepare(QueryKind::kXPath, "count(//w)");
  ASSERT_TRUE(qid.ok()) << qid.status();
  EXPECT_GT(*qid, 0u);

  auto direct = client.Query("ms", "count(//w)", QueryKind::kXPath);
  ASSERT_TRUE(direct.ok()) << direct.status();
  auto run = client.Run("ms", *qid);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->items, direct->items);
  EXPECT_EQ(run->version, direct->version);
  // QUERY warmed the canonical cache entry QRUN shares.
  EXPECT_TRUE(run->cache_hit);

  // An XQuery handle on the same connection.
  auto xq = client.Prepare(QueryKind::kXQuery,
                           "let $n := count(//w) return {$n}");
  ASSERT_TRUE(xq.ok()) << xq.status();
  EXPECT_NE(*xq, *qid);
  auto xq_run = client.Run("ms", *xq);
  ASSERT_TRUE(xq_run.ok()) << xq_run.status();
  ASSERT_EQ(xq_run->items.size(), 1u);
  EXPECT_EQ(xq_run->items[0], direct->items[0]);
}

TEST_F(PreparedNetTest, StaleAndCrossKindMisuseAreCleanErrors) {
  net::Client client = Connect();
  // Unknown qid: clean NotFound, connection stays usable.
  auto stale = client.Run("ms", 42);
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(client.Ping().ok());

  // Handles are per-connection: another connection's qid is unknown.
  auto qid = client.Prepare(QueryKind::kXPath, "count(//w)");
  ASSERT_TRUE(qid.ok()) << qid.status();
  net::Client other = Connect();
  auto foreign = other.Run("ms", *qid);
  EXPECT_EQ(foreign.status().code(), StatusCode::kNotFound);

  // Cross-kind misuse: a FLWOR under XPATH fails at prepare time,
  // once, with a parse error — not per run.
  auto misuse = client.Prepare(QueryKind::kXPath,
                               "for $w in //w return {string($w)}");
  EXPECT_EQ(misuse.status().code(), StatusCode::kParseError);
  auto broken = client.Prepare(QueryKind::kXQuery, "for $w in");
  EXPECT_FALSE(broken.ok());
  // The connection survived every rejection.
  auto run = client.Run("ms", *qid);
  ASSERT_TRUE(run.ok()) << run.status();

  // Running against a missing document is the document's error, not a
  // handle error.
  auto ghost = client.Run("ghost", *qid);
  EXPECT_EQ(ghost.status().code(), StatusCode::kNotFound);
}

TEST_F(PreparedNetTest, PerConnectionHandleCapIsEnforced) {
  net::Client client = Connect();
  for (int i = 0; i < 8; ++i) {
    auto qid = client.Prepare(
        QueryKind::kXPath, "count(//w) + " + std::to_string(i));
    ASSERT_TRUE(qid.ok()) << i << ": " << qid.status();
  }
  auto over = client.Prepare(QueryKind::kXPath, "count(//line)");
  EXPECT_EQ(over.status().code(), StatusCode::kFailedPrecondition);
  // Earlier handles still work.
  auto run = client.Run("ms", 1);
  EXPECT_TRUE(run.ok()) << run.status();
}

TEST_F(PreparedNetTest, ConcurrentRunsOnOneSharedHandle) {
  // Every connection prepares the same text; the service's canonical
  // registry collapses them onto one PreparedQuery object, so the
  // concurrent QRUNs genuinely share one compiled handle.
  constexpr int kConnections = 6;
  constexpr int kRunsEach = 30;
  net::Client reference = Connect();
  auto expected =
      reference.Query("ms", "count(//w[overlapping::line])",
                      QueryKind::kXPath);
  ASSERT_TRUE(expected.ok()) << expected.status();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&] {
      auto client = net::Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      auto qid = client->Prepare(QueryKind::kXPath,
                                 "count(//w[overlapping::line])");
      if (!qid.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kRunsEach; ++i) {
        auto run = client->Run("ms", *qid);
        if (!run.ok() || run->items != expected->items) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service_->stats().prepares, 1u)
      << "textually identical prepares must share one compiled handle";
}

}  // namespace
}  // namespace cxml
