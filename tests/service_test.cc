#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "goddag/builder.h"
#include "service/collection_query.h"
#include "service/document_store.h"
#include "service/query_service.h"
#include "storage/binary.h"
#include "workload/generator.h"
#include "xpath/engine.h"
#include "xquery/xquery.h"

namespace cxml::service {
namespace {

constexpr size_t kContentChars = 3000;

/// Snapshot bytes of a synthetic manuscript (page/line, s/w, and two
/// annotation hierarchies a0/a1) of `content_chars` characters.
std::string ManuscriptBytes(size_t content_chars) {
  workload::GeneratorParams params;
  params.content_chars = content_chars;
  auto corpus = workload::GenerateManuscript(params);
  EXPECT_TRUE(corpus.ok()) << corpus.status();
  auto g = goddag::Builder::Build(*corpus->doc);
  EXPECT_TRUE(g.ok()) << g.status();
  auto saved = storage::Save(*g);
  EXPECT_TRUE(saved.ok()) << saved.status();
  return std::move(saved).value();
}

/// The small manuscript — generated once, registered per test so every
/// test owns its store.
const std::string& CorpusBytes() {
  static const std::string* bytes =
      new std::string(ManuscriptBytes(kContentChars));
  return *bytes;
}

/// First offset >= `from` where `[offset, offset + len)` is disjoint
/// from every existing <a0> extent — markup within one hierarchy must
/// stay nested, so inserts land in the gaps.
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

class ServiceTest : public ::testing::Test {
 protected:
  static constexpr size_t kAnnotationLen = 40;

  void SetUp() override {
    ASSERT_TRUE(store_.RegisterBytes("ms", CorpusBytes()).ok());
  }

  /// An edit guaranteed to change query results: inserts one <a0>
  /// annotation (hierarchy 2) into the first free gap at or after
  /// `from_hint`, committed through `service`'s writer pipeline.
  static uint64_t CommitAnnotation(QueryService& service, size_t from_hint) {
    EditResponse response = service.ExecuteEdit(
        "ms", [from_hint](edit::EditSession& session) -> Status {
          size_t offset =
              FindFreeA0Gap(session.goddag(), from_hint, kAnnotationLen);
          CXML_RETURN_IF_ERROR(
              session.Select(Interval(offset, offset + kAnnotationLen)));
          return session.Apply(2, "a0").status();
        });
    EXPECT_TRUE(response.ok()) << response.status;
    return response.version;
  }

  /// Commits a transaction begun with BeginEdit, as ECOMMIT does.
  static EditResponse Commit(QueryService& service, EditTransaction txn) {
    return service
        .SubmitCommit(txn.document(),
                      std::make_unique<EditTransaction>(std::move(txn)))
        .get();
  }

  DocumentStore store_;
};

TEST_F(ServiceTest, RegisterAndSnapshot) {
  EXPECT_EQ(store_.ListDocuments(), std::vector<std::string>{"ms"});
  auto version = store_.GetVersion("ms");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u);

  auto snap = store_.GetSnapshot("ms");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)->name, "ms");
  EXPECT_EQ((*snap)->version, 1u);
  EXPECT_TRUE((*snap)->goddag->Validate().ok());

  EXPECT_EQ(store_.RegisterBytes("ms", CorpusBytes()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(store_.GetSnapshot("nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ServiceTest, ExecutesXPathAndXQuery) {
  QueryService service(&store_, {/*num_threads=*/2, /*cache_capacity=*/64});

  QueryResponse xpath =
      service.Execute({"ms", "count(//w)", QueryKind::kXPath});
  ASSERT_TRUE(xpath.ok()) << xpath.status;
  ASSERT_NE(xpath.items, nullptr);
  ASSERT_EQ(xpath.items->size(), 1u);
  int words = std::stoi((*xpath.items)[0]);
  EXPECT_GT(words, 100);
  EXPECT_EQ(xpath.version, 1u);

  QueryResponse xquery = service.Execute(
      {"ms", "let $n := count(//w) return {string($n)}",
       QueryKind::kXQuery});
  ASSERT_TRUE(xquery.ok()) << xquery.status;
  ASSERT_EQ(xquery.items->size(), 1u);
  EXPECT_EQ((*xquery.items)[0], std::to_string(words));

  QueryResponse bad = service.Execute({"ms", "//w[", QueryKind::kXPath});
  EXPECT_FALSE(bad.ok());
  QueryResponse missing =
      service.Execute({"ghost", "//w", QueryKind::kXPath});
  EXPECT_EQ(missing.status.code(), StatusCode::kNotFound);
}

TEST_F(ServiceTest, CacheHitMissAccounting) {
  QueryService service(&store_, {2, 64});

  QueryResponse cold = service.Execute({"ms", "//line", QueryKind::kXPath});
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.cache_hit);

  QueryResponse warm = service.Execute({"ms", "//line", QueryKind::kXPath});
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);
  // Hits share the cached allocation, not a copy.
  EXPECT_EQ(warm.items.get(), cold.items.get());

  // A different query, and the same string under the other kind, miss.
  QueryResponse other =
      service.Execute({"ms", "count(//line)", QueryKind::kXPath});
  EXPECT_FALSE(other.cache_hit);
  QueryResponse as_xquery =
      service.Execute({"ms", "//line", QueryKind::kXQuery});
  EXPECT_FALSE(as_xquery.cache_hit);

  CacheStats stats = service.cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.size, 3u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.25);

  // Failed queries are not cached.
  service.Execute({"ms", "//w[", QueryKind::kXPath});
  EXPECT_EQ(service.cache().stats().size, 3u);
}

/// ExecuteCached is the cache-only probe: a miss (or a missing
/// document) counts and traces nothing, so the Execute that follows
/// makes the one counted lookup; a hit is booked exactly like an
/// Execute hit.
TEST_F(ServiceTest, ExecuteCachedProbeCountsOnlyHits) {
  QueryService service(&store_, {2, 64});
  auto handle = service.Prepare("//line", QueryKind::kXPath);
  ASSERT_TRUE(handle.ok()) << handle.status();

  obs::TracePtr probe_trace = service.tracer().Start();
  QueryResponse probed;
  EXPECT_FALSE(
      service.ExecuteCached("ms", *handle, probe_trace, -1, &probed));
  EXPECT_FALSE(
      service.ExecuteCached("ghost", *handle, probe_trace, -1, &probed));
  service.tracer().Finish(probe_trace);
  EXPECT_EQ(service.stats().requests, 0u);
  EXPECT_EQ(service.cache().stats().misses, 0u);
  std::vector<std::string> recent = service.tracer().Recent(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].find('\n'), recent[0].size() - 1)
      << "a missed probe left a stage:\n" << recent[0];

  QueryResponse cold = service.Execute("ms", *handle);
  ASSERT_TRUE(cold.ok()) << cold.status;
  EXPECT_EQ(service.cache().stats().misses, 1u);

  obs::TracePtr hit_trace = service.tracer().Start();
  QueryResponse warm;
  ASSERT_TRUE(service.ExecuteCached("ms", *handle, hit_trace, -1, &warm));
  service.tracer().Finish(hit_trace);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.items.get(), cold.items.get());
  EXPECT_EQ(warm.version, cold.version);
  EXPECT_EQ(service.stats().requests, 2u);
  CacheStats stats = service.cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  recent = service.tracer().Recent(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_NE(recent[0].find("  cache "), std::string::npos) << recent[0];
  EXPECT_NE(recent[0].find("(hit)"), std::string::npos) << recent[0];
}

TEST_F(ServiceTest, LruEviction) {
  QueryService service(&store_, {1, /*cache_capacity=*/2});
  service.Execute({"ms", "count(//w)", QueryKind::kXPath});
  service.Execute({"ms", "count(//s)", QueryKind::kXPath});
  service.Execute({"ms", "count(//w)", QueryKind::kXPath});  // refresh
  service.Execute({"ms", "count(//line)", QueryKind::kXPath});  // evicts //s
  EXPECT_TRUE(
      service.Execute({"ms", "count(//w)", QueryKind::kXPath}).cache_hit);
  EXPECT_FALSE(
      service.Execute({"ms", "count(//s)", QueryKind::kXPath}).cache_hit);
  EXPECT_GE(service.cache().stats().evictions, 1u);
}

TEST_F(ServiceTest, RemoveDropsCacheEntries) {
  QueryService service(&store_, {1, 16});
  ASSERT_TRUE(service.Execute({"ms", "count(//w)", QueryKind::kXPath}).ok());
  EXPECT_EQ(service.cache().stats().size, 1u);

  ASSERT_TRUE(store_.Remove("ms").ok());
  EXPECT_EQ(service.cache().stats().size, 0u);

  // Re-registration restarts at version 1: the (ms, 1, query) key must
  // miss, not resurrect the removed document's results.
  ASSERT_TRUE(store_.RegisterBytes("ms", CorpusBytes()).ok());
  QueryResponse again =
      service.Execute({"ms", "count(//w)", QueryKind::kXPath});
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(again.version, 1u);
}

TEST_F(ServiceTest, CommitBumpsVersionAndInvalidatesCache) {
  QueryService service(&store_, {2, 64});

  QueryResponse before =
      service.Execute({"ms", "count(//a0)", QueryKind::kXPath});
  ASSERT_TRUE(before.ok());
  int a0_before = std::stoi((*before.items)[0]);
  EXPECT_EQ(service.cache().stats().size, 1u);

  // Readers that pinned the old snapshot keep it.
  auto pinned = store_.GetSnapshot("ms");
  ASSERT_TRUE(pinned.ok());

  uint64_t v2 = CommitAnnotation(service, 0);
  EXPECT_EQ(v2, 2u);

  // The version listener dropped the version-1 entry eagerly.
  CacheStats stats = service.cache().stats();
  EXPECT_EQ(stats.size, 0u);
  EXPECT_GE(stats.invalidated, 1u);

  QueryResponse after =
      service.Execute({"ms", "count(//a0)", QueryKind::kXPath});
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.version, 2u);
  EXPECT_EQ(std::stoi((*after.items)[0]), a0_before + 1);

  // Snapshot isolation: the pinned version-1 GODDAG is unchanged.
  EXPECT_EQ((*pinned)->version, 1u);
  EXPECT_EQ((*pinned)->goddag->ElementsByTag("a0").size(),
            static_cast<size_t>(a0_before));
}

TEST_F(ServiceTest, SessionCommitHookFires) {
  QueryService service(&store_, {2, 64});
  auto txn = store_.BeginEdit("ms");
  ASSERT_TRUE(txn.ok()) << txn.status();

  // Caller-layered observer alongside the store's own hook.
  uint64_t observed_seq = 0;
  std::vector<std::string> observed_ops;
  txn->session().AddCommitHook(
      [&](uint64_t seq, const std::vector<std::string>& ops) {
        observed_seq = seq;
        observed_ops = ops;
      });

  size_t offset = FindFreeA0Gap(txn->goddag(), 0, 20);
  ASSERT_TRUE(txn->session().Select(Interval(offset, offset + 20)).ok());
  ASSERT_TRUE(txn->session().Apply(2, "a0").ok());
  EXPECT_EQ(txn->session().PendingOps().size(), 1u);
  EXPECT_EQ(txn->session().commit_count(), 0u);

  EditResponse committed = Commit(service, std::move(txn).value());
  ASSERT_TRUE(committed.ok()) << committed.status;
  EXPECT_EQ(committed.version, 2u);
  EXPECT_EQ(observed_seq, 1u);
  ASSERT_EQ(observed_ops.size(), 1u);
  EXPECT_NE(observed_ops[0].find("applied <a0>"), std::string::npos);
}

TEST_F(ServiceTest, ConflictingCommitLoses) {
  QueryService service(&store_, {2, 64});
  auto txn1 = store_.BeginEdit("ms");
  auto txn2 = store_.BeginEdit("ms");
  ASSERT_TRUE(txn1.ok() && txn2.ok());

  size_t off1 = FindFreeA0Gap(txn1->goddag(), 0, 40);
  ASSERT_TRUE(txn1->session().Select(Interval(off1, off1 + 40)).ok());
  ASSERT_TRUE(txn1->session().Apply(2, "a0").ok());
  size_t off2 = FindFreeA0Gap(txn2->goddag(), 500, 40);
  ASSERT_TRUE(txn2->session().Select(Interval(off2, off2 + 40)).ok());
  ASSERT_TRUE(txn2->session().Apply(2, "a0").ok());
  bool loser_committed = false;
  txn2->session().AddCommitHook(
      [&](uint64_t, const std::vector<std::string>&) {
        loser_committed = true;
      });

  EXPECT_TRUE(Commit(service, std::move(txn1).value()).ok());
  EditResponse lost = Commit(service, std::move(txn2).value());
  EXPECT_EQ(lost.status.code(), StatusCode::kFailedPrecondition);
  // The loser's session never committed: its commit sequence did not
  // advance and its hooks never fired.
  EXPECT_FALSE(loser_committed);
  EXPECT_EQ(store_.GetVersion("ms").value_or(0), 2u);
  // The loser retries from the new base.
  uint64_t v3 = CommitAnnotation(service, 100);
  EXPECT_EQ(v3, 3u);
}

TEST_F(ServiceTest, StaleTransactionCannotPublishAcrossReregistration) {
  QueryService service(&store_, {2, 64});
  auto txn = store_.BeginEdit("ms");
  ASSERT_TRUE(txn.ok());
  size_t offset = FindFreeA0Gap(txn->goddag(), 0, 20);
  ASSERT_TRUE(txn->session().Select(Interval(offset, offset + 20)).ok());
  ASSERT_TRUE(txn->session().Apply(2, "a0").ok());

  // Remove + same-name re-register: versions restart at 1, so a bare
  // version check would let the stale transaction publish the *old*
  // document's edit as version 2 of the new one (ABA).
  ASSERT_TRUE(service.pipeline().SubmitRemove("ms").get().ok());
  auto doc = storage::Load(CorpusBytes());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EditResponse registered =
      service.pipeline().SubmitRegister("ms", std::move(doc).value()).get();
  ASSERT_TRUE(registered.ok()) << registered.status;
  EXPECT_EQ(registered.version, 1u);

  EditResponse published = Commit(service, std::move(txn).value());
  EXPECT_EQ(published.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store_.GetVersion("ms").value_or(0), 1u);
}

TEST_F(ServiceTest, ConcurrentReadersWhileEditing) {
  QueryService service(&store_, {/*num_threads=*/3, /*cache_capacity=*/256});
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 40;
  constexpr int kCommits = 3;

  const std::vector<QueryRequest> mix = {
      {"ms", "count(//w)", QueryKind::kXPath},
      {"ms", "//w[overlapping::line]", QueryKind::kXPath},
      {"ms", "count(//a0)", QueryKind::kXPath},
      {"ms", "for $l in //line where count($l/overlapping::s) > 0 "
             "return {string($l/@n)}",
       QueryKind::kXQuery},
  };

  std::atomic<int> failures{0};
  std::atomic<uint64_t> max_version{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kQueriesPerReader; ++i) {
        QueryResponse response =
            service.Execute(mix[(r + i) % mix.size()]);
        if (!response.ok() || response.items == nullptr) {
          ++failures;
          continue;
        }
        uint64_t seen = response.version;
        uint64_t prev = max_version.load();
        while (seen > prev &&
               !max_version.compare_exchange_weak(prev, seen)) {
        }
      }
    });
  }

  // One writer publishes versions while the readers hammer the service.
  for (int c = 0; c < kCommits; ++c) {
    CommitAnnotation(service, static_cast<size_t>(200 + 50 * c));
  }
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store_.GetVersion("ms").value_or(0), 1u + kCommits);
  EXPECT_GE(max_version.load(), 1u);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kReaders * kQueriesPerReader);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses,
            static_cast<uint64_t>(kReaders * kQueriesPerReader));
  // The hot mix over few versions must hit: far more hits than misses.
  EXPECT_GT(stats.cache.hits, stats.cache.misses);

  // The final published document is structurally sound.
  auto snap = store_.GetSnapshot("ms");
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE((*snap)->goddag->Validate().ok());
}

/// Versions share storage chunks with the clones made from them. Readers
/// query version N and Save it while the pipeline's clones of N mutate
/// and publish N+1..N+k; then a transaction begun on N (an EBEGIN) is
/// written after N is released. No version's CXG1 bytes or answers may
/// change. CI runs this under ThreadSanitizer, which flags a clone
/// writing a chunk a reader of another version may hold.
TEST_F(ServiceTest, CopyOnWriteVersionsStayFixedUnderWrites) {
  QueryService service(&store_, {/*num_threads=*/2, /*cache_capacity=*/64});
  auto first = store_.GetSnapshot("ms");
  ASSERT_TRUE(first.ok());
  SnapshotPtr pinned = *first;
  auto n_bytes = storage::Save(*pinned->goddag);
  ASSERT_TRUE(n_bytes.ok());
  const std::vector<std::string> queries = {
      "count(//w)", "count(//a0)", "//w[overlapping::line]",
      "count(//a0/overlapping::s)"};
  std::vector<std::vector<std::string>> n_answers;
  {
    xpath::XPathEngine engine(*pinned->goddag);
    for (const std::string& q : queries) {
      auto answer = engine.EvaluateToStrings(q);
      ASSERT_TRUE(answer.ok()) << answer.status();
      n_answers.push_back(std::move(answer).value());
    }
  }
  auto late = store_.BeginEdit("ms");
  ASSERT_TRUE(late.ok()) << late.status();

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, snap = pinned] {
      xpath::XPathEngine engine(*snap->goddag);
      for (int round = 0; round < 2 || !stop.load(); ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          auto answer = engine.EvaluateToStrings(queries[q]);
          if (!answer.ok() || *answer != n_answers[q]) ++mismatches;
        }
        auto bytes = storage::Save(*snap->goddag);
        if (!bytes.ok() || *bytes != *n_bytes) ++mismatches;
      }
    });
  }
  constexpr int kCommits = 6;
  std::vector<std::pair<SnapshotPtr, std::string>> published;
  for (int c = 0; c < kCommits; ++c) {
    CommitAnnotation(service, static_cast<size_t>(100 + 60 * c));
    auto snap = store_.GetSnapshot("ms");
    ASSERT_TRUE(snap.ok());
    auto bytes = storage::Save(*(*snap)->goddag);
    ASSERT_TRUE(bytes.ok());
    published.emplace_back(*snap, *bytes);
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(store_.GetVersion("ms").value_or(0), 1u + kCommits);

  // N is released everywhere but in the late transaction's clone, which
  // now writes: it copies each chunk it touches, so the published
  // versions sharing those chunks keep their bytes.
  pinned.reset();
  first = status::Internal("released");
  edit::EditSession& session = late->session();
  size_t offset = FindFreeA0Gap(session.goddag(), 900, kAnnotationLen);
  ASSERT_TRUE(session.Select(Interval(offset, offset + kAnnotationLen)).ok());
  ASSERT_TRUE(session.Apply(2, "a0").ok());
  EXPECT_TRUE(late->goddag().Validate().ok()) << late->goddag().Validate();
  for (const auto& [snap, bytes] : published) {
    auto now = storage::Save(*snap->goddag);
    ASSERT_TRUE(now.ok());
    EXPECT_EQ(*now, bytes) << "version " << snap->version << " moved";
  }
  // Its base is stale, so it loses the optimistic check.
  EXPECT_EQ(Commit(service, std::move(late).value()).status.code(),
            StatusCode::kFailedPrecondition);
}

/// The write path is timed stage by stage: each group commit reports its
/// clone and its op-sets (rejected ones too), and a publish when one of
/// them was accepted.
TEST_F(ServiceTest, WritePipelineTimesCloneApplyAndPublish) {
  obs::Registry registry;
  QueryServiceOptions options;
  options.num_threads = 2;
  options.cache_capacity = 64;
  options.registry = &registry;
  QueryService service(&store_, options);
  CommitAnnotation(service, 300);
  EditResponse rejected = service.ExecuteEdit(
      "ms", [](edit::EditSession& session) -> Status {
        return session.Apply(2, "no-such-tag").status();
      });
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(registry.GetHistogram("cxml_write_clone_us")->Count(), 2u);
  EXPECT_EQ(registry.GetHistogram("cxml_write_apply_us")->Count(), 2u);
  EXPECT_EQ(registry.GetHistogram("cxml_write_publish_us")->Count(), 1u);
  EXPECT_EQ(registry.GetHistogram("cxml_commit_us")->Count(), 1u);
}

/// Uncached submissions on one version evaluate at once, each on its
/// own engine over the version's one shared index, and all agree —
/// with each other and with a naive-scan engine on the same snapshot.
TEST_F(ServiceTest, ConcurrentSubmissionsShareOneIndexAndAgree) {
  QueryService service(&store_, {4, 0});  // no result cache: all evaluate
  const std::vector<QueryRequest> mix = {
      {"ms", "count(//w)", QueryKind::kXPath},
      {"ms", "//w[overlapping::line]", QueryKind::kXPath},
      {"ms", "for $l in //line where count($l/overlapping::s) > 0 "
             "return {string($l/@n)}",
       QueryKind::kXQuery},
  };
  auto snap = store_.GetSnapshot("ms");
  ASSERT_TRUE(snap.ok());
  std::vector<std::vector<std::string>> expected;
  for (const QueryRequest& request : mix) {
    Result<std::vector<std::string>> items = std::vector<std::string>();
    if (request.kind == QueryKind::kXPath) {
      xpath::XPathEngine naive(*(*snap)->goddag);
      naive.SetAxisStrategy(xpath::AxisStrategy::kNaiveScan);
      items = naive.EvaluateToStrings(request.query);
    } else {
      xquery::XQueryEngine naive(*(*snap)->goddag);
      naive.SetAxisStrategy(xpath::AxisStrategy::kNaiveScan);
      items = naive.Run(request.query);
    }
    ASSERT_TRUE(items.ok()) << request.query << ": " << items.status();
    ASSERT_FALSE(items->empty()) << request.query;
    expected.push_back(std::move(items).value());
  }

  constexpr int kRequests = 32;
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(service.Submit(mix[i % mix.size()]));
  }
  for (int i = 0; i < kRequests; ++i) {
    QueryResponse response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status;
    EXPECT_FALSE(response.cache_hit);
    EXPECT_EQ(response.version, (*snap)->version);
    EXPECT_EQ(*response.items, expected[i % mix.size()])
        << mix[i % mix.size()].query;
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.index_patches + stats.index_rebuilds, 1u);
}

/// Reads on one document do not queue behind each other: while a slow
/// submitted query is evaluating, a cheap Execute on the same document
/// returns without waiting for it.
TEST_F(ServiceTest, CheapReadDoesNotWaitForSlowReadOnSameDocument) {
  ASSERT_TRUE(store_.RegisterBytes("big", ManuscriptBytes(20000)).ok());
  QueryService service(&store_, {2, 64});
  obs::Histogram* claimed =
      service.registry()->GetHistogram("cxml_query_queue_us");
  auto slow_handle =
      service.Prepare("count(//w/following::w)", QueryKind::kXPath);
  ASSERT_TRUE(slow_handle.ok()) << slow_handle.status();
  std::future<QueryResponse> slow = service.Submit("big", *slow_handle);
  // The queue wait is booked when a pool worker claims the request.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (claimed->Count() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(claimed->Count(), 1u);

  QueryResponse cheap =
      service.Execute({"big", "count(//line)", QueryKind::kXPath});
  ASSERT_TRUE(cheap.ok()) << cheap.status;
  EXPECT_EQ(slow.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "the cheap read waited for the slow one";
  QueryResponse slow_response = slow.get();
  ASSERT_TRUE(slow_response.ok()) << slow_response.status;
  EXPECT_EQ(slow_response.version, cheap.version);
}

/// However many first queries race on a freshly published version, the
/// version's index is built once — by patching its predecessor's.
TEST_F(ServiceTest, RacingFirstQueriesBuildTheIndexOnce) {
  QueryService service(&store_, {2, 64});
  ASSERT_TRUE(service.Execute({"ms", "count(//w)", QueryKind::kXPath}).ok());
  uint64_t version = CommitAnnotation(service, 100);
  obs::Counter* patches =
      service.registry()->GetCounter("cxml_index_patch_total");
  obs::Counter* rebuilds =
      service.registry()->GetCounter("cxml_index_rebuild_total");
  uint64_t patches_before = patches->Value();
  uint64_t builds_before = patches_before + rebuilds->Value();

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (!go.load()) std::this_thread::yield();
      // Distinct queries: every thread misses the cache and needs the
      // index.
      QueryResponse r = service.Execute(
          {"ms", "count(//w) + " + std::to_string(t), QueryKind::kXPath});
      if (!r.ok() || r.cache_hit || r.version != version) ++failures;
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go = true;
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(patches->Value() + rebuilds->Value() - builds_before, 1u);
  EXPECT_EQ(patches->Value() - patches_before, 1u);
}

/// A FLWOR's bindings never outlive its request: `string($w)` after a
/// `for $w` query on the same version is an unbound-variable error, and
/// the error is never cached.
TEST_F(ServiceTest, FlworBindingsDoNotLeakIntoLaterRequests) {
  QueryService service(&store_, {2, 64});
  QueryResponse flwor = service.Execute(
      {"ms", "for $w in //w return string($w)", QueryKind::kXQuery});
  ASSERT_TRUE(flwor.ok()) << flwor.status;
  ASSERT_FALSE(flwor.items->empty());
  // Twice: a cached answer would come back as a hit the second time.
  for (int i = 0; i < 2; ++i) {
    QueryResponse leaked =
        service.Execute({"ms", "string($w)", QueryKind::kXQuery});
    ASSERT_FALSE(leaked.ok()) << "answered '" << (*leaked.items)[0] << "'";
    EXPECT_NE(leaked.status.message().find("unbound variable $w"),
              std::string::npos)
        << leaked.status;
    EXPECT_FALSE(leaked.cache_hit);
  }
  auto handle = service.Prepare("string($w)", QueryKind::kXQuery);
  ASSERT_TRUE(handle.ok()) << handle.status();
  auto snap = store_.GetSnapshot("ms");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)->version, flwor.version);
  EXPECT_EQ(service.cache().Get({"ms", (*snap)->version,
                                 (*snap)->generation, (*handle)->canonical,
                                 (*handle)->canonical_hash,
                                 QueryKind::kXQuery}),
            nullptr);
}

/// A collection query racing REMOVE and re-REGISTER of matched
/// documents never fails: it answers from the snapshots its selection
/// pinned, and every row names a registered document.
TEST_F(ServiceTest, CollectionQuerySurvivesRemovalsMidFanOut) {
  const std::vector<std::string> names = {"c/0", "c/1", "c/2", "c/3"};
  for (const std::string& name : names) {
    ASSERT_TRUE(store_.RegisterBytes(name, CorpusBytes()).ok());
  }
  // No result cache: every fan-out leg evaluates on the pool, so
  // removals land while legs are still in flight.
  QueryService service(&store_, {2, 0});
  auto handle = service.Prepare("count(//w)", QueryKind::kXPath);
  ASSERT_TRUE(handle.ok()) << handle.status();

  std::atomic<bool> done{false};
  std::atomic<int> churn_errors{0};
  std::thread churn([&] {
    while (!done.load()) {
      for (const char* name : {"c/1", "c/2"}) {
        if (!store_.Remove(name).ok()) ++churn_errors;
        if (!store_.RegisterBytes(name, CorpusBytes()).ok()) ++churn_errors;
      }
    }
  });
  int failures = 0;
  for (int i = 0; i < 300 && failures == 0; ++i) {
    CollectionResponse coll = RunCollectionQuery(&service, "c/*", *handle);
    if (!coll.ok()) {
      ADD_FAILURE() << "iteration " << i << ": " << coll.status;
      ++failures;
      continue;
    }
    EXPECT_EQ(coll.matched, coll.docs.size());
    EXPECT_GE(coll.docs.size(), 2u);  // c/0 and c/3 never leave
    for (const CollectionDocResult& doc : coll.docs) {
      EXPECT_NE(std::find(names.begin(), names.end(), doc.document),
                names.end())
          << doc.document;
      EXPECT_EQ(doc.items.size(), 1u);
    }
  }
  done = true;
  churn.join();
  EXPECT_EQ(churn_errors.load(), 0);

  // A leg that fails still fails the collection, naming its document.
  auto unbound = service.Prepare("string($nope)", QueryKind::kXPath);
  ASSERT_TRUE(unbound.ok()) << unbound.status();
  CollectionResponse coll = RunCollectionQuery(&service, "c/*", *unbound);
  ASSERT_FALSE(coll.ok());
  EXPECT_EQ(coll.status.code(), StatusCode::kNotFound);
  EXPECT_NE(coll.status.message().find("unbound variable $nope"),
            std::string::npos)
      << coll.status;
  EXPECT_NE(coll.status.message().find("'c/0'"), std::string::npos)
      << coll.status;
}

TEST_F(ServiceTest, TrafficGeneratorDrivesService) {
  workload::TrafficParams params;
  params.num_ops = 120;
  params.content_chars = kContentChars;
  params.write_fraction = 0.1;
  auto ops = workload::GenerateTraffic(params);
  ASSERT_TRUE(ops.ok()) << ops.status();
  ASSERT_EQ(ops->size(), params.num_ops);

  // Deterministic given the seed.
  auto again = workload::GenerateTraffic(params);
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < ops->size(); ++i) {
    EXPECT_EQ((*ops)[i].kind, (*again)[i].kind);
    EXPECT_EQ((*ops)[i].query, (*again)[i].query);
  }

  QueryService service(&store_, {2, 256});
  size_t reads = 0, writes = 0, commits = 0;
  for (const workload::TrafficOp& op : *ops) {
    if (op.kind == workload::TrafficOp::Kind::kEdit) {
      ++writes;
      auto txn = store_.BeginEdit("ms");
      ASSERT_TRUE(txn.ok()) << txn.status();
      if (!txn->session().Select(op.edit_chars).ok()) continue;
      // Prevalidation may reject ranges colliding with earlier writes in
      // the same hierarchy; rejected edits simply don't commit.
      if (!txn->session().Apply(op.edit_hierarchy, op.edit_tag).ok()) {
        continue;
      }
      EditResponse committed = Commit(service, std::move(txn).value());
      ASSERT_TRUE(committed.ok()) << committed.status;
      ++commits;
    } else {
      ++reads;
      QueryKind kind = op.kind == workload::TrafficOp::Kind::kXQuery
                           ? QueryKind::kXQuery
                           : QueryKind::kXPath;
      QueryResponse response = service.Execute({"ms", op.query, kind});
      EXPECT_TRUE(response.ok())
          << op.query << ": " << response.status;
    }
  }
  EXPECT_GT(reads, 0u);
  EXPECT_GT(writes, 0u);
  EXPECT_GT(commits, 0u);
  EXPECT_EQ(store_.GetVersion("ms").value_or(0), 1u + commits);
  EXPECT_GT(service.cache().stats().hits, 0u);
}

// ----------------------------------------------------- writer pipeline

/// An EditFn inserting one <a0> over `chars` (hierarchy 2, like
/// CommitAnnotation, but pipeline-shaped).
EditFn InsertA0(Interval chars) {
  return [chars](edit::EditSession& session) -> Status {
    CXML_RETURN_IF_ERROR(session.Select(chars));
    return session.Apply(2, "a0").status();
  };
}

/// Blocks the pipeline's single per-document lane inside an apply so
/// the test can pile writes into the next batch deterministically.
struct PipelineGate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;

  EditFn Blocker() {
    return [this](edit::EditSession&) -> Status {
      std::unique_lock<std::mutex> lock(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [this] { return released; });
      return Status::Ok();
    };
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return entered; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

TEST_F(ServiceTest, WriterPipelineAppliesInSubmissionOrder) {
  QueryService service(&store_, {2, 64});
  constexpr int kWrites = 16;

  std::mutex order_mu;
  std::vector<int> order;
  std::vector<std::future<EditResponse>> futures;
  for (int i = 0; i < kWrites; ++i) {
    futures.push_back(service.SubmitEdit(
        "ms", [i, &order_mu, &order](edit::EditSession&) -> Status {
          std::lock_guard<std::mutex> lock(order_mu);
          order.push_back(i);
          return Status::Ok();
        }));
  }
  uint64_t last_version = 0;
  for (auto& future : futures) {
    EditResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.status;
    EXPECT_GE(response.version, last_version)
        << "versions must be monotone in submission order";
    last_version = response.version;
  }
  // Per-document FIFO: op-sets ran exactly in submission order even
  // though batching regrouped them.
  ASSERT_EQ(order.size(), static_cast<size_t>(kWrites));
  for (int i = 0; i < kWrites; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(ServiceTest, GroupCommitPublishesOnceAndInvalidatesOnce) {
  QueryService service(&store_, {2, 64});
  constexpr int kBatched = 6;

  std::mutex fired_mu;
  std::vector<uint64_t> fired;
  uint64_t listener = store_.AddVersionListener(
      [&](const std::string&, uint64_t version) {
        std::lock_guard<std::mutex> lock(fired_mu);
        fired.push_back(version);
      });

  PipelineGate gate;
  auto blocker = service.SubmitEdit("ms", gate.Blocker());
  gate.AwaitEntered();

  // These all queue while the lane is blocked, so they form one batch:
  // one structural clone, one publish, one listener fire. The gaps are
  // mutually disjoint and clear of existing <a0>s, so every op-set
  // applies.
  auto snap = store_.GetSnapshot("ms");
  ASSERT_TRUE(snap.ok());
  std::vector<std::future<EditResponse>> futures;
  size_t from = 0;
  for (int i = 0; i < kBatched; ++i) {
    size_t offset = FindFreeA0Gap(*(*snap)->goddag, from, kAnnotationLen);
    from = offset + kAnnotationLen + 1;
    futures.push_back(service.SubmitEdit(
        "ms", InsertA0(Interval(offset, offset + kAnnotationLen))));
  }
  gate.Release();
  ASSERT_TRUE(blocker.get().ok());

  uint64_t batch_version = 0;
  for (auto& future : futures) {
    EditResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.status;
    if (batch_version == 0) batch_version = response.version;
    EXPECT_EQ(response.version, batch_version)
        << "batched op-sets must share one published version";
    EXPECT_EQ(response.batch_size, static_cast<size_t>(kBatched));
  }
  store_.RemoveVersionListener(listener);

  // Exactly two publishes: the blocker's batch and the grouped batch.
  {
    std::lock_guard<std::mutex> lock(fired_mu);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], 2u);
    EXPECT_EQ(fired[1], 3u);
  }
  EXPECT_EQ(store_.GetVersion("ms").value_or(0), 3u);
  auto final_snap = store_.GetSnapshot("ms");
  ASSERT_TRUE(final_snap.ok());
  EXPECT_TRUE((*final_snap)->goddag->Validate().ok());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.writes.edits, static_cast<uint64_t>(kBatched) + 1);
  EXPECT_EQ(stats.writes.batches, 2u);
  EXPECT_GT(stats.writes.avg_batch_size(), 1.0);
}

TEST_F(ServiceTest, FailedOpSetDoesNotPoisonTheBatch) {
  QueryService service(&store_, {2, 64});

  QueryResponse before =
      service.Execute({"ms", "count(//a0)", QueryKind::kXPath});
  ASSERT_TRUE(before.ok());
  int a0_before = std::stoi((*before.items)[0]);

  PipelineGate gate;
  auto blocker = service.SubmitEdit("ms", gate.Blocker());
  gate.AwaitEntered();

  auto snap = store_.GetSnapshot("ms");
  ASSERT_TRUE(snap.ok());
  size_t offset =
      FindFreeA0Gap(*(*snap)->goddag, 0, 2 * kAnnotationLen + 20);
  Interval good_a(offset, offset + kAnnotationLen);
  // Straddles good_a's end: a same-hierarchy partial overlap, rejected
  // by the GODDAG's nesting rule once good_a is applied.
  Interval overlapping(offset + kAnnotationLen / 2,
                       offset + kAnnotationLen + kAnnotationLen / 2);
  size_t offset_c = FindFreeA0Gap(*(*snap)->goddag,
                                  offset + 2 * kAnnotationLen + 20,
                                  kAnnotationLen);
  Interval good_c(offset_c, offset_c + kAnnotationLen);

  auto a = service.SubmitEdit("ms", InsertA0(good_a));
  auto b = service.SubmitEdit("ms", InsertA0(overlapping));
  auto c = service.SubmitEdit("ms", InsertA0(good_c));
  gate.Release();
  ASSERT_TRUE(blocker.get().ok());

  EditResponse response_a = a.get();
  EditResponse response_b = b.get();
  EditResponse response_c = c.get();
  ASSERT_TRUE(response_a.ok()) << response_a.status;
  ASSERT_TRUE(response_c.ok()) << response_c.status;
  // The loser failed alone, with the edit layer's own status, and the
  // survivors shared one publish.
  EXPECT_EQ(response_b.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(response_b.version, 0u);
  EXPECT_EQ(response_a.version, response_c.version);
  EXPECT_EQ(response_a.batch_size, 2u);

  QueryResponse after =
      service.Execute({"ms", "count(//a0)", QueryKind::kXPath});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(std::stoi((*after.items)[0]), a0_before + 2);
  auto final_snap = store_.GetSnapshot("ms");
  ASSERT_TRUE(final_snap.ok());
  EXPECT_TRUE((*final_snap)->goddag->Validate().ok());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.writes.errors, 1u);
}

TEST_F(ServiceTest, PipelinedCommitKeepsOptimisticConflict) {
  QueryService service(&store_, {2, 64});

  // A cross-frame-style transaction branches from version 1...
  auto txn = store_.BeginEdit("ms");
  ASSERT_TRUE(txn.ok()) << txn.status();
  size_t offset = FindFreeA0Gap(txn->goddag(), 0, kAnnotationLen);
  ASSERT_TRUE(
      txn->session().Select(Interval(offset, offset + kAnnotationLen)).ok());
  ASSERT_TRUE(txn->session().Apply(2, "a0").ok());

  // ...a pipelined group commit publishes version 2 in between...
  size_t raced_offset = FindFreeA0Gap(txn->goddag(), 500, kAnnotationLen);
  EditResponse raced = service.ExecuteEdit(
      "ms",
      InsertA0(Interval(raced_offset, raced_offset + kAnnotationLen)));
  ASSERT_TRUE(raced.ok()) << raced.status;
  EXPECT_EQ(raced.version, 2u);

  // ...so the queued commit must lose deterministically, FIFO or not.
  EditResponse lost =
      service
          .SubmitCommit("ms", std::make_unique<EditTransaction>(
                                  std::move(txn).value()))
          .get();
  EXPECT_EQ(lost.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store_.GetVersion("ms").value_or(0), 2u);
}

// ---------------------------------------------------- observability

/// Two services in one process must not mix numbers: each owns a
/// private registry unless one is passed in.
TEST_F(ServiceTest, PrivateRegistriesStayIsolated) {
  QueryService a(&store_, {2, 64});
  QueryService b(&store_, {2, 64});
  ASSERT_TRUE(a.Execute({"ms", "count(//w)", QueryKind::kXPath}).ok());
  EXPECT_EQ(a.registry()
                ->GetCounter("cxml_service_requests_total")
                ->Value(),
            1u);
  EXPECT_EQ(b.registry()
                ->GetCounter("cxml_service_requests_total")
                ->Value(),
            0u);
  EXPECT_NE(a.registry(), b.registry());
}

/// An external registry becomes the single exposition surface, and the
/// service's per-stage histograms land in it.
TEST_F(ServiceTest, ExternalRegistryReceivesStageHistograms) {
  obs::Registry registry;
  QueryServiceOptions options;
  options.num_threads = 2;
  options.cache_capacity = 64;
  options.registry = &registry;
  QueryService service(&store_, options);
  ASSERT_TRUE(
      service.Execute({"ms", "count(//w)", QueryKind::kXPath}).ok());
  ASSERT_TRUE(
      service.Execute({"ms", "count(//w)", QueryKind::kXPath}).ok());
  // A submitted hit answers at once; a submitted miss queues.
  ASSERT_TRUE(
      service.Submit({"ms", "count(//w)", QueryKind::kXPath}).get().ok());
  ASSERT_TRUE(
      service.Submit({"ms", "count(//s)", QueryKind::kXPath}).get().ok());
  EXPECT_EQ(service.registry(), &registry);
  EXPECT_EQ(
      registry.GetCounter("cxml_service_requests_total")->Value(), 4u);
  EXPECT_EQ(registry.GetHistogram("cxml_query_us")->Count(), 4u);
  // Execute runs on the caller's thread: only the submitted miss
  // waited in the pool's queue.
  EXPECT_EQ(registry.GetHistogram("cxml_query_queue_us")->Count(), 1u);
  // Only the cache misses evaluated; the hits skipped the engines.
  EXPECT_EQ(registry.GetHistogram("cxml_query_eval_us")->Count(), 2u);
  // The evaluator's axis-strategy tallies flowed up as counters.
  EXPECT_GT(registry.GetCounter("cxml_axis_indexed_total")->Value() +
                registry.GetCounter("cxml_axis_naive_total")->Value() +
                registry.GetCounter("cxml_axis_pushdown_total")->Value(),
            0u);
}

/// A trace passed into Submit collects the service-side stages (cache,
/// then for a miss queue, index and eval) under the caller's parent
/// stage.
TEST_F(ServiceTest, SubmittedTraceCollectsServiceStages) {
  QueryService service(&store_, {2, 64});
  auto handle =
      service.Prepare("//w[overlapping::line]", QueryKind::kXPath);
  ASSERT_TRUE(handle.ok()) << handle.status();

  obs::TracePtr trace = service.tracer().Start();
  ASSERT_NE(trace, nullptr);
  int parent = trace->StartStage("service");
  QueryResponse response =
      service.Submit("ms", *handle, trace, parent).get();
  trace->EndStage(parent);
  ASSERT_TRUE(response.ok()) << response.status;
  service.tracer().Finish(trace);

  std::vector<std::string> recent = service.tracer().Recent(1);
  ASSERT_EQ(recent.size(), 1u);
  const std::string& rendered = recent[0];
  EXPECT_NE(rendered.find("queue "), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("cache "), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("eval "), std::string::npos) << rendered;
  // Cold snapshot: the index build is attributed to this request.
  EXPECT_NE(rendered.find("index "), std::string::npos) << rendered;
  // A cache miss is noted on the cache stage, the axis summary on eval.
  EXPECT_NE(rendered.find("(miss)"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("indexed="), std::string::npos) << rendered;
}

/// The eval stage's trace note and the METRICS counters name the
/// predicate plans an evaluation ran: the semi-join shows as an
/// existential answer per w, one restricted pool and one semi-join
/// from the small side.
TEST_F(ServiceTest, EvalTraceNoteNamesPredicatePlans) {
  obs::Registry registry;
  QueryServiceOptions options;
  options.num_threads = 2;
  options.registry = &registry;
  QueryService service(&store_, options);
  auto handle = service.Prepare("count(//w[ancestor::s[@n = '3']])",
                                QueryKind::kXPath);
  ASSERT_TRUE(handle.ok()) << handle.status();

  obs::TracePtr trace = service.tracer().Start();
  ASSERT_NE(trace, nullptr);
  int parent = trace->StartStage("service");
  QueryResponse response =
      service.Submit("ms", *handle, trace, parent).get();
  trace->EndStage(parent);
  ASSERT_TRUE(response.ok()) << response.status;
  service.tracer().Finish(trace);

  std::vector<std::string> recent = service.tracer().Recent(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_NE(recent[0].find("filter=0 exists="), std::string::npos)
      << recent[0];
  EXPECT_NE(recent[0].find("restricted=1"), std::string::npos) << recent[0];
  EXPECT_NE(recent[0].find("semijoins=1"), std::string::npos) << recent[0];
  EXPECT_GT(registry.GetCounter("cxml_axis_exists_preds_total")->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("cxml_axis_restricted_pools_total")->Value(),
            1u);
  EXPECT_EQ(registry.GetCounter("cxml_axis_filter_preds_total")->Value(), 0u);

  auto filter = service.Prepare("count(//s[@n > 2])", QueryKind::kXPath);
  ASSERT_TRUE(filter.ok()) << filter.status();
  ASSERT_TRUE(service.Submit("ms", *filter).get().ok());
  EXPECT_GT(registry.GetCounter("cxml_axis_filter_preds_total")->Value(), 0u);
}

/// One cold `//w[overlapping::line[@n='60']]` on a 20k-char manuscript
/// (3k words, 300-odd lines) is one existential predicate answered from
/// the small side: cxml_axis_semijoins_total moves by exactly 1, and
/// the cached repeat, which evaluates nothing, leaves it there.
TEST_F(ServiceTest, SemijoinCounterCountsSmallSideAnswers) {
  ASSERT_TRUE(store_.RegisterBytes("ms20k", ManuscriptBytes(20'000)).ok());
  obs::Registry registry;
  QueryServiceOptions options;
  options.num_threads = 2;
  options.registry = &registry;
  QueryService service(&store_, options);
  auto handle =
      service.Prepare("//w[overlapping::line[@n='60']]", QueryKind::kXPath);
  ASSERT_TRUE(handle.ok()) << handle.status();
  obs::Counter* semijoins = registry.GetCounter("cxml_axis_semijoins_total");
  ASSERT_EQ(semijoins->Value(), 0u);

  QueryResponse cold = service.Submit("ms20k", *handle).get();
  ASSERT_TRUE(cold.ok()) << cold.status;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(semijoins->Value(), 1u);

  QueryResponse warm = service.Submit("ms20k", *handle).get();
  ASSERT_TRUE(warm.ok()) << warm.status;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(*warm.items, *cold.items);
  EXPECT_EQ(semijoins->Value(), 1u);
}

}  // namespace
}  // namespace cxml::service
