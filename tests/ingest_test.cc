// Ingest subsystem: convention-aware import (TEI overlap encodings,
// lenient HTML) and collection queries. The core contract is
// round-trip equivalence — importing a fixture must yield byte-
// identical Extended-XPath answers to the same document hand-built
// through the extent driver — plus the wire path: IMPORT flows through
// DocumentStore::Register, so a WAL-attached server persists and
// replicates imported documents exactly like registered ones.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cmh/hierarchy.h"
#include "common/strings.h"
#include "drivers/extents.h"
#include "dtd/dtd.h"
#include "ingest/ingest.h"
#include "net/client.h"
#include "net/server.h"
#include "service/collection_query.h"
#include "service/document_store.h"
#include "service/query_service.h"
#include "storage/binary.h"
#include "wal/follower.h"
#include "wal/log.h"
#include "wal/manager.h"
#include "xpath/engine.h"

namespace cxml::ingest {
namespace {

// ----------------------------------------------------- hand-built oracle

/// The CMH + GODDAG pair a driver-side user would build by hand; the
/// oracle the importer's output is compared against.
struct HandBuilt {
  std::unique_ptr<cmh::ConcurrentHierarchies> cmh;
  std::unique_ptr<goddag::Goddag> g;
};

/// Registers one hierarchy whose tags (plus the root) are all ANY —
/// the same DTD shape the importer synthesizes.
cmh::HierarchyId MustAddLayer(cmh::ConcurrentHierarchies* cmh,
                              const std::string& root_tag,
                              const std::string& name,
                              const std::vector<std::string>& tags) {
  std::string src = StrCat("<!ELEMENT ", root_tag, " ANY>");
  for (const std::string& t : tags) {
    if (t == root_tag) continue;
    src += StrCat("<!ELEMENT ", t, " ANY>");
  }
  auto dtd = dtd::ParseDtd(src);
  EXPECT_TRUE(dtd.ok()) << dtd.status();
  auto id = cmh->AddHierarchy(name, std::move(dtd).value());
  EXPECT_TRUE(id.ok()) << id.status();
  return id.ok() ? *id : cmh::kInvalidHierarchy;
}

/// Every query must answer identically — same item count, same bytes —
/// on the imported and the hand-built GODDAG.
void ExpectSameAnswers(const goddag::Goddag& imported,
                       const goddag::Goddag& oracle,
                       const std::vector<std::string>& queries) {
  xpath::XPathEngine imported_engine(imported);
  xpath::XPathEngine oracle_engine(oracle);
  for (const std::string& query : queries) {
    auto a = imported_engine.EvaluateToStrings(query);
    auto b = oracle_engine.EvaluateToStrings(query);
    ASSERT_TRUE(a.ok()) << query << " (imported): " << a.status();
    ASSERT_TRUE(b.ok()) << query << " (oracle): " << b.status();
    EXPECT_EQ(*a, *b) << query;
  }
}

// --------------------------------------------------- milestone round trip

TEST(IngestMilestones, RoundTripMatchesDriverBuiltGoddag) {
  const std::string source =
      "<TEI><text>"
      "<pb n=\"1\"/><lb/><p>Hello world.</p>"
      "<pb n=\"2\"/><lb/><p>Second page.</p>"
      "</text></TEI>";
  auto imported = Import(source, {Format::kTei});
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ(imported->stats.milestone_spans, 4u);
  EXPECT_EQ(imported->stats.content_bytes, 24u);
  EXPECT_EQ(imported->stats.merged_fragments, 0u);

  // The oracle: backbone "text", then one hierarchy per milestone unit
  // in sorted order ("line" < "page"), spans running milestone-to-next.
  HandBuilt oracle;
  oracle.cmh = std::make_unique<cmh::ConcurrentHierarchies>("TEI");
  cmh::HierarchyId text_h =
      MustAddLayer(oracle.cmh.get(), "TEI", "text", {"text", "p"});
  cmh::HierarchyId line_h =
      MustAddLayer(oracle.cmh.get(), "TEI", "line", {"line"});
  cmh::HierarchyId page_h =
      MustAddLayer(oracle.cmh.get(), "TEI", "page", {"page"});

  std::vector<drivers::LogicalElement> elements;
  auto add = [&](cmh::HierarchyId h, const std::string& tag,
                 std::vector<xml::Attribute> attrs, size_t begin,
                 size_t end) {
    drivers::LogicalElement le;
    le.hierarchy = h;
    le.tag = tag;
    le.attrs = std::move(attrs);
    le.chars = Interval(begin, end);
    elements.push_back(std::move(le));
  };
  add(text_h, "text", {}, 0, 24);
  add(text_h, "p", {}, 0, 12);
  add(text_h, "p", {}, 12, 24);
  add(line_h, "line", {}, 0, 12);
  add(line_h, "line", {}, 12, 24);
  add(page_h, "page", {{"n", "1"}}, 0, 12);
  add(page_h, "page", {{"n", "2"}}, 12, 24);
  auto g = drivers::BuildGoddagFromExtents(*oracle.cmh, "Hello world.Second page.",
                                           std::move(elements));
  ASSERT_TRUE(g.ok()) << g.status();
  oracle.g = std::make_unique<goddag::Goddag>(std::move(g).value());

  ExpectSameAnswers(*imported->doc.g, *oracle.g,
                    {
                        "//p",
                        "//page",
                        "//line",
                        "count(//*)",
                        "count(//node())",
                        "string(//page[1])",
                        "string(//page[2])",
                        "string(//line[last()])",
                        "count(//p/overlapping::page)",
                        "count(//p/overlapping(line)::*)",
                        "count(//descendant(page)::*)",
                        "string(/)",
                    });
}

// ----------------------------------------------- fragmentation round trip

TEST(IngestFragmentation, PartChainsMergeAndMatchOracle) {
  const std::string source =
      "<TEI><text>"
      "<div><seg part=\"I\" n=\"s1\">One </seg><note>mid </note>"
      "<seg part=\"F\">two.</seg></div>"
      "<div><seg part=\"N\">whole.</seg></div>"
      "</text></TEI>";
  auto imported = Import(source, {Format::kTei});
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ(imported->stats.merged_fragments, 1u);
  EXPECT_EQ(imported->stats.content_bytes, 18u);

  // Every <seg> — chained or part="N" — lives in the overlay hierarchy
  // "frag:seg"; the merged chain spans the convex hull of its parts
  // and keeps the first fragment's attributes minus part=.
  HandBuilt oracle;
  oracle.cmh = std::make_unique<cmh::ConcurrentHierarchies>("TEI");
  cmh::HierarchyId text_h = MustAddLayer(oracle.cmh.get(), "TEI", "text",
                                         {"text", "div", "note"});
  cmh::HierarchyId seg_h =
      MustAddLayer(oracle.cmh.get(), "TEI", "frag:seg", {"seg"});

  std::vector<drivers::LogicalElement> elements;
  auto add = [&](cmh::HierarchyId h, const std::string& tag,
                 std::vector<xml::Attribute> attrs, size_t begin,
                 size_t end) {
    drivers::LogicalElement le;
    le.hierarchy = h;
    le.tag = tag;
    le.attrs = std::move(attrs);
    le.chars = Interval(begin, end);
    elements.push_back(std::move(le));
  };
  add(text_h, "text", {}, 0, 18);
  add(text_h, "div", {}, 0, 12);
  add(seg_h, "seg", {{"n", "s1"}}, 0, 12);
  add(text_h, "note", {}, 4, 8);
  add(text_h, "div", {}, 12, 18);
  add(seg_h, "seg", {{"part", "N"}}, 12, 18);
  auto g = drivers::BuildGoddagFromExtents(*oracle.cmh, "One mid two.whole.",
                                           std::move(elements));
  ASSERT_TRUE(g.ok()) << g.status();
  oracle.g = std::make_unique<goddag::Goddag>(std::move(g).value());

  ExpectSameAnswers(*imported->doc.g, *oracle.g,
                    {
                        "//seg",
                        "//div",
                        "//note",
                        "count(//seg)",
                        "string(//seg[1])",
                        "string(//seg[last()])",
                        "count(//note/ancestor::*)",
                        "count(//seg/overlapping::div)",
                        "count(//*)",
                        "string(/)",
                    });
}

TEST(IngestFragmentation, NextLinkChainsMergeAndMatchOracle) {
  const std::string source =
      "<TEI><text>"
      "<sp who=\"a\"><ab xml:id=\"a1\" next=\"#a2\">First </ab></sp>"
      "<sp who=\"b\"><ab xml:id=\"b1\">Aside </ab></sp>"
      "<sp who=\"a\"><ab xml:id=\"a2\" prev=\"#a1\">second.</ab></sp>"
      "</text></TEI>";
  auto imported = Import(source, {Format::kTei});
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ(imported->stats.merged_fragments, 1u);

  // The merged <ab> spans speech a's hull [0,19) and OVERLAPS nothing
  // in its own hierarchy — b1's aside [6,12) nests inside it — while
  // cross-cutting all three <sp> elements of the backbone: exactly the
  // overlap structure the GODDAG exists to represent.
  HandBuilt oracle;
  oracle.cmh = std::make_unique<cmh::ConcurrentHierarchies>("TEI");
  cmh::HierarchyId text_h =
      MustAddLayer(oracle.cmh.get(), "TEI", "text", {"text", "sp"});
  cmh::HierarchyId ab_h =
      MustAddLayer(oracle.cmh.get(), "TEI", "frag:ab", {"ab"});

  std::vector<drivers::LogicalElement> elements;
  auto add = [&](cmh::HierarchyId h, const std::string& tag,
                 std::vector<xml::Attribute> attrs, size_t begin,
                 size_t end) {
    drivers::LogicalElement le;
    le.hierarchy = h;
    le.tag = tag;
    le.attrs = std::move(attrs);
    le.chars = Interval(begin, end);
    elements.push_back(std::move(le));
  };
  add(text_h, "text", {}, 0, 19);
  add(text_h, "sp", {{"who", "a"}}, 0, 6);
  add(ab_h, "ab", {{"xml:id", "a1"}}, 0, 19);
  add(text_h, "sp", {{"who", "b"}}, 6, 12);
  add(ab_h, "ab", {{"xml:id", "b1"}}, 6, 12);
  add(text_h, "sp", {{"who", "a"}}, 12, 19);
  auto g = drivers::BuildGoddagFromExtents(*oracle.cmh, "First Aside second.",
                                           std::move(elements));
  ASSERT_TRUE(g.ok()) << g.status();
  oracle.g = std::make_unique<goddag::Goddag>(std::move(g).value());

  ExpectSameAnswers(*imported->doc.g, *oracle.g,
                    {
                        "//ab",
                        "//sp",
                        "string(//ab[1])",
                        "count(//ab)",
                        "count(//sp/overlapping::ab)",
                        "count(//ab/overlapping-start::sp)",
                        "count(//*)",
                        "string(/)",
                    });
}

// --------------------------------------------------- standoff round trip

TEST(IngestStandoff, AnnotationsLandInStandoffHierarchy) {
  const std::string source =
      "<TEI>"
      "<teiHeader><fileDesc><title>Meta dropped</title></fileDesc></teiHeader>"
      "<text><p>Hello brave new world.</p></text>"
      "<standOff>"
      "<span from=\"0\" to=\"5\" ana=\"greeting\"/>"
      "<span from=\"6\" to=\"11\" ana=\"adj\"/>"
      "<interp from=\"6\" to=\"21\"/>"
      "</standOff>"
      "</TEI>";
  auto imported = Import(source, {Format::kTei});
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ(imported->stats.standoff_annotations, 3u);
  // <teiHeader> is metadata: its text must not reach the content.
  EXPECT_EQ(imported->stats.content_bytes, 22u);
  EXPECT_EQ(imported->doc.g->content().find("Meta"), std::string::npos);

  HandBuilt oracle;
  oracle.cmh = std::make_unique<cmh::ConcurrentHierarchies>("TEI");
  cmh::HierarchyId text_h =
      MustAddLayer(oracle.cmh.get(), "TEI", "text", {"text", "p"});
  cmh::HierarchyId so_h = MustAddLayer(oracle.cmh.get(), "TEI", "standoff",
                                       {"interp", "span"});

  std::vector<drivers::LogicalElement> elements;
  auto add = [&](cmh::HierarchyId h, const std::string& tag,
                 std::vector<xml::Attribute> attrs, size_t begin,
                 size_t end) {
    drivers::LogicalElement le;
    le.hierarchy = h;
    le.tag = tag;
    le.attrs = std::move(attrs);
    le.chars = Interval(begin, end);
    elements.push_back(std::move(le));
  };
  add(text_h, "text", {}, 0, 22);
  add(text_h, "p", {}, 0, 22);
  add(so_h, "span", {{"ana", "greeting"}}, 0, 5);
  add(so_h, "span", {{"ana", "adj"}}, 6, 11);
  add(so_h, "interp", {}, 6, 21);
  auto g = drivers::BuildGoddagFromExtents(
      *oracle.cmh, "Hello brave new world.", std::move(elements));
  ASSERT_TRUE(g.ok()) << g.status();
  oracle.g = std::make_unique<goddag::Goddag>(std::move(g).value());

  ExpectSameAnswers(*imported->doc.g, *oracle.g,
                    {
                        "//span",
                        "//interp",
                        "string(//span[1])",
                        "string(//span[2])",
                        "string(//interp)",
                        "count(//span/ancestor::interp)",
                        "count(//p/overlapping::span)",
                        "count(//*)",
                        "string(/)",
                    });
}

// ------------------------------------------------------- HTML round trip

TEST(IngestHtml, LenientParseMatchesOracle) {
  // Uppercase names fold, <LI> never closes itself but </UL> closes
  // the whole stack above it, <BR> is void, and the unclosed <P> at
  // EOF auto-closes under the virtual "document" root.
  const std::string source = "<UL CLASS=\"menu\"><LI>one<LI>two</UL><P>tail<BR>end";
  auto imported = Import(source, {Format::kHtml});
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ(imported->stats.content_bytes, 13u);

  HandBuilt oracle;
  oracle.cmh = std::make_unique<cmh::ConcurrentHierarchies>("document");
  cmh::HierarchyId text_h = MustAddLayer(oracle.cmh.get(), "document", "text",
                                         {"br", "li", "p", "ul"});

  std::vector<drivers::LogicalElement> elements;
  auto add = [&](const std::string& tag, std::vector<xml::Attribute> attrs,
                 size_t begin, size_t end) {
    drivers::LogicalElement le;
    le.hierarchy = text_h;
    le.tag = tag;
    le.attrs = std::move(attrs);
    le.chars = Interval(begin, end);
    elements.push_back(std::move(le));
  };
  add("ul", {{"class", "menu"}}, 0, 6);
  add("li", {}, 0, 6);
  add("li", {}, 3, 6);
  add("p", {}, 6, 13);
  add("br", {}, 10, 10);
  auto g = drivers::BuildGoddagFromExtents(*oracle.cmh, "onetwotailend",
                                           std::move(elements));
  ASSERT_TRUE(g.ok()) << g.status();
  oracle.g = std::make_unique<goddag::Goddag>(std::move(g).value());

  ExpectSameAnswers(*imported->doc.g, *oracle.g,
                    {
                        "//li",
                        "//ul",
                        "//p",
                        "//br",
                        "string(//p)",
                        "string(//li[1])",
                        "count(//*)",
                        "string(/)",
                    });
}

// ------------------------------------------------------------- rejection

/// Every malformed input must come back InvalidArgument — the code the
/// wire layer maps to a clean ERR without registering anything.
void ExpectRejected(const std::string& source, Format format) {
  auto imported = Import(source, {format});
  ASSERT_FALSE(imported.ok()) << source;
  EXPECT_EQ(imported.status().code(), StatusCode::kInvalidArgument)
      << source << ": " << imported.status();
}

TEST(IngestErrors, MalformedMarkupIsInvalidArgument) {
  ExpectRejected("<a><b></a>", Format::kXml);          // mismatched end
  ExpectRejected("<a>x</a><b/>", Format::kXml);        // two roots
  ExpectRejected("just text", Format::kXml);           // no root
  ExpectRejected("<a>x", Format::kXml);                // unclosed
  ExpectRejected("", Format::kXml);                    // empty
}

TEST(IngestErrors, ConventionViolationsAreInvalidArgument) {
  // Milestones must be empty elements.
  ExpectRejected("<TEI><text><pb>x</pb>y</text></TEI>", Format::kTei);
  // <milestone> needs @unit.
  ExpectRejected("<TEI><text><milestone/>y</text></TEI>", Format::kTei);
  // part="F" with no open chain.
  ExpectRejected("<TEI><text><seg part=\"F\">x</seg></text></TEI>",
                 Format::kTei);
  // part="X" is not a TEI part value.
  ExpectRejected("<TEI><text><seg part=\"X\">x</seg></text></TEI>",
                 Format::kTei);
  // An unfinished chain (I without F).
  ExpectRejected("<TEI><text><seg part=\"I\">x</seg></text></TEI>",
                 Format::kTei);
  // next= cycle.
  ExpectRejected(
      "<TEI><text>"
      "<ab xml:id=\"x\" next=\"#y\" prev=\"#y\">a</ab>"
      "<ab xml:id=\"y\" next=\"#x\" prev=\"#x\">b</ab>"
      "</text></TEI>",
      Format::kTei);
  // Standoff offsets beyond the base text.
  ExpectRejected(
      "<TEI><text><p>short</p></text>"
      "<standOff><span from=\"0\" to=\"999\"/></standOff></TEI>",
      Format::kTei);
  // Standoff annotations that partially overlap cannot share the
  // single standoff hierarchy.
  ExpectRejected(
      "<TEI><text><p>long enough text</p></text>"
      "<standOff><span from=\"0\" to=\"5\"/><span from=\"3\" to=\"8\"/>"
      "</standOff></TEI>",
      Format::kTei);
  // Same-hierarchy overlap in the backbone (via fragmentation is the
  // only legal way to overlap): plain XML cannot express it, but a
  // milestone unit colliding with a backbone tag can.
  ExpectRejected("<TEI><text><pb/><pb2/><page>x</page></text></TEI>",
                 Format::kTei);
}

TEST(IngestErrors, ParseFormatRejectsUnknownNames) {
  EXPECT_TRUE(ParseFormat("xml").ok());
  EXPECT_TRUE(ParseFormat("tei").ok());
  EXPECT_TRUE(ParseFormat("html").ok());
  auto bad = ParseFormat("yaml");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ glob match

TEST(GlobMatch, MatchesDocumentNames) {
  using service::GlobMatch;
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("*", "anything/at/all"));
  EXPECT_TRUE(GlobMatch("corpus/*", "corpus/doc1"));
  EXPECT_TRUE(GlobMatch("corpus/*", "corpus/deep/doc"));
  EXPECT_FALSE(GlobMatch("corpus/*", "other/doc1"));
  EXPECT_TRUE(GlobMatch("doc?", "doc1"));
  EXPECT_FALSE(GlobMatch("doc?", "doc12"));
  EXPECT_FALSE(GlobMatch("doc?", "doc"));
  EXPECT_TRUE(GlobMatch("exact", "exact"));
  EXPECT_FALSE(GlobMatch("exact", "exactly"));
  EXPECT_TRUE(GlobMatch("*.xml", "a.xml"));
  EXPECT_FALSE(GlobMatch("*.xml", "a.xmlz"));
  EXPECT_TRUE(GlobMatch("a*b*c", "a-x-b-y-c"));
  EXPECT_FALSE(GlobMatch("a*b*c", "a-x-c"));
  EXPECT_FALSE(GlobMatch("", "x"));
  EXPECT_TRUE(GlobMatch("", ""));
}

// ------------------------------------------------------ collection query

/// A small TEI document whose answer set varies with `pages`.
std::string TeiDoc(size_t pages) {
  std::string out = "<TEI><text>";
  for (size_t i = 0; i < pages; ++i) {
    out += StrCat("<pb n=\"", StrFormat("%zu", i + 1), "\"/><p>Page ",
                  StrFormat("%zu", i + 1), " text.</p>");
  }
  out += "</text></TEI>";
  return out;
}

class CollectionQueryTest : public ::testing::Test {
 protected:
  static constexpr size_t kCorpusDocs = 9;

  void SetUp() override {
    service_ = std::make_unique<service::QueryService>(
        &store_, service::QueryServiceOptions{/*num_threads=*/4,
                                              /*cache_capacity=*/128});
    for (size_t i = 0; i < kCorpusDocs; ++i) {
      ImportInto(StrCat("corpus/doc", StrFormat("%zu", i)), TeiDoc(i + 1));
    }
    ImportInto("other/doc", TeiDoc(2));
  }

  void ImportInto(const std::string& name, const std::string& source) {
    auto imported = Import(source, {Format::kTei});
    ASSERT_TRUE(imported.ok()) << imported.status();
    ASSERT_TRUE(store_.Register(name, std::move(imported->doc)).ok());
  }

  service::QueryHandle MustPrepare(const std::string& query) {
    auto handle = service_->Prepare(query, service::QueryKind::kXPath);
    EXPECT_TRUE(handle.ok()) << handle.status();
    return handle.ok() ? *handle : nullptr;
  }

  service::DocumentStore store_;
  std::unique_ptr<service::QueryService> service_;
};

TEST_F(CollectionQueryTest, MergesDocByDocResultsInOrder) {
  service::QueryHandle handle = MustPrepare("//p");
  service::CollectionResponse coll = service::RunCollectionQuery(
      service_.get(), "corpus/*", handle);
  ASSERT_TRUE(coll.ok()) << coll.status;
  EXPECT_EQ(coll.matched, kCorpusDocs);
  EXPECT_FALSE(coll.truncated);
  ASSERT_EQ(coll.docs.size(), kCorpusDocs);

  // The oracle: the same handle run document by document over the
  // sorted LIST, merged in (document, rank) order.
  size_t total = 0;
  std::vector<std::string> names = store_.ListDocuments();
  size_t at = 0;
  for (const std::string& name : names) {
    if (!service::GlobMatch("corpus/*", name)) continue;
    service::QueryResponse single = service_->Execute(name, handle);
    ASSERT_TRUE(single.ok()) << name << ": " << single.status;
    ASSERT_LT(at, coll.docs.size());
    EXPECT_EQ(coll.docs[at].document, name);
    EXPECT_EQ(coll.docs[at].version, single.version);
    EXPECT_EQ(coll.docs[at].items, *single.items) << name;
    total += single.items->size();
    ++at;
  }
  EXPECT_EQ(at, coll.docs.size());
  EXPECT_EQ(coll.total_items, total);
  // 1+2+...+9 paragraphs across the corpus.
  EXPECT_EQ(total, kCorpusDocs * (kCorpusDocs + 1) / 2);
}

TEST_F(CollectionQueryTest, CapTruncatesInDocumentRankOrder) {
  service::QueryHandle handle = MustPrepare("//p");
  service::CollectionQueryOptions options;
  options.max_results = 4;
  service::CollectionResponse coll = service::RunCollectionQuery(
      service_.get(), "corpus/*", handle, options);
  ASSERT_TRUE(coll.ok()) << coll.status;
  EXPECT_TRUE(coll.truncated);
  EXPECT_EQ(coll.total_items, 4u);
  // doc0 answers 1 item, doc1 answers 2, doc2 is cut mid-document.
  ASSERT_GE(coll.docs.size(), 3u);
  EXPECT_EQ(coll.docs[0].items.size(), 1u);
  EXPECT_EQ(coll.docs[1].items.size(), 2u);
  EXPECT_EQ(coll.docs[2].items.size(), 1u);
}

TEST_F(CollectionQueryTest, NoMatchIsNotFound) {
  service::QueryHandle handle = MustPrepare("//p");
  service::CollectionResponse coll = service::RunCollectionQuery(
      service_.get(), "nope/*", handle);
  ASSERT_FALSE(coll.ok());
  EXPECT_EQ(coll.status.code(), StatusCode::kNotFound);
}

TEST_F(CollectionQueryTest, NullHandleIsInvalidArgument) {
  service::CollectionResponse coll = service::RunCollectionQuery(
      service_.get(), "corpus/*", nullptr);
  ASSERT_FALSE(coll.ok());
  EXPECT_EQ(coll.status.code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------ wire import + WAL durability

/// Satellite contract: IMPORT flows through DocumentStore::Register, so
/// a server with a WAL attached persists the imported document (a
/// kSnapshot checkpoint lands on disk), recovery restores it, and a
/// follower tailing SYNC replicates it byte-identically.
TEST(IngestWireTest, ImportPersistsAcrossRestartAndReplicates) {
  const std::string data_dir =
      ::testing::TempDir() + "ingest_wal_import_persists";
  (void)wal::RemoveDirRecursive(data_dir + "/" + wal::EncodeDocDir("tei/alpha"));
  (void)wal::RemoveDirRecursive(data_dir);

  const std::string source =
      "<TEI><text><pb n=\"1\"/><p>Alpha page one.</p>"
      "<pb n=\"2\"/><p>Alpha page two.</p></text></TEI>";

  std::string primary_bytes;
  std::string imported_answer;
  {
    service::DocumentStore store;
    service::QueryService service(
        &store, service::QueryServiceOptions{/*num_threads=*/2,
                                             /*cache_capacity=*/64});
    wal::WalOptions wal_options;
    wal_options.data_dir = data_dir;
    wal::WalManager wal(wal_options);
    ASSERT_TRUE(wal.Open().ok());
    wal::RecoveryStats stats;
    ASSERT_TRUE(wal.RecoverAll(&store, &stats).ok());
    wal.Attach(&store, &service.pipeline());

    net::ServerOptions server_options;
    server_options.num_workers = 2;
    server_options.sync_source = &wal;
    net::Server server(&store, &service, server_options);
    ASSERT_TRUE(server.Start().ok());

    auto client = net::Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status();
    auto version = client->Import("tei/alpha", "tei", source);
    ASSERT_TRUE(version.ok()) << version.status();
    EXPECT_EQ(*version, 1u);

    // A rejected import must not register anything (and must not
    // disturb the WAL state of the good document).
    auto rejected = client->Import("tei/bad", "tei", "<a><b></a>");
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    auto names = client->List();
    ASSERT_TRUE(names.ok());
    EXPECT_EQ(names->size(), 1u);

    auto answer = client->Query("tei/alpha", "string(//page[2])",
                                service::QueryKind::kXPath);
    ASSERT_TRUE(answer.ok()) << answer.status();
    ASSERT_EQ(answer->items.size(), 1u);
    EXPECT_EQ(answer->items[0], "Alpha page two.");
    imported_answer = answer->items[0];

    // A follower tailing this primary replicates the import.
    service::DocumentStore replica_store;
    service::QueryService replica_service(
        &replica_store, service::QueryServiceOptions{/*num_threads=*/2,
                                                     /*cache_capacity=*/64});
    wal::FollowerOptions follower_options;
    follower_options.port = server.port();
    follower_options.poll_interval_ms = 10;
    wal::Follower follower(&replica_store, &replica_service,
                           follower_options);
    follower.Start();
    EXPECT_EQ(follower.WaitForVersion("tei/alpha", 1, /*timeout_ms=*/5000),
              1u);
    auto primary_snap = store.GetSnapshot("tei/alpha");
    auto replica_snap = replica_store.GetSnapshot("tei/alpha");
    ASSERT_TRUE(primary_snap.ok());
    ASSERT_TRUE(replica_snap.ok());
    auto pb = storage::Save(*(*primary_snap)->goddag);
    auto rb = storage::Save(*(*replica_snap)->goddag);
    ASSERT_TRUE(pb.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(*pb, *rb);
    primary_bytes = std::move(pb).value();
    follower.Stop();
    server.Stop();
  }

  // A new world from the data dir alone: the import survived.
  {
    service::DocumentStore store;
    service::QueryService service(
        &store, service::QueryServiceOptions{/*num_threads=*/2,
                                             /*cache_capacity=*/64});
    wal::WalOptions wal_options;
    wal_options.data_dir = data_dir;
    wal::WalManager wal(wal_options);
    ASSERT_TRUE(wal.Open().ok());
    wal::RecoveryStats stats;
    ASSERT_TRUE(wal.RecoverAll(&store, &stats).ok());
    EXPECT_EQ(stats.docs_recovered, 1u);
    wal.Attach(&store, &service.pipeline());

    auto snap = store.GetSnapshot("tei/alpha");
    ASSERT_TRUE(snap.ok()) << snap.status();
    auto bytes = storage::Save(*(*snap)->goddag);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(*bytes, primary_bytes);

    service::QueryResponse response = service.Execute(
        {"tei/alpha", "string(//page[2])", service::QueryKind::kXPath});
    ASSERT_TRUE(response.ok()) << response.status;
    ASSERT_EQ(response.items->size(), 1u);
    EXPECT_EQ((*response.items)[0], imported_answer);
  }
}

// ----------------------------------------------------- wire QCOLL + IMPORT

TEST(IngestWireTest, ImportAndCollectionQueryOverCxp) {
  service::DocumentStore store;
  service::QueryService service(
      &store, service::QueryServiceOptions{/*num_threads=*/4,
                                           /*cache_capacity=*/128});
  net::ServerOptions server_options;
  server_options.num_workers = 2;
  net::Server server(&store, &service, server_options);
  ASSERT_TRUE(server.Start().ok());

  auto client = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  for (size_t i = 0; i < 8; ++i) {
    auto version = client->Import(StrCat("set/d", StrFormat("%zu", i)),
                                  "tei", TeiDoc(i + 1));
    ASSERT_TRUE(version.ok()) << version.status();
  }
  auto qid = client->Prepare(service::QueryKind::kXPath, "count(//p)");
  ASSERT_TRUE(qid.ok()) << qid.status();

  auto coll = client->CollectionRun("set/*", *qid);
  ASSERT_TRUE(coll.ok()) << coll.status();
  EXPECT_EQ(coll->version, 8u);  // matched-document count
  ASSERT_EQ(coll->items.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(coll->items[i],
              StrCat("set/d", StrFormat("%zu", i), "\t",
                     StrFormat("%zu", i + 1)));
  }

  // No match → the server's ERR NotFound.
  auto none = client->CollectionRun("absent/*", *qid);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);

  // Unknown qid → NotFound too.
  auto bad_qid = client->CollectionRun("set/*", *qid + 999);
  ASSERT_FALSE(bad_qid.ok());
  EXPECT_EQ(bad_qid.status().code(), StatusCode::kNotFound);

  // Unknown format token → InvalidArgument, nothing registered.
  auto bad_format = client->Import("set/x", "yaml", TeiDoc(1));
  ASSERT_FALSE(bad_format.ok());
  EXPECT_EQ(bad_format.status().code(), StatusCode::kInvalidArgument);
  auto names = client->List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 8u);

  server.Stop();
}

}  // namespace
}  // namespace cxml::ingest
