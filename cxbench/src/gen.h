// Seeded input generators. The server only ever sees what these
// produce: the synthetic manuscript, the read pools and the cold query
// family over it, the durable edit stream, and the TEI corpus.
#ifndef CXBENCH_GEN_H_
#define CXBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/protocol.h"
#include "service/query_cache.h"

namespace cxbench {

struct Query {
  cxml::service::QueryKind kind = cxml::service::QueryKind::kXPath;
  std::string text;
};

/// The manuscript every single-document workload serves.
struct Manuscript {
  /// CXG1 bytes, as REGISTER uploads them.
  std::string cxg1;
  size_t content_chars = 0;
  size_t lines = 0;
  size_t sentences = 0;
};

/// Generates the synthetic manuscript (workload::GenerateManuscript with
/// the given size, seeded) and saves it as CXG1.
cxml::Result<Manuscript> MakeManuscript(uint64_t seed, size_t content_chars);

/// A pool of distinct queries plus, per connection, the order in which
/// that connection draws them (indices into `queries`).
struct ReadPool {
  std::vector<Query> queries;
  std::vector<std::vector<size_t>> streams;
};

/// The skewed workload::GenerateTraffic read mix (XPath and XQuery),
/// one seeded stream of `ops_per_stream` draws per connection.
cxml::Result<ReadPool> MakeTrafficReadPool(uint64_t seed,
                                           size_t content_chars,
                                           size_t connections,
                                           size_t ops_per_stream);

/// The read_cold family: every member has a distinct canonical form, is
/// built around `overlapping::` mixed with descendant, ancestor,
/// following and hierarchy-qualified steps, and every fourth is XQuery.
class ColdFamily {
 public:
  ColdFamily(const Manuscript& ms, size_t min_size);
  size_t size() const { return size_; }
  Query At(size_t i) const;

 private:
  size_t lines_;
  size_t sentences_;
  size_t widths_;
  size_t size_;
};

/// One EDIT of the durable stream: a Select + Apply of an annotation.
struct EditSpec {
  std::vector<cxml::net::EditOp> ops;
  /// The op-line text the WAL logs for it (net::RenderOps).
  std::string op_text;
};

/// The seeded edit stream: annotation inserts into the manuscript's
/// extra hierarchies, `edit_chars` long. Some collide with existing
/// annotations and are rejected, deterministically for a given order.
cxml::Result<std::vector<EditSpec>> MakeEditStream(uint64_t seed,
                                                   size_t content_chars,
                                                   size_t count,
                                                   size_t edit_chars);

/// One seeded TEI document of about `target_chars` content characters
/// using every ingest convention: pb/lb/milestone empties, part="I|M|F"
/// and next=/prev= fragment chains, and a standOff block.
std::string MakeTeiDocument(uint64_t seed, size_t index, size_t target_chars);

/// Corpus document name for index `i` (sorted names follow index order).
std::string CorpusDocName(size_t i);

/// The corpus QCOLL family: parameterised queries with few results per
/// document, every fourth one XQuery.
Query CorpusQuery(uint64_t seed, size_t i);

}  // namespace cxbench

#endif  // CXBENCH_GEN_H_
