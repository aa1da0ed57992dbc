// In-process layer probes: the traced run times calls into each
// module's public functions on the workload's own generated inputs.
#ifndef CXBENCH_PROBE_H_
#define CXBENCH_PROBE_H_

#include <string>
#include <vector>

#include "gen.h"
#include "report.h"

namespace cxbench {

struct ProbeInputs {
  /// The document the workload reads (CXG1) and its queries.
  std::string read_doc;
  std::vector<Query> queries;
  /// Documents a collection query fans out over, as (name, CXG1).
  std::vector<std::pair<std::string, std::string>> collection;
  std::string collection_pattern;
  /// The manuscript (CXG1) and an edit stream that applies to it.
  std::string write_doc;
  std::vector<EditSpec> edits;
  /// TEI markup for the ingest and lexer probes.
  std::vector<std::string> tei;
  /// Wire payloads the run actually exchanged (request, response).
  std::vector<std::pair<std::string, std::string>> payloads;
  /// Workloads whose servers keep no WAL drive an in-process WAL with a
  /// loopback follower instead, so the wal.* metrics always describe
  /// the WAL that carried the workload's (or its probe's) writes.
  bool wal_probe = false;
  /// Scratch directory for WAL segments; removed by the caller.
  std::string work_dir;
};

/// Runs every probe and adds its per-layer metrics to `report`,
/// recording one span per timed call into `spans`.
cxml::Status RunLayerProbes(const ProbeInputs& in, Report* report,
                            SpanLog* spans);

/// FNV-1a over rendered result items, the fingerprint answers are
/// compared by.
uint64_t HashItems(const std::vector<std::string>& items);

/// In-process answers for `queries` on one CXG1 document, evaluated by
/// XPathEngine/XQueryEngine on a shared SnapshotIndex, or by the
/// kNaiveScan oracle when `naive`.
class Oracle {
 public:
  static cxml::Result<Oracle> Load(const std::string& cxg1);
  cxml::Result<std::vector<std::string>> Answer(const Query& q,
                                                bool naive = false);

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace cxbench

#endif  // CXBENCH_PROBE_H_
