#include "probe.h"

#include <sys/stat.h>

#include <thread>

#include "edit/session.h"
#include "goddag/snapshot_index.h"
#include "ingest/ingest.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/collection_query.h"
#include "service/document_store.h"
#include "service/query_service.h"
#include "storage/binary.h"
#include "wal/follower.h"
#include "wal/log.h"
#include "wal/manager.h"
#include "wal/record.h"
#include "xml/lexer.h"
#include "xpath/engine.h"
#include "xquery/xquery.h"

namespace cxbench {

using cxml::Result;
using cxml::Status;
using cxml::service::QueryKind;

uint64_t HashItems(const std::vector<std::string>& items) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& item : items) {
    for (unsigned char c : item) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // item separator
    h *= 1099511628211ull;
  }
  return h;
}

struct Oracle::State {
  cxml::storage::LoadedGoddag doc;
  std::shared_ptr<const cxml::goddag::SnapshotIndex> index;
  std::unique_ptr<cxml::xpath::XPathEngine> xpath;
  std::unique_ptr<cxml::xquery::XQueryEngine> xquery;
  std::unique_ptr<cxml::xpath::XPathEngine> naive_xpath;
  std::unique_ptr<cxml::xquery::XQueryEngine> naive_xquery;
};

Result<Oracle> Oracle::Load(const std::string& cxg1) {
  Oracle oracle;
  oracle.state_ = std::make_shared<State>();
  State& s = *oracle.state_;
  CXML_ASSIGN_OR_RETURN(s.doc, cxml::storage::Load(cxg1));
  s.index = std::make_shared<const cxml::goddag::SnapshotIndex>(*s.doc.g);
  s.xpath = std::make_unique<cxml::xpath::XPathEngine>(*s.doc.g);
  s.xpath->UseSnapshotIndex(s.index);
  s.xquery = std::make_unique<cxml::xquery::XQueryEngine>(*s.doc.g);
  s.xquery->UseSnapshotIndex(s.index);
  return oracle;
}

Result<std::vector<std::string>> Oracle::Answer(const Query& q, bool naive) {
  State& s = *state_;
  if (naive && s.naive_xpath == nullptr) {
    s.naive_xpath = std::make_unique<cxml::xpath::XPathEngine>(*s.doc.g);
    s.naive_xpath->SetAxisStrategy(cxml::xpath::AxisStrategy::kNaiveScan);
    s.naive_xquery = std::make_unique<cxml::xquery::XQueryEngine>(*s.doc.g);
    s.naive_xquery->SetAxisStrategy(cxml::xpath::AxisStrategy::kNaiveScan);
  }
  if (q.kind == QueryKind::kXPath) {
    return (naive ? s.naive_xpath : s.xpath)->EvaluateToStrings(q.text);
  }
  return (naive ? s.naive_xquery : s.xquery)->Run(q.text);
}

namespace {

/// Times `fn` once per call, into `samples` and one span.
template <typename Fn>
auto Timed(Samples* samples, SpanLog* spans, const char* name, Fn&& fn) {
  ScopedSpan span(spans, name);
  Clock::time_point t0 = Clock::now();
  auto result = fn();
  samples->Add(UsSince(t0));
  return result;
}

void AddMedian(Report* report, const std::string& name, const Samples& s) {
  report->Add(name, s.Median(), "us", s.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

Status ProbeCodec(const ProbeInputs& in, Report* report, SpanLog* spans) {
  Samples codec;
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& [request, response] : in.payloads) {
      CXML_ASSIGN_OR_RETURN(cxml::net::Response parsed,
                            cxml::net::ParseResponse(response));
      Status status = Timed(&codec, spans, "net.codec", [&]() -> Status {
        // Client encodes, server decodes and parses, server renders the
        // items and encodes, client decodes and parses.
        cxml::net::FrameDecoder server_side;
        CXML_RETURN_IF_ERROR(server_side.Feed(cxml::net::EncodeFrame(request)));
        std::string payload;
        if (!server_side.Next(&payload)) {
          return cxml::status::Internal("request frame incomplete");
        }
        CXML_RETURN_IF_ERROR(cxml::net::ParseRequest(payload).status());
        std::string rendered = cxml::net::RenderItems(
            parsed.items, parsed.version, parsed.cache_hit);
        cxml::net::FrameDecoder client_side;
        CXML_RETURN_IF_ERROR(client_side.Feed(cxml::net::EncodeFrame(rendered)));
        if (!client_side.Next(&payload)) {
          return cxml::status::Internal("response frame incomplete");
        }
        return cxml::net::ParseResponse(payload).status();
      });
      CXML_RETURN_IF_ERROR(status);
    }
  }
  AddMedian(report, "net.codec_us", codec);
  return Status::Ok();
}

Status ProbeQueries(const ProbeInputs& in, Report* report, SpanLog* spans) {
  CXML_ASSIGN_OR_RETURN(cxml::storage::LoadedGoddag doc,
                        cxml::storage::Load(in.read_doc));
  const cxml::goddag::Goddag& g = *doc.g;
  Samples build;
  std::shared_ptr<const cxml::goddag::SnapshotIndex> index;
  for (int i = 0; i < 5; ++i) {
    index = Timed(&build, spans, "goddag.index_build", [&] {
      return std::make_shared<const cxml::goddag::SnapshotIndex>(g);
    });
  }
  AddMedian(report, "goddag.index_build_us", build);

  cxml::xpath::XPathEngine xpath(g);
  xpath.UseSnapshotIndex(index);
  cxml::xquery::XQueryEngine xquery(g);
  xquery.UseSnapshotIndex(index);
  Samples compile, eval, run;
  cxml::xpath::AxisStats axes;
  for (int rep = 0; rep < 3; ++rep) {
    for (const Query& q : in.queries) {
      if (q.kind == QueryKind::kXPath) {
        auto compiled = Timed(&compile, spans, "xpath.compile",
                              [&] { return cxml::xpath::Compile(q.text); });
        CXML_RETURN_IF_ERROR(compiled.status());
        xpath.ResetAxisStats();
        auto items = Timed(&eval, spans, "xpath.eval", [&] {
          return xpath.EvaluateToStrings(**compiled);
        });
        CXML_RETURN_IF_ERROR(items.status());
        const cxml::xpath::AxisStats& s = xpath.axis_stats();
        axes.indexed_axes += s.indexed_axes;
        axes.pushdown_axes += s.pushdown_axes;
        axes.pool_nodes += s.pool_nodes;
      } else {
        CXML_ASSIGN_OR_RETURN(cxml::xquery::CompiledQueryPtr compiled,
                              cxml::xquery::Compile(q.text));
        auto items = Timed(&run, spans, "xquery.run",
                           [&] { return xquery.Run(*compiled); });
        CXML_RETURN_IF_ERROR(items.status());
      }
    }
  }
  AddMedian(report, "xpath.compile_us", compile);
  AddMedian(report, "xpath.eval_us", eval);
  AddMedian(report, "xquery.run_us", run);
  report->Add("xpath.pool_nodes_per_step",
              Ratio(static_cast<double>(axes.pool_nodes),
                    static_cast<double>(axes.indexed_axes)),
              "nodes/step", axes.indexed_axes);
  report->Add("xpath.pushdown_ratio",
              Ratio(static_cast<double>(axes.pushdown_axes),
                    static_cast<double>(axes.indexed_axes)),
              "ratio", axes.indexed_axes);
  return Status::Ok();
}

Status ProbeService(const ProbeInputs& in, Report* report, SpanLog* spans) {
  // Registration and collection fan-out, on a fresh in-process service.
  cxml::service::DocumentStore store;
  Samples reg;
  for (size_t i = 0; i < in.collection.size(); ++i) {
    const auto& [name, bytes] = in.collection[i];
    Status st = Timed(&reg, spans, "service.register",
                      [&] { return store.RegisterBytes(name, bytes); });
    CXML_RETURN_IF_ERROR(st);
  }
  // At least eight registrations, repeating the first document under
  // fresh names when the workload has fewer.
  for (size_t i = in.collection.size(); i < 8 && !in.collection.empty(); ++i) {
    std::string name = "register-probe-" + std::to_string(i);
    Status st = Timed(&reg, spans, "service.register", [&] {
      return store.RegisterBytes(name, in.collection[0].second);
    });
    CXML_RETURN_IF_ERROR(st);
  }
  AddMedian(report, "service.register_us", reg);
  cxml::service::QueryService service(&store);
  Samples coll;
  for (int rep = 0; rep < 2; ++rep) {
    for (size_t i = 0; i < in.queries.size() && i < 16; ++i) {
      CXML_ASSIGN_OR_RETURN(
          cxml::service::QueryHandle handle,
          service.Prepare(in.queries[i].text, in.queries[i].kind));
      service.cache().Clear();
      auto response = Timed(&coll, spans, "service.coll", [&] {
        return cxml::service::RunCollectionQuery(
            &service, in.collection_pattern, handle);
      });
      if (!response.ok()) return response.status;
    }
  }
  AddMedian(report, "service.coll_us", coll);
  return Status::Ok();
}

Status ProbeWrites(const ProbeInputs& in, Report* report, SpanLog* spans) {
  CXML_ASSIGN_OR_RETURN(cxml::storage::LoadedGoddag base,
                        cxml::storage::Load(in.write_doc));
  auto base_index =
      std::make_shared<const cxml::goddag::SnapshotIndex>(*base.g);
  Samples clone, apply, patch, follower_apply;
  size_t edits = 0;
  for (const EditSpec& e : in.edits) {
    if (edits++ >= 24) break;
    auto copy = Timed(&clone, spans, "storage.clone",
                      [&] { return cxml::storage::Clone(*base.g); });
    CXML_RETURN_IF_ERROR(copy.status());
    CXML_ASSIGN_OR_RETURN(cxml::edit::EditSession session,
                          cxml::edit::EditSession::Start(copy->g.get()));
    Status applied = Timed(&apply, spans, "edit.apply", [&]() -> Status {
      for (const cxml::net::EditOp& op : e.ops) {
        if (op.kind == cxml::net::EditOp::Kind::kSelect) {
          CXML_RETURN_IF_ERROR(session.Select(op.chars));
        } else {
          CXML_RETURN_IF_ERROR(session.Apply(op.hierarchy, op.tag).status());
        }
      }
      return Status::Ok();
    });
    if (!applied.ok()) continue;
    Timed(&patch, spans, "goddag.index_patch", [&] {
      return cxml::goddag::SnapshotIndex::Patch(*base_index, *copy->g,
                                                session.index_delta());
    });
    // The follower's replay path: the same op text through ApplyOpSets.
    CXML_ASSIGN_OR_RETURN(cxml::storage::LoadedGoddag replica,
                          cxml::storage::Clone(*base.g));
    CXML_ASSIGN_OR_RETURN(cxml::edit::EditSession replay,
                          cxml::edit::EditSession::Start(replica.g.get()));
    CXML_RETURN_IF_ERROR(
        Timed(&follower_apply, spans, "wal.follower_apply",
              [&] { return cxml::wal::ApplyOpSets(replay, {e.op_text}); }));
  }
  AddMedian(report, "storage.clone_us", clone);
  AddMedian(report, "edit.apply_us", apply);
  AddMedian(report, "goddag.index_patch_us", patch);
  if (in.wal_probe) {
    AddMedian(report, "wal.follower_apply_us", follower_apply);
  }

  // Group commits through an in-process service with no WAL.
  cxml::service::DocumentStore store;
  CXML_RETURN_IF_ERROR(store.RegisterBytes("ms", in.write_doc));
  cxml::service::QueryService service(&store);
  Samples commit;
  edits = 0;
  for (const EditSpec& e : in.edits) {
    if (edits++ >= 32) break;
    std::string op_text = e.op_text;
    Clock::time_point t0 = Clock::now();
    cxml::service::EditResponse r;
    {
      ScopedSpan span(spans, "service.commit");
      r = service.ExecuteEdit(
          "ms",
          [op_text](cxml::edit::EditSession& session) {
            return cxml::wal::ApplyOpSets(session, {op_text});
          },
          {op_text});
    }
    if (r.ok()) commit.Add(UsSince(t0));
  }
  AddMedian(report, "service.commit_us", commit);

  // SegmentWriter calls on this run's own records.
  std::string seg_path = in.work_dir + "/probe-segment.log";
  CXML_ASSIGN_OR_RETURN(std::unique_ptr<cxml::wal::SegmentWriter> segment,
                        cxml::wal::SegmentWriter::Create(seg_path, 0));
  Samples append, fsync;
  uint64_t version = 0;
  for (const EditSpec& e : in.edits) {
    if (version >= 48) break;
    cxml::wal::Record record;
    record.version = ++version;
    record.base_version = version - 1;
    record.op_sets = {e.op_text};
    std::string framed = cxml::wal::EncodeRecord(record);
    CXML_RETURN_IF_ERROR(Timed(&append, spans, "wal.append",
                               [&] { return segment->Append(framed); }));
    CXML_RETURN_IF_ERROR(
        Timed(&fsync, spans, "wal.fsync", [&] { return segment->Fsync(); }));
  }
  segment.reset();
  std::remove(seg_path.c_str());
  AddMedian(report, "wal.append_us", append);
  AddMedian(report, "wal.fsync_us", fsync);
  return Status::Ok();
}

Status ProbeIngest(const ProbeInputs& in, Report* report, SpanLog* spans) {
  Samples import, lex;
  double elements = 0;
  size_t docs = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::string& markup : in.tei) {
      auto imported = Timed(&import, spans, "ingest.import",
                            [&] { return cxml::ingest::Import(markup); });
      CXML_RETURN_IF_ERROR(imported.status());
      elements += static_cast<double>(imported->stats.elements);
      ++docs;
      Status lexed = Timed(&lex, spans, "xml.lex", [&]() -> Status {
        cxml::xml::Lexer lexer(markup);
        for (;;) {
          CXML_ASSIGN_OR_RETURN(cxml::xml::Event event, lexer.Next());
          if (event.kind == cxml::xml::EventKind::kEndOfDocument) break;
        }
        return Status::Ok();
      });
      CXML_RETURN_IF_ERROR(lexed);
    }
  }
  AddMedian(report, "ingest.import_us", import);
  AddMedian(report, "xml.lex_us", lex);
  report->Add("ingest.elements_per_doc", docs == 0 ? 0 : elements / docs,
              "count", docs);
  return Status::Ok();
}

/// A durable primary with a loopback follower, both in-process, fed the
/// workload's edit stream: the wal.* numbers for workloads whose own
/// servers keep no WAL.
Status ProbeWal(const ProbeInputs& in, Report* report, SpanLog* spans) {
  std::string dir = in.work_dir + "/probe-wal";
  CXML_RETURN_IF_ERROR(cxml::wal::RemoveDirRecursive(dir));
  cxml::obs::Registry registry;
  cxml::service::DocumentStore store;
  CXML_RETURN_IF_ERROR(store.RegisterBytes("ms", in.write_doc));
  cxml::service::QueryServiceOptions options;
  options.registry = &registry;
  cxml::service::QueryService service(&store, options);
  cxml::wal::WalOptions wal_options;
  wal_options.data_dir = dir;
  wal_options.checkpoint_every_records = 64;
  wal_options.registry = &registry;
  Samples lag, checkpoint;
  uint64_t user_bytes = 0;
  cxml::obs::Registry follower_registry;
  {
    cxml::wal::WalManager wal(wal_options);
    CXML_RETURN_IF_ERROR(wal.Open());
    CXML_RETURN_IF_ERROR(wal.RecoverAll(&store));
    wal.Attach(&store, &service.pipeline());
    CXML_RETURN_IF_ERROR(wal.EnsureRegistered("ms"));
    cxml::net::ServerOptions server_options;
    server_options.num_workers = 2;
    server_options.sync_source = &wal;
    cxml::net::Server server(&store, &service, server_options);
    CXML_RETURN_IF_ERROR(server.Start());

    cxml::service::DocumentStore replica_store;
    cxml::service::QueryServiceOptions replica_options;
    replica_options.registry = &follower_registry;
    cxml::service::QueryService replica(&replica_store, replica_options);
    cxml::wal::FollowerOptions follower_options;
    follower_options.port = server.port();
    follower_options.registry = &follower_registry;
    cxml::wal::Follower follower(&replica_store, &replica, follower_options);
    follower.Start();
    if (follower.WaitForVersion("ms", 1, 10000) < 1) {
      return cxml::status::Internal("probe follower never bootstrapped");
    }
    const cxml::obs::Counter* syncs =
        follower_registry.GetCounter("cxml_repl_syncs_total");
    const cxml::obs::Counter* applied =
        follower_registry.GetCounter("cxml_repl_records_applied_total");
    uint64_t syncs_before = syncs->Value();
    uint64_t applied_before = applied->Value();

    size_t accepted = 0;
    for (const EditSpec& e : in.edits) {
      if (accepted >= 140) break;
      std::string op_text = e.op_text;
      cxml::service::EditResponse r;
      {
        ScopedSpan span(spans, "wal.durable_commit");
        r = service.ExecuteEdit(
            "ms",
            [op_text](cxml::edit::EditSession& session) {
              return cxml::wal::ApplyOpSets(session, {op_text});
            },
            {op_text});
      }
      if (!r.ok()) continue;
      Clock::time_point acked = Clock::now();
      user_bytes += op_text.size();
      if (++accepted % 35 == 0) {
        Status st = Timed(&checkpoint, spans, "wal.checkpoint",
                          [&] { return wal.CheckpointNow("ms"); });
        CXML_RETURN_IF_ERROR(st);
      }
      if (accepted % 10 != 0) continue;
      // Time until the follower serves the acked version (1 ms polls).
      for (int i = 0; i < 5000; ++i) {
        auto v = replica_store.GetVersion("ms");
        if (v.ok() && *v >= r.version) break;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      lag.Add(UsSince(acked));
    }
    double rounds = static_cast<double>(syncs->Value() - syncs_before);
    double records = static_cast<double>(applied->Value() - applied_before);
    report->Add("wal.sync_rounds_per_record", Ratio(rounds, records),
                "rounds/record", static_cast<size_t>(records));
    follower.Stop();
    server.Stop();
    wal.Detach();
    CXML_RETURN_IF_ERROR(wal.Flush());
  }
  auto value = [&](const char* name) {
    return static_cast<double>(registry.GetCounter(name)->Value());
  };
  cxml::obs::Histogram* wait = registry.GetHistogram("cxml_wal_fsync_wait_us");
  report->Add("wal.fsync_wait_p50_us", wait->Percentile(0.5), "us",
              wait->Count());
  report->Add("wal.commits_per_fsync",
              Ratio(value("cxml_wal_records_total"),
                    value("cxml_wal_fsyncs_total")),
              "records/fsync");
  // Checkpoint images are whole-document CXG1 writes: count each at the
  // document's final size.
  CXML_ASSIGN_OR_RETURN(auto snap, store.GetSnapshot("ms"));
  CXML_ASSIGN_OR_RETURN(std::string image, cxml::storage::Save(*snap->goddag));
  double checkpoint_bytes =
      value("cxml_wal_checkpoints_total") * static_cast<double>(image.size());
  report->Add("wal.bytes_per_user_byte",
              Ratio(value("cxml_wal_bytes_total") + checkpoint_bytes,
                    static_cast<double>(user_bytes)),
              "bytes/byte");
  report->Add("wal.snapshot_records",
              value("cxml_wal_snapshot_records_total"), "count");
  report->Add("wal.checkpoints", value("cxml_wal_checkpoints_total"),
              "count");
  AddMedian(report, "wal.checkpoint_us", checkpoint);
  report->Add("wal.repl_lag_p50_us", lag.Median(), "us", lag.size());
  return cxml::wal::RemoveDirRecursive(dir);
}

}  // namespace

Status RunLayerProbes(const ProbeInputs& in, Report* report, SpanLog* spans) {
  CXML_RETURN_IF_ERROR(ProbeCodec(in, report, spans).WithContext("codec"));
  CXML_RETURN_IF_ERROR(ProbeQueries(in, report, spans).WithContext("queries"));
  CXML_RETURN_IF_ERROR(ProbeService(in, report, spans).WithContext("service"));
  CXML_RETURN_IF_ERROR(ProbeWrites(in, report, spans).WithContext("writes"));
  CXML_RETURN_IF_ERROR(ProbeIngest(in, report, spans).WithContext("ingest"));
  if (in.wal_probe) {
    CXML_RETURN_IF_ERROR(ProbeWal(in, report, spans).WithContext("wal"));
  }
  return Status::Ok();
}

}  // namespace cxbench
