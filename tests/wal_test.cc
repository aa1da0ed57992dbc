// The durability subsystem end to end: record framing, segment/file
// naming, the WalManager's logged-commit → checkpoint → recovery
// cycle, SYNC serving, and the replication follower against a live
// CXP/1 server.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/injector.h"
#include "goddag/builder.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/document_store.h"
#include "service/query_service.h"
#include "storage/binary.h"
#include "wal/follower.h"
#include "wal/log.h"
#include "wal/manager.h"
#include "wal/record.h"
#include "workload/generator.h"

namespace cxml::wal {
namespace {

// ------------------------------------------------------------- records

Record OpsRecord(uint64_t version, std::vector<std::string> op_sets) {
  Record record;
  record.type = Record::Type::kOps;
  record.version = version;
  record.base_version = version - 1;
  record.wall_micros = 1722000000000000ull + version;
  record.op_sets = std::move(op_sets);
  return record;
}

TEST(WalRecordTest, OpsRoundTrips) {
  Record record = OpsRecord(7, {"SELECT 10 50\nAPPLY 2 a0", "SELECT 0 4"});
  auto decoded = DecodeRecord(EncodeRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->type, Record::Type::kOps);
  EXPECT_EQ(decoded->version, 7u);
  EXPECT_EQ(decoded->base_version, 6u);
  EXPECT_EQ(decoded->wall_micros, record.wall_micros);
  EXPECT_EQ(decoded->op_sets, record.op_sets);
  EXPECT_TRUE(decoded->snapshot.empty());
}

TEST(WalRecordTest, SnapshotRoundTrips) {
  Record record;
  record.type = Record::Type::kSnapshot;
  record.version = 12;
  record.wall_micros = 99;
  record.snapshot = std::string("CXG1\0binary\nimage", 17);
  auto decoded = DecodeRecord(EncodeRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->type, Record::Type::kSnapshot);
  EXPECT_EQ(decoded->version, 12u);
  EXPECT_EQ(decoded->snapshot, record.snapshot);
}

TEST(WalRecordTest, DetectsCorruptionAndTruncation) {
  std::string framed = EncodeRecord(OpsRecord(3, {"SELECT 1 2"}));

  // Any flipped payload byte fails the CRC.
  for (size_t i = 8; i < framed.size(); i += 3) {
    std::string bad = framed;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    auto decoded = DecodeRecord(bad);
    EXPECT_FALSE(decoded.ok()) << "flip at " << i;
  }
  // Every strict prefix is torn, never trusted.
  for (size_t n = 0; n < framed.size(); ++n) {
    EXPECT_FALSE(DecodeRecord(framed.substr(0, n)).ok()) << "len " << n;
  }
  // Trailing bytes are an error for the single-record decoder.
  EXPECT_FALSE(DecodeRecord(framed + "x").ok());
  // Version 0 never travels (0 means "nothing").
  Record zero = OpsRecord(1, {});
  zero.version = 0;
  EXPECT_FALSE(DecodeRecord(EncodeRecord(zero)).ok());
}

TEST(WalRecordTest, ScanStopsAtTornTail) {
  std::string data;
  for (uint64_t v = 2; v <= 4; ++v) {
    data += EncodeRecord(OpsRecord(v, {"SELECT 1 2\nAPPLY 2 a0"}));
  }
  size_t good = data.size();

  ScanResult clean = ScanRecords(data);
  EXPECT_TRUE(clean.clean);
  EXPECT_EQ(clean.valid_bytes, good);
  ASSERT_EQ(clean.records.size(), 3u);
  EXPECT_EQ(clean.records[2].version, 4u);

  // A torn append: the prefix stays trusted, the tail is cut.
  std::string torn = data + EncodeRecord(OpsRecord(5, {})).substr(0, 9);
  ScanResult scan = ScanRecords(torn);
  EXPECT_FALSE(scan.clean);
  EXPECT_EQ(scan.valid_bytes, good);
  EXPECT_EQ(scan.records.size(), 3u);

  // Mid-stream corruption: everything from the bad frame on is cut.
  std::string corrupt = data;
  corrupt[good / 2] = static_cast<char>(corrupt[good / 2] ^ 0x01);
  ScanResult stopped = ScanRecords(corrupt);
  EXPECT_FALSE(stopped.clean);
  EXPECT_LT(stopped.records.size(), 3u);
}

// --------------------------------------------------------- file naming

TEST(WalLogTest, FileNamesRoundTrip) {
  uint64_t v = 0;
  // Zero-padded names must parse back to their own value — the
  // recovery scan depends on recognizing the files it writes.
  for (uint64_t version : {1ull, 42ull, 19999999999ull}) {
    ASSERT_TRUE(ParseCheckpointFileName(CheckpointFileName(version), &v));
    EXPECT_EQ(v, version);
    ASSERT_TRUE(ParseSegmentFileName(SegmentFileName(version), &v));
    EXPECT_EQ(v, version);
  }
  EXPECT_FALSE(ParseCheckpointFileName("checkpoint-.cxg1", &v));
  EXPECT_FALSE(ParseCheckpointFileName("checkpoint-12.tmp", &v));
  EXPECT_FALSE(ParseCheckpointFileName("wal-00000000000000000001.log", &v));
  EXPECT_FALSE(ParseSegmentFileName("wal-12a.log", &v));
  EXPECT_FALSE(ParseSegmentFileName("notes.txt", &v));
}

TEST(WalLogTest, DocDirEncodingRoundTrips) {
  for (const std::string& name :
       {std::string("ms"), std::string("a/b"), std::string("über-doc"),
        std::string("x%20y"), std::string("..")}) {
    std::string dir = EncodeDocDir(name);
    EXPECT_EQ(dir.find('/'), std::string::npos) << dir;
    auto back = DecodeDocDir(dir);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, name);
  }
  EXPECT_FALSE(DecodeDocDir("bad%zz").ok());
  EXPECT_FALSE(DecodeDocDir("trunc%4").ok());
}

// ---------------------------------------------------------- manager fixture

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

/// First offset >= `from` where an `a0` insert of length `len` fits.
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

Status ApplyWireOps(edit::EditSession& session,
                    const std::vector<net::EditOp>& ops) {
  for (const net::EditOp& op : ops) {
    if (op.kind == net::EditOp::Kind::kSelect) {
      CXML_RETURN_IF_ERROR(session.Select(op.chars));
    } else {
      CXML_RETURN_IF_ERROR(session.Apply(op.hierarchy, op.tag).status());
    }
  }
  return Status::Ok();
}

class WalManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_dir_ = ::testing::TempDir() + "wal_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name();
    (void)RemoveDirRecursive(data_dir_ + "/" + EncodeDocDir("ms"));
    (void)RemoveDirRecursive(data_dir_);
  }

  void TearDown() override { StopWorld(); }

  /// Builds store + service + WAL, recovers, attaches. Returns the
  /// recovery stats of this incarnation.
  RecoveryStats StartWorld(fault::Injector* injector = nullptr,
                           size_t num_write_threads = 1) {
    StopWorld();
    store_ = std::make_unique<service::DocumentStore>();
    service::QueryServiceOptions service_options{/*num_threads=*/2,
                                                 /*cache_capacity=*/64};
    service_options.num_write_threads = num_write_threads;
    service_ = std::make_unique<service::QueryService>(store_.get(),
                                                       service_options);
    WalOptions options;
    options.data_dir = data_dir_;
    options.injector = injector;
    wal_ = std::make_unique<WalManager>(options);
    EXPECT_TRUE(wal_->Open().ok());
    RecoveryStats stats;
    EXPECT_TRUE(wal_->RecoverAll(store_.get(), &stats).ok());
    wal_->Attach(store_.get(), &service_->pipeline());
    return stats;
  }

  /// Destruction order is the reverse-dependency order serverd uses.
  void StopWorld() {
    wal_.reset();
    service_.reset();
    store_.reset();
  }

  /// Registers `name` through the pipeline: acked once its checkpoint
  /// is on disk.
  void RegisterDoc(const std::string& name = "ms") {
    auto doc = storage::Load(CorpusBytes());
    ASSERT_TRUE(doc.ok()) << doc.status();
    service::EditResponse registered =
        service_->pipeline().SubmitRegister(name, std::move(doc).value())
            .get();
    ASSERT_TRUE(registered.ok()) << registered.status;
  }

  /// One replayable pipeline commit: a fresh a0 annotation of `len`
  /// chars in a free gap, its op lines riding along as the WAL payload.
  service::EditResponse TryCommitOne(const std::string& name = "ms",
                                     size_t len = 30) {
    auto snap = store_->GetSnapshot(name);
    EXPECT_TRUE(snap.ok());
    size_t offset = FindFreeA0Gap(*(*snap)->goddag, 0, len);
    std::vector<net::EditOp> ops = {net::EditOp::Select(offset, offset + len),
                                    net::EditOp::Apply(2, "a0")};
    return service_->ExecuteEdit(
        name,
        [ops](edit::EditSession& session) {
          return ApplyWireOps(session, ops);
        },
        {net::RenderOps(ops)});
  }

  uint64_t CommitOne(const std::string& name = "ms", size_t len = 30) {
    service::EditResponse response = TryCommitOne(name, len);
    EXPECT_TRUE(response.ok()) << response.status;
    return response.version;
  }

  uint64_t WalCounter(const char* name) {
    return wal_->registry()->GetCounter(name)->Value();
  }

  uint64_t SnapshotRecords() {
    return WalCounter("cxml_wal_snapshot_records_total");
  }

  std::string SaveBytes(const std::string& name = "ms") {
    auto snap = store_->GetSnapshot(name);
    EXPECT_TRUE(snap.ok());
    auto bytes = storage::Save(*(*snap)->goddag);
    EXPECT_TRUE(bytes.ok());
    return std::move(bytes).value();
  }

  std::string CountA0() {
    service::QueryResponse response = service_->Execute(
        {"ms", "count(//a0)", service::QueryKind::kXPath});
    EXPECT_TRUE(response.ok()) << response.status;
    return response.items->empty() ? "" : (*response.items)[0];
  }

  std::string DocDir() { return data_dir_ + "/" + EncodeDocDir("ms"); }

  std::string data_dir_;
  std::unique_ptr<service::DocumentStore> store_;
  std::unique_ptr<service::QueryService> service_;
  std::unique_ptr<WalManager> wal_;
};

// ------------------------------------------------- recovery round trips

TEST_F(WalManagerTest, RecoversLoggedCommitsByteIdentically) {
  StartWorld();
  RegisterDoc();
  EXPECT_EQ(CommitOne(), 2u);
  EXPECT_EQ(CommitOne(), 3u);
  EXPECT_EQ(CommitOne(), 4u);
  std::string bytes_before = SaveBytes();
  std::string a0_before = CountA0();

  // New world from disk alone: same version, byte-identical snapshot,
  // identical query answer.
  RecoveryStats stats = StartWorld();
  EXPECT_EQ(stats.docs_recovered, 1u);
  EXPECT_EQ(stats.checkpoints_loaded, 1u);
  EXPECT_EQ(stats.records_replayed, 3u);
  auto version = store_->GetVersion("ms");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 4u);
  EXPECT_EQ(SaveBytes(), bytes_before);
  EXPECT_EQ(CountA0(), a0_before);

  // And the recovered log keeps extending: commit, recover again.
  EXPECT_EQ(CommitOne(), 5u);
  StartWorld();
  version = store_->GetVersion("ms");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 5u);
}

TEST_F(WalManagerTest, OpaqueCommitsFallBackToSnapshotRecords) {
  StartWorld();
  RegisterDoc();
  // No wal_op_sets: the sink cannot replay this, so it must log a full
  // kSnapshot record instead of silently diverging.
  auto snap = store_->GetSnapshot("ms");
  ASSERT_TRUE(snap.ok());
  size_t offset = FindFreeA0Gap(*(*snap)->goddag, 0, 24);
  service::EditResponse response = service_->ExecuteEdit(
      "ms", [offset](edit::EditSession& session) -> Status {
        CXML_RETURN_IF_ERROR(session.Select(Interval(offset, offset + 24)));
        return session.Apply(2, "a0").status();
      });
  ASSERT_TRUE(response.ok()) << response.status;
  std::string bytes_before = SaveBytes();

  RecoveryStats stats = StartWorld();
  EXPECT_EQ(stats.records_replayed, 1u);
  auto version = store_->GetVersion("ms");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 2u);
  EXPECT_EQ(SaveBytes(), bytes_before);
}

TEST_F(WalManagerTest, TornTailIsCutCleanly) {
  StartWorld();
  RegisterDoc();
  EXPECT_EQ(CommitOne(), 2u);
  std::string bytes_before = SaveBytes();
  StopWorld();

  // Simulate a crash mid-append: garbage at the end of the segment.
  std::string segment;
  auto files = ListDir(DocDir());
  ASSERT_TRUE(files.ok());
  for (const std::string& file : *files) {
    uint64_t base = 0;
    if (ParseSegmentFileName(file, &base)) segment = DocDir() + "/" + file;
  }
  ASSERT_FALSE(segment.empty());
  std::FILE* f = std::fopen(segment.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite("\x13\x00\x00\x00garbage-torn-tail", 1, 21, f);
  std::fclose(f);

  RecoveryStats stats = StartWorld();
  EXPECT_EQ(stats.docs_recovered, 1u);
  EXPECT_EQ(stats.records_replayed, 1u);
  auto version = store_->GetVersion("ms");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 2u);
  EXPECT_EQ(SaveBytes(), bytes_before);
}

TEST_F(WalManagerTest, InjectedTornAppendAtEveryByteBoundary) {
  // Raw segment sweep: tear the second record at every byte boundary
  // of its frame (a crash before any in-process repair runs) and
  // verify the recovery scan keeps the first record untouched and cuts
  // the tail at exactly the record boundary.
  std::string first =
      EncodeRecord(OpsRecord(2, {"SELECT 10 40\nAPPLY 2 a0"}));
  std::string second =
      EncodeRecord(OpsRecord(3, {"SELECT 50 80\nAPPLY 2 a0"}));
  ASSERT_TRUE(EnsureDir(data_dir_).ok());
  std::string path = data_dir_ + "/" + SegmentFileName(1);
  for (size_t cut = 0; cut <= second.size(); ++cut) {
    fault::Injector injector(/*seed=*/1);
    ASSERT_TRUE(
        injector.Arm("wal.append_torn", "once:" + std::to_string(cut))
            .ok());
    auto created = SegmentWriter::Create(path, 1);
    ASSERT_TRUE(created.ok()) << created.status();
    std::unique_ptr<SegmentWriter> writer = std::move(created).value();
    ASSERT_TRUE(writer->Append(first).ok());
    // Attach the injector only now, so the one-shot tear hits the
    // second record's frame.
    writer->set_injector(&injector);
    Status torn = writer->Append(second);
    EXPECT_FALSE(torn.ok()) << "cut " << cut;
    writer.reset();  // the simulated crash: no TruncateToCommitted

    auto segment = ReadSegment(path);
    ASSERT_TRUE(segment.ok()) << segment.status() << " at cut " << cut;
    if (cut == second.size()) {
      // The whole frame landed before the injected failure: the bytes
      // are valid on disk even though the commit was never acked.
      EXPECT_EQ(segment->scan.records.size(), 2u);
      EXPECT_EQ(segment->scan.valid_bytes, first.size() + second.size());
    } else {
      ASSERT_EQ(segment->scan.records.size(), 1u) << "cut " << cut;
      EXPECT_EQ(segment->scan.records[0].version, 2u);
      EXPECT_EQ(segment->scan.valid_bytes, first.size()) << "cut " << cut;
      EXPECT_EQ(segment->scan.clean, cut == 0) << "cut " << cut;
    }
    ASSERT_TRUE(RemoveDirRecursive(data_dir_).ok());
    ASSERT_TRUE(EnsureDir(data_dir_).ok());
  }
}

TEST_F(WalManagerTest, TornAppendFailsTheAckAndRecoversCleanly) {
  // End to end through the manager: a torn append must (a) fail the
  // commit ack — the caller is never told a non-durable commit
  // succeeded — and (b) leave the segment repaired so both later
  // commits and a cold restart see the pre-tear state byte-for-byte.
  for (size_t cut : {size_t{0}, size_t{3}, size_t{8}, size_t{21},
                     size_t{40}, size_t{1000000}}) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    // A fresh log holding one acked commit.
    StopWorld();
    ASSERT_TRUE(RemoveDirRecursive(data_dir_).ok());
    StartWorld();
    RegisterDoc();
    EXPECT_EQ(CommitOne(), 2u);
    std::string bytes_before = SaveBytes();

    // The tear fails the ack; a cold restart recovers only the acked
    // commit.
    fault::Injector injector(/*seed=*/1);
    ASSERT_TRUE(
        injector.Arm("wal.append_torn", "once:" + std::to_string(cut))
            .ok());
    StartWorld(&injector);
    service::EditResponse torn = TryCommitOne();
    EXPECT_FALSE(torn.ok());
    EXPECT_EQ(torn.status.code(), StatusCode::kInternal);
    StartWorld();
    auto version = store_->GetVersion("ms");
    ASSERT_TRUE(version.ok());
    EXPECT_EQ(*version, 2u);
    EXPECT_EQ(SaveBytes(), bytes_before);

    // The same tear, then one more commit in the same world: the
    // failed append left version 3 in memory but not in the log, so
    // the next record rebases the log with exactly one kSnapshot.
    fault::Injector again(/*seed=*/1);
    ASSERT_TRUE(
        again.Arm("wal.append_torn", "once:" + std::to_string(cut)).ok());
    StartWorld(&again);
    EXPECT_FALSE(TryCommitOne().ok());
    uint64_t snapshots = SnapshotRecords();
    EXPECT_EQ(CommitOne(), 4u);
    EXPECT_EQ(SnapshotRecords(), snapshots + 1);
    std::string bytes_after = SaveBytes();
    StartWorld();
    version = store_->GetVersion("ms");
    ASSERT_TRUE(version.ok());
    EXPECT_EQ(*version, 4u);
    EXPECT_EQ(SaveBytes(), bytes_after);
  }
}

TEST_F(WalManagerTest, FsyncFaultFailsTheAckAndCountsErrors) {
  StartWorld();
  RegisterDoc();
  EXPECT_EQ(CommitOne(), 2u);
  StopWorld();

  fault::Injector injector(/*seed=*/1);
  ASSERT_TRUE(injector.Arm("wal.fsync", "once").ok());
  StartWorld(&injector);
  service::EditResponse response = TryCommitOne();
  EXPECT_FALSE(response.ok());
  EXPECT_NE(response.status.message().find("not durable"),
            std::string::npos)
      << response.status;
  EXPECT_GE(
      wal_->registry()->GetCounter("cxml_wal_fsync_errors_total")->Value(),
      1u);

  // The fault was one-shot: the very next commit acks durably.
  EXPECT_EQ(CommitOne(), 4u);
}

/// Zeroes the frame of `version`'s record in every segment under `dir`
/// that still holds it: the pages a failed fsync may have dropped.
void ZeroRecordFrame(const std::string& dir, uint64_t version) {
  auto files = ListDir(dir);
  ASSERT_TRUE(files.ok()) << files.status();
  for (const std::string& file : *files) {
    uint64_t base = 0;
    if (!ParseSegmentFileName(file, &base)) continue;
    std::string path = dir + "/" + file;
    auto segment = ReadSegment(path);
    ASSERT_TRUE(segment.ok()) << segment.status();
    auto bytes = ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    for (const Record& record : segment->scan.records) {
      if (record.version != version) continue;
      std::string frame = EncodeRecord(record);
      size_t at = bytes->find(frame);
      ASSERT_NE(at, std::string::npos) << path;
      std::fill_n(bytes->begin() + at, frame.size(), '\0');
      ASSERT_TRUE(WriteFileDurable(path, *bytes).ok());
    }
  }
}

TEST_F(WalManagerTest, AckAfterFailedFsyncSurvivesLostPages) {
  fault::Injector injector(/*seed=*/1);
  StartWorld(&injector);
  RegisterDoc();
  EXPECT_EQ(CommitOne(), 2u);

  // v3's fsync fails, so its ack does; v4 is published on top of v3
  // and acks.
  ASSERT_TRUE(injector.Arm("wal.fsync", "once").ok());
  service::EditResponse lost = TryCommitOne();
  ASSERT_FALSE(lost.ok());
  EXPECT_NE(lost.status.message().find("not durable"), std::string::npos)
      << lost.status;
  EXPECT_EQ(CommitOne(), 4u);
  std::string v4_bytes = SaveBytes();

  // A crash that loses v3's pages (no Flush first): the acked v4 must
  // come back without replaying v3.
  StopWorld();
  ZeroRecordFrame(DocDir(), 3);
  if (HasFatalFailure()) return;
  StartWorld();
  auto version = store_->GetVersion("ms");
  ASSERT_TRUE(version.ok()) << version.status();
  EXPECT_EQ(*version, 4u);
  EXPECT_EQ(SaveBytes(), v4_bytes);
}

TEST_F(WalManagerTest, ConcurrentWritersAndCheckpointsStayDurable) {
  // Two writer threads append and fsync two documents' records at once
  // while checkpoints rotate both logs under them.
  StartWorld(/*injector=*/nullptr, /*num_write_threads=*/2);
  const std::vector<std::string> names = {"ms", "ms2"};
  for (const std::string& name : names) RegisterDoc(name);
  uint64_t records_before = WalCounter("cxml_wal_records_total");
  uint64_t fsyncs_before = WalCounter("cxml_wal_fsyncs_total");
  uint64_t checkpoints_before = WalCounter("cxml_wal_checkpoints_total");

  constexpr int kCommits = 50;
  std::vector<uint64_t> last_acked(names.size(), 0);
  std::vector<int> failed(names.size(), 0);
  std::atomic<size_t> writing{names.size()};
  std::vector<std::thread> writers;
  for (size_t i = 0; i < names.size(); ++i) {
    writers.emplace_back([&, i] {
      for (int n = 0; n < kCommits; ++n) {
        service::EditResponse response = TryCommitOne(names[i]);
        if (response.ok()) {
          last_acked[i] = response.version;
        } else {
          ++failed[i];
        }
      }
      writing.fetch_sub(1);
    });
  }
  int checkpoint_errors = 0;
  std::thread checkpointer([&] {
    while (writing.load() > 0) {
      for (const std::string& name : names) {
        if (!wal_->CheckpointNow(name).ok()) ++checkpoint_errors;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (std::thread& writer : writers) writer.join();
  checkpointer.join();

  EXPECT_EQ(checkpoint_errors, 0);
  EXPECT_GT(WalCounter("cxml_wal_checkpoints_total"), checkpoints_before);
  uint64_t records = WalCounter("cxml_wal_records_total") - records_before;
  EXPECT_EQ(records, 2u * kCommits);
  EXPECT_GE(WalCounter("cxml_wal_fsyncs_total") - fsyncs_before, records);
  std::vector<std::string> bytes;
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(failed[i], 0) << names[i];
    EXPECT_EQ(last_acked[i], 1u + kCommits) << names[i];
    bytes.push_back(SaveBytes(names[i]));
  }

  RecoveryStats stats = StartWorld();
  EXPECT_EQ(stats.docs_recovered, names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    auto version = store_->GetVersion(names[i]);
    ASSERT_TRUE(version.ok()) << version.status();
    EXPECT_EQ(*version, last_acked[i]) << names[i];
    EXPECT_EQ(SaveBytes(names[i]), bytes[i]) << names[i];
  }
}

TEST_F(WalManagerTest, CorruptNewestCheckpointFallsBackToOlder) {
  StartWorld();
  RegisterDoc();
  EXPECT_EQ(CommitOne(), 2u);
  EXPECT_EQ(CommitOne(), 3u);
  std::string bytes_before = SaveBytes();
  StopWorld();

  // A newer checkpoint full of garbage: recovery must fall back to the
  // real one and still replay the tail to version 3.
  ASSERT_TRUE(WriteFileDurable(DocDir() + "/" + CheckpointFileName(9),
                               "not a CXG1 image at all")
                  .ok());

  RecoveryStats stats = StartWorld();
  EXPECT_EQ(stats.docs_recovered, 1u);
  EXPECT_EQ(stats.corrupt_checkpoints, 1u);
  EXPECT_EQ(stats.checkpoints_loaded, 1u);
  auto version = store_->GetVersion("ms");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 3u);
  EXPECT_EQ(SaveBytes(), bytes_before);
}

TEST_F(WalManagerTest, CheckpointTruncatesReplayedSegments) {
  StartWorld();
  RegisterDoc();
  EXPECT_EQ(CommitOne(), 2u);
  EXPECT_EQ(CommitOne(), 3u);
  ASSERT_TRUE(wal_->CheckpointNow("ms").ok());

  // Exactly one checkpoint (at the committed version) and one fresh
  // segment based there; the replayed segment is gone.
  uint64_t checkpoint = 0, segment_base = 0;
  size_t checkpoints = 0, segments = 0;
  auto files = ListDir(DocDir());
  ASSERT_TRUE(files.ok());
  for (const std::string& file : *files) {
    uint64_t v = 0;
    if (ParseCheckpointFileName(file, &v)) {
      ++checkpoints;
      checkpoint = v;
    } else if (ParseSegmentFileName(file, &v)) {
      ++segments;
      segment_base = v;
    }
  }
  EXPECT_EQ(checkpoints, 1u);
  EXPECT_EQ(segments, 1u);
  EXPECT_EQ(checkpoint, 3u);
  EXPECT_EQ(segment_base, 3u);

  // Recovery now comes purely from the checkpoint.
  RecoveryStats stats = StartWorld();
  EXPECT_EQ(stats.records_replayed, 0u);
  auto version = store_->GetVersion("ms");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 3u);
}

TEST_F(WalManagerTest, RemoveDropsTheDocumentDirectory) {
  StartWorld();
  RegisterDoc();
  EXPECT_EQ(CommitOne(), 2u);
  ASSERT_TRUE(ListDir(DocDir()).ok());
  ASSERT_TRUE(service_->pipeline().SubmitRemove("ms").get().ok());
  EXPECT_FALSE(ListDir(DocDir()).ok()) << "directory must be gone";

  RecoveryStats stats = StartWorld();
  EXPECT_EQ(stats.docs_recovered, 0u);
  EXPECT_FALSE(store_->GetVersion("ms").ok());
}

TEST_F(WalManagerTest, ReadSinceServesTailThenSnapshotFallback) {
  StartWorld();
  RegisterDoc();
  EXPECT_EQ(CommitOne(), 2u);
  EXPECT_EQ(CommitOne(), 3u);

  // Caught up: no records, current version reported.
  auto caught_up = wal_->ReadSince("ms", 3, 1 << 20);
  ASSERT_TRUE(caught_up.ok()) << caught_up.status();
  EXPECT_TRUE(caught_up->records.empty());
  EXPECT_EQ(caught_up->current_version, 3u);

  // From 1: the ring serves the two ops records.
  auto tail = wal_->ReadSince("ms", 1, 1 << 20);
  ASSERT_TRUE(tail.ok()) << tail.status();
  ASSERT_EQ(tail->records.size(), 2u);
  auto first = DecodeRecord(tail->records[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->type, Record::Type::kOps);
  EXPECT_EQ(first->version, 2u);

  // From 0 (before the ring begins): one full snapshot record.
  auto bootstrap = wal_->ReadSince("ms", 0, 1 << 20);
  ASSERT_TRUE(bootstrap.ok()) << bootstrap.status();
  ASSERT_EQ(bootstrap->records.size(), 1u);
  auto snapshot = DecodeRecord(bootstrap->records[0]);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->type, Record::Type::kSnapshot);
  EXPECT_EQ(snapshot->version, 3u);
  auto loaded = storage::Load(snapshot->snapshot);
  EXPECT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_FALSE(wal_->ReadSince("absent", 0, 1 << 20).ok());
}

TEST_F(WalManagerTest, ReadSinceWaitsForAPublishTheLogLacks) {
  fault::Injector injector(/*seed=*/1);
  StartWorld(&injector);
  RegisterDoc();
  EXPECT_EQ(CommitOne(), 2u);

  // A torn append fails v3's ack: the store holds v3, the log v2.
  ASSERT_TRUE(injector.Arm("wal.append_torn", "once:5").ok());
  ASSERT_FALSE(TryCommitOne().ok());
  auto version = store_->GetVersion("ms");
  ASSERT_TRUE(version.ok()) << version.status();
  ASSERT_EQ(*version, 3u);

  // v3 ships to no one, neither to a follower level with the log nor
  // as a snapshot to one the ring does not cover: a crash now would
  // recover v2, and the caught-up check would never repair a follower
  // that had v3.
  for (uint64_t from : {uint64_t{2}, uint64_t{0}}) {
    SCOPED_TRACE("from " + std::to_string(from));
    auto batch = wal_->ReadSince("ms", from, 1 << 20);
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_TRUE(batch->records.empty());
    EXPECT_EQ(batch->current_version, 3u);
  }
  EXPECT_EQ(WalCounter("cxml_wal_snapshot_syncs_total"), 0u);

  // The next commit rebases the log on a kSnapshot record at v4: the
  // ring ships that one record from v2, and from 0 a snapshot of v4.
  EXPECT_EQ(CommitOne(), 4u);
  auto tail = wal_->ReadSince("ms", 2, 1 << 20);
  ASSERT_TRUE(tail.ok()) << tail.status();
  ASSERT_EQ(tail->records.size(), 1u);
  auto rebase = DecodeRecord(tail->records[0]);
  ASSERT_TRUE(rebase.ok()) << rebase.status();
  EXPECT_EQ(rebase->type, Record::Type::kSnapshot);
  EXPECT_EQ(rebase->version, 4u);
  EXPECT_EQ(WalCounter("cxml_wal_snapshot_syncs_total"), 0u);

  auto bootstrap = wal_->ReadSince("ms", 0, 1 << 20);
  ASSERT_TRUE(bootstrap.ok()) << bootstrap.status();
  ASSERT_EQ(bootstrap->records.size(), 1u);
  auto snapshot = DecodeRecord(bootstrap->records[0]);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->type, Record::Type::kSnapshot);
  EXPECT_EQ(snapshot->version, 4u);
  EXPECT_EQ(WalCounter("cxml_wal_snapshot_syncs_total"), 1u);
}

// ------------------------------------------------- follower end to end

TEST_F(WalManagerTest, FollowerTailsAPrimaryOverCxp) {
  StartWorld();
  RegisterDoc();
  EXPECT_EQ(CommitOne(), 2u);

  net::ServerOptions server_options;
  server_options.num_workers = 2;
  server_options.sync_source = wal_.get();
  net::Server server(store_.get(), service_.get(), server_options);
  ASSERT_TRUE(server.Start().ok());

  // The follower's own world, served read-only in real deployments.
  service::DocumentStore replica_store;
  service::QueryService replica_service(
      &replica_store, service::QueryServiceOptions{/*num_threads=*/2,
                                                   /*cache_capacity=*/64});
  FollowerOptions follower_options;
  follower_options.port = server.port();
  follower_options.poll_interval_ms = 10;
  Follower follower(&replica_store, &replica_service, follower_options);
  follower.Start();

  // Bootstrap: the follower must reach the primary's version via a
  // snapshot record, then stay caught up record by record through a
  // steady stream of commits. Its polls keep meeting the store one
  // publish ahead of the log, and each such SYNC must wait for the
  // record rather than ship a snapshot.
  EXPECT_EQ(follower.WaitForVersion("ms", 2, /*timeout_ms=*/5000), 2u);
  // Short annotations, so all of them fit the corpus's free a0 gaps.
  constexpr uint64_t kCommits = 200;
  uint64_t last = 2;
  for (uint64_t i = 0; i < kCommits; ++i) last = CommitOne("ms", 4);
  ASSERT_EQ(last, 2 + kCommits);
  EXPECT_EQ(follower.WaitForVersion("ms", last, /*timeout_ms=*/10000),
            last);

  // Same bytes on both sides.
  auto primary_snap = store_->GetSnapshot("ms");
  auto replica_snap = replica_store.GetSnapshot("ms");
  ASSERT_TRUE(primary_snap.ok());
  ASSERT_TRUE(replica_snap.ok());
  auto primary_bytes = storage::Save(*(*primary_snap)->goddag);
  auto replica_bytes = storage::Save(*(*replica_snap)->goddag);
  ASSERT_TRUE(primary_bytes.ok());
  ASSERT_TRUE(replica_bytes.ok());
  EXPECT_EQ(*primary_bytes, *replica_bytes);

  // A removed document disappears from the replica too.
  ASSERT_TRUE(service_->pipeline().SubmitRemove("ms").get().ok());
  for (int i = 0; i < 500 && replica_store.GetVersion("ms").ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(replica_store.GetVersion("ms").ok());

  // The bootstrap was the only snapshot: every commit arrived as its
  // own ops record. (Stop first: the tailer counts a record after its
  // publish is visible.)
  follower.Stop();
  FollowerStats stats = follower.stats();
  EXPECT_EQ(stats.snapshot_loads, 1u);
  EXPECT_EQ(stats.resyncs, 0u);
  EXPECT_EQ(stats.records_applied, 1 + kCommits);
  EXPECT_EQ(WalCounter("cxml_wal_snapshot_syncs_total"), 1u);
  server.Stop();
}

/// A follower with its own WAL, as serverd runs one with --follow and
/// --data-dir; members are torn down in reverse-dependency order.
struct DurableReplica {
  explicit DurableReplica(const std::string& dir) {
    store = std::make_unique<service::DocumentStore>();
    service = std::make_unique<service::QueryService>(
        store.get(), service::QueryServiceOptions{/*num_threads=*/2,
                                                  /*cache_capacity=*/64});
    WalOptions options;
    options.data_dir = dir;
    wal = std::make_unique<WalManager>(options);
    EXPECT_TRUE(wal->Open().ok());
    EXPECT_TRUE(wal->RecoverAll(store.get(), &recovery).ok());
    wal->Attach(store.get(), &service->pipeline());
  }

  std::string SaveBytes() {
    auto snap = store->GetSnapshot("ms");
    EXPECT_TRUE(snap.ok()) << snap.status();
    if (!snap.ok()) return "";
    auto bytes = storage::Save(*(*snap)->goddag);
    EXPECT_TRUE(bytes.ok());
    return std::move(bytes).value();
  }

  std::unique_ptr<service::DocumentStore> store;
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<WalManager> wal;
  RecoveryStats recovery;
};

TEST_F(WalManagerTest, DurableFollowerLogsItsSnapshotBootstrap) {
  // The primary reaches version 3 before the follower starts, so the
  // follower bootstraps from one kSnapshot record at version 3.
  StartWorld();
  RegisterDoc();
  EXPECT_EQ(CommitOne(), 2u);
  EXPECT_EQ(CommitOne(), 3u);
  std::string primary_v3 = SaveBytes();

  net::ServerOptions server_options;
  server_options.num_workers = 2;
  server_options.sync_source = wal_.get();
  net::Server server(store_.get(), service_.get(), server_options);
  ASSERT_TRUE(server.Start().ok());
  FollowerOptions follower_options;
  follower_options.port = server.port();
  follower_options.poll_interval_ms = 10;

  const std::string follower_dir = data_dir_ + "_follower";
  (void)RemoveDirRecursive(follower_dir + "/" + EncodeDocDir("ms"));
  (void)RemoveDirRecursive(follower_dir);
  {
    DurableReplica replica(follower_dir);
    Follower follower(replica.store.get(), replica.service.get(),
                      follower_options);
    follower.Start();
    ASSERT_EQ(follower.WaitForVersion("ms", 3, /*timeout_ms=*/5000), 3u);
    auto frontier = follower.Promote();
    ASSERT_TRUE(frontier.ok()) << frontier.status();
    EXPECT_EQ(*frontier, 3u);
    EXPECT_GE(follower.stats().snapshot_loads, 1u);
    ASSERT_TRUE(replica.wal->SealForPromotion().ok());
    ASSERT_TRUE(replica.wal->Flush().ok());
  }

  // Restarted from its data dir alone, the follower holds the
  // bootstrap it acked.
  {
    DurableReplica reborn(follower_dir);
    EXPECT_EQ(reborn.recovery.docs_recovered, 1u);
    auto version = reborn.store->GetVersion("ms");
    ASSERT_TRUE(version.ok()) << version.status();
    EXPECT_EQ(*version, 3u);
    EXPECT_EQ(reborn.SaveBytes(), primary_v3);
  }

  // Tailing the primary again from that log: the primary's next
  // commit continues the follower's log as an ops record, with no
  // snapshot rebase.
  {
    DurableReplica replica(follower_dir);
    Follower follower(replica.store.get(), replica.service.get(),
                      follower_options);
    follower.Start();
    EXPECT_EQ(CommitOne(), 4u);
    ASSERT_EQ(follower.WaitForVersion("ms", 4, /*timeout_ms=*/5000), 4u);
    // Stop joins the tailer, whose apply waits for the log's ack.
    follower.Stop();
    obs::Registry* registry = replica.wal->registry();
    EXPECT_GE(registry->GetCounter("cxml_wal_records_total")->Value(), 1u);
    EXPECT_EQ(
        registry->GetCounter("cxml_wal_snapshot_records_total")->Value(),
        0u);
  }
  {
    DurableReplica reborn(follower_dir);
    auto version = reborn.store->GetVersion("ms");
    ASSERT_TRUE(version.ok()) << version.status();
    EXPECT_EQ(*version, 4u);
    EXPECT_EQ(reborn.SaveBytes(), SaveBytes());
  }
  server.Stop();
}

TEST_F(WalManagerTest, UnwritableLogFailsRegisterImportAndEditAcks) {
  (void)std::remove(data_dir_.c_str());  // an earlier run's stand-in file
  StartWorld();
  RegisterDoc();
  net::ServerOptions server_options;
  server_options.num_workers = 2;
  server_options.sync_source = wal_.get();
  net::Server server(store_.get(), service_.get(), server_options);
  ASSERT_TRUE(server.Start().ok());

  // The log can no longer write: its data dir is now a regular file.
  ASSERT_TRUE(RemoveDirRecursive(data_dir_).ok());
  ASSERT_TRUE(WriteFileDurable(data_dir_, "not a directory").ok());

  auto client = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto registered = client->Register("up", CorpusBytes());
  ASSERT_FALSE(registered.ok());
  EXPECT_NE(registered.status().message().find("not durable"),
            std::string::npos)
      << registered.status();
  auto imported = client->Import(
      "tei", "tei", "<TEI><text><pb n=\"1\"/><p>One.</p></text></TEI>");
  ASSERT_FALSE(imported.ok());
  EXPECT_NE(imported.status().message().find("not durable"),
            std::string::npos)
      << imported.status();

  // A failed registration is undone: neither document exists, so an
  // edit on one is not acked either.
  EXPECT_EQ(store_->ListDocuments(), std::vector<std::string>{"ms"});
  auto edited = client->Edit(
      "up", {net::EditOp::Select(0, 30), net::EditOp::Apply(2, "a0")});
  EXPECT_EQ(edited.status().code(), StatusCode::kNotFound)
      << edited.status();

  // A removal the log cannot make durable does not happen; the log it
  // closed acks no further edit.
  Status removed = client->Remove("ms");
  ASSERT_FALSE(removed.ok());
  EXPECT_NE(removed.message().find("not durable"), std::string::npos)
      << removed;
  EXPECT_EQ(store_->ListDocuments(), std::vector<std::string>{"ms"});
  EXPECT_FALSE(TryCommitOne().ok());

  // Once the log can write again, both retries succeed and survive a
  // restart.
  ASSERT_EQ(std::remove(data_dir_.c_str()), 0);
  ASSERT_TRUE(EnsureDir(data_dir_).ok());
  auto retried = client->Register("up", CorpusBytes());
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(*retried, 1u);
  ASSERT_TRUE(client->Remove("ms").ok());
  server.Stop();
  StartWorld();
  EXPECT_EQ(store_->ListDocuments(), std::vector<std::string>{"up"});
}

TEST_F(WalManagerTest, SyncVerbRequiresASyncSource) {
  StartWorld();
  RegisterDoc();
  net::ServerOptions server_options;  // no sync_source
  net::Server server(store_.get(), service_.get(), server_options);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto synced = client->Sync("ms", 0);
  EXPECT_EQ(synced.status().code(), StatusCode::kUnimplemented);
  server.Stop();
}

}  // namespace
}  // namespace cxml::wal
