#include "wal/manager.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/strings.h"
#include "storage/binary.h"

namespace cxml::wal {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Each document's SYNC ring keeps its newest records, at most this
/// many and this many bytes (the newest record always stays).
constexpr size_t kSyncRingRecords = 1024;
constexpr size_t kSyncRingBytes = 8u << 20;

double MicrosSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() -
                                                   start)
      .count();
}

uint64_t NowWallMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

bool IsDirectory(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

}  // namespace

Status ApplyOpSets(edit::EditSession& session,
                   const std::vector<std::string>& op_sets) {
  for (const std::string& op_set : op_sets) {
    // Each op-set starts from the empty selection, exactly as the
    // group-commit writer applied it (see WritePipeline::RunGroup).
    session.ClearSelection();
    CXML_ASSIGN_OR_RETURN(std::vector<net::EditOp> ops,
                          net::ParseOps(op_set));
    for (const net::EditOp& op : ops) {
      if (op.kind == net::EditOp::Kind::kSelect) {
        CXML_RETURN_IF_ERROR(session.Select(op.chars));
      } else {
        CXML_RETURN_IF_ERROR(session.Apply(op.hierarchy, op.tag).status());
      }
    }
  }
  return Status::Ok();
}

WalManager::WalManager(WalOptions options) : options_(std::move(options)) {
  registry_ = options_.registry != nullptr ? options_.registry
                                           : &owned_registry_;
  records_ = registry_->GetCounter("cxml_wal_records_total");
  bytes_ = registry_->GetCounter("cxml_wal_bytes_total");
  fsyncs_ = registry_->GetCounter("cxml_wal_fsyncs_total");
  errors_ = registry_->GetCounter("cxml_wal_errors_total");
  fsync_errors_ = registry_->GetCounter("cxml_wal_fsync_errors_total");
  checkpoints_ = registry_->GetCounter("cxml_wal_checkpoints_total");
  snapshot_records_ =
      registry_->GetCounter("cxml_wal_snapshot_records_total");
  syncs_ = registry_->GetCounter("cxml_wal_syncs_total");
  snapshot_syncs_ = registry_->GetCounter("cxml_wal_snapshot_syncs_total");
  recovered_docs_ = registry_->GetCounter("cxml_wal_recovered_docs_total");
  replayed_records_ =
      registry_->GetCounter("cxml_wal_replayed_records_total");
  append_us_ = registry_->GetHistogram("cxml_wal_append_us");
  fsync_us_ = registry_->GetHistogram("cxml_wal_fsync_us");
  fsync_wait_us_ = registry_->GetHistogram("cxml_wal_fsync_wait_us");
  checkpoint_us_ = registry_->GetHistogram("cxml_wal_checkpoint_us");
  replay_us_ = registry_->GetHistogram("cxml_wal_replay_us");
}

WalManager::~WalManager() {
  Detach();
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    stop_ = true;
  }
  ckpt_cv_.notify_all();
  if (checkpointer_.joinable()) checkpointer_.join();
}

Status WalManager::Open() {
  if (opened_) return Status::Ok();
  if (options_.data_dir.empty()) {
    return status::InvalidArgument("WAL data_dir must not be empty");
  }
  CXML_RETURN_IF_ERROR(EnsureDir(options_.data_dir));
  checkpointer_ = std::thread([this] { CheckpointerLoop(); });
  opened_ = true;
  return Status::Ok();
}

// ----------------------------------------------------------- recovery

Status WalManager::RecoverAll(service::DocumentStore* store,
                              RecoveryStats* stats) {
  if (!opened_) {
    return status::FailedPrecondition("WalManager::Open was not called");
  }
  store_ = store;
  RecoveryStats local;
  RecoveryStats* out = stats != nullptr ? stats : &local;
  SteadyClock::time_point start = SteadyClock::now();
  CXML_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                        ListDir(options_.data_dir));
  std::sort(entries.begin(), entries.end());
  for (const std::string& entry : entries) {
    if (!IsDirectory(StrCat(options_.data_dir, "/", entry))) continue;
    Status recovered = RecoverDoc(entry, store, out);
    if (!recovered.ok()) {
      // One unrecoverable document (its directory is left untouched
      // for forensics) must not take down the rest of the store.
      errors_->Add();
    }
  }
  out->total_ms = MicrosSince(start) / 1000.0;
  return Status::Ok();
}

Status WalManager::RecoverDoc(const std::string& dir_name,
                              service::DocumentStore* store,
                              RecoveryStats* stats) {
  CXML_ASSIGN_OR_RETURN(std::string name, DecodeDocDir(dir_name));
  std::string dir = StrCat(options_.data_dir, "/", dir_name);
  CXML_ASSIGN_OR_RETURN(std::vector<std::string> files, ListDir(dir));

  std::vector<uint64_t> checkpoint_versions;
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& file : files) {
    uint64_t v = 0;
    if (ParseCheckpointFileName(file, &v)) {
      checkpoint_versions.push_back(v);
    } else if (ParseSegmentFileName(file, &v)) {
      segments.emplace_back(v, StrCat(dir, "/", file));
    }
  }
  std::sort(checkpoint_versions.rbegin(), checkpoint_versions.rend());
  std::sort(segments.begin(), segments.end());

  // Newest checkpoint that actually loads; corrupt ones fall back to
  // the next older (rotate-then-snapshot guarantees its records still
  // exist in a surviving segment).
  storage::LoadedGoddag doc;
  uint64_t version = 0;
  bool have_doc = false;
  for (uint64_t v : checkpoint_versions) {
    auto bytes = ReadFileBytes(StrCat(dir, "/", CheckpointFileName(v)));
    if (bytes.ok()) {
      auto loaded = storage::Load(*bytes);
      if (loaded.ok()) {
        doc = std::move(loaded).value();
        version = v;
        have_doc = true;
        stats->checkpoints_loaded++;
        break;
      }
    }
    stats->corrupt_checkpoints++;
  }

  // Every readable record from every segment, version-ordered. Bases
  // overlap only across a crashed checkpoint's rotation window, and
  // version order is exactly application order.
  std::vector<Record> records;
  for (const auto& [base, path] : segments) {
    auto data = ReadSegment(path);
    if (!data.ok()) continue;  // foreign/corrupt file: not a record source
    for (Record& record : data->scan.records) {
      records.push_back(std::move(record));
    }
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) {
                     return a.version < b.version;
                   });

  SteadyClock::time_point replay_start = SteadyClock::now();
  std::unique_ptr<edit::EditSession> session;
  size_t index = 0;
  for (; index < records.size(); ++index) {
    Record& record = records[index];
    if (record.version <= version) {
      stats->records_skipped++;
      continue;
    }
    if (record.type == Record::Type::kSnapshot) {
      auto loaded = storage::Load(record.snapshot);
      if (!loaded.ok()) break;  // CRC passed but decode failed: stop here
      doc = std::move(loaded).value();
      version = record.version;
      have_doc = true;
      session.reset();
      stats->records_replayed++;
      replayed_records_->Add();
      continue;
    }
    if (record.type == Record::Type::kPromote) {
      // A promotion seal: pure epoch marker, no document state change.
      stats->records_skipped++;
      continue;
    }
    // Ops records need an unbroken chain: version must continue from
    // the state we hold (a hole means a snapshot we failed to load or
    // a lost segment — nothing after it can be trusted).
    if (!have_doc || record.base_version != version ||
        record.version != version + 1) {
      break;
    }
    if (session == nullptr) {
      auto started = edit::EditSession::Start(doc.g.get());
      if (!started.ok()) break;
      session = std::make_unique<edit::EditSession>(
          std::move(started).value());
    }
    edit::EditSession::Mark mark = session->MarkState();
    Status applied = ApplyOpSets(*session, record.op_sets);
    if (!applied.ok()) {
      // Roll the partial record back and stop: the store must hold a
      // version that actually existed, never half of one.
      (void)session->RollbackTo(mark);
      break;
    }
    session->Commit();
    version = record.version;
    stats->records_replayed++;
    replayed_records_->Add();
  }
  if (index < records.size()) {
    // Whatever we broke on plus everything after it was skipped.
    stats->records_skipped += records.size() - index;
  }
  replay_us_->Observe(MicrosSince(replay_start));

  if (!have_doc) {
    return status::ParseError(StrCat(
        "document '", name,
        "' has no loadable checkpoint or snapshot record — left on disk"));
  }

  // Compact: persist the recovered state as the one checkpoint, drop
  // every replayed file, open a fresh segment. The checkpoint lands
  // durably before anything is unlinked, so a crash inside recovery
  // still recovers.
  CXML_ASSIGN_OR_RETURN(std::string snapshot_bytes, storage::Save(*doc.g));
  CXML_RETURN_IF_ERROR(WriteFileDurable(
      StrCat(dir, "/", CheckpointFileName(version)), snapshot_bytes));
  for (const std::string& file : files) {
    uint64_t v = 0;
    bool stale_checkpoint = ParseCheckpointFileName(file, &v) && v != version;
    bool old_segment = ParseSegmentFileName(file, &v);
    if (stale_checkpoint || old_segment) {
      (void)::unlink(StrCat(dir, "/", file).c_str());
    }
  }
  CXML_ASSIGN_OR_RETURN(
      std::unique_ptr<SegmentWriter> segment,
      SegmentWriter::Create(StrCat(dir, "/", SegmentFileName(version)),
                            version));
  segment->set_injector(options_.injector);

  auto state = std::make_shared<DocState>();
  state->name = name;
  state->dir = dir;
  state->segment = std::move(segment);
  state->last_version = version;
  state->checkpoint_version = version;
  {
    std::lock_guard<std::mutex> lock(mu_);
    docs_[name] = state;
  }
  CXML_RETURN_IF_ERROR(
      store->Register(name, std::move(doc), version).status());
  stats->docs_recovered++;
  recovered_docs_->Add();
  return Status::Ok();
}

// ------------------------------------------------------------- wiring

void WalManager::Attach(service::DocumentStore* store,
                        service::WritePipeline* pipeline) {
  store_ = store;
  pipeline_ = pipeline;
  pipeline->SetCommitSink([this](const service::CommitBatch& batch) {
    return OnCommit(batch);
  });
  attached_ = true;
}

void WalManager::Detach() {
  if (!attached_) return;
  // Clearing the sink blocks until no event is mid-sink; after it,
  // nothing can call back into this object.
  pipeline_->SetCommitSink(nullptr);
  attached_ = false;
}

Status WalManager::EnsureRegistered(const std::string& name) {
  if (store_ == nullptr) {
    return status::FailedPrecondition("WAL is not attached to a store");
  }
  if (FindDoc(name) != nullptr) return Status::Ok();
  CXML_ASSIGN_OR_RETURN(service::SnapshotPtr snap,
                        store_->GetSnapshot(name));
  return CreateDoc(name, *snap);
}

WalManager::DocPtr WalManager::FindDoc(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(name);
  return it == docs_.end() ? nullptr : it->second;
}

Status WalManager::CreateDoc(const std::string& name,
                             const service::DocumentSnapshot& snap) {
  // Stale files from a previous same-name document would pollute the
  // fresh log.
  CloseDoc(name);
  std::string dir = StrCat(options_.data_dir, "/", EncodeDocDir(name));
  CXML_RETURN_IF_ERROR(RemoveDirRecursive(dir));
  CXML_RETURN_IF_ERROR(EnsureDir(dir));
  // One data-dir fsync covers both the removal and the creation.
  CXML_RETURN_IF_ERROR(FsyncDirOf(dir));
  CXML_ASSIGN_OR_RETURN(
      std::unique_ptr<SegmentWriter> segment,
      SegmentWriter::Create(StrCat(dir, "/", SegmentFileName(snap.version)),
                            snap.version));
  // The checkpoint goes last: a directory without one recovers nothing,
  // so a registration that fails its ack does not come back on restart.
  CXML_ASSIGN_OR_RETURN(std::string bytes, storage::Save(*snap.goddag));
  CXML_RETURN_IF_ERROR(WriteFileDurable(
      StrCat(dir, "/", CheckpointFileName(snap.version)), bytes));
  segment->set_injector(options_.injector);
  auto state = std::make_shared<DocState>();
  state->name = name;
  state->dir = dir;
  state->segment = std::move(segment);
  state->last_version = snap.version;
  state->checkpoint_version = snap.version;
  std::lock_guard<std::mutex> lock(mu_);
  docs_[name] = state;
  checkpoints_->Add();
  return Status::Ok();
}

void WalManager::CloseDoc(const std::string& name) {
  DocPtr state = FindDoc(name);
  if (state == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->dropped = true;
    state->segment.reset();
    state->ring.clear();
    state->ring_bytes = 0;
  }
}

Status WalManager::DropDoc(const std::string& name) {
  // Closed first, so no append lands in a half-removed directory.
  CloseDoc(name);
  std::string dir = StrCat(options_.data_dir, "/", EncodeDocDir(name));
  CXML_RETURN_IF_ERROR(RemoveDirRecursive(dir));
  CXML_RETURN_IF_ERROR(FsyncDirOf(dir));
  std::lock_guard<std::mutex> lock(mu_);
  docs_.erase(name);
  return Status::Ok();
}

// --------------------------------------------------------- appending

service::CommitSinkResult WalManager::OnCommit(
    const service::CommitBatch& batch) {
  service::CommitSinkResult result;
  if (batch.kind != service::CommitBatch::Kind::kPublish) {
    result.status = batch.kind == service::CommitBatch::Kind::kRegister
                        ? CreateDoc(batch.document, *batch.snapshot)
                        : DropDoc(batch.document);
    if (!result.status.ok()) {
      errors_->Add();
      result.status = result.status.WithContext("wal");
    }
    return result;
  }

  // Every document's log is created by its registration, so a publish
  // for a document with no open log (a failed removal closed it, or the
  // store changed outside the pipeline) cannot be made durable here.
  auto no_log = [&] {
    errors_->Add();
    result.status = status::FailedPrecondition(
        StrCat("wal holds no log for '", batch.document, "'"));
    return result;
  };
  DocPtr doc = FindDoc(batch.document);
  if (doc == nullptr) return no_log();
  bool need_snapshot = !batch.replayable;
  {
    // A version gap is the repair after a failed append: the publish
    // it belonged to is visible in memory but missing from the log, so
    // this record rebases the log on a full snapshot.
    std::lock_guard<std::mutex> lock(doc->mu);
    if (doc->last_version + 1 != batch.version) need_snapshot = true;
  }

  Record record;
  record.wall_micros = NowWallMicros();
  record.version = batch.version;
  if (need_snapshot) {
    auto bytes = storage::Save(*batch.snapshot->goddag);
    if (!bytes.ok()) {
      errors_->Add();
      result.status = bytes.status().WithContext("wal snapshot");
      return result;
    }
    record.type = Record::Type::kSnapshot;
    record.snapshot = std::move(bytes).value();
  } else {
    record.type = Record::Type::kOps;
    record.base_version = batch.version - 1;
    record.op_sets = batch.op_sets;
  }
  std::string framed = EncodeRecord(record);

  SteadyClock::time_point append_start = SteadyClock::now();
  bool trigger_checkpoint = false;
  bool rebase = false;
  SteadyClock::time_point fsync_start;
  {
    std::lock_guard<std::mutex> lock(doc->mu);
    if (doc->dropped) return no_log();
    Status appended = doc->segment->Append(framed);
    if (!appended.ok()) {
      errors_->Add();
      // Cut the torn tail back to the last record boundary so the
      // segment stays appendable for the commits queued behind us; if
      // even the repair fails the log is wedged and every later commit
      // keeps failing loudly rather than acking into a broken file.
      Status repaired = doc->segment->TruncateToCommitted();
      if (!repaired.ok()) errors_->Add();
      result.status = appended.WithContext("wal append");
      return result;
    }
    doc->last_version = record.version;
    doc->records_since_checkpoint++;
    doc->bytes_since_checkpoint += framed.size();
    doc->ring.emplace_back(record.version, framed);
    doc->ring_bytes += framed.size();
    while (doc->ring.size() > kSyncRingRecords ||
           (doc->ring_bytes > kSyncRingBytes && doc->ring.size() > 1)) {
      doc->ring_bytes -= doc->ring.front().second.size();
      doc->ring.pop_front();
    }
    if ((doc->records_since_checkpoint >=
             options_.checkpoint_every_records ||
         doc->bytes_since_checkpoint >= options_.checkpoint_every_bytes) &&
        !doc->checkpoint_queued) {
      doc->checkpoint_queued = true;
      trigger_checkpoint = true;
    }
    result.append_us = MicrosSince(append_start);

    // Durable before the ack: this document's events reach the sink
    // one at a time, so its record is fsynced here, by the thread that
    // appended it, with no other commit to wait for.
    fsync_start = SteadyClock::now();
    Status synced = doc->segment->Fsync();
    fsync_us_->Observe(MicrosSince(fsync_start));
    if (synced.ok()) {
      fsyncs_->Add();
      rebase = doc->fsync_failed_version > doc->checkpoint_version;
    } else {
      // Not retried: the kernel may have dropped the record's pages, so
      // no later fsync can vouch for it, nor for the ops records that
      // chain through it.
      doc->fsync_failed_version = record.version;
      errors_->Add();
      fsync_errors_->Add();
      result.status = status::Internal(
          StrCat("wal fsync failed for '", batch.document,
                 "' — commit is not durable"));
    }
  }
  append_us_->Observe(result.append_us);
  records_->Add();
  bytes_->Add(framed.size());
  if (need_snapshot) snapshot_records_->Add();
  if (trigger_checkpoint) EnqueueCheckpoint(batch.document);

  if (rebase) {
    // An earlier record of this segment never reached the disk, and
    // recovery's replay would stop there: base the log on a checkpoint
    // at this commit's version before acking it.
    Status checkpointed = CheckpointDoc(doc);
    if (!checkpointed.ok()) {
      errors_->Add();
      result.status =
          checkpointed.WithContext("wal checkpoint after a failed fsync");
    }
  }
  result.fsync_us = MicrosSince(fsync_start);
  fsync_wait_us_->Observe(result.fsync_us);
  return result;
}

Status WalManager::Flush() {
  std::vector<DocPtr> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, doc] : docs_) all.push_back(doc);
  }
  Status first = Status::Ok();
  for (const DocPtr& doc : all) {
    std::lock_guard<std::mutex> doc_lock(doc->mu);
    if (doc->dropped || doc->segment == nullptr) continue;
    Status synced = doc->segment->Fsync();
    if (!synced.ok()) {
      fsync_errors_->Add();
      doc->fsync_failed_version = doc->last_version;
      if (first.ok()) first = synced;
    }
  }
  return first;
}

// ------------------------------------------------------ checkpointing

void WalManager::EnqueueCheckpoint(std::string name) {
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    ckpt_queue_.push_back(std::move(name));
  }
  ckpt_cv_.notify_one();
}

void WalManager::CheckpointerLoop() {
  for (;;) {
    std::string name;
    {
      std::unique_lock<std::mutex> lock(ckpt_mu_);
      ckpt_cv_.wait(lock, [&] { return stop_ || !ckpt_queue_.empty(); });
      if (stop_) return;
      name = std::move(ckpt_queue_.front());
      ckpt_queue_.pop_front();
    }
    DocPtr doc = FindDoc(name);
    if (doc == nullptr) continue;
    Status checkpointed = CheckpointDoc(doc);
    if (!checkpointed.ok()) errors_->Add();
  }
}

Status WalManager::CheckpointNow(const std::string& document) {
  DocPtr doc = FindDoc(document);
  if (doc == nullptr) {
    return status::NotFound(
        StrCat("document '", document, "' has no WAL state"));
  }
  return CheckpointDoc(doc);
}

Status WalManager::CheckpointDoc(const DocPtr& doc) {
  // One at a time per document: two would write the same checkpoint
  // file, and a commit rebasing after a failed fsync must find the
  // checkpoint it needs on disk when this returns.
  std::lock_guard<std::mutex> serial(doc->checkpoint_mu);
  SteadyClock::time_point start = SteadyClock::now();
  uint64_t rotate_base = 0;
  {
    // Rotate first: all future appends land in the new segment, so
    // every record beyond the snapshot below survives in a file the
    // cleanup never touches.
    std::lock_guard<std::mutex> lock(doc->mu);
    doc->checkpoint_queued = false;
    if (doc->dropped || doc->segment == nullptr) return Status::Ok();
    if (doc->checkpoint_version >= doc->last_version) return Status::Ok();
    rotate_base = doc->last_version;
    // A segment based at the last version holds no record beyond it
    // (an earlier checkpoint rotated, then failed): only the snapshot
    // is missing.
    if (doc->segment->base_version() != rotate_base) {
      CXML_ASSIGN_OR_RETURN(
          std::unique_ptr<SegmentWriter> fresh,
          SegmentWriter::Create(
              StrCat(doc->dir, "/", SegmentFileName(rotate_base)),
              rotate_base));
      fresh->set_injector(options_.injector);
      // The outgoing segment's tail must be durable before it becomes
      // the only home of records the new checkpoint may not cover.
      CXML_RETURN_IF_ERROR(doc->segment->Fsync());
      doc->segment = std::move(fresh);
    }
    doc->records_since_checkpoint = 0;
    doc->bytes_since_checkpoint = 0;
  }

  uint64_t checkpoint_version = 0;
  CXML_RETURN_IF_ERROR(WriteCheckpoint(doc, &checkpoint_version));
  {
    std::lock_guard<std::mutex> lock(doc->mu);
    if (checkpoint_version > doc->checkpoint_version) {
      doc->checkpoint_version = checkpoint_version;
    }
  }

  // Cleanup: checkpoints older than the new one, segments whose whole
  // record range the new checkpoint covers. The freshly rotated-to
  // segment (base == rotate_base) always survives.
  CXML_ASSIGN_OR_RETURN(std::vector<std::string> files, ListDir(doc->dir));
  for (const std::string& file : files) {
    uint64_t v = 0;
    bool stale_checkpoint =
        ParseCheckpointFileName(file, &v) && v < checkpoint_version;
    bool replayed_segment =
        ParseSegmentFileName(file, &v) && v < rotate_base;
    if (stale_checkpoint || replayed_segment) {
      (void)::unlink(StrCat(doc->dir, "/", file).c_str());
    }
  }
  checkpoints_->Add();
  checkpoint_us_->Observe(MicrosSince(start));
  return Status::Ok();
}

Status WalManager::WriteCheckpoint(const DocPtr& doc,
                                   uint64_t* version_out) {
  if (store_ == nullptr) {
    return status::FailedPrecondition("WAL is not attached to a store");
  }
  CXML_ASSIGN_OR_RETURN(service::SnapshotPtr snap,
                        store_->GetSnapshot(doc->name));
  CXML_ASSIGN_OR_RETURN(std::string bytes, storage::Save(*snap->goddag));
  CXML_RETURN_IF_ERROR(WriteFileDurable(
      StrCat(doc->dir, "/", CheckpointFileName(snap->version)), bytes));
  *version_out = snap->version;
  return Status::Ok();
}

// -------------------------------------------------------- replication

Result<net::SyncBatch> WalManager::ReadSince(const std::string& document,
                                             uint64_t from_version,
                                             size_t max_bytes) {
  if (store_ == nullptr) {
    return status::FailedPrecondition("WAL is not attached to a store");
  }
  CXML_ASSIGN_OR_RETURN(service::SnapshotPtr snap,
                        store_->GetSnapshot(document));
  net::SyncBatch batch;
  batch.current_version = snap->version;
  if (from_version >= snap->version) return batch;  // caught up

  if (DocPtr doc = FindDoc(document)) {
    std::lock_guard<std::mutex> lock(doc->mu);
    // Level with the log: the store's newer publish has no record yet
    // (its append is under way, or failed and the next commit rebases
    // the log), so it ships on a later poll.
    if (!doc->dropped && from_version >= doc->last_version) return batch;
    // The ring serves the request when it still holds the follower's
    // next version (record versions can jump only at snapshot records,
    // which rebase the follower anyway). Its newest record is the
    // log's last, so at least one record ships.
    if (!doc->ring.empty() && doc->ring.front().first <= from_version + 1) {
      size_t shipped = 0;
      for (const auto& [version, framed] : doc->ring) {
        if (version <= from_version) continue;
        if (!batch.records.empty() && shipped + framed.size() > max_bytes) {
          break;
        }
        batch.records.push_back(framed);
        shipped += framed.size();
      }
      syncs_->Add();
      return batch;
    }
    // A snapshot of a version the log lacks would outlive a crash that
    // recovers the older version, and the caught-up check above would
    // never repair the follower: wait for the log instead.
    if (snap->version > doc->last_version) return batch;
  }

  // The follower predates the ring (or the document has no log state):
  // ship one full snapshot at the current version.
  CXML_ASSIGN_OR_RETURN(std::string bytes, storage::Save(*snap->goddag));
  Record record;
  record.type = Record::Type::kSnapshot;
  record.version = snap->version;
  record.wall_micros = NowWallMicros();
  record.snapshot = std::move(bytes);
  batch.records.push_back(EncodeRecord(record));
  snapshot_syncs_->Add();
  return batch;
}

// ----------------------------------------------------------- failover

Status WalManager::SealForPromotion() {
  std::vector<DocPtr> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, doc] : docs_) all.push_back(doc);
  }
  Status first = Status::Ok();
  for (const DocPtr& doc : all) {
    std::lock_guard<std::mutex> doc_lock(doc->mu);
    if (doc->dropped || doc->segment == nullptr) continue;
    Record record;
    record.type = Record::Type::kPromote;
    record.version = doc->last_version;
    record.wall_micros = NowWallMicros();
    std::string framed = EncodeRecord(record);
    Status sealed = doc->segment->Append(framed);
    if (sealed.ok()) sealed = doc->segment->Fsync();
    if (!sealed.ok()) {
      errors_->Add();
      (void)doc->segment->TruncateToCommitted();
      if (first.ok()) {
        first = sealed.WithContext(StrCat("sealing '", doc->name, "'"));
      }
      continue;
    }
    records_->Add();
    bytes_->Add(framed.size());
    // Fresh epoch: rotate so every post-promotion record lives in a
    // file this primary created. When the open segment's base already
    // equals the seal version it has no replicated records — it IS
    // the fresh epoch, and a same-name create would collide.
    if (doc->segment->base_version() != doc->last_version) {
      auto fresh = SegmentWriter::Create(
          StrCat(doc->dir, "/", SegmentFileName(doc->last_version)),
          doc->last_version);
      if (!fresh.ok()) {
        errors_->Add();
        if (first.ok()) first = fresh.status();
        continue;
      }
      (*fresh)->set_injector(options_.injector);
      doc->segment = std::move(fresh).value();
    }
  }
  return first;
}

}  // namespace cxml::wal
