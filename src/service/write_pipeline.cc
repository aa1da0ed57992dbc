#include "service/write_pipeline.h"

#include <chrono>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace cxml::service {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MicrosSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() -
                                                   start)
      .count();
}

}  // namespace

WritePipeline::WritePipeline(DocumentStore* store, ThreadPool* pool,
                             obs::Registry* registry)
    : store_(store), pool_(pool) {
  obs::Registry* r = registry != nullptr ? registry : &owned_registry_;
  edits_ = r->GetCounter("cxml_write_edits_total");
  commits_ = r->GetCounter("cxml_write_commits_total");
  batches_ = r->GetCounter("cxml_write_batches_total");
  batched_edits_ = r->GetCounter("cxml_write_batched_edits_total");
  errors_ = r->GetCounter("cxml_write_errors_total");
  commit_us_ = r->GetHistogram("cxml_commit_us");
  clone_us_ = r->GetHistogram("cxml_write_clone_us");
  apply_us_ = r->GetHistogram("cxml_write_apply_us");
  publish_us_ = r->GetHistogram("cxml_write_publish_us");
}

std::future<EditResponse> WritePipeline::SubmitEdit(
    std::string document, EditFn apply,
    std::vector<std::string> wal_op_sets) {
  PendingWrite entry;
  entry.apply = std::move(apply);
  entry.wal_op_sets = std::move(wal_op_sets);
  edits_->Add();
  return Enqueue(document, std::move(entry));
}

std::future<EditResponse> WritePipeline::SubmitCommit(
    std::string document, std::unique_ptr<EditTransaction> txn,
    std::vector<std::string> wal_op_sets) {
  PendingWrite entry;
  entry.txn = std::move(txn);
  entry.wal_op_sets = std::move(wal_op_sets);
  commits_->Add();
  return Enqueue(document, std::move(entry));
}

std::future<EditResponse> WritePipeline::SubmitRegister(
    std::string document, storage::LoadedGoddag doc,
    uint64_t initial_version) {
  PendingWrite entry;
  entry.kind = CommitBatch::Kind::kRegister;
  entry.doc = std::move(doc);
  entry.initial_version = initial_version;
  return Enqueue(document, std::move(entry));
}

std::future<EditResponse> WritePipeline::SubmitRemove(std::string document) {
  PendingWrite entry;
  entry.kind = CommitBatch::Kind::kRemove;
  return Enqueue(document, std::move(entry));
}

void WritePipeline::SetCommitSink(CommitSink sink) {
  std::unique_lock<std::shared_mutex> lock(sink_mu_);
  sink_ = std::move(sink);
}

CommitSinkResult WritePipeline::RunCommitSink(const CommitBatch& batch) {
  std::shared_lock<std::shared_mutex> lock(sink_mu_);
  if (sink_ == nullptr) return CommitSinkResult{};
  return sink_(batch);
}

std::future<EditResponse> WritePipeline::Enqueue(const std::string& document,
                                                 PendingWrite entry) {
  std::future<EditResponse> future = entry.promise.get_future();
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_[document].push_back(std::move(entry));
    schedule = scheduled_.insert(document).second;
  }
  if (schedule &&
      !pool_->Submit([this, document] { ServeDocument(document); })) {
    // Pool already shut down: fail every queued write for the document
    // instead of hanging its futures.
    FailQueuedWrites(document);
  }
  return future;
}

void WritePipeline::FailQueuedWrites(const std::string& document) {
  std::deque<PendingWrite> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    scheduled_.erase(document);
    auto it = pending_.find(document);
    if (it != pending_.end()) {
      orphans.swap(it->second);
      pending_.erase(it);
    }
  }
  for (PendingWrite& orphan : orphans) {
    Fail(&orphan,
         status::FailedPrecondition("write pipeline is shut down"));
  }
}

void WritePipeline::ServeDocument(const std::string& document) {
  // Claim the document's entire pending queue as one batch.
  std::deque<PendingWrite> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(document);
    if (it == pending_.end() || it->second.empty()) {
      if (it != pending_.end()) pending_.erase(it);
      scheduled_.erase(document);
      return;
    }
    batch.swap(it->second);
  }

  // Preserve FIFO while splitting the claim into runs: consecutive
  // grouped entries share one clone + one group commit; every other
  // entry runs alone in its queue position.
  std::deque<PendingWrite> group;
  auto flush_group = [&] {
    if (!group.empty()) RunGroup(document, &group);
    group.clear();
  };
  for (PendingWrite& entry : batch) {
    if (entry.apply != nullptr) {
      group.push_back(std::move(entry));
    } else {
      flush_group();
      RunExclusive(document, &entry);
    }
  }
  flush_group();

  // Yield the worker between batches instead of looping: writes that
  // arrived meanwhile are served by a fresh pool task, so on a small
  // writer pool one hot document round-robins with the others rather
  // than starving them.
  bool resubmit = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(document);
    if (it == pending_.end() || it->second.empty()) {
      if (it != pending_.end()) pending_.erase(it);
      scheduled_.erase(document);
    } else {
      resubmit = true;
    }
  }
  if (resubmit &&
      !pool_->Submit([this, document] { ServeDocument(document); })) {
    FailQueuedWrites(document);
  }
}

void WritePipeline::RunGroup(const std::string& document,
                             std::deque<PendingWrite>* group) {
  SteadyClock::time_point start = SteadyClock::now();
  auto txn = store_->BeginEdit(document);
  if (!txn.ok()) {
    for (PendingWrite& entry : *group) Fail(&entry, txn.status());
    return;
  }
  clone_us_->Observe(MicrosSince(start));
  SteadyClock::time_point applying = SteadyClock::now();
  std::vector<Status> statuses(group->size());
  size_t applied = 0;
  for (size_t i = 0; i < group->size(); ++i) {
    // Each op-set starts from the fresh-session default (no
    // selection), exactly as if it had its own BeginEdit — a
    // participant that applies without selecting must not inherit its
    // batch predecessor's cursor.
    txn->session().ClearSelection();
    edit::EditSession::Mark mark = txn->session().MarkState();
    statuses[i] = (*group)[i].apply(txn->session());
    if (statuses[i].ok()) {
      ++applied;
      continue;
    }
    Status rollback = txn->session().RollbackTo(mark);
    if (!rollback.ok()) {
      // The shared copy is no longer trustworthy: abandon the clone
      // (nothing was published) and fail the whole batch loudly.
      for (PendingWrite& entry : *group) {
        Fail(&entry, status::Internal(StrCat(
                         "group-commit rollback failed, batch dropped: ",
                         rollback.message())));
      }
      return;
    }
  }
  apply_us_->Observe(MicrosSince(applying));
  if (applied == 0) {
    // Every op-set failed its own way; nothing to publish, so no
    // version bump and no listener fire.
    for (size_t i = 0; i < group->size(); ++i) {
      Fail(&(*group)[i], std::move(statuses[i]));
    }
    return;
  }
  // The pipeline is the only committer, so this publish fails only
  // when the document was removed or replaced outside it.
  SteadyClock::time_point publishing = SteadyClock::now();
  auto published = txn->Commit();
  publish_us_->Observe(MicrosSince(publishing));
  if (!published.ok()) {
    for (size_t i = 0; i < group->size(); ++i) {
      Fail(&(*group)[i],
           statuses[i].ok() ? published.status() : std::move(statuses[i]));
    }
    return;
  }
  batches_->Add();
  batched_edits_->Add(applied);
  commit_us_->Observe(MicrosSince(start));
  // Log the publish before resolving any promise: an acked write must
  // already be in the durability sink's hands.
  CommitBatch batch;
  batch.document = document;
  batch.version = (*published)->version;
  batch.snapshot = *published;
  batch.replayable = true;
  for (size_t i = 0; i < group->size(); ++i) {
    if (!statuses[i].ok()) continue;
    if ((*group)[i].wal_op_sets.empty()) {
      // An opaque closure rode this publish: its effect cannot be
      // replayed from op text, so the sink must snapshot instead.
      batch.replayable = false;
      continue;
    }
    for (std::string& op_set : (*group)[i].wal_op_sets) {
      batch.op_sets.push_back(std::move(op_set));
    }
  }
  CommitSinkResult sunk = RunCommitSink(batch);
  for (size_t i = 0; i < group->size(); ++i) {
    if (statuses[i].ok()) {
      Ack(&(*group)[i], sunk, batch.version, applied);
    } else {
      Fail(&(*group)[i], std::move(statuses[i]));
    }
  }
}

void WritePipeline::RunExclusive(const std::string& document,
                                 PendingWrite* entry) {
  SteadyClock::time_point start = SteadyClock::now();
  CommitBatch batch;
  batch.kind = entry->kind;
  batch.document = document;
  Result<SnapshotPtr> published = SnapshotPtr();
  switch (entry->kind) {
    case CommitBatch::Kind::kPublish:
      // Deterministic: a stale cross-frame transaction loses with
      // FailedPrecondition no matter where it sat in the queue.
      published = entry->txn->Commit();
      publish_us_->Observe(MicrosSince(start));
      batch.document = entry->txn->document();
      batch.replayable = !entry->wal_op_sets.empty();
      batch.op_sets = std::move(entry->wal_op_sets);
      break;
    case CommitBatch::Kind::kRegister:
      published = store_->Register(document, std::move(entry->doc),
                                   entry->initial_version);
      break;
    case CommitBatch::Kind::kRemove:
      // Removed below, once the sink dropped its log: a retry after a
      // failed drop reaches the sink again.
      if (auto live = store_->GetVersion(document); !live.ok()) {
        published = live.status();
      }
      break;
  }
  if (!published.ok()) {
    Fail(entry, published.status());
    return;
  }
  if (entry->kind == CommitBatch::Kind::kPublish) {
    commit_us_->Observe(MicrosSince(start));
  }
  batch.snapshot = std::move(published).value();
  if (batch.snapshot != nullptr) batch.version = batch.snapshot->version;
  CommitSinkResult sunk = RunCommitSink(batch);
  // A removal happens once its log is gone, and a registration the log
  // rejected is undone: a failed ack leaves the store as it was.
  if (entry->kind == CommitBatch::Kind::kRemove
          ? sunk.status.ok()
          : entry->kind == CommitBatch::Kind::kRegister && !sunk.status.ok()) {
    (void)store_->Remove(document);
  }
  Ack(entry, sunk, batch.version, 1);
}

void WritePipeline::Ack(PendingWrite* entry, const CommitSinkResult& sunk,
                        uint64_t version, size_t batch_size) {
  if (!sunk.status.ok()) {
    // The log rejected the event: the write must not be acknowledged
    // as committed.
    Fail(entry, sunk.status.WithContext("commit not durable"));
    return;
  }
  EditResponse response;
  response.version = version;
  response.batch_size = batch_size;
  response.wal_append_us = sunk.append_us;
  response.wal_fsync_us = sunk.fsync_us;
  entry->promise.set_value(std::move(response));
}

void WritePipeline::Fail(PendingWrite* entry, Status status) {
  errors_->Add();
  EditResponse response;
  response.status = std::move(status);
  entry->promise.set_value(std::move(response));
}

WriteStats WritePipeline::stats() const {
  WriteStats stats;
  stats.edits = edits_->Value();
  stats.commits = commits_->Value();
  stats.batches = batches_->Value();
  stats.batched_edits = batched_edits_->Value();
  stats.errors = errors_->Value();
  return stats;
}

}  // namespace cxml::service
