#ifndef CXML_SERVICE_WRITE_PIPELINE_H_
#define CXML_SERVICE_WRITE_PIPELINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "service/document_store.h"
#include "service/thread_pool.h"

namespace cxml::service {

/// One grouped edit: the caller's op-set, applied to the batch's
/// shared prevalidating session. Return the first failing status to
/// have the whole op-set rolled back (the batch continues without it).
using EditFn = std::function<Status(edit::EditSession&)>;

struct EditResponse {
  Status status;
  /// The published version containing this write (0 on failure and for
  /// removals).
  uint64_t version = 0;
  /// How many op-sets shared that publish (1 = no batching win).
  size_t batch_size = 0;
  /// Durability cost this publish paid in the commit sink (0 when no
  /// sink is attached): WAL append time and fsync wait.
  double wal_append_us = 0;
  double wal_fsync_us = 0;

  bool ok() const { return status.ok(); }
};

/// One document event, as handed to the commit sink (the WAL): a
/// publish of `version` on top of `version - 1`, a registration at
/// `version` (1, or a follower's bootstrap version), or a removal.
struct CommitBatch {
  enum class Kind { kPublish, kRegister, kRemove };
  Kind kind = Kind::kPublish;
  std::string document;
  uint64_t version = 0;
  /// The published snapshot (null for a removal).
  SnapshotPtr snapshot;
  /// kPublish: the successful participants' wire op-sets
  /// (net::RenderOps text), in application order.
  std::vector<std::string> op_sets;
  /// kPublish: true when every successful participant carried a wire
  /// op-set, so replaying `op_sets` over version `version - 1`
  /// reproduces `snapshot`. False for opaque EditFn closures and
  /// transactions committed without their op text: the sink logs
  /// `snapshot` itself.
  bool replayable = false;
};

/// What the sink spent making the event durable (reported back to each
/// participant's EditResponse), and whether it succeeded. A non-OK
/// status fails every participant's ack, so a client never holds an
/// acknowledgement the log cannot honour.
struct CommitSinkResult {
  Status status;
  double append_us = 0;
  double fsync_us = 0;
};

/// Durability hook: invoked synchronously for every event, before the
/// participants' futures resolve — when the sink blocks on fsync, an
/// acked write is a durable write.
using CommitSink = std::function<CommitSinkResult(const CommitBatch&)>;

struct WriteStats {
  /// Grouped SubmitEdit requests accepted.
  uint64_t edits = 0;
  /// Exclusive SubmitCommit (cross-frame transaction) requests.
  uint64_t commits = 0;
  /// Group commits published (one version + one listener fire each).
  uint64_t batches = 0;
  /// Op-sets that rode a group commit (sum of publish batch sizes).
  uint64_t batched_edits = 0;
  /// Requests answered with a failure status.
  uint64_t errors = 0;

  /// Successful op-sets per publish — the group-commit win.
  double avg_batch_size() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_edits) / batches;
  }
};

/// The per-document writer pipeline, and the only way a store with a
/// durability log changes: edits, transaction commits, registrations
/// and removals all queue here, and every one of them reaches the
/// commit sink.
///
/// Each document has a FIFO queue of pending writes drained by the
/// owner-supplied writer thread pool; one worker claims a document's
/// entire backlog at once, so one document's events reach the sink one
/// at a time and in version order. Consecutive edits are applied
/// back-to-back on one clone (the structural storage::Clone) and one
/// prevalidating session, and publish with **group commit**: one store
/// version and one listener/cache-invalidation fire for the whole
/// batch. An op-set that fails prevalidation (or any edit check) is
/// rolled back via EditSession::RollbackTo and reports its own status —
/// typically FailedPrecondition/ValidationError — without poisoning the
/// rest of the batch; a batch whose op-sets all fail publishes nothing.
///
/// Every other entry runs alone in its queue position. Cross-frame
/// transactions (net EBEGIN..ECOMMIT) carry their own clone, so they
/// cannot join a group; SubmitCommit publishes one with the optimistic
/// first-committer-wins check, so a transaction whose base went stale
/// loses deterministically.
class WritePipeline {
 public:
  /// `store` and `pool` must outlive the pipeline; the owner
  /// (QueryService hands its dedicated writer pool) must drain the
  /// pool before the pipeline dies. `registry` receives the pipeline's
  /// counters (cxml_write_*_total), the group-commit latency histogram
  /// (cxml_commit_us) and its stages (cxml_write_clone_us,
  /// cxml_write_apply_us, cxml_write_publish_us); without one the
  /// pipeline keeps them in a private registry.
  WritePipeline(DocumentStore* store, ThreadPool* pool,
                obs::Registry* registry = nullptr);

  WritePipeline(const WritePipeline&) = delete;
  WritePipeline& operator=(const WritePipeline&) = delete;

  /// Enqueues an op-set for grouped application; returns immediately.
  /// `wal_op_sets` is the submission's wire op text (net::RenderOps
  /// lines, usually one entry) for the commit sink: when every batch
  /// participant provides it, the publish is logged as a replayable
  /// record instead of a full snapshot. Callers applying opaque
  /// closures just omit it.
  std::future<EditResponse> SubmitEdit(
      std::string document, EditFn apply,
      std::vector<std::string> wal_op_sets = {});

  /// Queues an already-populated transaction's commit in FIFO position.
  /// `wal_op_sets` as in SubmitEdit — the transaction's accumulated
  /// wire ops, if the caller tracked them.
  std::future<EditResponse> SubmitCommit(
      std::string document, std::unique_ptr<EditTransaction> txn,
      std::vector<std::string> wal_op_sets = {});

  /// Queues a registration (DocumentStore::Register semantics: version
  /// `initial_version`, AlreadyExists for a live name). Acks with the
  /// registered version; if the sink fails, the document is removed
  /// again before the ack fails.
  std::future<EditResponse> SubmitRegister(std::string document,
                                           storage::LoadedGoddag doc,
                                           uint64_t initial_version = 1);

  /// Queues a removal (DocumentStore::Remove semantics: NotFound for an
  /// unknown name). The sink drops the document's log first; if it
  /// fails, the document stays registered.
  std::future<EditResponse> SubmitRemove(std::string document);

  /// Installs (or clears, with nullptr) the durability sink. Blocks
  /// until no event is mid-sink, so after SetCommitSink(nullptr)
  /// returns the previous sink can be destroyed safely.
  void SetCommitSink(CommitSink sink);

  WriteStats stats() const;

 private:
  struct PendingWrite {
    CommitBatch::Kind kind = CommitBatch::Kind::kPublish;
    /// kPublish: a grouped edit when set, else `txn`'s commit.
    EditFn apply;
    std::unique_ptr<EditTransaction> txn;
    /// kRegister: the document and its first version.
    storage::LoadedGoddag doc;
    uint64_t initial_version = 0;
    std::vector<std::string> wal_op_sets;
    std::promise<EditResponse> promise;
  };

  std::future<EditResponse> Enqueue(const std::string& document,
                                    PendingWrite entry);
  /// Claims and runs one write batch for `document`, then yields: if
  /// more writes arrived meanwhile, a fresh pool task continues, so a
  /// hot document shares the writer pool instead of monopolising a
  /// thread.
  void ServeDocument(const std::string& document);
  /// Fails every queued write for `document` (pool shut down).
  void FailQueuedWrites(const std::string& document);
  /// One group commit over consecutive grouped entries.
  void RunGroup(const std::string& document,
                std::deque<PendingWrite>* group);
  /// One commit, registration or removal, alone.
  void RunExclusive(const std::string& document, PendingWrite* entry);
  void Fail(PendingWrite* entry, Status status);
  /// Runs the sink (if any) for a just-published event, under the
  /// shared lock that lets SetCommitSink quiesce.
  CommitSinkResult RunCommitSink(const CommitBatch& batch);
  /// Resolves `entry` once its event went through the sink: with
  /// `version` when the sink made it durable, as not durable otherwise.
  void Ack(PendingWrite* entry, const CommitSinkResult& sunk,
           uint64_t version, size_t batch_size);

  DocumentStore* store_;
  ThreadPool* pool_;

  /// Writers hold it shared across a sink invocation; SetCommitSink
  /// takes it exclusive, which is what makes clearing the sink a
  /// drain barrier rather than a data race.
  std::shared_mutex sink_mu_;
  CommitSink sink_;

  mutable std::mutex mu_;
  /// Per-document FIFO of pending writes.
  std::map<std::string, std::deque<PendingWrite>> pending_;
  /// Documents with a ServeDocument task queued/running; writes
  /// arriving meanwhile just append and get batched.
  std::set<std::string> scheduled_;

  /// obs-backed counters (see the constructor comment): lock-free to
  /// bump — stats() no longer needs mu_ at all, and submitters never
  /// serialize on counting.
  obs::Registry owned_registry_;
  obs::Counter* edits_ = nullptr;
  obs::Counter* commits_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* batched_edits_ = nullptr;
  obs::Counter* errors_ = nullptr;
  /// Group/exclusive commit latency: clone + apply + publish, per run.
  obs::Histogram* commit_us_ = nullptr;
  /// The write path split into its stages, per run: the clone (pin the
  /// snapshot, storage::Clone, EditSession::Start), the op-sets
  /// (rejected ones included), and the publish (Commit, Publish and the
  /// listeners). A cross-frame transaction cloned at EBEGIN reports only
  /// its publish.
  obs::Histogram* clone_us_ = nullptr;
  obs::Histogram* apply_us_ = nullptr;
  obs::Histogram* publish_us_ = nullptr;
};

}  // namespace cxml::service

#endif  // CXML_SERVICE_WRITE_PIPELINE_H_
