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
/// The function MUST be effectively idempotent: when the batch loses
/// its optimistic publish to a direct BeginEdit committer, every
/// op-set — previously failed ones included — is re-applied on a
/// fresh clone of the new base, so a closure with external side
/// effects may run more than once per submission.
using EditFn = std::function<Status(edit::EditSession&)>;

struct EditResponse {
  Status status;
  /// The published version containing this edit (0 on failure).
  uint64_t version = 0;
  /// How many op-sets shared that publish (1 = no batching win).
  size_t batch_size = 0;
  /// Durability cost this publish paid in the commit sink (0 when no
  /// sink is attached): WAL append time and group-fsync wait.
  double wal_append_us = 0;
  double wal_fsync_us = 0;

  bool ok() const { return status.ok(); }
};

/// One published version, as handed to the commit sink (the WAL).
struct CommitBatch {
  std::string document;
  /// The version this publish produced and the version it branched
  /// from. base_version + 1 == version always; the sink uses the pair
  /// to detect holes left by commits that bypassed the pipeline.
  uint64_t version = 0;
  uint64_t base_version = 0;
  /// The successful participants' wire op-sets (net::RenderOps text),
  /// in application order. Only meaningful when `replayable`.
  std::vector<std::string> op_sets;
  /// True when every successful participant carried a wire op-set, so
  /// replaying `op_sets` over version `base_version` reproduces
  /// `version` exactly. False for opaque EditFn closures and
  /// cross-frame transactions submitted without their op text — the
  /// sink must capture a full snapshot instead.
  bool replayable = false;
};

/// What the sink spent making the publish durable (reported back to
/// each participant's EditResponse), and whether it succeeded. A
/// non-OK status means the publish is visible in memory but NOT on
/// disk — the pipeline fails every participant's ack with it, so a
/// client never holds an acknowledgement the log cannot honour.
struct CommitSinkResult {
  Status status;
  double append_us = 0;
  double fsync_us = 0;
};

/// Durability hook: invoked synchronously after every successful
/// publish, before the participants' futures resolve — when the sink
/// blocks on fsync, an acked write is a durable write.
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
  /// Publish conflicts absorbed by re-applying a batch on a new base
  /// (a direct BeginEdit committer raced the pipeline).
  uint64_t retries = 0;
  /// Requests answered with a failure status.
  uint64_t errors = 0;

  /// Successful op-sets per publish — the group-commit win.
  double avg_batch_size() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_edits) / batches;
  }
};

/// The per-document writer pipeline: edits batch per document.
///
/// Each document has a FIFO queue of pending writes drained by the
/// owner-supplied writer thread pool; one worker claims a document's
/// entire backlog
/// at once, clones the snapshot a single time (the structural
/// storage::Clone), applies every op-set back-to-back on one
/// prevalidating session, and publishes with **group commit**: one
/// store version and one listener/cache-invalidation fire for the
/// whole batch. An op-set that fails prevalidation (or any edit check)
/// is rolled back via EditSession::RollbackTo and reports its own
/// status — typically FailedPrecondition/ValidationError — without
/// poisoning the rest of the batch; a batch whose op-sets all fail
/// publishes nothing. A publish conflict (an in-process BeginEdit
/// committer won the race) re-applies the batch on the new base a
/// bounded number of times.
///
/// Cross-frame transactions (net EBEGIN..ECOMMIT) carry their own
/// clone, so they cannot join a group; SubmitCommit instead queues the
/// transaction's commit *behind* the document's pending writes,
/// keeping per-document FIFO order while preserving the optimistic
/// first-committer-wins conflict exactly as EditTransaction::Commit
/// surfaces it (no retry: a stale base must lose deterministically).
///
/// DocumentStore::BeginEdit remains available for in-process callers;
/// both paths publish through the same optimistic Publish, so mixing
/// them is safe — pipeline batches just absorb lost races by retrying.
class WritePipeline {
 public:
  /// `store` and `pool` must outlive the pipeline; the owner
  /// (QueryService hands its dedicated writer pool) must drain the
  /// pool before the pipeline dies. `registry` receives the pipeline's
  /// counters (cxml_write_*_total) and the group-commit latency
  /// histogram (cxml_commit_us); without one the pipeline keeps them
  /// in a private registry.
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

  /// Installs (or clears, with nullptr) the durability sink. Blocks
  /// until no publish is mid-sink, so after SetCommitSink(nullptr)
  /// returns the previous sink can be destroyed safely.
  void SetCommitSink(CommitSink sink);

  WriteStats stats() const;

 private:
  struct PendingWrite {
    /// Grouped entry when set; exclusive commit entry otherwise.
    EditFn apply;
    std::unique_ptr<EditTransaction> txn;
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
  void RunExclusive(PendingWrite* entry);
  void Fail(PendingWrite* entry, Status status);
  /// Runs the sink (if any) for a just-published batch, under the
  /// shared lock that lets SetCommitSink quiesce.
  CommitSinkResult RunCommitSink(const CommitBatch& batch);

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
  obs::Counter* retries_ = nullptr;
  obs::Counter* errors_ = nullptr;
  /// Group/exclusive commit latency: clone + apply + publish, per run.
  obs::Histogram* commit_us_ = nullptr;
};

}  // namespace cxml::service

#endif  // CXML_SERVICE_WRITE_PIPELINE_H_
