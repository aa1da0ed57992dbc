#ifndef CXML_WAL_MANAGER_H_
#define CXML_WAL_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "edit/session.h"
#include "net/protocol.h"
#include "net/sync.h"
#include "obs/metrics.h"
#include "service/document_store.h"
#include "service/write_pipeline.h"
#include "wal/log.h"
#include "wal/record.h"

namespace cxml::wal {

struct WalOptions {
  /// Root of the durability tree: one subdirectory per document (see
  /// log.h for the layout). Created by Open().
  std::string data_dir;
  /// Background checkpoint triggers: after this many records or bytes
  /// appended since the last checkpoint, the document is snapshotted
  /// (CXG1) and its replayed segments are dropped.
  uint64_t checkpoint_every_records = 256;
  uint64_t checkpoint_every_bytes = 8ull << 20;
  /// Metric sink (cxml_wal_*); nullptr keeps a private registry.
  obs::Registry* registry = nullptr;
  /// Fault-injection seam (wal.fsync / wal.append_torn); nullptr (the
  /// default) costs each instrumented site a single branch.
  fault::Injector* injector = nullptr;
};

struct RecoveryStats {
  uint64_t docs_recovered = 0;
  uint64_t checkpoints_loaded = 0;
  /// Checkpoint files that failed to load (fell back to an older one).
  uint64_t corrupt_checkpoints = 0;
  uint64_t records_replayed = 0;
  /// Records at or below the checkpoint version, plus anything after a
  /// gap / torn tail / failed replay (replay stops cleanly there).
  uint64_t records_skipped = 0;
  double total_ms = 0;
};

/// Replays WAL op-set payloads (net::RenderOps lines) through a
/// prevalidating session, with the same per-op-set selection reset the
/// group commit applied them under. Shared by crash recovery and the
/// replication follower.
Status ApplyOpSets(edit::EditSession& session,
                   const std::vector<std::string>& op_sets);

/// The durability subsystem: a per-document write-ahead log fed by the
/// WritePipeline's commit sink, one fsync per commit, background CXG1
/// checkpoints with segment truncation, startup recovery into a
/// DocumentStore, and the SYNC serving side of CXP/1 replication.
///
/// Lifecycle: construct → Open() (creates data_dir, starts the
/// checkpoint thread) → RecoverAll(store) (registers every recovered
/// document at its logged version — before the sink is wired, so
/// recovery itself is never re-logged) → Attach(store, pipeline)
/// (commit sink; from here every pipeline event is durable before its
/// submitter is acked) → EnsureRegistered(name) for documents
/// registered before Attach → serve. Destroy only after the pipeline
/// has quiesced (QueryService destroyed / Server stopped), or call
/// Detach() first — Detach blocks until in-flight sink calls have
/// drained.
///
/// What is logged: the sink is the log's only input, so every change
/// to an attached store goes through the WritePipeline. A group commit
/// is one record (replayable op lines when every batch participant
/// carried a wire payload, a full kSnapshot record otherwise); a
/// registration writes an initial checkpoint and a fresh segment; a
/// removal drops the document's directory. A commit for a document the
/// log does not hold fails its ack.
///
/// Flushing: the pipeline writer that appends a commit's record fsyncs
/// the document's segment itself, under the document's lock, before
/// the sink returns. A document's events reach the sink one at a time,
/// and each document has its own segment, so there is nothing for a
/// shared fsync to batch. A failed fsync fails that commit's ack and
/// is never retried (the kernel may have dropped the record's pages);
/// the document's next commit checkpoints before it acks, so no later
/// ack depends on the lost record.
class WalManager : public net::SyncSource {
 public:
  explicit WalManager(WalOptions options);
  ~WalManager() override;

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// Creates data_dir and starts the background threads. Call once,
  /// before anything else.
  Status Open();

  /// Loads every document under data_dir: newest readable checkpoint,
  /// then the log tail replayed through a prevalidating session (CRC
  /// gaps, torn tails, and rejected ops stop the replay cleanly at the
  /// last good version). Each document is registered at its recovered
  /// version so WAL and replication continuity survive the restart.
  Status RecoverAll(service::DocumentStore* store,
                    RecoveryStats* stats = nullptr);

  /// Wires the pipeline commit sink. Call after RecoverAll; the sink
  /// blocks each event until its record or checkpoint is on disk, so a
  /// client ack implies durability.
  void Attach(service::DocumentStore* store,
              service::WritePipeline* pipeline);
  /// Unwires the sink, blocking until in-flight calls drain.
  void Detach();

  /// Ensures `name` (already registered in the attached store) has
  /// on-disk state: writes an initial checkpoint at its current
  /// version if none exists. The bootstrap for documents registered
  /// before Attach (serverd's synthetic/--load documents).
  Status EnsureRegistered(const std::string& name);

  /// net::SyncSource — serves `SYNC <doc> <from_version>` from what the
  /// log holds: the in-memory ring of the newest records when it still
  /// holds the follower's next version, otherwise one kSnapshot record
  /// of the current store snapshot. Nothing above the log's last
  /// appended version ships. While the store holds a publish whose
  /// record is not appended yet (or whose append failed), a follower
  /// level with the log, or one the ring no longer covers, gets no
  /// records; the record (or the next commit's rebase) arrives on a
  /// later poll.
  Result<net::SyncBatch> ReadSince(const std::string& document,
                                   uint64_t from_version,
                                   size_t max_bytes) override;

  /// Failover: seals every document's inherited log with a fsynced
  /// kPromote record at its current version and rotates to a fresh
  /// segment — the promoted primary's own WAL epoch. Everything the
  /// old primary replicated is marked as history; everything after is
  /// this process's. Idempotent per document version.
  Status SealForPromotion();

  /// Synchronous checkpoint (tests, admin): rotate, snapshot, truncate.
  Status CheckpointNow(const std::string& document);
  /// Fsyncs every open segment now. Each commit already fsyncs its own
  /// record, so this only re-checks the files (tests, shutdown).
  Status Flush();

  const WalOptions& options() const { return options_; }
  obs::Registry* registry() { return registry_; }

 private:
  struct DocState {
    std::string name;
    std::string dir;
    /// Serializes CheckpointDoc runs on this document; taken before mu.
    std::mutex checkpoint_mu;
    std::mutex mu;
    std::unique_ptr<SegmentWriter> segment;
    /// Last version appended (or recovered); the continuity check.
    uint64_t last_version = 0;
    /// Version of the newest durable checkpoint.
    uint64_t checkpoint_version = 0;
    uint64_t records_since_checkpoint = 0;
    uint64_t bytes_since_checkpoint = 0;
    bool checkpoint_queued = false;
    bool dropped = false;
    /// (version, framed record) tail for ReadSince: the newest records
    /// appended, up to kSyncRingRecords and kSyncRingBytes (manager.cc).
    std::deque<std::pair<uint64_t, std::string>> ring;
    size_t ring_bytes = 0;
    /// Highest version appended before an fsync of the document's
    /// log failed (0: none). Recovery's prefix scan stops at a lost
    /// record, so while no checkpoint covers this version, an ack must
    /// not depend on the segment chain through it.
    uint64_t fsync_failed_version = 0;
  };
  using DocPtr = std::shared_ptr<DocState>;

  /// The pipeline commit sink: a publish is encoded, appended and
  /// fsynced; a registration creates the document's log; a removal
  /// drops it.
  service::CommitSinkResult OnCommit(const service::CommitBatch& batch);

  DocPtr FindDoc(const std::string& name);
  /// Replaces any log state for `name` with a fresh one at `snap`: a
  /// durable checkpoint and an empty segment based at its version.
  Status CreateDoc(const std::string& name,
                   const service::DocumentSnapshot& snap);
  /// Closes `name`'s log in memory: no append, fsync or sync read
  /// touches its files afterwards. Its docs_ entry stays until
  /// CreateDoc replaces it or DropDoc erases it.
  void CloseDoc(const std::string& name);
  /// Removes the document's directory durably, then its log state.
  Status DropDoc(const std::string& name);
  Status RecoverDoc(const std::string& dir_name,
                    service::DocumentStore* store, RecoveryStats* stats);
  Status CheckpointDoc(const DocPtr& doc);
  Status WriteCheckpoint(const DocPtr& doc, uint64_t* version_out);

  void CheckpointerLoop();
  void EnqueueCheckpoint(std::string name);

  WalOptions options_;
  service::DocumentStore* store_ = nullptr;
  service::WritePipeline* pipeline_ = nullptr;
  bool attached_ = false;
  bool opened_ = false;

  obs::Registry owned_registry_;
  obs::Registry* registry_ = nullptr;
  obs::Counter* records_ = nullptr;
  obs::Counter* bytes_ = nullptr;
  obs::Counter* fsyncs_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* fsync_errors_ = nullptr;
  obs::Counter* checkpoints_ = nullptr;
  obs::Counter* snapshot_records_ = nullptr;
  obs::Counter* syncs_ = nullptr;
  obs::Counter* snapshot_syncs_ = nullptr;
  obs::Counter* recovered_docs_ = nullptr;
  obs::Counter* replayed_records_ = nullptr;
  obs::Histogram* append_us_ = nullptr;
  obs::Histogram* fsync_us_ = nullptr;
  obs::Histogram* fsync_wait_us_ = nullptr;
  obs::Histogram* checkpoint_us_ = nullptr;
  obs::Histogram* replay_us_ = nullptr;

  std::mutex mu_;
  std::map<std::string, DocPtr> docs_;

  std::mutex ckpt_mu_;
  std::condition_variable ckpt_cv_;
  std::deque<std::string> ckpt_queue_;
  bool stop_ = false;  // guarded by ckpt_mu_

  std::thread checkpointer_;
};

}  // namespace cxml::wal

#endif  // CXML_WAL_MANAGER_H_
