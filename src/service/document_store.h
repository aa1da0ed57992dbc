#ifndef CXML_SERVICE_DOCUMENT_STORE_H_
#define CXML_SERVICE_DOCUMENT_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "edit/session.h"
#include "service/snapshot.h"
#include "storage/binary.h"

namespace cxml::service {

class DocumentStore;

/// A copy-on-write edit over one document: `BeginEdit` clones the
/// current snapshot (the structural storage::Clone — the copy shares
/// the snapshot's storage chunks and copies one the first time it
/// writes it; no serializer round trip), the caller mutates the
/// private copy through the prevalidating `edit::EditSession`, and
/// WritePipeline::SubmitCommit publishes it as the next version.
/// Readers holding the old snapshot are never blocked and never
/// observe partial edits.
///
/// Only the pipeline commits, so every publish reaches its commit sink.
/// Commit is optimistic: it fails with kFailedPrecondition when another
/// write published a newer version since `BeginEdit` (first committer
/// wins), and a loser's session never commits. `EditSession::Commit`
/// fires only after a successful publish: hooks the caller layered on
/// observe the commit, and a hook registered at commit time relays the
/// exact published version to the store's version listeners (cache
/// invalidation).
class EditTransaction {
 public:
  /// Built by DocumentStore::BeginEdit.
  EditTransaction(DocumentStore* store, std::string name,
                  uint64_t base_version, uint64_t generation,
                  storage::LoadedGoddag copy, edit::EditSession session)
      : store_(store),
        name_(std::move(name)),
        base_version_(base_version),
        generation_(generation),
        copy_(std::move(copy)),
        session_(std::make_unique<edit::EditSession>(std::move(session))) {}
  EditTransaction(EditTransaction&&) = default;
  EditTransaction& operator=(EditTransaction&&) = default;

  const std::string& document() const { return name_; }
  /// The version this transaction branched from.
  uint64_t base_version() const { return base_version_; }

  /// The prevalidating session over the private copy.
  edit::EditSession& session() { return *session_; }
  const goddag::Goddag& goddag() const { return session_->goddag(); }

 private:
  friend class WritePipeline;

  /// Publishes the private copy as the document's next version and
  /// returns the published snapshot. Consumes the transaction on
  /// success: the session is released, because its GODDAG became the
  /// published (immutable, concurrently read) snapshot.
  Result<SnapshotPtr> Commit();

  DocumentStore* store_;
  std::string name_;
  uint64_t base_version_;
  uint64_t generation_;
  storage::LoadedGoddag copy_;
  // unique_ptr so the Editor's Goddag* stays valid across moves.
  std::unique_ptr<edit::EditSession> session_;
};

/// Registry of named GODDAG documents behind versioned copy-on-write
/// snapshots — the serving layer's single entry point to the library's
/// single-threaded engines. All methods are thread-safe.
///
/// The registry is sharded by document-name hash (16 shards, each its
/// own mutex + map), so a hot document's GetSnapshot/BeginEdit/Publish
/// traffic only contends with names in the same shard instead of
/// serializing the whole store. ListDocuments stays correct across
/// shards: it collects per shard and returns one globally sorted list
/// (the same order the pre-sharding single std::map produced).
class DocumentStore {
 public:
  DocumentStore() = default;
  DocumentStore(const DocumentStore&) = delete;
  DocumentStore& operator=(const DocumentStore&) = delete;

  /// Registers a loaded document (e.g. from storage::Load) and
  /// notifies version listeners with the initial version. Normal
  /// registrations start at version 1; crash recovery (wal::WalManager)
  /// resumes a document at its last logged version so the version
  /// sequence — and everything keyed on it, caches and replication
  /// alike — survives a restart. Returns the published snapshot.
  /// Direct calls serve stores without a durability log and recovery
  /// itself; a store with a WAL attached registers and removes through
  /// WritePipeline::SubmitRegister / SubmitRemove, whose commit sink is
  /// the log's only input.
  Result<SnapshotPtr> Register(const std::string& name,
                               storage::LoadedGoddag doc,
                               uint64_t initial_version = 1);
  /// Loads a `CXG1` snapshot (storage/binary) and registers it.
  Status RegisterBytes(const std::string& name, std::string_view bytes);
  Status RegisterFromFile(const std::string& name, const std::string& path);

  /// Pins the current snapshot. The returned pointer stays valid (and
  /// immutable) for as long as the caller holds it.
  Result<SnapshotPtr> GetSnapshot(const std::string& name) const;
  Result<uint64_t> GetVersion(const std::string& name) const;
  std::vector<std::string> ListDocuments() const;
  /// Unregisters a document and notifies version listeners with
  /// UINT64_MAX so caches drop every version of it (a later Register
  /// under the same name restarts at version 1).
  Status Remove(const std::string& name);

  /// Starts a copy-on-write edit from the current snapshot.
  Result<EditTransaction> BeginEdit(const std::string& name);

  /// Called after every published version with (document, new version).
  /// Returns an id for RemoveVersionListener. Listeners run on the
  /// committing thread under the listener mutex — they must not call
  /// back into Add/RemoveVersionListener. RemoveVersionListener blocks
  /// until any in-flight notification finishes, so after it returns the
  /// listener will never run again (safe to destroy its captures).
  using VersionListener =
      std::function<void(const std::string& name, uint64_t version)>;
  uint64_t AddVersionListener(VersionListener listener);
  void RemoveVersionListener(uint64_t id);

 private:
  friend class EditTransaction;

  /// Publishes `doc` as the next version of `name` iff the document is
  /// still the same registration (`generation`) at version
  /// `base_version` — a same-name re-registration (versions restart at
  /// 1) must fail a stale transaction, not absorb it. Does not notify:
  /// notification is driven by the edit session's commit hooks (see
  /// EditTransaction::Commit) so cache invalidation is observably tied
  /// to EditSession::Commit.
  ///
  /// `delta` is the committing session's structural edit summary: under
  /// the shard lock the new snapshot adopts the predecessor's index as a
  /// patch base keyed by it. A registered or recovered version has no
  /// predecessor, so its first cold query takes a full rebuild.
  Result<SnapshotPtr> Publish(const std::string& name, uint64_t base_version,
                              uint64_t generation, storage::LoadedGoddag* doc,
                              const goddag::IndexDelta& delta);
  void NotifyListeners(const std::string& name, uint64_t version);

  static constexpr size_t kNumShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, SnapshotPtr> docs;
  };
  Shard& ShardFor(const std::string& name) const {
    return shards_[std::hash<std::string>()(name) % kNumShards];
  }

  mutable std::array<Shard, kNumShards> shards_;
  /// Atomic (not per-shard) so generations stay store-wide unique —
  /// the ABA guard in Publish depends on that.
  std::atomic<uint64_t> next_generation_{1};

  /// Guards the listener table *and* spans each notification, giving
  /// RemoveVersionListener its quiescence guarantee.
  std::mutex listener_mu_;
  std::map<uint64_t, VersionListener> listeners_;
  uint64_t next_listener_id_ = 1;
};

}  // namespace cxml::service

#endif  // CXML_SERVICE_DOCUMENT_STORE_H_
