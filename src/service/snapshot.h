#ifndef CXML_SERVICE_SNAPSHOT_H_
#define CXML_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "cmh/hierarchy.h"
#include "goddag/goddag.h"
#include "goddag/index_delta.h"
#include "goddag/snapshot_index.h"

namespace cxml::service {

/// One immutable published version of a named document. Readers pin a
/// snapshot with a `shared_ptr` and keep querying it even while writers
/// publish newer versions — snapshot isolation without reader locks.
/// The CMH arrives bundled because the GODDAG's bound CMH pointer must
/// outlive it (same lifetime contract as storage::LoadedGoddag).
///
/// Because the GODDAG never mutates after publication, the snapshot
/// also holds the one piece of per-version state the cold query path
/// needs: a goddag::SnapshotIndex, built on the first Index() call.
/// When the store handed this snapshot a patch base at publish (the
/// predecessor's built index plus the commit's edit delta), that build
/// *patches* the base — rebuilding only the pools the commit dirtied
/// and sharing the rest via shared_ptr — and falls back to the full
/// constructor when patching declines (wide edit, no base, failed
/// preconditions).
///
/// The index is immutable and handed out as `shared_ptr<const ...>`:
/// every request builds its own cheap evaluator over it, so any number
/// of threads query one version at once, and the pointer copy is the
/// only pin a reader needs. A superseded version's index lives exactly
/// as long as the last snapshot or reader holding it. Losing
/// write-pipeline clones never pay for an index: it is built on first
/// query against the *published* version, never at publish time.
struct DocumentSnapshot {
  std::string name;
  /// Monotonically increasing per document, starting at 1 on Register.
  uint64_t version = 0;
  /// Store-wide unique id assigned at Register and inherited by every
  /// published version: distinguishes a document from a later
  /// same-name re-registration (whose versions restart at 1), so stale
  /// transactions and cache entries can never cross that boundary.
  uint64_t generation = 0;
  /// Shared by every version of the document (edits never change it).
  std::shared_ptr<const cmh::ConcurrentHierarchies> cmh;
  std::unique_ptr<goddag::Goddag> goddag;

  /// How the index was produced, reported to the one Index() call that
  /// built it so its cost is attributed to exactly that request.
  struct IndexBuild {
    /// True only for the call that built the index.
    bool built = false;
    /// SnapshotIndex::Patch from the predecessor's index (false: full
    /// rebuild).
    bool patched = false;
    /// Wall-clock of the build or patch (µs).
    uint64_t us = 0;
    /// Pools the patch aliased from the predecessor (0 on rebuilds).
    uint64_t pools_shared = 0;
  };

  /// The structural index over `goddag`, built (or patched) by the
  /// first call and shared by every later one. Thread-safe; concurrent
  /// first calls wait for the one build. When this call built the
  /// index and `build` is non-null, *build describes the build.
  std::shared_ptr<const goddag::SnapshotIndex> Index(
      IndexBuild* build = nullptr) const;

  /// Called by DocumentStore::Publish on the *successor* snapshot,
  /// under the shard lock, before the swap: records the predecessor's
  /// built index (or its own inherited base, when the predecessor was
  /// never queried — deltas compose) plus the commit's edit delta, so
  /// the first cold query here can patch instead of rebuild.
  void AdoptPatchBase(const DocumentSnapshot& prev,
                      const goddag::IndexDelta& delta);

 private:
  /// Guards the lazy index and the patch plan it consumes.
  mutable std::mutex index_mu_;
  mutable std::shared_ptr<const goddag::SnapshotIndex> index_;
  /// Patch plan installed at publish (consumed by the first build).
  mutable std::shared_ptr<const goddag::SnapshotIndex> patch_base_;
  mutable goddag::IndexDelta pending_delta_;
};

using SnapshotPtr = std::shared_ptr<const DocumentSnapshot>;

}  // namespace cxml::service

#endif  // CXML_SERVICE_SNAPSHOT_H_
