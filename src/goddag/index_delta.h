#ifndef CXML_GODDAG_INDEX_DELTA_H_
#define CXML_GODDAG_INDEX_DELTA_H_

#include <cstddef>

namespace cxml::goddag {

/// An advisory summary of the structural edits applied to a GODDAG
/// clone since it branched from a published snapshot — the hint that
/// rides from edit::Editor through DocumentStore::Publish into the
/// successor snapshot so SnapshotIndex::Patch can be attempted.
///
/// The delta names no nodes: Patch derives the touched set from the
/// arena diff between the predecessor index and the new GODDAG
/// (NodeIds survive Goddag::Clone verbatim, so the arenas correspond
/// position-for-position). What the delta contributes is
/// **provenance** — its presence asserts the new GODDAG is a clone of
/// the snapshot the predecessor index was built over, which is exactly
/// the precondition the arena diff needs — plus the `wide` flag that
/// lets the editor veto patching early for bulk rewrites. Publishes
/// with no delta (Register, crash recovery, opaque kSnapshot applies)
/// take the full rebuild path by construction.
struct IndexDelta {
  /// Structural operations recorded (inserts + removes and their
  /// undo/redo re-applications, not attribute writes).
  size_t ops = 0;
  /// Set once `ops` passes kWideCap: the edit is too broad to be worth
  /// patching, so Patch refuses immediately and the snapshot rebuilds.
  bool wide = false;

  /// Past this many operations the per-pool bookkeeping cannot beat a
  /// full rebuild.
  static constexpr size_t kWideCap = 4096;

  void Touch() {
    if (++ops > kWideCap) wide = true;
  }

  void Clear() {
    ops = 0;
    wide = false;
  }

  /// Folds `other` in (composing deltas across an unbuilt intermediate
  /// version). Width saturates: once either side is wide, the merge is.
  void Merge(const IndexDelta& other) {
    ops += other.ops;
    wide = wide || other.wide || ops > kWideCap;
  }
};

}  // namespace cxml::goddag

#endif  // CXML_GODDAG_INDEX_DELTA_H_
