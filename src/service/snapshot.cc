#include "service/snapshot.h"

#include <chrono>
#include <utility>

namespace cxml::service {

std::shared_ptr<const goddag::SnapshotIndex> DocumentSnapshot::Index(
    IndexBuild* build) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  if (index_ != nullptr) return index_;
  auto start = std::chrono::steady_clock::now();
  goddag::SnapshotIndex::PatchStats pstats;
  if (patch_base_ != nullptr) {
    index_ = goddag::SnapshotIndex::Patch(*patch_base_, *goddag,
                                          pending_delta_, &pstats);
  }
  bool patched = index_ != nullptr;
  if (!patched) {
    index_ = std::make_shared<const goddag::SnapshotIndex>(*goddag);
  }
  // The base did its job (or never will): drop it so the predecessor's
  // pools aren't pinned beyond what the patched index itself shares.
  patch_base_.reset();
  pending_delta_.Clear();
  if (build != nullptr) {
    build->built = true;
    build->patched = patched;
    build->us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    build->pools_shared = patched ? pstats.pools_shared : 0;
  }
  return index_;
}

void DocumentSnapshot::AdoptPatchBase(const DocumentSnapshot& prev,
                                      const goddag::IndexDelta& delta) {
  // Runs before this snapshot is visible to any reader, so its own
  // members need no lock; prev's do (a cold query may be building
  // prev's index right now).
  std::lock_guard<std::mutex> lock(prev.index_mu_);
  if (delta.wide) return;
  if (prev.index_ != nullptr) {
    patch_base_ = prev.index_;
    pending_delta_ = delta;
    return;
  }
  if (prev.patch_base_ != nullptr) {
    // The predecessor was never queried: inherit ITS base and compose
    // the deltas, so a run of quiet commits still patches from the
    // last index actually built. Width saturates in Merge; the arena
    // diff inside Patch stays exact across the skipped versions.
    goddag::IndexDelta composed = prev.pending_delta_;
    composed.Merge(delta);
    if (composed.wide) return;
    patch_base_ = prev.patch_base_;
    pending_delta_ = std::move(composed);
  }
}

}  // namespace cxml::service
