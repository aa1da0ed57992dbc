#include "service/document_store.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/strings.h"

namespace cxml::service {

Result<SnapshotPtr> DocumentStore::Register(const std::string& name,
                                            storage::LoadedGoddag doc,
                                            uint64_t initial_version) {
  if (name.empty()) {
    return status::InvalidArgument("document name must not be empty");
  }
  if (doc.g == nullptr || doc.cmh == nullptr) {
    return status::InvalidArgument(
        StrCat("document '", name, "' has no GODDAG/CMH"));
  }
  if (initial_version == 0 ||
      initial_version == std::numeric_limits<uint64_t>::max()) {
    return status::InvalidArgument(
        StrCat("document '", name, "' initial version out of range"));
  }
  auto snap = std::make_shared<DocumentSnapshot>();
  snap->name = name;
  snap->version = initial_version;
  snap->cmh = std::move(doc.cmh);
  snap->goddag = std::move(doc.g);
  {
    Shard& shard = ShardFor(name);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.docs.count(name) != 0) {
      return status::AlreadyExists(
          StrCat("document '", name, "' is already registered"));
    }
    snap->generation = next_generation_.fetch_add(1);
    shard.docs.emplace(name, snap);
  }
  // Caches treat a fresh (name, initial_version) like any other new
  // version.
  NotifyListeners(name, initial_version);
  return SnapshotPtr(std::move(snap));
}

Status DocumentStore::RegisterBytes(const std::string& name,
                                    std::string_view bytes) {
  CXML_ASSIGN_OR_RETURN(storage::LoadedGoddag doc, storage::Load(bytes));
  return Register(name, std::move(doc)).status();
}

Status DocumentStore::RegisterFromFile(const std::string& name,
                                       const std::string& path) {
  CXML_ASSIGN_OR_RETURN(storage::LoadedGoddag doc,
                        storage::LoadFromFile(path));
  return Register(name, std::move(doc)).status();
}

Result<SnapshotPtr> DocumentStore::GetSnapshot(
    const std::string& name) const {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.docs.find(name);
  if (it == shard.docs.end()) {
    return status::NotFound(StrCat("document '", name, "' not registered"));
  }
  return it->second;
}

Result<uint64_t> DocumentStore::GetVersion(const std::string& name) const {
  CXML_ASSIGN_OR_RETURN(SnapshotPtr snap, GetSnapshot(name));
  return snap->version;
}

std::vector<std::string> DocumentStore::ListDocuments() const {
  // Shards are visited one lock at a time (no global freeze): the
  // result is a sorted union of per-shard point-in-time views, which
  // contains every document that was registered throughout the call
  // and never invents one that wasn't.
  std::vector<std::string> names;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [name, snap] : shard.docs) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

Status DocumentStore::Remove(const std::string& name) {
  // Released after the shard lock: freeing a version (GODDAG, CMH,
  // index) must not stall the shard's readers.
  SnapshotPtr removed;
  {
    Shard& shard = ShardFor(name);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.docs.find(name);
    if (it == shard.docs.end()) {
      return status::NotFound(
          StrCat("document '", name, "' not registered"));
    }
    removed = std::move(it->second);
    shard.docs.erase(it);
  }
  // Caches must drop every version: a later Register under the same
  // name restarts at version 1, and a (name, 1, query) entry from the
  // old document must not answer for the new one.
  NotifyListeners(name, std::numeric_limits<uint64_t>::max());
  return Status::Ok();
}

Result<EditTransaction> DocumentStore::BeginEdit(const std::string& name) {
  CXML_ASSIGN_OR_RETURN(SnapshotPtr snap, GetSnapshot(name));
  CXML_ASSIGN_OR_RETURN(storage::LoadedGoddag copy,
                        storage::Clone(*snap->goddag));
  CXML_ASSIGN_OR_RETURN(edit::EditSession session,
                        edit::EditSession::Start(copy.g.get()));
  return EditTransaction(this, name, snap->version, snap->generation,
                         std::move(copy), std::move(session));
}

Result<SnapshotPtr> DocumentStore::Publish(const std::string& name,
                                           uint64_t base_version,
                                           uint64_t generation,
                                           storage::LoadedGoddag* doc,
                                           const goddag::IndexDelta& delta) {
  // Declared before the lock so that it is destroyed after the lock is
  // released: dropping the predecessor (its GODDAG, CMH and any index
  // it did not hand on) must not stall the shard's readers.
  SnapshotPtr superseded;
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.docs.find(name);
  if (it == shard.docs.end()) {
    return status::NotFound(
        StrCat("document '", name, "' was removed during the edit"));
  }
  if (it->second->generation != generation) {
    return status::FailedPrecondition(
        StrCat("document '", name, "' was replaced during the edit"));
  }
  if (it->second->version != base_version) {
    return status::FailedPrecondition(StrFormat(
        "write conflict on '%s': base version %llu, current %llu",
        name.c_str(), static_cast<unsigned long long>(base_version),
        static_cast<unsigned long long>(it->second->version)));
  }
  auto snap = std::make_shared<DocumentSnapshot>();
  snap->name = name;
  snap->version = base_version + 1;
  snap->generation = generation;
  snap->cmh = std::move(doc->cmh);
  snap->goddag = std::move(doc->g);
  // Hand the predecessor's index to the successor as a patch base
  // (`doc` is a clone of the predecessor's GODDAG).
  snap->AdoptPatchBase(*it->second, delta);
  superseded = std::exchange(it->second, snap);
  return SnapshotPtr(std::move(snap));
}

uint64_t DocumentStore::AddVersionListener(VersionListener listener) {
  std::lock_guard<std::mutex> lock(listener_mu_);
  uint64_t id = next_listener_id_++;
  listeners_.emplace(id, std::move(listener));
  return id;
}

void DocumentStore::RemoveVersionListener(uint64_t id) {
  std::lock_guard<std::mutex> lock(listener_mu_);
  listeners_.erase(id);
}

void DocumentStore::NotifyListeners(const std::string& name,
                                    uint64_t version) {
  // Invoked under listener_mu_: a listener removed (or about to be
  // removed) on another thread is either fully run or never run — no
  // use-after-free window for listener captures during teardown.
  std::lock_guard<std::mutex> lock(listener_mu_);
  for (const auto& [id, listener] : listeners_) listener(name, version);
}

Result<SnapshotPtr> EditTransaction::Commit() {
  if (session_ == nullptr) {
    return status::FailedPrecondition("transaction already committed");
  }
  // Publish first: the session's commit sequence, its hooks, and the
  // pending-op drain all happen only for commits that became store
  // versions. A conflict leaves the session untouched.
  // The session's index delta rides along: the successor snapshot
  // patches this transaction's base index instead of rebuilding.
  CXML_ASSIGN_OR_RETURN(
      SnapshotPtr published,
      store_->Publish(name_, base_version_, generation_, &copy_,
                      session_->index_delta()));
  // Version-listener notification (cache invalidation) rides the
  // session's commit hooks, registered here — not in BeginEdit — so it
  // carries the exact published version and can never fire from a
  // session Commit that published nothing.
  session_->AddCommitHook(
      [store = store_, name = name_, version = published->version](
          uint64_t /*seq*/, const std::vector<std::string>& /*ops*/) {
        store->NotifyListeners(name, version);
      });
  session_->Commit();
  // The GODDAG now belongs to the published snapshot, which concurrent
  // readers treat as immutable — release the session so this
  // transaction can never mutate it.
  session_.reset();
  return published;
}

}  // namespace cxml::service
