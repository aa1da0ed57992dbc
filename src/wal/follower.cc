#include "wal/follower.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "net/client.h"
#include "storage/binary.h"
#include "wal/manager.h"
#include "wal/record.h"

namespace cxml::wal {

namespace {

using SteadyClock = std::chrono::steady_clock;

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

}  // namespace

Follower::Follower(service::DocumentStore* store,
                   service::QueryService* service, FollowerOptions options)
    : store_(store), service_(service), options_(std::move(options)) {
  registry_ = options_.registry != nullptr ? options_.registry
                                           : &owned_registry_;
  rounds_ = registry_->GetCounter("cxml_repl_syncs_total");
  records_applied_ =
      registry_->GetCounter("cxml_repl_records_applied_total");
  snapshot_loads_ =
      registry_->GetCounter("cxml_repl_snapshot_resyncs_total");
  resyncs_ = registry_->GetCounter("cxml_repl_divergence_resyncs_total");
  errors_ = registry_->GetCounter("cxml_repl_errors_total");
  lag_versions_ = registry_->GetGauge("cxml_repl_lag_versions");
  lag_us_ = registry_->GetHistogram("cxml_repl_lag_us");
  apply_us_ = registry_->GetHistogram("cxml_repl_apply_us");
}

Follower::~Follower() { Stop(); }

void Follower::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  stop_.store(false);
  tailer_ = std::thread([this] { Loop(); });
}

void Follower::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_.store(true);
  }
  cv_.notify_all();
  if (tailer_.joinable()) tailer_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

Result<uint64_t> Follower::Promote() {
  // Step 1: stop the tailer so no remote record can land after the
  // frontier is computed (a stale tail applied post-promotion would
  // fork the new primary's history).
  Stop();
  // Stop() leaves stop_ set, and the sync machinery the drain below
  // reuses honours it; with the tailer joined it is safe to clear.
  stop_.store(false);
  // Step 2: bounded final drain — if the old primary is still
  // reachable, pull whatever SYNC tail it retains so as few acked
  // commits as possible are left behind. Failure here is expected
  // (promotion usually happens because the primary died) and not an
  // error: the drain is best-effort by design.
  auto connected = net::Client::Connect(options_.host, options_.port);
  if (connected.ok()) {
    net::Client client = std::move(connected).value();
    for (int round = 0; round < 8; ++round) {
      if (!client.connected() || !SyncRound(&client)) break;
      rounds_->Add();
    }
  }
  // Step 3: the frontier — the highest version any local document
  // reached — is what PROMOTE answers with.
  uint64_t frontier = 0;
  for (const std::string& name : store_->ListDocuments()) {
    if (auto version = store_->GetVersion(name); version.ok()) {
      frontier = std::max(frontier, *version);
    }
  }
  return frontier;
}

FollowerStats Follower::stats() const {
  FollowerStats stats;
  stats.rounds = rounds_->Value();
  stats.records_applied = records_applied_->Value();
  stats.snapshot_loads = snapshot_loads_->Value();
  stats.resyncs = resyncs_->Value();
  stats.errors = errors_->Value();
  stats.lag_us = last_lag_us_.load();
  return stats;
}

uint64_t Follower::WaitForVersion(const std::string& document,
                                  uint64_t version, int timeout_ms) {
  SteadyClock::time_point deadline =
      SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
  uint64_t reached = 0;
  for (;;) {
    auto local = store_->GetVersion(document);
    if (local.ok()) {
      reached = *local;
      if (reached >= version) return reached;
    }
    if (SteadyClock::now() >= deadline || stop_.load()) return reached;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void Follower::Loop() {
  std::optional<net::Client> client;
  while (!stop_.load()) {
    if (!client.has_value() || !client->connected()) {
      client.reset();
      auto connected = net::Client::Connect(options_.host, options_.port);
      if (connected.ok()) {
        client.emplace(std::move(connected).value());
      }
      // A refused connection just waits a poll interval: the primary
      // may simply not be up yet.
    }
    bool progress = false;
    if (client.has_value()) {
      progress = SyncRound(&*client);
      rounds_->Add();
    }
    if (progress && !stop_.load()) continue;  // drain the backlog hot
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock,
                 std::chrono::milliseconds(options_.poll_interval_ms),
                 [&] { return stop_.load(); });
  }
}

bool Follower::SyncRound(net::Client* client) {
  auto listed = client->List();
  if (!listed.ok()) {
    errors_->Add();
    return false;
  }
  std::set<std::string> primary_docs(listed->begin(), listed->end());

  // A document the primary no longer serves must disappear here too.
  for (const std::string& name : store_->ListDocuments()) {
    if (primary_docs.count(name) == 0) RemoveLocal(name);
  }

  bool progress = false;
  for (const std::string& name : primary_docs) {
    if (stop_.load() || !client->connected()) break;
    if (SyncDocument(client, name) > 0) progress = true;
  }
  return progress;
}

void Follower::RemoveLocal(const std::string& name) {
  // A removal the local log could not make durable leaves the document
  // in place; the next round retries it.
  if (!service_->pipeline().SubmitRemove(name).get().ok()) errors_->Add();
}

size_t Follower::SyncDocument(net::Client* client,
                              const std::string& name) {
  uint64_t local = 0;
  if (auto version = store_->GetVersion(name); version.ok()) {
    local = *version;
  }
  auto batch = client->Sync(name, local);
  if (!batch.ok()) {
    // NotFound (removed between LIST and SYNC) is an expected shape;
    // transport loss surfaces through connected() in the caller.
    if (client->connected() &&
        batch.status().code() != StatusCode::kNotFound) {
      errors_->Add();
    }
    return 0;
  }

  size_t applied = 0;
  for (const std::string& framed : batch->items) {
    if (fault::Injector::Check(options_.injector, "follower.apply")) {
      // Injected apply failure: abort the round before touching local
      // state; the next round re-requests from the durable version.
      errors_->Add();
      return applied;
    }
    auto record = DecodeRecord(framed);
    if (!record.ok()) {
      errors_->Add();
      break;  // corrupt batch: retry from our current version next round
    }
    if (record->type == Record::Type::kPromote) {
      // A promotion seal carries no document state — skip it. (The
      // primary's sync ring never holds one; tolerating them here
      // keeps mixed-version pairs safe.)
      continue;
    }
    SteadyClock::time_point apply_start = SteadyClock::now();
    if (record->type == Record::Type::kSnapshot) {
      auto loaded = storage::Load(record->snapshot);
      if (!loaded.ok()) {
        errors_->Add();
        break;
      }
      if (local != 0) RemoveLocal(name);
      service::EditResponse registered =
          service_->pipeline()
              .SubmitRegister(name, std::move(loaded).value(),
                              record->version)
              .get();
      if (!registered.ok()) {
        errors_->Add();
        break;
      }
      local = record->version;
      snapshot_loads_->Add();
    } else {
      if (record->base_version != local) {
        // Divergence (or a hole): drop the local copy; the next round
        // bootstraps from a snapshot record.
        RemoveLocal(name);
        resyncs_->Add();
        return applied;
      }
      // One grouped submission per record reproduces the primary's
      // version sequence exactly: one record, one local publish. The
      // record's op text rides along as wal_op_sets so a follower
      // with its own durability log relays replayable records.
      std::vector<std::string> op_sets = record->op_sets;
      service::EditResponse response =
          service_
              ->SubmitEdit(
                  name,
                  [op_sets](edit::EditSession& session) {
                    return ApplyOpSets(session, op_sets);
                  },
                  record->op_sets)
              .get();
      if (!response.ok() || response.version != record->version) {
        // Applied wrong (or a local writer interfered): resync.
        RemoveLocal(name);
        resyncs_->Add();
        errors_->Add();
        return applied;
      }
      local = record->version;
    }
    apply_us_->Observe(MicrosSince(apply_start));
    records_applied_->Add();
    ++applied;
    uint64_t now = NowWallMicros();
    uint64_t lag =
        now > record->wall_micros ? now - record->wall_micros : 0;
    lag_us_->Observe(static_cast<double>(lag));
    last_lag_us_.store(lag);
  }
  uint64_t behind = batch->version > local ? batch->version - local : 0;
  lag_versions_->Set(static_cast<int64_t>(behind));
  return applied;
}

}  // namespace cxml::wal
