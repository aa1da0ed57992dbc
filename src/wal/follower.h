#ifndef CXML_WAL_FOLLOWER_H_
#define CXML_WAL_FOLLOWER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "service/document_store.h"
#include "service/query_service.h"

namespace cxml::net {
class Client;
}  // namespace cxml::net

namespace cxml::wal {

struct FollowerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Pause between sync rounds once caught up; a round that shipped
  /// records polls again immediately.
  int poll_interval_ms = 50;
  /// Metric sink (cxml_repl_*); nullptr keeps a private registry.
  obs::Registry* registry = nullptr;
  /// Fault injection for the apply path (`follower.apply`: one record
  /// application fails and the round aborts — the next round retries
  /// from the follower's durable version). nullptr = no-op branch.
  fault::Injector* injector = nullptr;
};

struct FollowerStats {
  uint64_t rounds = 0;
  uint64_t records_applied = 0;
  uint64_t snapshot_loads = 0;
  /// Divergence resyncs: a record's base didn't match our version, so
  /// the document was dropped and re-bootstrapped from a snapshot.
  uint64_t resyncs = 0;
  uint64_t errors = 0;
  /// Last observed lag, microseconds (record wall clock → applied).
  uint64_t lag_us = 0;
};

/// The replication follower: tails a primary over CXP/1 `SYNC`,
/// applies every record through the local WritePipeline (snapshot
/// records register/replace the document at the record's version; ops
/// records replay as one grouped submission, reproducing the primary's
/// version sequence exactly), and lets the local server answer CXP/1
/// reads from its own DocumentStore. A follower with its own WalManager
/// logs what it applies: a bootstrap as a checkpoint at the primary's
/// version, ops records as ops records. Any divergence — a
/// base-version mismatch, a version that lands wrong — drops the local
/// copy and re-bootstraps from a snapshot record on the next round, so
/// the follower converges instead of wedging.
///
/// Run it against a read-only server (net::ServerOptions::read_only)
/// so local writers cannot fork the replica's history.
class Follower {
 public:
  /// `store`/`service` are the follower's own; both must outlive this
  /// object. Stop() (or destruction) joins the tailer thread.
  Follower(service::DocumentStore* store, service::QueryService* service,
           FollowerOptions options);
  ~Follower();

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  void Start();
  void Stop();

  /// Failover: stops tailing, runs a bounded best-effort final drain
  /// against the primary (usually dead by the time anyone promotes —
  /// an unreachable primary just ends the drain), and returns the
  /// version frontier: the max version across local documents, which
  /// PROMOTE reports to the caller. Idempotent; after it returns the
  /// follower never applies another remote record, so the new
  /// primary's history cannot be overwritten by a stale tail.
  Result<uint64_t> Promote();

  FollowerStats stats() const;

  /// Test/ops helper: blocks until `document` reaches at least
  /// `version` locally (or the timeout passes). Returns the reached
  /// version, 0 if the document never appeared.
  uint64_t WaitForVersion(const std::string& document, uint64_t version,
                          int timeout_ms);

 private:
  void Loop();
  /// One full pass over the primary's document list; returns true if
  /// any record shipped (poll again immediately). A transport failure
  /// closes the client (the loop reconnects next round).
  bool SyncRound(net::Client* client);
  /// Applies one document's batch; returns applied-record count.
  size_t SyncDocument(net::Client* client, const std::string& name);
  /// Drops the local copy of `name` through the pipeline.
  void RemoveLocal(const std::string& name);

  service::DocumentStore* store_;
  service::QueryService* service_;
  FollowerOptions options_;

  obs::Registry owned_registry_;
  obs::Registry* registry_ = nullptr;
  obs::Counter* rounds_ = nullptr;
  obs::Counter* records_applied_ = nullptr;
  obs::Counter* snapshot_loads_ = nullptr;
  obs::Counter* resyncs_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Gauge* lag_versions_ = nullptr;
  obs::Histogram* lag_us_ = nullptr;
  obs::Histogram* apply_us_ = nullptr;
  std::atomic<uint64_t> last_lag_us_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread tailer_;
};

}  // namespace cxml::wal

#endif  // CXML_WAL_FOLLOWER_H_
