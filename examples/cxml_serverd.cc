// cxml_serverd: the CXP/1 daemon — the repo as a runnable server
// instead of a library. Registers documents (CXG1 snapshot files
// and/or a generated synthetic manuscript), then serves QUERY / EDIT /
// REGISTER / REMOVE / LIST / STAT to remote clients until SIGINT or
// SIGTERM.
//
// Usage:
//   cxml_serverd [--port N] [--bind ADDR] [--workers N]
//                [--content-chars N] [--doc NAME] [--load NAME=FILE]...
//                [--no-register] [--slow-query-us N]
//                [--trace-sample-every N] [--trace-ring N]
//                [--data-dir PATH] [--checkpoint-every N]
//                [--follow HOST:PORT]
//                [--fault POINT=SPEC]... [--fault-seed N]
//
// Defaults serve the synthetic manuscript as document "ms" on an
// ephemeral 127.0.0.1 port (printed on stdout as "listening on
// HOST:PORT", which is what the CI smoke test and scripts key on).
//
// Durability: --data-dir PATH arms the write-ahead log — every
// acknowledged commit is appended and fsynced to a per-document log
// under PATH before its ack, checkpointed to CXG1 in the background,
// and recovered on the next start (recovery wins over
// --content-chars/--load for documents it already knows). A WAL-armed
// server also answers the CXP/1 SYNC verb, which is what replication
// followers tail.
//
// Replication: --follow HOST:PORT runs this process as a read-only
// follower of the primary at HOST:PORT — it applies the primary's WAL
// records through its own write pipeline and serves QUERY/LIST/STAT
// from its own store, while every mutating verb answers ERR. Follow
// mode registers no local documents. Combining --follow with
// --data-dir makes the follower durable: applied records land in its
// own WAL, which is what lets a PROMOTE (see cxml_client promote)
// seal the inherited history and carry on as a writable primary
// without losing the replicated state across its own restarts.
//
// Fault injection: --fault-seed N (or any --fault POINT=SPEC) attaches
// a fault::Injector, arms the given points at startup, and enables the
// CXP/1 FAULT admin verb for runtime arming. SPEC grammar: prob:P[:v],
// every:N[:v], once[:v], off (see src/fault/injector.h).
//
// Observability: METRICS serves the Prometheus-style exposition and
// TRACE the sampled per-request stage timings (see cxml_client
// metrics/trace). --slow-query-us N logs one structured line to
// stderr for every request slower than N µs end-to-end;
// --trace-sample-every keeps every Nth trace (0 disables tracing),
// --trace-ring bounds how many are retained.

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.h"
#include "goddag/builder.h"
#include "net/server.h"
#include "service/document_store.h"
#include "service/query_service.h"
#include "storage/binary.h"
#include "wal/follower.h"
#include "wal/manager.h"
#include "workload/generator.h"

namespace {

using namespace cxml;

std::atomic<bool> g_stop{false};

void HandleSignal(int /*sig*/) { g_stop.store(true); }

int Fail(const Status& st) {
  std::fprintf(stderr, "cxml_serverd: %s\n", st.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: cxml_serverd [--port N] [--bind ADDR] [--workers N]\n"
               "                    [--content-chars N] [--doc NAME]\n"
               "                    [--load NAME=FILE]... [--no-register]\n"
               "                    [--slow-query-us N]\n"
               "                    [--trace-sample-every N] [--trace-ring N]\n"
               "                    [--data-dir PATH] [--checkpoint-every N]\n"
               "                    [--follow HOST:PORT]\n"
               "                    [--fault POINT=SPEC]... [--fault-seed N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  net::ServerOptions options;
  service::QueryServiceOptions service_options;
  wal::WalOptions wal_options;
  size_t content_chars = 20000;
  std::string synthetic_name = "ms";
  std::vector<std::pair<std::string, std::string>> loads;
  std::string follow_target;
  std::vector<std::pair<std::string, std::string>> fault_specs;
  uint64_t fault_seed = 0;
  bool fault_enabled = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.port = static_cast<uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--bind") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.bind_address = v;
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.num_workers = std::strtoul(v, nullptr, 10);
    } else if (arg == "--content-chars") {
      const char* v = next();
      if (v == nullptr) return Usage();
      content_chars = std::strtoul(v, nullptr, 10);
    } else if (arg == "--doc") {
      const char* v = next();
      if (v == nullptr) return Usage();
      synthetic_name = v;
    } else if (arg == "--load") {
      const char* v = next();
      if (v == nullptr) return Usage();
      std::string spec = v;
      size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) return Usage();
      loads.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--no-register") {
      options.allow_register = false;
    } else if (arg == "--slow-query-us") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.slow_query_us = std::strtoull(v, nullptr, 10);
    } else if (arg == "--trace-sample-every") {
      const char* v = next();
      if (v == nullptr) return Usage();
      service_options.trace_sample_every =
          static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--trace-ring") {
      const char* v = next();
      if (v == nullptr) return Usage();
      service_options.trace_ring_capacity = std::strtoul(v, nullptr, 10);
    } else if (arg == "--data-dir") {
      const char* v = next();
      if (v == nullptr) return Usage();
      wal_options.data_dir = v;
    } else if (arg == "--checkpoint-every") {
      const char* v = next();
      if (v == nullptr) return Usage();
      wal_options.checkpoint_every_records = std::strtoull(v, nullptr, 10);
    } else if (arg == "--follow") {
      const char* v = next();
      if (v == nullptr) return Usage();
      follow_target = v;
    } else if (arg == "--fault") {
      const char* v = next();
      if (v == nullptr) return Usage();
      std::string spec = v;
      size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        return Usage();
      }
      fault_specs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
      fault_enabled = true;
    } else if (arg == "--fault-seed") {
      const char* v = next();
      if (v == nullptr) return Usage();
      fault_seed = std::strtoull(v, nullptr, 10);
      fault_enabled = true;
    } else {
      return Usage();
    }
  }

  wal::FollowerOptions follower_options;
  if (!follow_target.empty()) {
    size_t colon = follow_target.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == follow_target.size()) {
      return Usage();
    }
    follower_options.host = follow_target.substr(0, colon);
    follower_options.port = static_cast<uint16_t>(
        std::strtoul(follow_target.c_str() + colon + 1, nullptr, 10));
    // The replica's history is the primary's: reject local writers.
    options.read_only = true;
    options.allow_register = false;
  }

  service::DocumentStore store;
  service_options.num_threads = options.num_workers;
  service::QueryService service(&store, service_options);

  // The injector shares the service's registry (cxml_fault_* ride in
  // METRICS) and must outlive everything that checks its points — the
  // WAL, the server, and the follower are all declared after it.
  std::optional<fault::Injector> injector;
  if (fault_enabled) {
    injector.emplace(fault_seed == 0 ? 1 : fault_seed, service.registry());
    for (const auto& [point, spec] : fault_specs) {
      Status armed = injector->Arm(point, spec);
      if (!armed.ok()) return Fail(armed.WithContext("--fault"));
    }
    options.injector = &*injector;
    wal_options.injector = &*injector;
    std::printf("fault injection armed (seed %llu, %zu points)\n",
                static_cast<unsigned long long>(injector->seed()),
                fault_specs.size());
  }

  // The WAL shares the service's registry so METRICS is the one
  // exposition surface; it must be destroyed before the service (it
  // detaches from the pipeline first), hence declared after it.
  std::optional<wal::WalManager> wal;
  if (!wal_options.data_dir.empty()) {
    wal_options.registry = service.registry();
    wal.emplace(wal_options);
    Status opened = wal->Open();
    if (!opened.ok()) return Fail(opened);
    wal::RecoveryStats recovery;
    Status recovered = wal->RecoverAll(&store, &recovery);
    if (!recovered.ok()) return Fail(recovered.WithContext("WAL recovery"));
    std::printf(
        "recovered %llu documents in %.1f ms (%llu checkpoints, %llu "
        "records replayed, %llu skipped)\n",
        static_cast<unsigned long long>(recovery.docs_recovered),
        recovery.total_ms,
        static_cast<unsigned long long>(recovery.checkpoints_loaded),
        static_cast<unsigned long long>(recovery.records_replayed),
        static_cast<unsigned long long>(recovery.records_skipped));
  }

  // Seed documents — recovered state wins over regeneration: a WAL
  // restart must resume the logged history, not reset it.
  if (follow_target.empty() && content_chars > 0 &&
      !store.GetVersion(synthetic_name).ok()) {
    workload::GeneratorParams params;
    params.content_chars = content_chars;
    auto corpus = workload::GenerateManuscript(params);
    if (!corpus.ok()) return Fail(corpus.status());
    auto g = goddag::Builder::Build(*corpus->doc);
    if (!g.ok()) return Fail(g.status());
    auto bytes = storage::Save(*g);
    if (!bytes.ok()) return Fail(bytes.status());
    Status registered = store.RegisterBytes(synthetic_name, *bytes);
    if (!registered.ok()) return Fail(registered);
  }
  for (const auto& [name, path] : loads) {
    if (store.GetVersion(name).ok()) continue;  // recovered
    Status registered = store.RegisterFromFile(name, path);
    if (!registered.ok()) {
      return Fail(registered.WithContext("loading '" + path + "'"));
    }
  }

  if (wal.has_value()) {
    // From here on every pipeline publish is durable before its
    // submitter is acked; pre-attach documents get their initial
    // checkpoint explicitly.
    wal->Attach(&store, &service.pipeline());
    for (const std::string& name : store.ListDocuments()) {
      Status ensured = wal->EnsureRegistered(name);
      if (!ensured.ok()) {
        return Fail(ensured.WithContext("checkpointing '" + name + "'"));
      }
    }
    options.sync_source = &*wal;
  }

  // Declared before the server so the PROMOTE handler can reference
  // it (and so the server — destroyed first — can never dispatch into
  // a dead follower).
  std::optional<wal::Follower> follower;
  if (!follow_target.empty()) {
    // PROMOTE: drain the replication tail, seal the inherited WAL (if
    // one is attached) with a promotion record, and only then let the
    // server open writes. Runs on a server worker thread.
    options.promote_handler = [&follower, &wal]() -> Result<uint64_t> {
      if (!follower.has_value()) {
        return status::FailedPrecondition("no follower to promote");
      }
      CXML_ASSIGN_OR_RETURN(uint64_t frontier, follower->Promote());
      if (wal.has_value()) {
        CXML_RETURN_IF_ERROR(wal->SealForPromotion());
      }
      std::printf("promoted to primary at version frontier %llu\n",
                  static_cast<unsigned long long>(frontier));
      std::fflush(stdout);
      return frontier;
    };
  }

  net::Server server(&store, &service, options);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);

  if (!follow_target.empty()) {
    follower_options.registry = service.registry();
    follower_options.injector =
        injector.has_value() ? &*injector : nullptr;
    follower.emplace(&store, &service, follower_options);
    follower->Start();
    std::printf("following %s:%u\n", follower_options.host.c_str(),
                follower_options.port);
  }

  std::printf("listening on %s:%u\n", options.bind_address.c_str(),
              server.port());
  for (const std::string& name : store.ListDocuments()) {
    auto version = store.GetVersion(name);
    std::printf("serving '%s' at version %llu\n", name.c_str(),
                static_cast<unsigned long long>(version.value_or(0)));
  }
  std::fflush(stdout);

  signal(SIGINT, HandleSignal);
  signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  if (follower.has_value()) follower->Stop();
  net::ServerStats stats = server.stats();
  server.Stop();
  if (wal.has_value()) {
    wal->Detach();
    Status flushed = wal->Flush();
    if (!flushed.ok()) {
      std::fprintf(stderr, "cxml_serverd: final flush: %s\n",
                   flushed.ToString().c_str());
    }
  }
  std::printf(
      "shutting down: %llu connections, %llu frames, %llu responses, "
      "%llu protocol errors, %llu request errors\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.frames_received),
      static_cast<unsigned long long>(stats.responses_sent),
      static_cast<unsigned long long>(stats.protocol_errors),
      static_cast<unsigned long long>(stats.request_errors));
  return 0;
}
