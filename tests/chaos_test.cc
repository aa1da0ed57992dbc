// Robustness end to end: randomized seeded fault schedules over a live
// primary + durable follower pair (zero acknowledged-commit loss,
// byte-identical convergence after PROMOTE), graceful drain on Stop,
// load shedding under queue pressure, and the FAULT admin verb.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/injector.h"
#include "goddag/builder.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "service/document_store.h"
#include "service/query_service.h"
#include "storage/binary.h"
#include "wal/follower.h"
#include "wal/log.h"
#include "wal/manager.h"
#include "workload/generator.h"

namespace cxml {
namespace {

constexpr size_t kContentChars = 3000;

const std::string& CorpusBytes() {
  static const std::string* bytes = [] {
    workload::GeneratorParams params;
    params.content_chars = kContentChars;
    auto corpus = workload::GenerateManuscript(params);
    EXPECT_TRUE(corpus.ok()) << corpus.status();
    auto g = goddag::Builder::Build(*corpus->doc);
    EXPECT_TRUE(g.ok()) << g.status();
    auto saved = storage::Save(*g);
    EXPECT_TRUE(saved.ok()) << saved.status();
    return new std::string(std::move(saved).value());
  }();
  return *bytes;
}

/// First offset >= `from` where an `a0` insert of length `len` fits.
size_t FindFreeA0Gap(const goddag::Goddag& g, size_t from, size_t len) {
  std::vector<Interval> taken;
  for (goddag::NodeId node : g.ElementsByTag("a0")) {
    taken.push_back(g.char_range(node));
  }
  size_t offset = from;
  while (offset + len <= g.content().size()) {
    bool collides = false;
    for (const Interval& t : taken) {
      if (offset < t.end && t.begin < offset + len) {
        offset = t.end;
        collides = true;
        break;
      }
    }
    if (!collides) return offset;
  }
  ADD_FAILURE() << "no free a0 gap of length " << len;
  return 0;
}

/// Ops for one fresh a0 annotation in a free gap of `store`'s "ms".
bool AnnotationOps(service::DocumentStore* store,
                   std::vector<net::EditOp>* ops) {
  auto snap = store->GetSnapshot("ms");
  if (!snap.ok()) return false;
  size_t offset = FindFreeA0Gap(*(*snap)->goddag, 0, 30);
  *ops = {net::EditOp::Select(offset, offset + 30),
          net::EditOp::Apply(2, "a0")};
  return true;
}

std::string SaveDoc(service::DocumentStore* store) {
  auto snap = store->GetSnapshot("ms");
  EXPECT_TRUE(snap.ok());
  auto bytes = storage::Save(*(*snap)->goddag);
  EXPECT_TRUE(bytes.ok());
  return std::move(bytes).value();
}

/// One store + service + recovered-and-attached WAL, torn down in
/// reverse-dependency order.
struct World {
  std::unique_ptr<service::DocumentStore> store;
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<wal::WalManager> wal;

  void Reset() {
    wal.reset();
    service.reset();
    store.reset();
  }
};

World MakeWorld(const std::string& data_dir, fault::Injector* injector) {
  World world;
  world.store = std::make_unique<service::DocumentStore>();
  world.service = std::make_unique<service::QueryService>(
      world.store.get(),
      service::QueryServiceOptions{/*num_threads=*/2,
                                   /*cache_capacity=*/64});
  wal::WalOptions options;
  options.data_dir = data_dir;
  options.injector = injector;
  world.wal = std::make_unique<wal::WalManager>(options);
  EXPECT_TRUE(world.wal->Open().ok());
  EXPECT_TRUE(world.wal->RecoverAll(world.store.get(), nullptr).ok());
  world.wal->Attach(world.store.get(), &world.service->pipeline());
  return world;
}

// --------------------------------------------------- seeded schedules

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_dir_ = ::testing::TempDir() + "chaos_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name();
  }

  std::string Dir(const std::string& tag, uint64_t seed) {
    std::string dir =
        base_dir_ + "_" + tag + "_" + std::to_string(seed);
    (void)wal::RemoveDirRecursive(dir + "/" + wal::EncodeDocDir("ms"));
    (void)wal::RemoveDirRecursive(dir);
    return dir;
  }

  /// Arms a seed-derived subset of the fault points. Every schedule is
  /// reproducible from its seed alone; the specific mix varies so 20
  /// seeds cover many combinations.
  static void ArmSchedule(uint64_t seed, fault::Injector* primary,
                          fault::Injector* follower) {
    std::mt19937_64 rng(seed);
    auto coin = [&rng](double p) {
      return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
    };
    if (coin(0.5)) {
      ASSERT_TRUE(primary->Arm("wal.fsync", "every:7").ok());
    }
    if (coin(0.5)) {
      ASSERT_TRUE(primary
                      ->Arm("wal.append_torn",
                            "once:" + std::to_string(rng() % 64))
                      .ok());
    }
    if (coin(0.4)) {
      ASSERT_TRUE(primary->Arm("net.read_drop", "prob:0.05").ok());
    }
    if (coin(0.4)) {
      ASSERT_TRUE(
          primary->Arm("net.write_stall_ms", "prob:0.10:15").ok());
    }
    if (coin(0.3)) {
      ASSERT_TRUE(primary->Arm("net.accept", "once").ok());
    }
    if (coin(0.6)) {
      ASSERT_TRUE(follower->Arm("follower.apply", "every:5").ok());
    }
  }

  /// One full chaos round: primary + durable follower under the seed's
  /// fault schedule, a retrying writer, then failover. Asserts zero
  /// acknowledged-commit loss across the promotion and byte-identical
  /// convergence of a fresh follower tailing the new primary.
  void RunSchedule(uint64_t seed) {
    SCOPED_TRACE("schedule seed " + std::to_string(seed));
    fault::Injector primary_faults(seed);
    fault::Injector follower_faults(seed + 1000);

    World primary = MakeWorld(Dir("p", seed), &primary_faults);
    ASSERT_TRUE(primary.store->RegisterBytes("ms", CorpusBytes()).ok());
    ASSERT_TRUE(primary.wal->EnsureRegistered("ms").ok());

    net::ServerOptions po;
    po.num_workers = 2;
    po.sync_source = primary.wal.get();
    po.injector = &primary_faults;
    net::Server pserver(primary.store.get(), primary.service.get(), po);
    ASSERT_TRUE(pserver.Start().ok());

    // The follower is durable (its own WAL): after promotion it seals
    // the inherited log and serves SYNC to the next generation.
    World replica = MakeWorld(Dir("f", seed), nullptr);
    wal::FollowerOptions fo;
    fo.port = pserver.port();
    fo.poll_interval_ms = 5;
    fo.injector = &follower_faults;
    auto follower = std::make_unique<wal::Follower>(
        replica.store.get(), replica.service.get(), fo);

    net::ServerOptions ro;
    ro.num_workers = 2;
    ro.read_only = true;
    ro.sync_source = replica.wal.get();
    ro.promote_handler = [&follower, &replica]() -> Result<uint64_t> {
      CXML_ASSIGN_OR_RETURN(uint64_t frontier, follower->Promote());
      CXML_RETURN_IF_ERROR(replica.wal->SealForPromotion());
      return frontier;
    };
    net::Server rserver(replica.store.get(), replica.service.get(), ro);
    ASSERT_TRUE(rserver.Start().ok());
    follower->Start();

    ArmSchedule(seed, &primary_faults, &follower_faults);

    // The writer under the storm. Only a response the client actually
    // saw succeed counts as acknowledged — a torn append, failed
    // fsync, or dropped connection surfaces as an error and the commit
    // (durable or not) is allowed to be lost.
    net::RetryPolicy policy;
    policy.seed = seed;
    policy.deadline_ms = 2000;
    auto connected =
        net::Client::Connect("127.0.0.1", pserver.port(), policy);
    ASSERT_TRUE(connected.ok()) << connected.status();
    net::Client writer = std::move(connected).value();

    uint64_t max_acked = 0;
    size_t acked = 0;
    for (int attempt = 0; attempt < 60 && acked < 5; ++attempt) {
      std::vector<net::EditOp> ops;
      if (!AnnotationOps(primary.store.get(), &ops)) break;
      auto version = writer.Edit("ms", ops);
      if (version.ok()) {
        ++acked;
        max_acked = std::max(max_acked, *version);
      }
      // Idempotent reads ride the same faults and retry transparently.
      (void)writer.Stat();
    }
    EXPECT_GE(acked, 3u) << "schedule starved the writer";
    ASSERT_GT(max_acked, 0u);

    // The storm ends; failover begins. Even seeds model a dead primary
    // (killed before PROMOTE, after replication caught up — an async
    // follower that never saw an acked commit cannot preserve it);
    // odd seeds promote away from a live one, where PROMOTE's final
    // drain pulls the tail itself.
    primary_faults.DisarmAll();
    follower_faults.DisarmAll();
    if (seed % 2 == 0) {
      EXPECT_GE(follower->WaitForVersion("ms", max_acked,
                                         /*timeout_ms=*/15000),
                max_acked);
      pserver.Stop();
    }

    auto rconnected = net::Client::Connect("127.0.0.1", rserver.port());
    ASSERT_TRUE(rconnected.ok()) << rconnected.status();
    net::Client rclient = std::move(rconnected).value();

    // Until promoted, the replica refuses writes.
    std::vector<net::EditOp> probe = {net::EditOp::Select(0, 10),
                                      net::EditOp::Apply(2, "a0")};
    EXPECT_FALSE(rclient.Edit("ms", probe).ok());

    auto frontier = rclient.Promote();
    ASSERT_TRUE(frontier.ok()) << frontier.status();
    // Zero acknowledged-commit loss across the failover.
    EXPECT_GE(*frontier, max_acked);

    // The promoted primary accepts writes and extends the history.
    uint64_t last = *frontier;
    for (int i = 0; i < 2; ++i) {
      std::vector<net::EditOp> ops;
      ASSERT_TRUE(AnnotationOps(replica.store.get(), &ops));
      auto version = rclient.Edit("ms", ops);
      ASSERT_TRUE(version.ok()) << version.status();
      EXPECT_GT(*version, last);
      last = *version;
    }

    // Byte-identical convergence: a fresh follower tailing the new
    // primary reaches the same version with the same bytes.
    service::DocumentStore observer_store;
    service::QueryService observer_service(
        &observer_store,
        service::QueryServiceOptions{/*num_threads=*/2,
                                     /*cache_capacity=*/64});
    wal::FollowerOptions oo;
    oo.port = rserver.port();
    oo.poll_interval_ms = 5;
    wal::Follower observer(&observer_store, &observer_service, oo);
    observer.Start();
    ASSERT_EQ(observer.WaitForVersion("ms", last, /*timeout_ms=*/15000),
              last);
    EXPECT_EQ(SaveDoc(replica.store.get()), SaveDoc(&observer_store));
    observer.Stop();

    std::string live_bytes = SaveDoc(replica.store.get());
    rserver.Stop();
    pserver.Stop();
    follower.reset();
    replica.Reset();

    if (seed <= 2) {
      // The promoted primary's own durability: a cold restart of the
      // follower-turned-primary recovers the post-promotion history
      // byte-identically (the sealed log plus the fresh epoch).
      World reborn = MakeWorld(Dir2("f", seed), nullptr);
      auto version = reborn.store->GetVersion("ms");
      ASSERT_TRUE(version.ok());
      EXPECT_EQ(*version, last);
      EXPECT_EQ(SaveDoc(reborn.store.get()), live_bytes);
      reborn.Reset();
    }
  }

  /// Dir() wipes; Dir2() only names (for reopening existing state).
  std::string Dir2(const std::string& tag, uint64_t seed) {
    return base_dir_ + "_" + tag + "_" + std::to_string(seed);
  }

  std::string base_dir_;
};

TEST_F(ChaosTest, TwentySeededSchedulesKeepEveryAckedCommit) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RunSchedule(seed);
    if (HasFatalFailure()) {
      // The seed in SCOPED_TRACE reproduces the failing schedule.
      return;
    }
  }
}

// ------------------------------------------------------ graceful drain

/// Reads CXP/1 frames off a raw socket until `n` have arrived.
std::vector<net::Response> ReadResponses(const net::Fd& fd,
                                         net::FrameDecoder* decoder,
                                         size_t n) {
  std::vector<net::Response> responses;
  char buffer[4096];
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (responses.size() < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::string payload;
    while (responses.size() < n && decoder->Next(&payload)) {
      auto parsed = net::ParseResponse(payload);
      EXPECT_TRUE(parsed.ok()) << parsed.status();
      if (parsed.ok()) responses.push_back(std::move(parsed).value());
    }
    if (responses.size() >= n) break;
    auto got = net::RecvSome(fd, buffer, sizeof(buffer));
    if (!got.ok() || *got == 0) break;
    EXPECT_TRUE(decoder->Feed(std::string_view(buffer, *got)).ok());
  }
  return responses;
}

TEST_F(ChaosTest, StopDrainsInFlightCommitsAndRejectsQueuedOnes) {
  fault::Injector faults(1);
  World world = MakeWorld(Dir("drain", 99), nullptr);
  ASSERT_TRUE(world.store->RegisterBytes("ms", CorpusBytes()).ok());
  ASSERT_TRUE(world.wal->EnsureRegistered("ms").ok());

  net::ServerOptions options;
  options.num_workers = 1;
  options.injector = &faults;
  net::Server server(world.store.get(), world.service.get(), options);
  ASSERT_TRUE(server.Start().ok());

  // Pipeline three EDITs on one raw connection. The injected stall
  // holds the worker after the first commit executes, so Stop() lands
  // while #1 is in flight and #2/#3 are queued-unstarted.
  ASSERT_TRUE(faults.Arm("net.write_stall_ms", "once:250").ok());
  auto connected = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::Fd fd = std::move(connected).value();

  auto snap = world.store->GetSnapshot("ms");
  ASSERT_TRUE(snap.ok());
  std::string wire;
  size_t offset = 0;
  for (int i = 0; i < 3; ++i) {
    offset = FindFreeA0Gap(*(*snap)->goddag, offset, 30);
    net::Request request;
    request.verb = net::Verb::kEdit;
    request.document = "ms";
    request.ops = {net::EditOp::Select(offset, offset + 30),
                   net::EditOp::Apply(2, "a0")};
    wire += net::EncodeFrame(net::RenderRequest(request));
    offset += 30;
  }
  ASSERT_TRUE(net::SendAll(fd, wire).ok());

  // Give the worker time to pop #1 and enter the stall, then Stop()
  // concurrently — exactly what the SIGTERM handler does.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  std::thread stopper([&server] { server.Stop(); });

  net::FrameDecoder decoder;
  std::vector<net::Response> responses = ReadResponses(fd, &decoder, 3);
  stopper.join();
  ASSERT_EQ(responses.size(), 3u);
  // The in-flight commit acked; the queued ones were rejected without
  // being executed.
  EXPECT_TRUE(responses[0].ok()) << responses[0].status;
  EXPECT_EQ(responses[0].version, 2u);
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(responses[i].status.code(), StatusCode::kUnavailable);
    EXPECT_NE(responses[i].status.message().find("retry_after_ms="),
              std::string::npos);
  }
  EXPECT_GE(server.stats().sheds, 2u);

  // No half-written WAL record: a cold restart recovers exactly the
  // acked commit.
  std::string live_bytes = SaveDoc(world.store.get());
  world.Reset();
  World reborn = MakeWorld(Dir2("drain", 99), nullptr);
  auto version = reborn.store->GetVersion("ms");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 2u);
  EXPECT_EQ(SaveDoc(reborn.store.get()), live_bytes);
  reborn.Reset();
}

// ------------------------------------------------------- load shedding

TEST(ShedTest, QueueBoundsShedWithRetryHintAndClientsRetryThrough) {
  service::DocumentStore store;
  ASSERT_TRUE(store.RegisterBytes("ms", CorpusBytes()).ok());
  service::QueryService service(
      &store, service::QueryServiceOptions{/*num_threads=*/2,
                                           /*cache_capacity=*/64});
  fault::Injector faults(1);
  net::ServerOptions options;
  options.num_workers = 1;
  options.max_queued_per_conn = 2;
  options.max_queued_global = 2;
  options.shed_retry_after_ms = 25;
  options.injector = &faults;
  net::Server server(&store, &service, options);
  ASSERT_TRUE(server.Start().ok());

  // Wedge the only worker, then pipeline five STATs: one executing
  // (stalled), two admitted, two shed — answered in pipeline order
  // with the retry hint, without being executed.
  ASSERT_TRUE(faults.Arm("net.write_stall_ms", "once:300").ok());
  auto connected = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::Fd fd = std::move(connected).value();
  net::Request stat;
  stat.verb = net::Verb::kStat;
  std::string one = net::EncodeFrame(net::RenderRequest(stat));
  ASSERT_TRUE(net::SendAll(fd, one).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  // The worker is now stalled inside #1; these four race nothing.
  ASSERT_TRUE(net::SendAll(fd, one + one + one + one).ok());

  // Meanwhile a well-behaved retrying client hits the global bound,
  // honours retry_after_ms, and succeeds once the queue drains.
  net::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.backoff_base_ms = 20;
  auto retrying =
      net::Client::Connect("127.0.0.1", server.port(), policy);
  ASSERT_TRUE(retrying.ok());
  auto stat_result = retrying->Stat();
  EXPECT_TRUE(stat_result.ok()) << stat_result.status();

  net::FrameDecoder decoder;
  std::vector<net::Response> responses = ReadResponses(fd, &decoder, 5);
  ASSERT_EQ(responses.size(), 5u);
  size_t ok = 0, shed = 0;
  for (const net::Response& response : responses) {
    if (response.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
      EXPECT_NE(response.status.message().find("retry_after_ms=25"),
                std::string::npos);
      ++shed;
    }
  }
  EXPECT_EQ(ok, 3u);
  EXPECT_EQ(shed, 2u);
  EXPECT_GE(server.stats().sheds, 2u);
  server.Stop();
}

// ---------------------------------------------------- FAULT admin verb

TEST(FaultVerbTest, ArmsListsAndDisarmsOverTheWire) {
  service::DocumentStore store;
  service::QueryService service(
      &store, service::QueryServiceOptions{/*num_threads=*/2,
                                           /*cache_capacity=*/64});
  fault::Injector faults(7);
  net::ServerOptions options;
  options.injector = &faults;
  net::Server server(&store, &service, options);
  ASSERT_TRUE(server.Start().ok());
  auto connected = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::Client client = std::move(connected).value();

  auto armed = client.Fault("ARM", "net.write_stall_ms", "every:2:5");
  ASSERT_TRUE(armed.ok()) << armed.status();
  // Unknown points and malformed specs fail loudly.
  EXPECT_FALSE(client.Fault("ARM", "no.such.point", "once").ok());
  EXPECT_FALSE(client.Fault("ARM", "wal.fsync", "prob:x").ok());

  auto listed = client.Fault("LIST");
  ASSERT_TRUE(listed.ok()) << listed.status();
  EXPECT_EQ(listed->version, 7u);  // the seed rides the version slot
  ASSERT_EQ(listed->items.size(), 1u);
  EXPECT_NE(listed->items[0].find("net.write_stall_ms"),
            std::string::npos);

  ASSERT_TRUE(client.Fault("SEED", "", "42").ok());
  auto reseeded = client.Fault("LIST");
  ASSERT_TRUE(reseeded.ok());
  EXPECT_EQ(reseeded->version, 42u);

  EXPECT_TRUE(client.Fault("DISARM", "net.write_stall_ms").ok());
  EXPECT_FALSE(client.Fault("DISARM", "net.write_stall_ms").ok());
  ASSERT_TRUE(client.Fault("ARM", "net.read_drop", "prob:0.5").ok());
  ASSERT_TRUE(client.Fault("CLEAR").ok());
  auto cleared = client.Fault("LIST");
  ASSERT_TRUE(cleared.ok());
  EXPECT_TRUE(cleared->items.empty());
  server.Stop();
}

TEST(FaultVerbTest, UnimplementedWithoutInjectorAndPromoteNeedsHandler) {
  service::DocumentStore store;
  service::QueryService service(
      &store, service::QueryServiceOptions{/*num_threads=*/2,
                                           /*cache_capacity=*/64});
  net::ServerOptions options;  // no injector, no promote handler
  net::Server server(&store, &service, options);
  ASSERT_TRUE(server.Start().ok());
  auto connected = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::Client client = std::move(connected).value();

  auto fault = client.Fault("LIST");
  EXPECT_EQ(fault.status().code(), StatusCode::kUnimplemented);
  // A born-primary refuses PROMOTE: there is no follower to promote.
  auto promoted = client.Promote();
  EXPECT_EQ(promoted.status().code(), StatusCode::kFailedPrecondition);
  server.Stop();
}

}  // namespace
}  // namespace cxml
