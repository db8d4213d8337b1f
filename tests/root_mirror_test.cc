// Root mirrors of the fine-grained design: every memory server other than
// the root's holds a copy of the root page, and each uncached descent reads
// the copy its client id names, so the root's READs spread over all NICs.
// These tests pin the load-time copies, the spread itself, the refresh on
// every root change (under concurrency, a crashed refresher and a dead
// mirror server), that co-located clients read the copy on their own
// machine, and that routing never depends on a mirror being fresh.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "btree/page.h"
#include "common/metrics.h"
#include "index/fine_grained.h"
#include "index/inspector.h"
#include "nam/cluster.h"
#include "ycsb/runner.h"
#include "ycsb/workload.h"

namespace namtree::index {
namespace {

using btree::Key;
using btree::KV;
using btree::Value;
using nam::ClientContext;
using nam::Cluster;
using sim::Spawn;
using sim::Task;

constexpr uint32_t kServers = 4;
constexpr uint32_t kPage = 256;

std::vector<KV> EvenKeys(uint64_t n) {
  std::vector<KV> data;
  data.reserve(n);
  for (uint64_t i = 0; i < n; ++i) data.push_back({i * 2, i});
  return data;
}

IndexConfig SmallPages() {
  IndexConfig ic;
  ic.page_size = kPage;
  return ic;
}

const uint8_t* PageAt(Cluster& cluster, rdma::RemotePtr ptr) {
  return cluster.fabric().region(ptr.server_id())->at(ptr.offset());
}

/// READs executed at `server` in a `server.verbs` sample set.
uint64_t ServerReads(const std::vector<metrics::FamilySample>& families,
                     uint32_t server) {
  for (const metrics::FamilySample& family : families) {
    if (family.name != "server.verbs") continue;
    for (const auto& [labels, value] : family.values) {
      if (labels[0] == std::to_string(server) && labels[1] == "read") {
        return value;
      }
    }
  }
  return 0;
}

Task<> LookupAll(FineGrainedIndex& index, ClientContext& ctx,
                 std::vector<Key> keys, uint64_t* found, uint64_t* done) {
  for (const Key key : keys) {
    const LookupResult r = co_await index.Lookup(ctx, key);
    if (r.found) (*found)++;
    (*done)++;
  }
}

TEST(RootMirrorTest, BulkLoadWritesOneMirrorPerOtherServer) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = kServers;
  Cluster cluster(fc, 64 << 20);
  FineGrainedIndex index(cluster, SmallPages());
  ASSERT_TRUE(index.BulkLoad(EvenKeys(20000)).ok());
  ASSERT_GE(index.root_level(), 1u);

  const rdma::RemotePtr root = index.root();
  const std::vector<rdma::RemotePtr>& mirrors = index.mirrors();
  ASSERT_EQ(mirrors.size(), kServers);
  uint32_t present = 0;
  for (uint32_t s = 0; s < kServers; ++s) {
    if (s == root.server_id()) {
      EXPECT_TRUE(mirrors[s].is_null());
      continue;
    }
    ASSERT_FALSE(mirrors[s].is_null()) << "server " << s;
    EXPECT_EQ(mirrors[s].server_id(), s);
    EXPECT_EQ(std::memcmp(PageAt(cluster, mirrors[s]), PageAt(cluster, root),
                          kPage),
              0)
        << "mirror on server " << s << " differs from the root";
    present++;
  }
  EXPECT_EQ(present, kServers - 1);

  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.stale_mirrors, 0u);
}

// Without mirrors the root's server serves every descent's first READ on
// top of its share of the lower levels. The tree is two inner levels high
// with dozens of level-1 pages, so the levels below the root spread evenly
// by placement alone.
TEST(RootMirrorTest, UniformLookupsSpreadReadsEvenlyOverServers) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = kServers;
  Cluster cluster(fc, 128 << 20);
  IndexConfig ic;
  ic.page_size = 1024;
  FineGrainedIndex index(cluster, ic);
  const uint64_t keys = 120000;
  ASSERT_TRUE(index.BulkLoad(ycsb::GenerateDataset(keys)).ok());
  ASSERT_EQ(index.root_level(), 2u);
  ASSERT_GE(btree::PageView(const_cast<uint8_t*>(PageAt(cluster, index.root())),
                            ic.page_size)
                .count(),
            8 * kServers);

  ycsb::RunConfig run;
  run.num_clients = 240;
  run.warmup = 1 * kMillisecond;
  run.duration = 8 * kMillisecond;
  run.mix = ycsb::WorkloadA();
  const ycsb::RunResult result =
      ycsb::RunWorkload(cluster, index, keys, run);
  ASSERT_GT(result.ops(), 1000u);

  std::vector<uint64_t> reads;
  for (uint32_t s = 0; s < kServers; ++s) {
    reads.push_back(ServerReads(result.counters.families(), s));
  }
  const uint64_t lo = *std::min_element(reads.begin(), reads.end());
  const uint64_t hi = *std::max_element(reads.begin(), reads.end());
  ASSERT_GT(lo, 0u);
  EXPECT_LE(static_cast<double>(hi), 1.10 * static_cast<double>(lo))
      << "per-server READs " << reads[0] << " " << reads[1] << " "
      << reads[2] << " " << reads[3];
}

Task<> InsertKeys(FineGrainedIndex& index, ClientContext& ctx,
                  std::vector<Key> keys, uint64_t* ok) {
  for (const Key key : keys) {
    if ((co_await index.Insert(ctx, key, key + 1)).ok()) (*ok)++;
  }
}

TEST(RootMirrorTest, ConcurrentInsertsThatGrowTheRootKeepMirrorsFresh) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = kServers;
  Cluster cluster(fc, 64 << 20);
  FineGrainedIndex index(cluster, SmallPages());
  const uint64_t loaded = 60;
  ASSERT_TRUE(index.BulkLoad(EvenKeys(loaded)).ok());
  const uint8_t start_level = index.root_level();
  ASSERT_GE(start_level, 1u);

  // 16 writers interleave odd keys over and beyond the loaded range:
  // leaf splits fill the root's children, split them, and grow the root.
  constexpr uint32_t kWriters = 16;
  constexpr uint64_t kPerWriter = 160;
  cluster.fabric().SetNumClients(kWriters + 1);
  std::vector<std::unique_ptr<ClientContext>> ctxs;
  std::map<Key, Value> model;
  for (const KV& kv : EvenKeys(loaded)) model[kv.key] = kv.value;
  uint64_t inserted = 0;
  for (uint32_t c = 0; c < kWriters; ++c) {
    ctxs.push_back(
        std::make_unique<ClientContext>(c, cluster.fabric(), kPage, c + 1));
    std::vector<Key> keys;
    for (uint64_t i = 0; i < kPerWriter; ++i) {
      keys.push_back((i * kWriters + c) * 2 + 1);
      model[keys.back()] = keys.back() + 1;
    }
    Spawn(cluster.simulator(),
          InsertKeys(index, *ctxs.back(), std::move(keys), &inserted));
  }
  cluster.simulator().Run();
  ASSERT_EQ(inserted, kWriters * kPerWriter);
  EXPECT_GE(index.root_level(), start_level + 2)
      << "the workload must grow the root twice";
  // A grown root stays on the one server without a mirror.
  EXPECT_TRUE(index.mirrors()[index.root().server_id()].is_null());

  // Differential oracle: every key is found with its value, and a full
  // scan returns exactly the model.
  ClientContext reader(kWriters, cluster.fabric(), kPage, 99);
  struct Check {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     const std::map<Key, Value>& model,
                     std::vector<KV>* scan) {
      for (const auto& [key, value] : model) {
        const LookupResult r = co_await index.Lookup(ctx, key);
        EXPECT_TRUE(r.found) << "lookup(" << key << ")";
        EXPECT_EQ(r.value, value) << "lookup(" << key << ")";
      }
      (void)co_await index.Scan(ctx, 0, btree::kInfinityKey, scan);
    }
  };
  std::vector<KV> scan;
  Spawn(cluster.simulator(), Check::Go(index, reader, model, &scan));
  cluster.simulator().Run();
  ASSERT_EQ(scan.size(), model.size());
  auto it = model.begin();
  for (const KV& kv : scan) {
    EXPECT_EQ(kv.key, it->first);
    EXPECT_EQ(kv.value, it->second);
    ++it;
  }

  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.stale_mirrors, 0u) << report.ToString();
}

/// One single-client insert run that may crash at `crash_after` (0 = never)
/// followed by lookups of every key from one client per mirror. Returns the
/// verb counts around the first insert that refreshed the mirrors.
struct CrashRun {
  uint64_t refresh_begin = 0;  ///< client verbs before the refreshing op
  uint64_t refresh_end = 0;    ///< client verbs after it
  bool writer_died = false;
  bool hung = false;
  uint64_t expected = 0;       ///< keys that must be found
  uint64_t found = 0;
  IndexInspector::Report report;
};

CrashRun RunCrashInsideRefresh(uint64_t crash_after) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = kServers;
  if (crash_after > 0) fc.crash_points = {{0, crash_after}};
  Cluster cluster(fc, 64 << 20);
  FineGrainedIndex index(cluster, SmallPages());
  const uint64_t loaded = 60;
  EXPECT_TRUE(index.BulkLoad(EvenKeys(loaded)).ok());
  EXPECT_EQ(index.root_level(), 1u) << "every leaf split must hit the root";
  cluster.fabric().SetNumClients(1 + kServers);

  CrashRun out;
  const rdma::RemotePtr watched = index.mirrors()[
      index.root().server_id() == 0 ? 1 : 0];
  struct Writer {
    static Task<> Go(FineGrainedIndex& index, Cluster& cluster,
                     ClientContext& ctx, rdma::RemotePtr watched,
                     CrashRun* out, std::vector<Key>* durable) {
      const uint8_t* mirror = PageAt(cluster, watched);
      for (Key key = 1; key < 400; key += 2) {
        uint64_t version;
        std::memcpy(&version, mirror + btree::kVersionOffset, 8);
        const uint64_t before = cluster.fabric().client_verbs(0);
        // The leaf insert lands before any separator install, and a crash
        // inside the refresh that follows does not fail the insert.
        const Status status = co_await index.Insert(ctx, key, key + 1);
        if (status.ok()) durable->push_back(key);
        uint64_t after_version;
        std::memcpy(&after_version, mirror + btree::kVersionOffset, 8);
        if (out->refresh_end == 0 && after_version != version) {
          out->refresh_begin = before;
          out->refresh_end = cluster.fabric().client_verbs(0);
        }
        if (!status.ok()) co_return;
      }
    }
  };
  ClientContext writer(0, cluster.fabric(), kPage, 1);
  std::vector<Key> durable;
  Spawn(cluster.simulator(),
        Writer::Go(index, cluster, writer, watched, &out, &durable));
  cluster.simulator().Run();
  out.writer_died = !cluster.fabric().ClientAlive(0);

  // Lookups from clients 1..S, one per mirror (client id % S), never wait
  // on a mirror the dead refresher left locked.
  std::vector<Key> keys;
  for (const KV& kv : EvenKeys(loaded)) keys.push_back(kv.key);
  keys.insert(keys.end(), durable.begin(), durable.end());
  std::vector<std::unique_ptr<ClientContext>> readers;
  uint64_t done = 0;
  for (uint32_t c = 1; c <= kServers; ++c) {
    readers.push_back(
        std::make_unique<ClientContext>(c, cluster.fabric(), kPage, c));
    Spawn(cluster.simulator(),
          LookupAll(index, *readers.back(), keys, &out.found, &done));
  }
  out.hung = cluster.simulator().RunUntil(cluster.simulator().now() +
                                          1 * kSecond);
  out.expected = keys.size() * kServers;
  EXPECT_EQ(done, out.expected);
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
  out.report = IndexInspector::Inspect(cluster.fabric(), index);
  return out;
}

TEST(RootMirrorTest, CrashInsideARefreshLeavesLookupsCorrectAndLive) {
  const CrashRun dry = RunCrashInsideRefresh(0);
  ASSERT_GT(dry.refresh_end, 0u) << "no insert refreshed the mirrors";
  EXPECT_FALSE(dry.hung);
  EXPECT_EQ(dry.found, dry.expected);
  EXPECT_EQ(dry.report.stale_mirrors, 0u) << dry.report.ToString();

  // The refresh is the op's tail: per mirror one READ and one CAS to lock
  // it, one READ of the root and one {WRITE, unlock} chain. Crash on each
  // of those verbs in turn.
  const uint64_t refresh_verbs = 4 * (kServers - 1);
  ASSERT_GE(dry.refresh_end - dry.refresh_begin, refresh_verbs);
  for (uint64_t k = dry.refresh_end - refresh_verbs; k < dry.refresh_end;
       ++k) {
    SCOPED_TRACE("crash after verb " + std::to_string(k));
    const CrashRun run = RunCrashInsideRefresh(k);
    EXPECT_TRUE(run.writer_died);
    EXPECT_FALSE(run.hung) << "lookups waited on an orphaned mirror lock";
    EXPECT_EQ(run.found, run.expected);
    EXPECT_TRUE(run.report.ok()) << run.report.ToString();
  }
}

TEST(RootMirrorTest, DeadMirrorServerMovesItsHopsToALiveMirror) {
  // Reads at the root's server and at the live mirror below `mirror_server`
  // from `lookups` lookups by the client whose mirror lives on
  // `mirror_server`, with that server alive or killed.
  struct Outcome {
    uint64_t found = 0;
    uint64_t root_server_reads = 0;
    uint64_t mirror_server_reads = 0;
    uint64_t fallback_server_reads = 0;
  };
  uint32_t mirror_server = 0;
  uint32_t fallback_server = 0;
  const auto run = [&](bool kill) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = kServers;
    fc.replication_factor = 2;
    Cluster cluster(fc, 64 << 20);
    FineGrainedIndex index(cluster, SmallPages());
    const uint64_t keys = 20000;
    EXPECT_TRUE(index.BulkLoad(EvenKeys(keys)).ok());
    const uint32_t root_server = index.root().server_id();
    // A mirror server whose replicas do not live on the root's server, so
    // the root server's READ count moves only with the root hop.
    for (uint32_t s = 0; s < kServers; ++s) {
      if (s != root_server && (s + 1) % kServers != root_server) {
        mirror_server = s;
        break;
      }
    }
    // The next mirror below it; its pages fail over to the server above.
    fallback_server = mirror_server;
    do {
      fallback_server = (fallback_server + kServers - 1) % kServers;
    } while (fallback_server == root_server);
    cluster.fabric().SetNumClients(kServers);
    if (kill) cluster.fabric().KillServer(mirror_server);
    ClientContext ctx(mirror_server, cluster.fabric(), kPage, 7);
    std::vector<Key> lookups;
    for (Key k = 0; k < 2 * keys; k += 2 * keys / 200) lookups.push_back(k);
    const metrics::Snapshot begin = cluster.fabric().metrics().Collect();
    Outcome out;
    uint64_t done = 0;
    Spawn(cluster.simulator(), LookupAll(index, ctx, lookups, &out.found,
                                         &done));
    cluster.simulator().Run();
    EXPECT_EQ(done, lookups.size());
    EXPECT_EQ(out.found, lookups.size());
    const metrics::Delta window = metrics::Delta::Between(
        begin, cluster.fabric().metrics().Collect());
    out.root_server_reads = ServerReads(window.families(), root_server);
    out.mirror_server_reads = ServerReads(window.families(), mirror_server);
    out.fallback_server_reads =
        ServerReads(window.families(), fallback_server);
    return out;
  };
  const Outcome alive = run(false);
  const Outcome killed = run(true);
  const uint64_t lookups = alive.found;
  ASSERT_GT(lookups, 0u);
  ASSERT_NE(fallback_server, (mirror_server + 1) % kServers);
  EXPECT_GE(alive.mirror_server_reads, lookups) << "the mirror served no hop";
  EXPECT_EQ(killed.mirror_server_reads, 0u);
  EXPECT_EQ(killed.root_server_reads, alive.root_server_reads)
      << "a dead mirror's hops must not move to the primary root";
  EXPECT_EQ(killed.fallback_server_reads,
            alive.fallback_server_reads + lookups)
      << "each root hop must move to the next live mirror below";
}

TEST(RootMirrorTest, CoLocatedClientsReadTheRootCopyOnTheirOwnMachine) {
  // One memory server per machine and two clients per compute machine:
  // client c shares machine c / 2 with memory server c / 2, while its
  // client id alone names server c % 4.
  rdma::FabricConfig fc;
  fc.num_memory_servers = kServers;
  fc.colocate = true;
  fc.memory_servers_per_machine = 1;
  fc.clients_per_compute_machine = 2;
  Cluster cluster(fc, 64 << 20);
  FineGrainedIndex index(cluster, SmallPages());
  ASSERT_TRUE(index.BulkLoad(EvenKeys(20000)).ok());
  ASSERT_GE(index.root_level(), 1u);
  const uint32_t clients = 2 * kServers;
  cluster.fabric().SetNumClients(clients);

  std::vector<std::unique_ptr<ClientContext>> ctxs;
  uint64_t found = 0;
  uint64_t done = 0;
  std::vector<Key> lookups;
  for (Key k = 1000; k < 40000; k += 800) lookups.push_back(k);
  for (uint32_t c = 0; c < clients; ++c) {
    ctxs.push_back(
        std::make_unique<ClientContext>(c, cluster.fabric(), kPage, c + 1));
    ctxs.back()->trace().Enable(lookups.size());
    Spawn(cluster.simulator(),
          LookupAll(index, *ctxs.back(), lookups, &found, &done));
  }
  cluster.simulator().Run();
  ASSERT_EQ(done, clients * lookups.size());
  EXPECT_EQ(found, clients * lookups.size());

  // Without a cache every lookup starts with the root hop: one READ of the
  // root's copy, which must be on the client's own machine.
  for (uint32_t c = 0; c < clients; ++c) {
    const uint32_t local = c / fc.clients_per_compute_machine;
    const auto& spans = ctxs[c]->trace().ring();
    ASSERT_EQ(spans.size(), lookups.size()) << "client " << c;
    for (const metrics::SpanRecord& span : spans) {
      ASSERT_FALSE(span.events.empty());
      EXPECT_EQ(span.events.front().verb, metrics::TraceVerb::kRead);
      EXPECT_EQ(span.events.front().server, local)
          << "client " << c << " read the root off its machine";
    }
  }
}

}  // namespace
}  // namespace namtree::index
