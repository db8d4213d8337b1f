// Direct tests of the server-side B-link tree (the coarse-grained memory
// server component and the hybrid upper levels): coroutine OLC in virtual
// time, handler lock spins, hybrid FindLeafChild / InstallChildSeparator,
// and parity with the real-thread instantiation of the same core.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "btree/local_tree.h"
#include "index/server_tree.h"
#include "nam/cluster.h"
#include "rdma/remote_ptr.h"

namespace namtree::index {
namespace {

using btree::Key;
using btree::KV;
using btree::Value;
using nam::Cluster;
using sim::Spawn;
using sim::Task;

rdma::FabricConfig Config() {
  rdma::FabricConfig config;
  config.num_memory_servers = 1;
  return config;
}

std::vector<KV> MakeData(uint64_t n, Key stride = 2) {
  std::vector<KV> data;
  for (uint64_t i = 0; i < n; ++i) data.push_back({i * stride, i});
  return data;
}

TEST(ServerTreeTest, BuildProducesExpectedShape) {
  Cluster cluster(Config(), 64 << 20);
  ServerTree tree(cluster.memory_server(0), 256);
  const auto data = MakeData(10000);
  ASSERT_TRUE(tree.Build(data, 90).ok());
  const auto stats = tree.GetStats();
  EXPECT_EQ(stats.live_entries, 10000u);
  EXPECT_GE(stats.height, 3u);
  EXPECT_GT(stats.pages, 1000u);  // leaf capacity 10 at P=256
}

Task<> DoLookups(ServerTree& tree, std::vector<Key> keys,
                 std::vector<LookupResult>* out) {
  for (Key k : keys) out->push_back(co_await tree.Lookup(k));
}

TEST(ServerTreeTest, LookupHitsAndMisses) {
  Cluster cluster(Config(), 64 << 20);
  ServerTree tree(cluster.memory_server(0), 256);
  ASSERT_TRUE(tree.Build(MakeData(5000), 90).ok());
  std::vector<LookupResult> results;
  Spawn(cluster.simulator(),
        DoLookups(tree, {0, 2, 9998, 1, 10000}, &results));
  cluster.simulator().Run();
  EXPECT_TRUE(results[0].found);
  EXPECT_TRUE(results[1].found);
  EXPECT_EQ(results[1].value, 1u);
  EXPECT_TRUE(results[2].found);
  EXPECT_FALSE(results[3].found);
  EXPECT_FALSE(results[4].found);
}

Task<> InsertRange(ServerTree& tree, Key from, Key to, Key step) {
  for (Key k = from; k < to; k += step) {
    EXPECT_TRUE((co_await tree.Insert(k, k)).ok());
  }
}

TEST(ServerTreeTest, ConcurrentHandlerInsertsWithSplits) {
  Cluster cluster(Config(), 64 << 20);
  ServerTree tree(cluster.memory_server(0), 256);
  ASSERT_TRUE(tree.Build(MakeData(1000, 8), 90).ok());
  // 4 concurrent "handlers" insert into interleaved gap slots.
  for (Key offset = 1; offset <= 4; ++offset) {
    Spawn(cluster.simulator(),
          InsertRange(tree, offset, 8000 + offset, 8));
  }
  cluster.simulator().Run();

  struct Scan {
    static Task<> Go(ServerTree& tree, uint64_t* count) {
      *count = co_await tree.Scan(0, btree::kInfinityKey, nullptr);
    }
  };
  uint64_t count = 0;
  Spawn(cluster.simulator(), Scan::Go(tree, &count));
  cluster.simulator().Run();
  EXPECT_EQ(count, 1000u + 4u * 1000u);
  EXPECT_EQ(tree.GetStats().live_entries, 5000u);
}

TEST(ServerTreeTest, LockHoldersBlockConflictingWriters) {
  // Two inserts into the same (tiny) leaf must serialize; total virtual
  // time reflects the spin.
  Cluster cluster(Config(), 64 << 20);
  ServerTree tree(cluster.memory_server(0), 256);
  ASSERT_TRUE(tree.Build(MakeData(5), 90).ok());
  Spawn(cluster.simulator(), InsertRange(tree, 1, 2, 1));
  Spawn(cluster.simulator(), InsertRange(tree, 3, 4, 1));
  cluster.simulator().Run();
  EXPECT_EQ(tree.GetStats().live_entries, 7u);
}

TEST(ServerTreeTest, UpdateAndLookupAll) {
  Cluster cluster(Config(), 64 << 20);
  ServerTree tree(cluster.memory_server(0), 256);
  ASSERT_TRUE(tree.Build(MakeData(1000), 90).ok());

  struct Driver {
    static Task<> Go(ServerTree& tree) {
      EXPECT_TRUE((co_await tree.Update(100, 4242)).ok());
      const LookupResult r = co_await tree.Lookup(100);
      EXPECT_TRUE(r.found);
      EXPECT_EQ(r.value, 4242u);
      EXPECT_TRUE((co_await tree.Update(101, 1)).IsNotFound());

      // Duplicates spanning page boundaries (capacity 10 at P=256).
      for (uint64_t i = 0; i < 25; ++i) {
        EXPECT_TRUE((co_await tree.Insert(500, 9000 + i)).ok());
      }
      std::vector<btree::Value> values;
      EXPECT_EQ(co_await tree.LookupAll(500, &values), 26u);
      EXPECT_EQ(co_await tree.LookupAll(501, nullptr), 0u);
      // Update touches exactly one duplicate.
      EXPECT_TRUE((co_await tree.Update(500, 777)).ok());
      values.clear();
      (void)co_await tree.LookupAll(500, &values);
      EXPECT_EQ(std::count(values.begin(), values.end(),
                           btree::Value{777}),
                1);
    }
  };
  Spawn(cluster.simulator(), Driver::Go(tree));
  cluster.simulator().Run();
}

TEST(ServerTreeTest, DeleteAndCompact) {
  Cluster cluster(Config(), 64 << 20);
  ServerTree tree(cluster.memory_server(0), 256);
  ASSERT_TRUE(tree.Build(MakeData(2000), 90).ok());

  struct Driver {
    static Task<> Go(ServerTree& tree, uint64_t* reclaimed) {
      for (Key k = 0; k < 2000; k += 4) {
        EXPECT_TRUE((co_await tree.Delete(k * 2)).ok());
      }
      EXPECT_TRUE((co_await tree.Delete(99999)).IsNotFound());
      *reclaimed = co_await tree.Compact();
    }
  };
  uint64_t reclaimed = 0;
  Spawn(cluster.simulator(), Driver::Go(tree, &reclaimed));
  cluster.simulator().Run();
  EXPECT_EQ(reclaimed, 500u);
  EXPECT_EQ(tree.GetStats().tombstones, 0u);
  EXPECT_EQ(tree.GetStats().live_entries, 1500u);
}

// ---- Hybrid mode (remote leaf children) -------------------------------------

TEST(ServerTreeTest, HybridModeRoutesToChildren) {
  Cluster cluster(Config(), 64 << 20);
  ServerTree tree(cluster.memory_server(0), 256);
  // Fake remote children at lows 0,100,200,...: child ptr encodes the low.
  std::vector<ServerTree::ChildRef> children;
  for (uint64_t i = 0; i < 50; ++i) {
    children.push_back({i * 100, rdma::RemotePtr::Make(0, 4096 + i).raw()});
  }
  ASSERT_TRUE(tree.BuildOverChildren(children, 90).ok());

  struct Driver {
    static Task<> Go(ServerTree& tree, std::vector<uint64_t>* out) {
      out->push_back(co_await tree.FindLeafChild(0));
      out->push_back(co_await tree.FindLeafChild(99));
      out->push_back(co_await tree.FindLeafChild(100));
      out->push_back(co_await tree.FindLeafChild(101));
      out->push_back(co_await tree.FindLeafChild(4999));
      out->push_back(co_await tree.FindLeafChild(1u << 20));
    }
  };
  std::vector<uint64_t> out;
  Spawn(cluster.simulator(), Driver::Go(tree, &out));
  cluster.simulator().Run();
  EXPECT_EQ(rdma::RemotePtr(out[0]).offset(), 4096u);
  EXPECT_EQ(rdma::RemotePtr(out[1]).offset(), 4096u);
  // Key equal to a low fence may route to the left neighbour (lower-bound
  // descent + chain chase semantics); key strictly above routes right.
  EXPECT_LE(rdma::RemotePtr(out[2]).offset(), 4097u);
  EXPECT_EQ(rdma::RemotePtr(out[3]).offset(), 4097u);
  EXPECT_EQ(rdma::RemotePtr(out[4]).offset(), 4096u + 49u);
  EXPECT_EQ(rdma::RemotePtr(out[5]).offset(), 4096u + 49u);
}

TEST(ServerTreeTest, HybridInstallSeparatorGrowsUpperLevels) {
  Cluster cluster(Config(), 64 << 20);
  ServerTree tree(cluster.memory_server(0), 256);
  std::vector<ServerTree::ChildRef> children = {
      {0, rdma::RemotePtr::Make(0, 5000).raw()}};
  ASSERT_TRUE(tree.BuildOverChildren(children, 90).ok());

  struct Driver {
    static Task<> Go(ServerTree& tree) {
      // Install 500 separators (forces splits and root growth at P=256).
      for (uint64_t i = 1; i <= 500; ++i) {
        const Status s = co_await tree.InstallChildSeparator(
            i * 10, rdma::RemotePtr::Make(0, 5000 + i).raw());
        EXPECT_TRUE(s.ok());
      }
      // Every separator must now route correctly.
      for (uint64_t i = 1; i <= 500; ++i) {
        const uint64_t child = co_await tree.FindLeafChild(i * 10 + 5);
        EXPECT_EQ(rdma::RemotePtr(child).offset(), 5000 + i);
      }
    }
  };
  Spawn(cluster.simulator(), Driver::Go(tree));
  cluster.simulator().Run();
  EXPECT_GE(tree.GetStats().height, 2u);
}

TEST(ServerTreeTest, EmptyBuild) {
  Cluster cluster(Config(), 64 << 20);
  ServerTree tree(cluster.memory_server(0), 256);
  ASSERT_TRUE(tree.Build({}, 90).ok());
  std::vector<LookupResult> results;
  Spawn(cluster.simulator(), DoLookups(tree, {7}, &results));
  cluster.simulator().Run();
  EXPECT_FALSE(results[0].found);
}

// ---- Env parity: one algorithm in two environments -------------------------

struct ParityOp {
  enum Kind { kInsert, kUpdate, kDelete, kLookup, kLookupAll, kCompact };
  Kind kind;
  Key key = 0;
  Value value = 0;
};

/// Bulk-loaded keys are multiples of 4 below 2400. The inserts fill every
/// gap (leaf splits, inner splits, root growth at P=256), then come
/// duplicates, updates, deletes (hits and misses) and an epoch compaction.
std::vector<ParityOp> ParityScript() {
  std::vector<ParityOp> ops;
  for (Key offset = 1; offset <= 3; ++offset) {
    for (Key k = offset; k < 2400; k += 4) {
      ops.push_back({ParityOp::kInsert, k, k * 10});
    }
  }
  for (Value i = 0; i < 30; ++i) {
    ops.push_back({ParityOp::kInsert, 1000, 50000 + i});
  }
  ops.push_back({ParityOp::kLookupAll, 1000});
  for (Key k = 0; k < 2600; k += 7) {
    ops.push_back({ParityOp::kUpdate, k, k + 7});
  }
  for (Key k = 0; k < 2600; k += 5) ops.push_back({ParityOp::kDelete, k});
  for (int i = 0; i < 20; ++i) ops.push_back({ParityOp::kDelete, 1000});
  ops.push_back({ParityOp::kLookupAll, 1000});
  for (Key k = 0; k < 2600; k += 3) ops.push_back({ParityOp::kLookup, k});
  ops.push_back({ParityOp::kCompact});
  return ops;
}

/// One op's outcome as a number: the status code, the value found + 1
/// (0 = miss), or the count returned.
uint64_t Encode(const Status& s) { return static_cast<uint64_t>(s.code()); }

TEST(BLinkEnvParityTest, SimulatedAndThreadEnvsAgree) {
  const auto data = MakeData(600, 4);
  const auto script = ParityScript();

  btree::LocalBLinkTree local(256);
  ASSERT_TRUE(local.BulkLoad(data).ok());
  std::vector<uint64_t> local_results;
  for (const ParityOp& op : script) {
    switch (op.kind) {
      case ParityOp::kInsert:
        local_results.push_back(Encode(local.Insert(op.key, op.value)));
        break;
      case ParityOp::kUpdate:
        local_results.push_back(Encode(local.Update(op.key, op.value)));
        break;
      case ParityOp::kDelete:
        local_results.push_back(Encode(local.Delete(op.key)));
        break;
      case ParityOp::kLookup: {
        const Result<Value> r = local.Lookup(op.key);
        local_results.push_back(r.ok() ? r.value() + 1 : 0);
        break;
      }
      case ParityOp::kLookupAll:
        local_results.push_back(local.LookupAll(op.key, nullptr));
        break;
      case ParityOp::kCompact:
        local_results.push_back(local.GarbageCollect());
        break;
    }
  }
  std::vector<KV> local_scan;
  local.Scan(0, btree::kInfinityKey, &local_scan);

  Cluster cluster(Config(), 64 << 20);
  ServerTree tree(cluster.memory_server(0), 256);
  ASSERT_TRUE(tree.Build(data, 90).ok());
  struct Driver {
    static Task<> Go(ServerTree& tree, const std::vector<ParityOp>& script,
                     std::vector<uint64_t>* results, std::vector<KV>* scan) {
      for (const ParityOp& op : script) {
        switch (op.kind) {
          case ParityOp::kInsert:
            results->push_back(Encode(co_await tree.Insert(op.key, op.value)));
            break;
          case ParityOp::kUpdate:
            results->push_back(Encode(co_await tree.Update(op.key, op.value)));
            break;
          case ParityOp::kDelete:
            results->push_back(Encode(co_await tree.Delete(op.key)));
            break;
          case ParityOp::kLookup: {
            const LookupResult r = co_await tree.Lookup(op.key);
            results->push_back(r.found ? r.value + 1 : 0);
            break;
          }
          case ParityOp::kLookupAll:
            results->push_back(co_await tree.LookupAll(op.key, nullptr));
            break;
          case ParityOp::kCompact:
            results->push_back(co_await tree.Compact());
            break;
        }
      }
      (void)co_await tree.Scan(0, btree::kInfinityKey, scan);
    }
  };
  std::vector<uint64_t> sim_results;
  std::vector<KV> sim_scan;
  Spawn(cluster.simulator(),
        Driver::Go(tree, script, &sim_results, &sim_scan));
  cluster.simulator().Run();

  EXPECT_EQ(sim_results, local_results);
  EXPECT_EQ(sim_scan, local_scan);
  const auto sim_stats = tree.GetStats();
  const auto local_stats = local.GetStats();
  EXPECT_EQ(sim_stats.pages, local_stats.pages);
  EXPECT_EQ(sim_stats.height, local_stats.height);
  EXPECT_EQ(sim_stats.live_entries, local_stats.live_entries);
  EXPECT_EQ(sim_stats.tombstones, local_stats.tombstones);
  // The script did grow the root above the bulk-loaded height of 3.
  EXPECT_GE(sim_stats.height, 4u);
  EXPECT_EQ(sim_stats.tombstones, 0u);
}

}  // namespace
}  // namespace namtree::index
