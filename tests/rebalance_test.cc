// Tests for epoch leaf rebalancing: delete-heavy chains shrink (merge +
// unlink), searches and scans stay exact across drained pages — including
// scans racing the merge itself — and duplicate runs are never straddled.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

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

constexpr uint32_t kPage = 256;  // leaf capacity 10

rdma::FabricConfig Config() {
  rdma::FabricConfig config;
  config.num_memory_servers = 4;
  return config;
}

IndexConfig MakeIndexConfig() {
  IndexConfig config;
  config.page_size = kPage;
  config.gc_merge_fill_percent = 70;
  return config;
}

std::vector<KV> MakeData(uint64_t n) {
  std::vector<KV> data;
  for (uint64_t i = 0; i < n; ++i) data.push_back({i * 2, i});
  return data;
}

Task<> ChainPages(FineGrainedIndex& index, ClientContext& ctx,
                  uint64_t* pages, uint64_t* live) {
  RemoteOps ops(ctx);
  *pages = co_await LeafLevel::CountChain(ops, index.first_leaf(), live,
                                          nullptr);
}

TEST(RebalanceTest, DeleteHeavyChainShrinksAfterGc) {
  Cluster cluster(Config(), 64 << 20);
  FineGrainedIndex index(cluster, MakeIndexConfig());
  const uint64_t keys = 10000;
  ASSERT_TRUE(index.BulkLoad(MakeData(keys)).ok());
  ClientContext ctx(0, cluster.fabric(), kPage, 1);

  struct Driver {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     uint64_t keys) {
      // Delete 90% of the entries.
      for (Key k = 0; k < keys; ++k) {
        if (k % 10 != 0) {
          EXPECT_TRUE((co_await index.Delete(ctx, k * 2)).ok());
        }
      }
      // Epoch 1 compacts + drains; epoch 2 unlinks the drained pages.
      (void)co_await index.GarbageCollect(ctx);
      (void)co_await index.GarbageCollect(ctx);
    }
  };
  uint64_t pages_before = 0;
  uint64_t live_before = 0;
  Spawn(cluster.simulator(), ChainPages(index, ctx, &pages_before,
                                        &live_before));
  cluster.simulator().Run();

  Spawn(cluster.simulator(), Driver::Go(index, ctx, keys));
  cluster.simulator().Run();

  uint64_t pages_after = 0;
  uint64_t live_after = 0;
  Spawn(cluster.simulator(), ChainPages(index, ctx, &pages_after,
                                        &live_after));
  cluster.simulator().Run();

  EXPECT_EQ(live_after, keys / 10);
  // 90% of the data is gone; the chain must shrink by at least 4x.
  EXPECT_LT(pages_after, pages_before / 4)
      << "before=" << pages_before << " after=" << pages_after;
  // GC's page drains/merges must obey the lock/version discipline too.
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();

  // Everything still correct afterwards.
  struct Verify {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     uint64_t keys) {
      uint64_t count = co_await index.Scan(ctx, 0, keys * 2, nullptr);
      EXPECT_EQ(count, keys / 10);
      for (Key k = 0; k < keys; k += 10) {
        EXPECT_TRUE((co_await index.Lookup(ctx, k * 2)).found);
      }
      for (Key k = 1; k < 100; ++k) {
        if (k % 10 != 0) {
          EXPECT_FALSE((co_await index.Lookup(ctx, k * 2)).found);
        }
      }
    }
  };
  Spawn(cluster.simulator(), Verify::Go(index, ctx, keys));
  cluster.simulator().Run();

  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(RebalanceTest, ScansRacingTheMergeCountExactlyOnce) {
  Cluster cluster(Config(), 64 << 20);
  FineGrainedIndex index(cluster, MakeIndexConfig());
  const uint64_t keys = 4000;
  ASSERT_TRUE(index.BulkLoad(MakeData(keys)).ok());
  cluster.fabric().SetNumClients(9);

  // Phase 1: delete 80% (no GC yet) so nearly every page is mergeable.
  ClientContext prep(0, cluster.fabric(), kPage, 1);
  struct Prep {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     uint64_t keys) {
      for (Key k = 0; k < keys; ++k) {
        if (k % 5 != 0) (void)co_await index.Delete(ctx, k * 2);
      }
    }
  };
  Spawn(cluster.simulator(), Prep::Go(index, prep, keys));
  cluster.simulator().Run();

  // Phase 2: eight clients scan continuously while GC rebalances.
  const uint64_t expected = keys / 5;
  struct Scanner {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     uint64_t keys, uint64_t expected, int rounds) {
      for (int r = 0; r < rounds; ++r) {
        const uint64_t n = co_await index.Scan(ctx, 0, keys * 2, nullptr);
        EXPECT_EQ(n, expected) << "scan raced a merge incorrectly";
      }
    }
  };
  struct Collector {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     int rounds) {
      for (int r = 0; r < rounds; ++r) {
        for (Key k = 0; k < 50; ++k) {
          const uint64_t n =
              co_await index.LookupAll(ctx, k * 5 * 2, nullptr);
          EXPECT_EQ(n, 1u) << "key " << k * 10;
        }
      }
    }
  };
  struct Gc {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx) {
      (void)co_await index.GarbageCollect(ctx);
      (void)co_await index.GarbageCollect(ctx);
    }
  };
  std::vector<std::unique_ptr<ClientContext>> ctxs;
  for (uint32_t c = 0; c < 6; ++c) {
    ctxs.push_back(
        std::make_unique<ClientContext>(c, cluster.fabric(), kPage, c));
    Spawn(cluster.simulator(),
          Scanner::Go(index, *ctxs[c], keys, expected, 8));
  }
  ctxs.push_back(
      std::make_unique<ClientContext>(6, cluster.fabric(), kPage, 6));
  Spawn(cluster.simulator(), Collector::Go(index, *ctxs[6], 8));
  ctxs.push_back(
      std::make_unique<ClientContext>(7, cluster.fabric(), kPage, 7));
  Spawn(cluster.simulator(), Gc::Go(index, *ctxs[7]));
  cluster.simulator().Run();

  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(RebalanceTest, WritersLandInAbsorbersAfterDrain) {
  Cluster cluster(Config(), 64 << 20);
  FineGrainedIndex index(cluster, MakeIndexConfig());
  const uint64_t keys = 2000;
  ASSERT_TRUE(index.BulkLoad(MakeData(keys)).ok());
  ClientContext ctx(0, cluster.fabric(), kPage, 1);

  struct Driver {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     uint64_t keys) {
      for (Key k = 0; k < keys; ++k) {
        if (k % 4 != 0) (void)co_await index.Delete(ctx, k * 2);
      }
      (void)co_await index.GarbageCollect(ctx);
      // Re-insert into ranges whose original pages are now drained: the
      // insert chase must land in the absorbers and stay findable.
      for (Key k = 1; k < keys; k += 4) {
        EXPECT_TRUE((co_await index.Insert(ctx, k * 2, 70000 + k)).ok());
      }
      for (Key k = 1; k < keys; k += 4) {
        const LookupResult r = co_await index.Lookup(ctx, k * 2);
        EXPECT_TRUE(r.found) << "key " << k * 2;
        EXPECT_EQ(r.value, 70000 + k);
      }
      const uint64_t count = co_await index.Scan(ctx, 0, keys * 2, nullptr);
      EXPECT_EQ(count, keys / 4 + (keys + 2) / 4);
    }
  };
  Spawn(cluster.simulator(), Driver::Go(index, ctx, keys));
  cluster.simulator().Run();
  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(RebalanceTest, DuplicateRunsAreNeverStraddled) {
  Cluster cluster(Config(), 64 << 20);
  FineGrainedIndex index(cluster, MakeIndexConfig());
  ASSERT_TRUE(index.BulkLoad(MakeData(500)).ok());
  ClientContext ctx(0, cluster.fabric(), kPage, 1);

  struct Driver {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx) {
      // A duplicate run spanning several pages.
      for (uint64_t i = 0; i < 35; ++i) {
        EXPECT_TRUE((co_await index.Insert(ctx, 300, 5000 + i)).ok());
      }
      // Thin out the surroundings so merges become attractive, then GC.
      for (Key k = 0; k < 500; ++k) {
        if (k % 3 != 0 && k * 2 != 300) {
          (void)co_await index.Delete(ctx, k * 2);
        }
      }
      (void)co_await index.GarbageCollect(ctx);
      (void)co_await index.GarbageCollect(ctx);
      // All duplicates still found exactly once.
      std::vector<Value> values;
      const uint64_t n = co_await index.LookupAll(ctx, 300, &values);
      EXPECT_EQ(n, 36u);
      std::set<Value> unique(values.begin(), values.end());
      EXPECT_EQ(unique.size(), 36u);
    }
  };
  Spawn(cluster.simulator(), Driver::Go(index, ctx));
  cluster.simulator().Run();
  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(RebalanceTest, DisabledByConfig) {
  Cluster cluster(Config(), 64 << 20);
  IndexConfig config = MakeIndexConfig();
  config.gc_merge_fill_percent = 0;
  FineGrainedIndex index(cluster, config);
  const uint64_t keys = 3000;
  ASSERT_TRUE(index.BulkLoad(MakeData(keys)).ok());
  ClientContext ctx(0, cluster.fabric(), kPage, 1);

  uint64_t pages_before = 0;
  Spawn(cluster.simulator(), ChainPages(index, ctx, &pages_before, nullptr));
  cluster.simulator().Run();

  struct Driver {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     uint64_t keys) {
      for (Key k = 0; k < keys; ++k) {
        if (k % 10 != 0) (void)co_await index.Delete(ctx, k * 2);
      }
      (void)co_await index.GarbageCollect(ctx);
      (void)co_await index.GarbageCollect(ctx);
    }
  };
  Spawn(cluster.simulator(), Driver::Go(index, ctx, keys));
  cluster.simulator().Run();

  uint64_t pages_after = 0;
  Spawn(cluster.simulator(), ChainPages(index, ctx, &pages_after, nullptr));
  cluster.simulator().Run();
  // Compaction without merging never removes pages.
  EXPECT_EQ(pages_after, pages_before);
}

}  // namespace
}  // namespace namtree::index
