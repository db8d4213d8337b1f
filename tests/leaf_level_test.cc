// Direct tests of the fine-grained leaf level: chain building, one-sided
// search/insert/delete at chain granularity, scans prefetching through the
// leaf-parent level (including parents that missed splits and merges),
// compaction, and chain accounting.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "index/leaf_level.h"
#include "nam/cluster.h"

namespace namtree::index {
namespace {

using btree::Key;
using btree::KV;
using btree::PageView;
using nam::ClientContext;
using nam::Cluster;
using sim::Spawn;
using sim::Task;

constexpr uint32_t kPage = 256;

rdma::FabricConfig Config() {
  rdma::FabricConfig config;
  config.num_memory_servers = 4;
  return config;
}

IndexConfig MakeIndexConfig() {
  IndexConfig config;
  config.page_size = kPage;
  return config;
}

std::vector<KV> MakeData(uint64_t n) {
  std::vector<KV> data;
  for (uint64_t i = 0; i < n; ++i) data.push_back({i * 2, i});
  return data;
}

TEST(LeafLevelTest, BuildChainsLeavesAcrossServers) {
  Cluster cluster(Config(), 16 << 20);
  LeafLevel::BuildResult result;
  ASSERT_TRUE(LeafLevel::Build(cluster.fabric(), MakeData(1000),
                               MakeIndexConfig(), &result)
                  .ok());
  ASSERT_FALSE(result.leaf_refs.empty());
  // Round-robin placement over 4 servers.
  EXPECT_EQ(rdma::RemotePtr(result.leaf_refs[0].raw_ptr).server_id(), 0u);
  EXPECT_EQ(rdma::RemotePtr(result.leaf_refs[1].raw_ptr).server_id(), 1u);
  EXPECT_EQ(rdma::RemotePtr(result.leaf_refs[2].raw_ptr).server_id(), 2u);
  // Low keys ascend strictly.
  for (size_t i = 1; i < result.leaf_refs.size(); ++i) {
    EXPECT_LT(result.leaf_refs[i - 1].low, result.leaf_refs[i].low);
  }
}

TEST(LeafLevelTest, BuildLinksEveryLeafIntoTheChain) {
  Cluster cluster(Config(), 16 << 20);
  LeafLevel::BuildResult result;
  ASSERT_TRUE(LeafLevel::Build(cluster.fabric(), MakeData(1000),
                               MakeIndexConfig(), &result)
                  .ok());
  ClientContext ctx(0, cluster.fabric(), kPage, 1);

  struct Count {
    static Task<> Go(RemoteOps ops, rdma::RemotePtr first, uint64_t* pages,
                     uint64_t* live) {
      *pages = co_await LeafLevel::CountChain(ops, first, live, nullptr);
    }
  };
  uint64_t pages = 0;
  uint64_t live = 0;
  Spawn(cluster.simulator(),
        Count::Go(RemoteOps(ctx), result.first, &pages, &live));
  cluster.simulator().Run();

  // The chain holds exactly the built leaves, nothing in between.
  EXPECT_EQ(pages, result.leaf_refs.size());
  EXPECT_EQ(live, 1000u);
}

Task<> SearchKeys(RemoteOps ops, rdma::RemotePtr start,
                  std::vector<Key> keys, std::vector<LookupResult>* out) {
  for (Key k : keys) {
    out->push_back(co_await LeafLevel::SearchChain(ops, start, k));
  }
}

TEST(LeafLevelTest, SearchChainChasesFromAnyStartingLeaf) {
  Cluster cluster(Config(), 16 << 20);
  LeafLevel::BuildResult result;
  ASSERT_TRUE(LeafLevel::Build(cluster.fabric(), MakeData(500),
                               MakeIndexConfig(), &result)
                  .ok());
  ClientContext ctx(0, cluster.fabric(), kPage, 1);
  // Start at the FIRST leaf and search keys that live far to the right:
  // the B-link chase must find them.
  std::vector<LookupResult> results;
  Spawn(cluster.simulator(),
        SearchKeys(RemoteOps(ctx), result.first, {0, 998, 400, 999},
                   &results));
  cluster.simulator().Run();
  EXPECT_TRUE(results[0].found);
  EXPECT_TRUE(results[1].found);
  EXPECT_EQ(results[1].value, 499u);
  EXPECT_TRUE(results[2].found);
  EXPECT_FALSE(results[3].found);  // odd key
}

TEST(LeafLevelTest, InsertSplitReportsSeparator) {
  Cluster cluster(Config(), 16 << 20);
  LeafLevel::BuildResult built;
  // One nearly-full leaf (fill 90% of capacity 10 -> 9 entries).
  ASSERT_TRUE(LeafLevel::Build(cluster.fabric(), MakeData(9),
                               MakeIndexConfig(), &built)
                  .ok());
  ClientContext ctx(0, cluster.fabric(), kPage, 1);

  struct Driver {
    static Task<> Go(RemoteOps ops, rdma::RemotePtr start, int n,
                     uint64_t* splits) {
      for (int i = 0; i < n; ++i) {
        LeafLevel::SplitInfo split;
        const Status s = co_await LeafLevel::InsertAt(
            ops, start, static_cast<Key>(i * 2 + 1), 1000 + i, &split);
        EXPECT_TRUE(s.ok());
        if (split.split) {
          EXPECT_FALSE(split.right.is_null());
          (*splits)++;
        }
      }
    }
  };
  uint64_t splits = 0;
  Spawn(cluster.simulator(),
        Driver::Go(RemoteOps(ctx), built.first, 30, &splits));
  cluster.simulator().Run();
  EXPECT_GT(splits, 0u);

  // All 9 + 30 entries reachable via the chain.
  uint64_t live = 0;
  struct Count {
    static Task<> Go(RemoteOps ops, rdma::RemotePtr first, uint64_t* live) {
      (void)co_await LeafLevel::CountChain(ops, first, live, nullptr);
    }
  };
  Spawn(cluster.simulator(), Count::Go(RemoteOps(ctx), built.first, &live));
  cluster.simulator().Run();
  EXPECT_EQ(live, 39u);
}

/// A leaf chain with bulk-loaded inner levels above it.
using Tree = LeafLevel::BuildResult;

Tree BuildTree(Cluster& cluster, const std::vector<KV>& data) {
  Tree tree;
  EXPECT_TRUE(LeafLevel::Build(cluster.fabric(), data, MakeIndexConfig(),
                               &tree, /*fixed_server=*/-1,
                               /*inner_levels=*/true)
                  .ok());
  return tree;
}

/// Descends `tree` in region memory to the level-1 node routing `key`:
/// returns a copy of its image and sets `*leaf` to the child for `key`.
std::vector<uint8_t> ParentImage(Cluster& cluster, const Tree& tree, Key key,
                                 rdma::RemotePtr* leaf) {
  rdma::RemotePtr ptr = tree.root;
  for (;;) {
    PageView view(cluster.fabric().region(ptr.server_id())->at(ptr.offset()),
                  kPage);
    if (view.NeedsChase(key)) {
      ptr = rdma::RemotePtr(view.right_sibling());
      continue;
    }
    const rdma::RemotePtr child(view.InnerChildFor(key));
    if (view.level() == 1) {
      *leaf = child;
      return std::vector<uint8_t>(view.data(), view.data() + kPage);
    }
    ptr = child;
  }
}

struct ScanDriver {
  static Task<> Go(RemoteOps ops, rdma::RemotePtr start,
                   std::vector<uint8_t> parent, Key lo, Key hi,
                   std::vector<KV>* out, uint64_t* n) {
    LeafLevel::ParentDirectory directory(parent.data(), kPage);
    Status status;
    *n = co_await LeafLevel::ScanChain(ops, start, lo, hi, out, &status,
                                       &directory);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
};

TEST(LeafLevelTest, ScanUsesBatchedPrefetch) {
  Cluster cluster(Config(), 16 << 20);
  const Tree tree = BuildTree(cluster, MakeData(2000));
  ClientContext ctx(0, cluster.fabric(), kPage, 1);
  rdma::RemotePtr start;
  std::vector<uint8_t> parent = ParentImage(cluster, tree, 100, &start);

  std::vector<KV> out;
  uint64_t n = 0;
  Spawn(cluster.simulator(), ScanDriver::Go(RemoteOps(ctx), start,
                                            std::move(parent), 100, 3900,
                                            &out, &n));
  cluster.simulator().Run();
  EXPECT_EQ(n, 1900u);
  ASSERT_EQ(out.size(), 1900u);
  EXPECT_EQ(out.front().key, 100u);
  EXPECT_EQ(out.back().key, 3898u);
  // ~211 leaves under ~18 parents of 12 children: one batch per parent
  // (each carrying the next parent along), far below one READ per leaf.
  EXPECT_LE(ctx.round_trips, 20u);
  EXPECT_EQ(ctx.scan_prefetch_fallbacks, 0u);
}

TEST(LeafLevelTest, CompactChainReclaimsTombstones) {
  Cluster cluster(Config(), 16 << 20);
  LeafLevel::BuildResult built;
  ASSERT_TRUE(LeafLevel::Build(cluster.fabric(), MakeData(300),
                               MakeIndexConfig(), &built)
                  .ok());
  ClientContext ctx(0, cluster.fabric(), kPage, 1);

  struct Driver {
    static Task<> Go(RemoteOps ops, rdma::RemotePtr first,
                     uint64_t* reclaimed) {
      for (Key k = 0; k < 300; k += 3) {
        EXPECT_TRUE(
            (co_await LeafLevel::DeleteAt(ops, first, k * 2)).ok());
      }
      EXPECT_TRUE((co_await LeafLevel::DeleteAt(ops, first, 1)).IsNotFound());
      *reclaimed = co_await LeafLevel::CompactChain(ops, first);
    }
  };
  uint64_t reclaimed = 0;
  Spawn(cluster.simulator(),
        Driver::Go(RemoteOps(ctx), built.first, &reclaimed));
  cluster.simulator().Run();
  EXPECT_EQ(reclaimed, 100u);

  uint64_t live = 0;
  uint64_t dead = 0;
  struct Count {
    static Task<> Go(RemoteOps ops, rdma::RemotePtr first, uint64_t* live,
                     uint64_t* dead) {
      (void)co_await LeafLevel::CountChain(ops, first, live, dead);
    }
  };
  Spawn(cluster.simulator(),
        Count::Go(RemoteOps(ctx), built.first, &live, &dead));
  cluster.simulator().Run();
  EXPECT_EQ(live, 200u);
  EXPECT_EQ(dead, 0u);
}

// A split the parent does not list yet (its separator is not installed):
// the new leaf fails the batch's chain check, the scan reads it alone and
// resumes batching at the next listed leaf, and every entry comes back
// exactly once.
TEST(LeafLevelTest, ScanFallsBackOnSplitsTheParentMissed) {
  Cluster cluster(Config(), 16 << 20);
  const Tree tree = BuildTree(cluster, MakeData(500));
  ClientContext ctx(0, cluster.fabric(), kPage, 1);
  rdma::RemotePtr start;
  std::vector<uint8_t> parent = ParentImage(cluster, tree, 0, &start);

  // Split leaves everywhere (insert into every gap) without telling the
  // inner levels.
  struct Churn {
    static Task<> Go(RemoteOps ops, rdma::RemotePtr first) {
      for (Key k = 0; k < 500; ++k) {
        LeafLevel::SplitInfo split;
        EXPECT_TRUE(
            (co_await LeafLevel::InsertAt(ops, first, k * 2 + 1, k, &split))
                .ok());
      }
    }
  };
  Spawn(cluster.simulator(), Churn::Go(RemoteOps(ctx), tree.first));
  cluster.simulator().Run();

  ClientContext reader(1, cluster.fabric(), kPage, 2);
  std::vector<KV> out;
  uint64_t n = 0;
  Spawn(cluster.simulator(), ScanDriver::Go(RemoteOps(reader), start,
                                            std::move(parent), 0, 1000, &out,
                                            &n));
  cluster.simulator().Run();
  EXPECT_EQ(n, 1000u);
  ASSERT_EQ(out.size(), 1000u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].key, i);
  EXPECT_GT(reader.scan_prefetch_fallbacks, 0u);
}

// Epoch rebalancing drains leaf pairs into fresh absorbers but leaves the
// parents pointing at the drained pages. A drained batch member points at
// an absorber the parent does not list: the scan falls back, reads the
// absorber alone, and the cursor keeps collection exactly-once.
TEST(LeafLevelTest, ScanHandlesDrainedLeavesInTheBatch) {
  Cluster cluster(Config(), 16 << 20);
  const Tree tree = BuildTree(cluster, MakeData(1000));
  ClientContext ctx(0, cluster.fabric(), kPage, 1);

  struct Shrink {
    static Task<> Go(RemoteOps ops, rdma::RemotePtr first, uint64_t* merged) {
      for (Key k = 0; k < 1000; ++k) {
        if (k % 3 == 0) continue;
        EXPECT_TRUE((co_await LeafLevel::DeleteAt(ops, first, k * 2)).ok());
      }
      (void)co_await LeafLevel::CompactChain(ops, first);
      *merged = co_await LeafLevel::RebalanceChain(ops, first, 70);
    }
  };
  uint64_t merged = 0;
  Spawn(cluster.simulator(),
        Shrink::Go(RemoteOps(ctx), tree.first, &merged));
  cluster.simulator().Run();
  ASSERT_GT(merged, 0u);

  rdma::RemotePtr start;
  std::vector<uint8_t> parent = ParentImage(cluster, tree, 0, &start);
  ClientContext reader(1, cluster.fabric(), kPage, 2);
  std::vector<KV> out;
  uint64_t n = 0;
  Spawn(cluster.simulator(), ScanDriver::Go(RemoteOps(reader), start,
                                            std::move(parent), 0, 2000, &out,
                                            &n));
  cluster.simulator().Run();
  EXPECT_EQ(n, 334u);
  ASSERT_EQ(out.size(), 334u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].key, i * 6);
  EXPECT_GT(reader.scan_prefetch_fallbacks, 0u);
}

}  // namespace
}  // namespace namtree::index
