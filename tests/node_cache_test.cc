// Tests for the Appendix A.4 node cache: LRU eviction, one cache per
// compute machine, fence-check repair of stale entries, and correctness of
// the cached index designs under cache-invalidating writes. The traversal
// engine caches inner-node images for every design with a one-sided leaf
// level (FG / CG1S: their own inner pages; hybrid: the server-side upper
// levels its find-leaf responses carry), so each design gets its own
// hit-rate and staleness coverage. Tests whose writers must leave a reader's cache stale
// put every client on its own compute machine.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "index/coarse_one_sided.h"
#include "index/fine_grained.h"
#include "index/hybrid.h"
#include "index/node_cache.h"
#include "rdma/memory_region.h"
#include "nam/cluster.h"

namespace namtree::index {
namespace {

using btree::Key;
using btree::KV;
using nam::ClientContext;
using nam::Cluster;
using sim::Spawn;
using sim::Task;

/// Sum of a `client.cache.*` family over every machine's cache.
uint64_t CacheCount(Cluster& cluster, const char* family) {
  return cluster.fabric().metrics().Value(family);
}

TEST(NodeCacheTest, HitAfterPut) {
  NodeCache cache(64, 4);
  std::vector<uint8_t> image(64, 0xAB);
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Put(1, image.data());
  const uint8_t* hit = cache.Get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit[0], 0xAB);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(NodeCacheTest, LruEviction) {
  NodeCache cache(8, 2);
  std::vector<uint8_t> image(8, 1);
  cache.Put(1, image.data());
  cache.Put(2, image.data());
  EXPECT_NE(cache.Get(1), nullptr);  // 1 becomes MRU
  cache.Put(3, image.data());        // evicts 2
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(NodeCacheTest, PutOverwritesInPlace) {
  NodeCache cache(8, 2);
  std::vector<uint8_t> a(8, 1);
  std::vector<uint8_t> b(8, 2);
  cache.Put(1, a.data());
  cache.Put(1, b.data());
  const uint8_t* hit = cache.Get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit[0], 2);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(NodeCacheTest, InvalidateDrops) {
  NodeCache cache(8, 2);
  std::vector<uint8_t> image(8, 1);
  cache.Put(1, image.data());
  cache.Invalidate(1);
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Invalidate(42);  // no-op, not counted
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(NodeCacheTest, PeekDoesNotMutate) {
  // Peek is the speculative predictor's read path: it must leave the
  // hit/miss counters and the LRU order exactly as they were.
  NodeCache cache(8, 3);
  std::vector<uint8_t> image(8, 7);
  cache.Put(1, image.data());
  cache.Put(2, image.data());
  cache.Put(3, image.data());
  const std::vector<uint64_t> lru_before = cache.LruKeys();

  const uint8_t* hit = cache.Peek(2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit[0], 7);
  EXPECT_EQ(cache.Peek(42), nullptr);
  EXPECT_EQ(cache.size(), 3u);

  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.LruKeys(), lru_before) << "Peek must not touch the LRU";

  // Get after the Peeks behaves as if they never happened.
  EXPECT_NE(cache.Get(2), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(NodeCacheTest, ZeroCapacityDisables) {
  NodeCache cache(8, 0);
  std::vector<uint8_t> image(8, 1);
  cache.Put(1, image.data());
  EXPECT_EQ(cache.Get(1), nullptr);
}

TEST(NodeCacheTest, CountersReachTheRegistry) {
  metrics::MetricRegistry registry;
  NodeCache cache(8, 2);
  cache.RegisterMetrics(registry, {{"machine", "3"}});
  std::vector<uint8_t> image(8, 1);
  cache.Put(1, image.data());
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
  cache.Invalidate(1);
  EXPECT_EQ(registry.Value("client.cache.hits", "machine", "3"), 1u);
  EXPECT_EQ(registry.Value("client.cache.misses", "machine", "3"), 1u);
  EXPECT_EQ(registry.Value("client.cache.invalidations", "machine", "3"),
            1u);
}

// ---- Cached fine-grained index ----------------------------------------------

Task<> LookupLoop(DistributedIndex& index, ClientContext& ctx, int rounds,
                  uint64_t keys, uint64_t* found) {
  for (int i = 0; i < rounds; ++i) {
    const Key k = (ctx.rng().NextBelow(keys)) * 2;
    const LookupResult r = co_await index.Lookup(ctx, k);
    if (r.found) (*found)++;
  }
}

TEST(CachedFineGrainedTest, CacheCutsRoundTripsWithoutMisses) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  FineGrainedIndex index(cluster, ic);
  const uint64_t keys = 20000;
  std::vector<KV> data;
  for (uint64_t i = 0; i < keys; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());

  ClientContext ctx(0, cluster.fabric(), ic.page_size, 7);
  uint64_t found = 0;
  Spawn(cluster.simulator(), LookupLoop(index, ctx, 2000, keys, &found));
  cluster.simulator().Run();
  EXPECT_EQ(found, 2000u);

  EXPECT_GT(CacheCount(cluster, "client.cache.hits"),
            CacheCount(cluster, "client.cache.misses"))
      << "a warmed cache must serve most inner reads";
  // With all inner levels cached, steady-state lookups need ~1 read each.
  EXPECT_LT(static_cast<double>(ctx.round_trips), 2000 * 2.2);
}

TEST(CachedFineGrainedTest, StaleCacheStaysCorrectUnderInserts) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  fc.clients_per_compute_machine = 1;  // writers leave the reader stale
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  FineGrainedIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 3000; ++i) data.push_back({i * 4, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  cluster.fabric().SetNumClients(3);

  // Client 0 warms its cache.
  ClientContext reader(0, cluster.fabric(), ic.page_size, 1);
  uint64_t found = 0;
  Spawn(cluster.simulator(), LookupLoop(index, reader, 500, 3000 * 2, &found));
  cluster.simulator().Run();

  // Clients 1 and 2 split lots of leaves (reader's cache is now stale).
  struct Writer {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx, Key from,
                     Key to) {
      for (Key k = from; k < to; k += 4) {
        EXPECT_TRUE((co_await index.Insert(ctx, k, k)).ok());
      }
    }
  };
  ClientContext w1(1, cluster.fabric(), ic.page_size, 2);
  ClientContext w2(2, cluster.fabric(), ic.page_size, 3);
  Spawn(cluster.simulator(), Writer::Go(index, w1, 1, 12000));
  Spawn(cluster.simulator(), Writer::Go(index, w2, 2, 12000));
  cluster.simulator().Run();

  // Reader (stale cache) must still find every key, old and new.
  struct Verify {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     uint64_t* missing) {
      for (Key k = 0; k < 12000; ++k) {
        if (k % 4 == 3) continue;  // never inserted
        const LookupResult r = co_await index.Lookup(ctx, k);
        if (!r.found) (*missing)++;
      }
    }
  };
  uint64_t missing = 0;
  Spawn(cluster.simulator(), Verify::Go(index, reader, &missing));
  cluster.simulator().Run();
  EXPECT_EQ(missing, 0u) << "stale cached routing lost keys";
}

/// One stale-cache round: a reader warms its inner-node cache, a second
/// client splits many leaves (publishing through the doorbell-batched
/// write+unlock / split chains when `verb_chaining` is on), then the
/// reader — still routing through its stale cached inner nodes — looks up
/// every moved key. Returns how many it lost.
uint64_t StaleReaderMisses(bool verb_chaining) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  fc.clients_per_compute_machine = 1;  // writers leave the reader stale
  fc.verb_chaining = verb_chaining;
  Cluster cluster(fc, 32 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 2048;
  FineGrainedIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 2000; ++i) data.push_back({i * 4, i});
  EXPECT_TRUE(index.BulkLoad(data).ok());
  cluster.fabric().SetNumClients(2);

  ClientContext reader(0, cluster.fabric(), ic.page_size, 1);
  uint64_t found = 0;
  Spawn(cluster.simulator(), LookupLoop(index, reader, 400, 2000 * 2, &found));
  cluster.simulator().Run();

  ClientContext writer(1, cluster.fabric(), ic.page_size, 2);
  struct Writer {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx) {
      for (Key k = 1; k < 8000; k += 2) {
        EXPECT_TRUE((co_await index.Insert(ctx, k, k)).ok());
      }
    }
  };
  Spawn(cluster.simulator(), Writer::Go(index, writer));
  cluster.simulator().Run();

  struct Verify {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     uint64_t* missing) {
      for (Key k = 1; k < 8000; k += 2) {
        const LookupResult r = co_await index.Lookup(ctx, k);
        if (!r.found) (*missing)++;
      }
    }
  };
  uint64_t missing = 0;
  Spawn(cluster.simulator(), Verify::Go(index, reader, &missing));
  cluster.simulator().Run();
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
  return missing;
}

TEST(CachedFineGrainedTest, StaleCacheCatchesChainedLeafWrites) {
  // A stale cached inner node routes the reader to a pre-split leaf; the
  // version-checked leaf read plus the B-link chase must recover every key
  // that a *chained* {write, unlock} publication moved — and behave
  // identically with chaining disabled.
  EXPECT_EQ(StaleReaderMisses(true), 0u)
      << "a chained write+unlock slipped past the stale-cache version check";
  EXPECT_EQ(StaleReaderMisses(false), 0u);
}

TEST(CachedFineGrainedTest, SplitSeedsWriterCacheWithPublishedParent) {
  // The install path seeds the writer's own cache with the parent image it
  // just published (patched to the post-release version word) instead of
  // invalidating it: the next lookup through that parent must be served
  // from cache and go straight to the correct new leaf — exactly one leaf
  // READ, no parent re-read, no B-link detour.
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  Cluster cluster(fc, 16 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 1024;
  FineGrainedIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 60; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  ASSERT_EQ(index.root_level(), 1u) << "test assumes a single inner level";

  ClientContext ctx(0, cluster.fabric(), ic.page_size, 1);
  struct Driver {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx) {
      // Right-edge appends split the rightmost leaf repeatedly; every
      // separator install rewrites the root and seeds the cache with the
      // fresh image.
      for (uint64_t k = 0; k < 20; ++k) {
        EXPECT_TRUE((co_await index.Insert(ctx, 120 + 2 * k, k)).ok());
      }
      const uint64_t before = ctx.round_trips;
      const LookupResult r = co_await index.Lookup(ctx, 120 + 2 * 19);
      EXPECT_TRUE(r.found);
      EXPECT_EQ(ctx.round_trips - before, 1u)
          << "stale or missing cached root: the lookup took a detour";
    }
  };
  Spawn(cluster.simulator(), Driver::Go(index, ctx));
  cluster.simulator().Run();
  EXPECT_EQ(index.root_level(), 1u) << "root grew; the 1-read bound is void";
}

// ---- Cached coarse-one-sided index ------------------------------------------
// CG1S shares the inner-image cache policy with FG through the traversal
// engine; the difference is one cached tree per partition instead of one
// global tree.

TEST(CachedCoarseOneSidedTest, CacheServesInnerReadsAcrossPartitions) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  CoarseOneSidedIndex index(cluster, ic);
  const uint64_t keys = 20000;
  std::vector<KV> data;
  for (uint64_t i = 0; i < keys; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());

  ClientContext ctx(0, cluster.fabric(), ic.page_size, 7);
  uint64_t found = 0;
  Spawn(cluster.simulator(), LookupLoop(index, ctx, 2000, keys, &found));
  cluster.simulator().Run();
  EXPECT_EQ(found, 2000u);

  const uint64_t hits = CacheCount(cluster, "client.cache.hits");
  EXPECT_GT(hits, 0u) << "CG1S descents never hit the inner cache";
  EXPECT_GT(hits, CacheCount(cluster, "client.cache.misses"))
      << "a warmed cache must serve most inner reads";
  // With every partition's inner levels cached, steady-state lookups need
  // ~1 leaf read each.
  EXPECT_LT(static_cast<double>(ctx.round_trips), 2000 * 2.2);
}

TEST(CachedCoarseOneSidedTest, StaleCacheStaysCorrectUnderInserts) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  fc.clients_per_compute_machine = 1;  // writers leave the reader stale
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  CoarseOneSidedIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 3000; ++i) data.push_back({i * 4, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  cluster.fabric().SetNumClients(3);

  // Client 0 warms its cache.
  ClientContext reader(0, cluster.fabric(), ic.page_size, 1);
  uint64_t found = 0;
  Spawn(cluster.simulator(), LookupLoop(index, reader, 500, 3000 * 2, &found));
  cluster.simulator().Run();

  // Clients 1 and 2 split leaves in every partition (reader's cached
  // inner images are now stale).
  struct Writer {
    static Task<> Go(CoarseOneSidedIndex& index, ClientContext& ctx, Key from,
                     Key to) {
      for (Key k = from; k < to; k += 4) {
        EXPECT_TRUE((co_await index.Insert(ctx, k, k)).ok());
      }
    }
  };
  ClientContext w1(1, cluster.fabric(), ic.page_size, 2);
  ClientContext w2(2, cluster.fabric(), ic.page_size, 3);
  Spawn(cluster.simulator(), Writer::Go(index, w1, 1, 12000));
  Spawn(cluster.simulator(), Writer::Go(index, w2, 2, 12000));
  cluster.simulator().Run();

  // Reader (stale cache) must still find every key, old and new.
  struct Verify {
    static Task<> Go(CoarseOneSidedIndex& index, ClientContext& ctx,
                     uint64_t* missing) {
      for (Key k = 0; k < 12000; ++k) {
        if (k % 4 == 3) continue;  // never inserted
        const LookupResult r = co_await index.Lookup(ctx, k);
        if (!r.found) (*missing)++;
      }
    }
  };
  uint64_t missing = 0;
  Spawn(cluster.simulator(), Verify::Go(index, reader, &missing));
  cluster.simulator().Run();
  EXPECT_EQ(missing, 0u) << "stale cached routing lost keys";
  EXPECT_GT(CacheCount(cluster, "client.cache.hits"), 0u);
}

// ---- Cached hybrid index ----------------------------------------------------
// With a client cache, the hybrid's find-leaf responses carry the images of
// the server-side upper pages on the key's path; the client caches them and
// routes later keys of the partition locally, so a hit skips the RPC
// entirely. Stale images are safe because leaf coverage only ever moves
// right — the B-link chase recovers.

/// RPCs the memory servers admitted to a handler.
uint64_t RpcCount(Cluster& cluster) {
  return cluster.fabric().metrics().Value("server.rpcs");
}

TEST(CachedHybridTest, RouteCacheSkipsFindLeafRpcs) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  HybridIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 5000; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());

  // A small hot set looked up repeatedly: after the first round every key
  // routes through cached images, so each further lookup is 1 leaf READ,
  // 0 RPCs.
  ClientContext ctx(0, cluster.fabric(), ic.page_size, 7);
  struct Driver {
    static Task<> Go(Cluster& cluster, HybridIndex& index, ClientContext& ctx,
                     uint64_t* cold_rpcs) {
      for (int round = 0; round < 10; ++round) {
        if (round == 1) {
          *cold_rpcs = RpcCount(cluster);
          ctx.round_trips.Reset();
        }
        for (Key k = 0; k < 100; ++k) {
          const LookupResult r = co_await index.Lookup(ctx, k * 2);
          EXPECT_TRUE(r.found);
        }
      }
    }
  };
  uint64_t cold_rpcs = 0;
  Spawn(cluster.simulator(), Driver::Go(cluster, index, ctx, &cold_rpcs));
  cluster.simulator().Run();

  // The first round sends one RPC to learn the partition's root and one
  // per further level-1 page it needs (a counted miss each): far fewer
  // than one per key.
  EXPECT_GE(cold_rpcs, 1u);
  EXPECT_LT(cold_rpcs, 100u);
  EXPECT_EQ(CacheCount(cluster, "client.cache.misses") + 1, cold_rpcs);
  // Warm lookups: no RPC, and one leaf READ each — plus one chase READ
  // for a key equal to its leaf's high fence, which the inclusive inner
  // fence routes to the left leaf.
  uint64_t fence_keys = 0;
  for (rdma::RemotePtr leaf = index.first_leaf(); !leaf.is_null();) {
    const btree::PageView v(
        cluster.fabric().region(leaf.server_id())->at(leaf.offset()),
        ic.page_size);
    if (v.high_key() < 200 && v.high_key() % 2 == 0) fence_keys++;
    leaf = rdma::RemotePtr(v.right_sibling());
  }
  EXPECT_EQ(RpcCount(cluster), cold_rpcs);
  EXPECT_EQ(ctx.round_trips, 9u * (100u + fence_keys));
  EXPECT_LT(ctx.round_trips, 9u * 100u * 2) << "warm lookups pay RPCs";
  EXPECT_GT(CacheCount(cluster, "client.cache.hits"), 9u * 100u);
}

TEST(CachedHybridTest, MachineMatesShareOneFindLeafRpcPerMiss) {
  // Four clients of one compute machine miss on the same partition at
  // once: one find-leaf RPC fetches the images, and the others wait for it
  // and route through them instead of sending their own.
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  Cluster cluster(fc, 16 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 1024;
  HybridIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 2000; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  cluster.fabric().SetNumClients(4);

  std::vector<std::unique_ptr<ClientContext>> clients;
  for (uint32_t c = 0; c < 4; ++c) {
    clients.push_back(
        std::make_unique<ClientContext>(c, cluster.fabric(), ic.page_size, c));
  }
  struct Driver {
    static Task<> Go(HybridIndex& index, ClientContext& ctx, Key key) {
      EXPECT_TRUE((co_await index.Lookup(ctx, key)).found);
    }
  };
  // Neighbouring keys: one leaf, so one level-1 page routes them all.
  for (uint32_t c = 0; c < 4; ++c) {
    Spawn(cluster.simulator(), Driver::Go(index, *clients[c], 200 + 2 * c));
  }
  cluster.simulator().Run();
  EXPECT_EQ(RpcCount(cluster), 1u);
  for (uint32_t c = 1; c < 4; ++c) {
    EXPECT_EQ(clients[c]->round_trips, 1u) << "client " << c;
  }
}

TEST(CachedHybridTest, ClientWithoutCacheGetsNoImages) {
  // A hybrid client without a cache sends and receives the bare find-leaf
  // RPC: an empty response payload.
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  Cluster cluster(fc, 16 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  HybridIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 2000; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  ASSERT_EQ(index.CacheFor(0), nullptr);

  ClientContext ctx(0, cluster.fabric(), ic.page_size, 1);
  struct Driver {
    static Task<> Go(HybridIndex& index, ClientContext& ctx) {
      EXPECT_TRUE((co_await index.Lookup(ctx, 1000)).found);
    }
  };
  Spawn(cluster.simulator(), Driver::Go(index, ctx));
  cluster.simulator().Run();

  // One find-leaf RPC and one leaf READ, nothing else: the server received
  // the 32-byte request and the READ's 16-byte request, and sent a bare
  // 24-byte response and the leaf.
  EXPECT_EQ(RpcCount(cluster), 1u);
  uint64_t rx = 0;
  uint64_t tx = 0;
  for (uint32_t s = 0; s < fc.num_memory_servers; ++s) {
    rx += cluster.fabric().server_stats(s).rx_bytes;
    tx += cluster.fabric().server_stats(s).tx_bytes;
  }
  EXPECT_EQ(rx, rdma::RpcRequest().WireBytes() + 16u);
  EXPECT_EQ(tx, rdma::RpcResponse().WireBytes() + ic.page_size);
}

TEST(CachedHybridTest, StaleRoutesRecoverAfterSplits) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  fc.clients_per_compute_machine = 1;  // writers leave the reader stale
  Cluster cluster(fc, 32 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  HybridIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 2000; ++i) data.push_back({i * 4, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  cluster.fabric().SetNumClients(2);

  // Reader caches the upper-level images for every live key.
  ClientContext reader(0, cluster.fabric(), ic.page_size, 1);
  struct Warm {
    static Task<> Go(HybridIndex& index, ClientContext& ctx) {
      for (Key k = 0; k < 2000 * 4; k += 4) {
        const LookupResult r = co_await index.Lookup(ctx, k);
        EXPECT_TRUE(r.found);
      }
    }
  };
  Spawn(cluster.simulator(), Warm::Go(index, reader));
  cluster.simulator().Run();

  // A writer splits most leaves; the reader's cached level-1 images now
  // route to pre-split leaves whose upper halves moved right.
  ClientContext writer(1, cluster.fabric(), ic.page_size, 2);
  struct Writer {
    static Task<> Go(HybridIndex& index, ClientContext& ctx) {
      for (Key k = 1; k < 8000; k += 2) {
        EXPECT_TRUE((co_await index.Insert(ctx, k, k)).ok());
      }
    }
  };
  Spawn(cluster.simulator(), Writer::Go(index, writer));
  cluster.simulator().Run();

  // The reader re-reads every key through its stale images: the B-link
  // sibling chase must recover each one.
  struct Verify {
    static Task<> Go(HybridIndex& index, ClientContext& ctx,
                     uint64_t* missing) {
      for (Key k = 0; k < 8000; ++k) {
        if (k % 4 == 2) continue;  // even but not a bulk-loaded multiple of 4
        const LookupResult r = co_await index.Lookup(ctx, k);
        if (!r.found) (*missing)++;
      }
    }
  };
  const uint64_t hits_before = CacheCount(cluster, "client.cache.hits");
  uint64_t missing = 0;
  Spawn(cluster.simulator(), Verify::Go(index, reader, &missing));
  cluster.simulator().Run();
  const uint64_t route_hits =
      CacheCount(cluster, "client.cache.hits") - hits_before;
  EXPECT_EQ(missing, 0u) << "a stale image lost keys";
  EXPECT_GT(route_hits, 0u) << "the verify pass never exercised the cache";
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
}

// ---- One cache per compute machine, repaired on the chase ------------------

/// The leaf page image at `ptr`, read straight from its memory region.
btree::PageView LeafAt(Cluster& cluster, rdma::RemotePtr ptr,
                       uint32_t page_size) {
  return btree::PageView(
      cluster.fabric().region(ptr.server_id())->at(ptr.offset()), page_size);
}

TEST(MachineCacheTest, ClientsOfOneMachineShareImages) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  fc.clients_per_compute_machine = 40;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  FineGrainedIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 20000; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  ASSERT_GE(index.root_level(), 2u);
  cluster.fabric().SetNumClients(41);

  // Clients 0 and 39 share machine 0; client 40 is on machine 1.
  ClientContext first(0, cluster.fabric(), ic.page_size, 1);
  ClientContext neighbour(39, cluster.fabric(), ic.page_size, 2);
  ClientContext remote(40, cluster.fabric(), ic.page_size, 3);
  EXPECT_EQ(index.CacheFor(0), index.CacheFor(39));
  EXPECT_NE(index.CacheFor(0), index.CacheFor(40));

  struct Driver {
    static Task<> Go(FineGrainedIndex& index, ClientContext& first,
                     ClientContext& neighbour, ClientContext& remote) {
      const uint64_t cold = index.root_level() + 1u;  // every level + leaf
      EXPECT_TRUE((co_await index.Lookup(first, 7000)).found);
      EXPECT_EQ(first.round_trips, cold);
      // The neighbour's first lookup descends through the images the first
      // client cached: the leaf READ is its only round trip.
      EXPECT_TRUE((co_await index.Lookup(neighbour, 7000)).found);
      EXPECT_EQ(neighbour.round_trips, 1u);
      // Another machine's client starts cold.
      EXPECT_TRUE((co_await index.Lookup(remote, 7000)).found);
      EXPECT_EQ(remote.round_trips, cold);
    }
  };
  Spawn(cluster.simulator(), Driver::Go(index, first, neighbour, remote));
  cluster.simulator().Run();
  const auto& registry = cluster.fabric().metrics();
  EXPECT_EQ(registry.Value("client.cache.hits", "machine", "0"),
            index.root_level());
  EXPECT_EQ(registry.Value("client.cache.hits", "machine", "1"), 0u);
}

TEST(RouteRepairTest, ChasePastStaleLevelOneImageDropsIt) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  fc.clients_per_compute_machine = 1;  // the writer leaves the reader stale
  Cluster cluster(fc, 32 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 1024;
  FineGrainedIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 2000; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  ASSERT_GE(index.root_level(), 2u);
  cluster.fabric().SetNumClients(2);

  // A leaf in the middle of the chain; `key` is its largest entry, so any
  // split of the leaf moves `key` into the right half.
  rdma::RemotePtr leaf = index.first_leaf();
  for (int i = 0; i < 50; ++i) {
    leaf =
        rdma::RemotePtr(LeafAt(cluster, leaf, ic.page_size).right_sibling());
  }
  const btree::PageView before = LeafAt(cluster, leaf, ic.page_size);
  ASSERT_GE(before.count(), 4u);
  const Key key = before.leaf_entries()[before.count() - 1].key;

  ClientContext reader(0, cluster.fabric(), ic.page_size, 1);
  ClientContext writer(1, cluster.fabric(), ic.page_size, 2);
  struct Driver {
    static Task<> Go(Cluster& cluster, FineGrainedIndex& index,
                     ClientContext& reader, ClientContext& writer,
                     rdma::RemotePtr leaf, Key key) {
      const uint32_t page = index.page_size();
      EXPECT_TRUE((co_await index.Lookup(reader, key)).found);
      // Odd keys inside the leaf's range split it (writer's own machine
      // cache; the separator install rewrites the reader's cached parent
      // remotely).
      for (Key k = key - 1; k + 6 > key; k -= 2) {
        EXPECT_TRUE((co_await index.Insert(writer, k, k)).ok());
      }
      EXPECT_LE(LeafAt(cluster, leaf, page).high_key(), key)
          << "the inserts did not split the key out of its leaf";

      const auto invalidations = [&cluster] {
        return cluster.fabric().metrics().Value(
            "client.cache.invalidations", "machine", "0");
      };
      // Stale parent: the leaf READ, then the chase to the right half.
      uint64_t rtt = reader.round_trips;
      EXPECT_TRUE((co_await index.Lookup(reader, key)).found);
      EXPECT_EQ(reader.round_trips - rtt, 2u);
      EXPECT_EQ(invalidations(), 1u) << "the chase kept the stale parent";
      // The parent is re-read once and routes straight to the right half.
      rtt = reader.round_trips;
      EXPECT_TRUE((co_await index.Lookup(reader, key)).found);
      EXPECT_EQ(reader.round_trips - rtt, 2u);
      // Warm again: one RTT, no chase.
      rtt = reader.round_trips;
      EXPECT_TRUE((co_await index.Lookup(reader, key)).found);
      EXPECT_EQ(reader.round_trips - rtt, 1u);
      EXPECT_EQ(invalidations(), 1u);
    }
  };
  Spawn(cluster.simulator(),
        Driver::Go(cluster, index, reader, writer, leaf, key));
  cluster.simulator().Run();
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
}

TEST(CachedHybridTest, KeyEqualToSplitSeparatorKeepsItsLeftRoute) {
  // A run of duplicates splits its leaf at a separator equal to the key;
  // the left half keeps duplicates of its fence. The inserting client's
  // cached images must keep routing the key to the left half, or its
  // LookupAll misses them.
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  Cluster cluster(fc, 16 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 1024;
  HybridIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 200; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());

  ClientContext ctx(0, cluster.fabric(), ic.page_size, 1);
  struct Driver {
    static Task<> Go(HybridIndex& index, ClientContext& ctx) {
      const Key key = 100;
      for (uint64_t i = 0; i < 40; ++i) {
        EXPECT_TRUE((co_await index.Insert(ctx, key, 1000 + i)).ok());
      }
      std::vector<btree::Value> values;
      EXPECT_EQ(co_await index.LookupAll(ctx, key, &values), 41u);
    }
  };
  Spawn(cluster.simulator(), Driver::Go(index, ctx));
  cluster.simulator().Run();
}

TEST(CachedHybridTest, RouteNeverMovesPastAFenceEqualToTheKey) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  fc.clients_per_compute_machine = 1;  // the writer leaves the reader stale
  Cluster cluster(fc, 16 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 1024;
  HybridIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 200; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  cluster.fabric().SetNumClients(2);

  const Key key = 100;
  ClientContext reader(0, cluster.fabric(), ic.page_size, 1);
  ClientContext writer(1, cluster.fabric(), ic.page_size, 2);
  struct Driver {
    static Task<> Go(HybridIndex& index, ClientContext& reader,
                     ClientContext& writer, Key key) {
      // The reader caches the images routing the key; the writer's run of
      // duplicates then splits its leaf into leaves fenced at the key.
      EXPECT_TRUE((co_await index.Lookup(reader, key)).found);
      for (uint64_t i = 0; i < 40; ++i) {
        EXPECT_TRUE((co_await index.Insert(writer, key, 1000 + i)).ok());
      }
      // A key past the split chases from the stale level-1 image, which is
      // dropped; the next lookup fetches the split's separators.
      EXPECT_TRUE((co_await index.Lookup(reader, key + 2)).found);
      std::vector<btree::Value> values;
      EXPECT_EQ(co_await index.LookupAll(reader, key, &values), 41u);
    }
  };
  Spawn(cluster.simulator(), Driver::Go(index, reader, writer, key));
  cluster.simulator().Run();
  EXPECT_GE(cluster.fabric().metrics().Value("client.cache.invalidations",
                                             "machine", "0"),
            1u)
      << "the reader never dropped its stale level-1 image";

  // The leftmost leaf that may still hold the key: the first whose high
  // fence is not strictly below it.
  rdma::RemotePtr target = index.first_leaf();
  for (;;) {
    const btree::PageView v = LeafAt(cluster, target, ic.page_size);
    if (!v.NeedsChase(key) || v.high_key() >= key) break;
    target = rdma::RemotePtr(v.right_sibling());
  }
  ASSERT_EQ(LeafAt(cluster, target, ic.page_size).high_key(), key)
      << "no leaf is fenced at the key: the test lost its premise";
  EXPECT_EQ(index.PredictLeaf(0, 0, key), target)
      << "the cached images do not route the key to the leftmost leaf "
         "that may hold it";
}

TEST(CatalogBootstrapTest, FreshClientLearnsTheRootRemotely) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  FineGrainedIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 5000; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  const rdma::RemotePtr loaded_root = index.root();
  const uint8_t loaded_level = index.root_level();

  ClientContext ctx(0, cluster.fabric(), ic.page_size, 1);
  struct Driver {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     rdma::RemotePtr expected_root, uint8_t expected_level) {
      EXPECT_TRUE((co_await index.BootstrapFromCatalog(ctx)).ok());
      EXPECT_EQ(index.root().raw(), expected_root.raw());
      EXPECT_EQ(index.root_level(), expected_level);
      // Grow the root via splits; the catalog write keeps bootstrap fresh.
      for (uint64_t k = 0; k < 5000; ++k) {
        EXPECT_TRUE((co_await index.Insert(ctx, k * 2 + 1, k)).ok());
      }
      const rdma::RemotePtr grown = index.root();
      EXPECT_TRUE((co_await index.BootstrapFromCatalog(ctx)).ok());
      EXPECT_EQ(index.root().raw(), grown.raw());
      const LookupResult r = co_await index.Lookup(ctx, 101);
      EXPECT_TRUE(r.found);
    }
  };
  Spawn(cluster.simulator(),
        Driver::Go(index, ctx, loaded_root, loaded_level));
  cluster.simulator().Run();
}

TEST(CatalogBootstrapTest, FreshCoarseOneSidedClientLearnsEveryPartitionRoot) {
  constexpr uint32_t kServers = 4;
  rdma::FabricConfig fc;
  fc.num_memory_servers = kServers;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  CoarseOneSidedIndex index(cluster, ic);  // the cluster's first slot: 0
  std::vector<KV> data;
  for (uint64_t i = 0; i < 5000; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  ASSERT_EQ(index.num_trees(), kServers);
  const uint64_t slot = rdma::MemoryRegion::CatalogSlotOffset(0);
  std::vector<rdma::RemotePtr> loaded(kServers);
  for (uint32_t s = 0; s < kServers; ++s) {
    loaded[s] = index.root(s);
    ASSERT_GE(index.root_level(s), 1u) << "partition " << s;
    EXPECT_EQ(cluster.fabric().region(s)->ReadU64(slot), loaded[s].raw())
        << "partition " << s << " root not published on its server";
  }

  // A writer grows the partition roots; the catalog follows them.
  ClientContext writer(0, cluster.fabric(), ic.page_size, 1);
  struct Writer {
    static Task<> Go(CoarseOneSidedIndex& index, ClientContext& ctx) {
      for (uint64_t k = 0; k < 5000; ++k) {
        EXPECT_TRUE((co_await index.Insert(ctx, k * 2 + 1, k)).ok());
      }
    }
  };
  Spawn(cluster.simulator(), Writer::Go(index, writer));
  cluster.simulator().Run();
  uint32_t grown = 0;
  for (uint32_t s = 0; s < kServers; ++s) {
    EXPECT_EQ(cluster.fabric().region(s)->ReadU64(slot),
              index.root(s).raw());
    if (index.root(s) != loaded[s]) grown++;
  }
  ASSERT_GT(grown, 0u) << "no partition root grew";

  // A fresh client learns each partition root from its slot alone: plant
  // the bulk-loaded roots there, which still route (too far left) to every
  // key through the B-link chase.
  for (uint32_t s = 0; s < kServers; ++s) {
    cluster.fabric().region(s)->WriteU64(slot, loaded[s].raw());
  }
  ClientContext fresh(40, cluster.fabric(), ic.page_size, 2);
  struct Reader {
    static Task<> Go(CoarseOneSidedIndex& index, ClientContext& ctx,
                     std::vector<rdma::RemotePtr> expected, uint64_t* found) {
      EXPECT_TRUE((co_await index.BootstrapFromCatalog(ctx)).ok());
      for (uint32_t s = 0; s < expected.size(); ++s) {
        EXPECT_EQ(index.root(s).raw(), expected[s].raw()) << "partition " << s;
      }
      for (Key k = 0; k < 10000; ++k) {
        const LookupResult r = co_await index.Lookup(ctx, k);
        EXPECT_EQ(r.value, k / 2) << "lookup(" << k << ")";
        if (r.found) (*found)++;
      }
    }
  };
  uint64_t found = 0;
  Spawn(cluster.simulator(), Reader::Go(index, fresh, loaded, &found));
  cluster.simulator().Run();
  EXPECT_EQ(found, 10000u);
}

}  // namespace
}  // namespace namtree::index
