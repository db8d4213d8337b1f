// Tests for LocalBLinkTree, the real-thread instantiation of the OLC B-link
// core (btree::BLinkTree) whose virtual-time instantiation is the memory
// server's tree in the coarse-grained design: single-threaded correctness
// against a reference model, duplicates, deletes + GC, scans, bulk load, and
// real multi-threaded stress with std::thread over the same protocol the CG
// handlers run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "btree/local_tree.h"
#include "common/random.h"

namespace namtree::btree {
namespace {

TEST(LocalTreeTest, EmptyTreeMissesEverything) {
  LocalBLinkTree tree(512);
  EXPECT_TRUE(tree.Lookup(1).status().IsNotFound());
  EXPECT_TRUE(tree.Delete(1).IsNotFound());
  std::vector<KV> out;
  EXPECT_EQ(tree.Scan(0, kInfinityKey, &out), 0u);
}

TEST(LocalTreeTest, InsertLookupRoundTrip) {
  LocalBLinkTree tree(512);
  for (Key k = 0; k < 1000; ++k) {
    ASSERT_TRUE(tree.Insert(k * 3, k).ok());
  }
  for (Key k = 0; k < 1000; ++k) {
    auto r = tree.Lookup(k * 3);
    ASSERT_TRUE(r.ok()) << "key " << k * 3;
    EXPECT_EQ(r.value(), k);
    EXPECT_FALSE(tree.Lookup(k * 3 + 1).ok());
  }
}

TEST(LocalTreeTest, SplitsGrowTheTree) {
  LocalBLinkTree tree(256);  // tiny pages force frequent splits
  const uint64_t n = 20000;
  for (Key k = 0; k < n; ++k) {
    ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  }
  auto stats = tree.GetStats();
  EXPECT_EQ(stats.live_entries, n);
  EXPECT_GT(stats.height, 2u);
  for (Key k = 0; k < n; k += 97) {
    auto r = tree.Lookup(k);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), k + 1);
  }
}

TEST(LocalTreeTest, DescendingInsertOrder) {
  LocalBLinkTree tree(256);
  for (Key k = 5000; k > 0; --k) {
    ASSERT_TRUE(tree.Insert(k, k).ok());
  }
  std::vector<KV> out;
  EXPECT_EQ(tree.Scan(1, 5001, &out), 5000u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].key, out[i].key);
  }
}

TEST(LocalTreeTest, DuplicateKeysAllFindable) {
  LocalBLinkTree tree(256);
  // More duplicates of one key than a leaf can hold.
  const uint32_t dupes = 500;
  for (uint32_t i = 0; i < dupes; ++i) {
    ASSERT_TRUE(tree.Insert(42, 1000 + i).ok());
    ASSERT_TRUE(tree.Insert(41, i).ok());
    ASSERT_TRUE(tree.Insert(43, i).ok());
  }
  EXPECT_TRUE(tree.Lookup(42).ok());
  std::vector<KV> out;
  EXPECT_EQ(tree.Scan(42, 43, &out), dupes);
  std::set<Value> values;
  for (const KV& kv : out) {
    EXPECT_EQ(kv.key, 42u);
    values.insert(kv.value);
  }
  EXPECT_EQ(values.size(), dupes) << "every duplicate must be distinct";
}

TEST(LocalTreeTest, ScanRespectsBounds) {
  LocalBLinkTree tree(512);
  for (Key k = 0; k < 300; ++k) (void)tree.Insert(k * 10, k);
  std::vector<KV> out;
  EXPECT_EQ(tree.Scan(100, 200, &out), 10u);
  EXPECT_EQ(out.front().key, 100u);
  EXPECT_EQ(out.back().key, 190u);
  out.clear();
  EXPECT_EQ(tree.Scan(105, 106, &out), 0u);
  EXPECT_EQ(tree.Scan(0, 1, nullptr), 1u);
  EXPECT_EQ(tree.Scan(50, 50, nullptr), 0u) << "empty interval";
}

TEST(LocalTreeTest, UpdateInPlace) {
  LocalBLinkTree tree(512);
  for (Key k = 0; k < 1000; ++k) (void)tree.Insert(k * 2, k);
  EXPECT_TRUE(tree.Update(100, 999).ok());
  EXPECT_EQ(tree.Lookup(100).value_or(0), 999u);
  EXPECT_TRUE(tree.Update(101, 1).IsNotFound());
  EXPECT_FALSE(tree.Lookup(101).ok()) << "failed update must not insert";
  // Updating a tombstoned key misses.
  (void)tree.Delete(100);
  EXPECT_TRUE(tree.Update(100, 5).IsNotFound());
}

TEST(LocalTreeTest, LookupAllAcrossPageBoundaries) {
  LocalBLinkTree tree(256);  // leaf capacity 10
  for (Key k = 0; k < 500; ++k) (void)tree.Insert(k * 10, k);
  for (uint64_t i = 0; i < 35; ++i) (void)tree.Insert(2500, 7000 + i);
  std::vector<Value> values;
  EXPECT_EQ(tree.LookupAll(2500, &values), 36u);  // base entry + 35 dupes
  std::set<Value> unique(values.begin(), values.end());
  EXPECT_EQ(unique.size(), 36u);
  EXPECT_EQ(tree.LookupAll(2501, nullptr), 0u);
  // Deletes reduce the collected set one entry at a time.
  (void)tree.Delete(2500);
  (void)tree.Delete(2500);
  EXPECT_EQ(tree.LookupAll(2500, nullptr), 34u);
}

TEST(LocalTreeTest, DeleteThenGarbageCollect) {
  LocalBLinkTree tree(512);
  const uint64_t n = 5000;
  for (Key k = 0; k < n; ++k) (void)tree.Insert(k, k);
  for (Key k = 0; k < n; k += 2) {
    ASSERT_TRUE(tree.Delete(k).ok());
  }
  EXPECT_FALSE(tree.Lookup(0).ok());
  EXPECT_TRUE(tree.Lookup(1).ok());
  auto before = tree.GetStats();
  EXPECT_EQ(before.tombstones, n / 2);
  EXPECT_EQ(tree.GarbageCollect(), n / 2);
  auto after = tree.GetStats();
  EXPECT_EQ(after.tombstones, 0u);
  EXPECT_EQ(after.live_entries, n / 2);
  EXPECT_FALSE(tree.Lookup(0).ok());
  EXPECT_TRUE(tree.Lookup(1).ok());
  // Deleted keys can be re-inserted.
  EXPECT_TRUE(tree.Insert(0, 777).ok());
  EXPECT_EQ(tree.Lookup(0).value_or(0), 777u);
}

TEST(LocalTreeTest, BulkLoadMatchesIncrementalContent) {
  const uint64_t n = 30000;
  std::vector<KV> data;
  for (Key k = 0; k < n; ++k) data.push_back({k * 2, k});
  LocalBLinkTree tree(1024);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  auto stats = tree.GetStats();
  EXPECT_EQ(stats.live_entries, n);
  for (Key k = 0; k < n; k += 101) {
    auto r = tree.Lookup(k * 2);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), k);
  }
  std::vector<KV> out;
  EXPECT_EQ(tree.Scan(0, n * 2, &out), n);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end(),
                             [](const KV& a, const KV& b) {
                               return a.key < b.key;
                             }));
  // Bulk-loaded trees accept further inserts.
  EXPECT_TRUE(tree.Insert(1, 999).ok());
  EXPECT_EQ(tree.Lookup(1).value_or(0), 999u);
}

class LocalTreeRandomTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, LocalTreeRandomTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

TEST_P(LocalTreeRandomTest, MatchesReferenceUnderRandomOps) {
  LocalBLinkTree tree(256);
  std::multimap<Key, Value> reference;
  Rng rng(GetParam());
  for (int step = 0; step < 20000; ++step) {
    const Key k = rng.NextBelow(2000);
    const double action = rng.NextDouble();
    if (action < 0.55) {
      const Value v = rng.Next() >> 1;
      ASSERT_TRUE(tree.Insert(k, v).ok());
      reference.emplace(k, v);
    } else if (action < 0.7) {
      const bool tree_deleted = tree.Delete(k).ok();
      auto it = reference.find(k);
      ASSERT_EQ(tree_deleted, it != reference.end()) << "key " << k;
      if (it != reference.end()) reference.erase(it);
    } else if (action < 0.9) {
      ASSERT_EQ(tree.Lookup(k).ok(), reference.count(k) > 0) << "key " << k;
    } else {
      const Key hi = k + 1 + rng.NextBelow(100);
      const uint64_t expected = std::distance(reference.lower_bound(k),
                                              reference.lower_bound(hi));
      ASSERT_EQ(tree.Scan(k, hi, nullptr), expected)
          << "range [" << k << ", " << hi << ")";
    }
    if (step % 5000 == 4999) tree.GarbageCollect();
  }
}

// ---- Real multi-threaded stress -------------------------------------------

TEST(LocalTreeConcurrencyTest, ParallelDisjointInserts) {
  LocalBLinkTree tree(256);
  const int threads = 8;
  const uint64_t per_thread = 4000;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&tree, t, per_thread] {
      for (uint64_t i = 0; i < per_thread; ++i) {
        ASSERT_TRUE(tree.Insert(i * threads + t, i).ok());
      }
    });
  }
  for (auto& w : workers) w.join();
  auto stats = tree.GetStats();
  EXPECT_EQ(stats.live_entries, per_thread * threads);
  for (uint64_t i = 0; i < per_thread * threads; i += 331) {
    EXPECT_TRUE(tree.Lookup(i).ok()) << "key " << i;
  }
}

TEST(LocalTreeConcurrencyTest, ReadersDuringWrites) {
  LocalBLinkTree tree(256);
  for (Key k = 0; k < 10000; k += 2) (void)tree.Insert(k, k);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_errors{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = rng.NextBelow(5000) * 2;
        if (!tree.Lookup(k).ok()) {
          reader_errors.fetch_add(1);
        }
        std::vector<KV> out;
        tree.Scan(k, k + 50, &out);
        for (size_t i = 1; i < out.size(); ++i) {
          if (out[i - 1].key > out[i].key) reader_errors.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    for (Key k = 1; k < 10000; k += 2) (void)tree.Insert(k, k);
    stop.store(true);
  });
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(reader_errors.load(), 0u)
      << "pre-existing keys must stay visible and scans sorted";
  auto stats = tree.GetStats();
  EXPECT_EQ(stats.live_entries, 10000u);
}

TEST(LocalTreeConcurrencyTest, ConcurrentUpdatesNeverTear) {
  LocalBLinkTree tree(256);
  const uint64_t n = 2000;
  for (Key k = 0; k < n; ++k) (void)tree.Insert(k, 0);
  // Writers update disjoint value namespaces; readers must always observe
  // a value some writer actually wrote (no torn/garbage values).
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&tree, t, n] {
      Rng rng(40 + t);
      for (int i = 0; i < 5000; ++i) {
        const Key k = rng.NextBelow(n);
        (void)tree.Update(k, (static_cast<Value>(t) << 32) | (i + 1));
      }
    });
  }
  std::thread reader([&] {
    Rng rng(99);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key k = rng.NextBelow(n);
      const auto r = tree.Lookup(k);
      if (!r.ok()) {
        bad.fetch_add(1);
        continue;
      }
      const Value v = r.value();
      const uint64_t writer = v >> 32;
      const uint64_t seq = v & 0xFFFFFFFF;
      if (v != 0 && (writer >= 4 || seq == 0 || seq > 5000)) {
        bad.fetch_add(1);
      }
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST(LocalTreeConcurrencyTest, MixedWorkloadKeepsInvariants) {
  LocalBLinkTree tree(256);
  for (Key k = 0; k < 5000; ++k) (void)tree.Insert(k * 4, k);
  std::vector<std::thread> workers;
  std::atomic<uint64_t> inserted{0};
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&tree, &inserted, t] {
      Rng rng(100 + t);
      for (int i = 0; i < 3000; ++i) {
        const double a = rng.NextDouble();
        const Key k = rng.NextBelow(20000);
        if (a < 0.4) {
          if (tree.Insert(k, k).ok()) inserted.fetch_add(1);
        } else if (a < 0.6) {
          (void)tree.Delete(k);
        } else if (a < 0.8) {
          tree.Lookup(k);
        } else {
          tree.Scan(k, k + 64, nullptr);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // Full-tree invariant check: scan everything, keys sorted, counts sane.
  std::vector<KV> out;
  const uint64_t total = tree.Scan(0, kInfinityKey, &out);
  EXPECT_EQ(total, out.size());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end(),
                             [](const KV& a, const KV& b) {
                               return a.key < b.key;
                             }));
  tree.GarbageCollect();
  EXPECT_EQ(tree.GetStats().tombstones, 0u);
}

}  // namespace
}  // namespace namtree::btree
