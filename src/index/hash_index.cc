#include "index/hash_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>

#include "btree/types.h"
#include "rdma/memory_region.h"

namespace namtree::index {

using btree::Key;
using btree::KV;
using btree::Value;

namespace {

/// Host/client view over one 128-byte bucket image.
struct BucketView {
  explicit BucketView(uint8_t* data) : data_(data) {}

  uint64_t version() const { return Read64(0); }
  uint16_t count() const {
    uint16_t v;
    std::memcpy(&v, data_ + 8, 2);
    return v;
  }
  void set_count(uint16_t v) { std::memcpy(data_ + 8, &v, 2); }

  KV slot(uint32_t i) const {
    KV kv;
    std::memcpy(&kv, data_ + 16 + i * sizeof(KV), sizeof(KV));
    return kv;
  }
  void set_slot(uint32_t i, KV kv) {
    std::memcpy(data_ + 16 + i * sizeof(KV), &kv, sizeof(KV));
  }

  uint64_t overflow() const {
    return Read64(16 + DistributedHashIndex::kSlotsPerBucket * sizeof(KV));
  }
  void set_overflow(uint64_t raw) {
    std::memcpy(
        data_ + 16 + DistributedHashIndex::kSlotsPerBucket * sizeof(KV),
        &raw, 8);
  }

  void Init() { std::memset(data_, 0, DistributedHashIndex::kBucketBytes); }

  /// Index of the first slot holding `key`, or -1.
  int32_t Find(Key key) const {
    for (uint32_t i = 0; i < count(); ++i) {
      if (slot(i).key == key) return static_cast<int32_t>(i);
    }
    return -1;
  }

 private:
  uint64_t Read64(uint32_t offset) const {
    uint64_t v;
    std::memcpy(&v, data_ + offset, 8);
    return v;
  }

  uint8_t* data_;
};

/// The shared walk of Update and Delete: follows the bucket chain from
/// `head` to the first bucket holding `key`, locks it at the version read,
/// applies `modify` to that slot and publishes the bucket with one
/// {WRITE, unlock} chain. NotFound when no bucket holds `key`.
sim::Task<Status> ModifyFirst(
    RemoteOps ops, rdma::RemotePtr head, Key key,
    std::function<void(BucketView, uint32_t)> modify) {
  uint8_t* buf = ops.ctx().page_a();
  rdma::RemotePtr ptr = head;
  while (!ptr.is_null()) {
    const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
    if (!read.ok()) co_return read.status;
    BucketView bucket(buf);
    const int32_t i = bucket.Find(key);
    if (i < 0) {
      ptr = rdma::RemotePtr(bucket.overflow());
      continue;
    }
    const Status lock = co_await ops.TryLockPage(ptr, read.version);
    if (!lock.ok()) {
      if (!lock.IsAborted()) co_return lock;
      ops.ctx().restarts.Inc();
      continue;  // re-read the same bucket
    }
    ops.StampLocked(buf, read.version);
    modify(bucket, static_cast<uint32_t>(i));
    const Status wu = co_await ops.WriteUnlockPage(ptr, buf);
    if (wu.IsAborted()) {
      ops.ctx().restarts.Inc();  // primary died mid-publication: retry promoted
      continue;
    }
    co_return wu;
  }
  co_return Status::NotFound();
}

}  // namespace

DistributedHashIndex::DistributedHashIndex(nam::Cluster& cluster,
                                           IndexConfig config,
                                           double buckets_per_key)
    : cluster_(cluster), config_(config), buckets_per_key_(buckets_per_key) {}

uint64_t DistributedHashIndex::HashKey(Key key) {
  uint64_t h = key * 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

rdma::RemotePtr DistributedHashIndex::HeadBucketFor(Key key) const {
  const uint64_t h = HashKey(key);
  const uint32_t servers = cluster_.num_memory_servers();
  const uint32_t server = static_cast<uint32_t>(h % servers);
  const uint64_t bucket = (h / servers) % buckets_per_server_;
  return rdma::RemotePtr::Make(server,
                               base_offsets_[server] + bucket * kBucketBytes);
}

Status DistributedHashIndex::BulkLoad(std::span<const KV> sorted) {
  const uint32_t servers = cluster_.num_memory_servers();
  buckets_per_server_ = std::max<uint64_t>(
      16, static_cast<uint64_t>(buckets_per_key_ *
                                static_cast<double>(sorted.size())) /
              servers);
  base_offsets_.assign(servers, 0);
  for (uint32_t s = 0; s < servers; ++s) {
    const rdma::RemotePtr base = cluster_.fabric().region(s)->AllocateLocal(
        buckets_per_server_ * kBucketBytes);
    if (base.is_null()) return Status::OutOfMemory("bucket arrays");
    base_offsets_[s] = base.offset();
    std::memset(cluster_.fabric().region(s)->at(base.offset()), 0,
                buckets_per_server_ * kBucketBytes);
  }

  // Host-side scatter of the initial data, chaining overflows as needed.
  for (const KV& kv : sorted) {
    rdma::RemotePtr ptr = HeadBucketFor(kv.key);
    for (;;) {
      rdma::MemoryRegion* region = cluster_.fabric().region(ptr.server_id());
      BucketView bucket(region->at(ptr.offset()));
      if (bucket.count() < kSlotsPerBucket) {
        bucket.set_slot(bucket.count(), kv);
        bucket.set_count(bucket.count() + 1);
        break;
      }
      if (bucket.overflow() != 0) {
        ptr = rdma::RemotePtr(bucket.overflow());
        continue;
      }
      const rdma::RemotePtr next = region->AllocateLocal(kBucketBytes);
      if (next.is_null()) return Status::OutOfMemory("overflow bucket");
      BucketView(region->at(next.offset())).Init();
      bucket.set_overflow(next.raw());
      ptr = next;
    }
  }
  // Seed backup replicas from the bulk-loaded primaries (no-op at R=1).
  cluster_.fabric().SyncReplicasFromPrimaries();
  return Status::OK();
}

sim::Task<LookupResult> DistributedHashIndex::Lookup(nam::ClientContext& ctx,
                                                     Key key) {
  metrics::OpSpan span(ctx.trace(), "lookup");
  RemoteOps ops(ctx);
  uint8_t* buf = ctx.page_a();
  rdma::RemotePtr ptr = HeadBucketFor(key);
  while (!ptr.is_null()) {
    const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
    if (!read.ok()) co_return LookupResult{false, 0, read.status};
    BucketView bucket(buf);
    const int32_t i = bucket.Find(key);
    if (i >= 0) {
      co_return LookupResult{true, bucket.slot(i).value, Status::OK()};
    }
    ptr = rdma::RemotePtr(bucket.overflow());
  }
  co_return LookupResult{false, 0, Status::OK()};
}

sim::Task<uint64_t> DistributedHashIndex::Scan(nam::ClientContext& ctx,
                                               Key lo, Key hi,
                                               std::vector<KV>* out,
                                               Status* status) {
  metrics::OpSpan span(ctx.trace(), "scan");
  // Range queries are the tree designs' raison d'etre; a hash index simply
  // cannot serve them (paper §8). Not a failure — the count is exactly 0.
  (void)ctx;
  (void)lo;
  (void)hi;
  (void)out;
  if (status != nullptr) *status = Status::OK();
  co_return 0;
}

sim::Task<Status> DistributedHashIndex::Insert(nam::ClientContext& ctx,
                                               Key key, Value value) {
  metrics::OpSpan span(ctx.trace(), "insert");
  RemoteOps ops(ctx);
  uint8_t* buf = ctx.page_a();
  rdma::RemotePtr ptr = HeadBucketFor(key);
  // Bounded: chain hops terminate and lock retries back off / propagate
  // failures. namtree-lint: bounded-loop(chain)
  for (;;) {
    const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
    if (!read.ok()) co_return read.status;
    BucketView bucket(buf);
    if (bucket.count() >= kSlotsPerBucket && bucket.overflow() != 0) {
      ptr = rdma::RemotePtr(bucket.overflow());
      continue;
    }
    const Status lock = co_await ops.TryLockPage(ptr, read.version);
    if (!lock.ok()) {
      if (!lock.IsAborted()) co_return lock;
      ctx.restarts.Inc();
      continue;
    }
    ops.StampLocked(buf, read.version);

    if (bucket.count() < kSlotsPerBucket) {
      bucket.set_slot(bucket.count(), KV{key, value});
      bucket.set_count(bucket.count() + 1);
      const Status wu = co_await ops.WriteUnlockPage(ptr, buf);
      if (wu.IsAborted()) {
        ctx.restarts.Inc();  // primary died mid-publication: retry promoted
        continue;
      }
      co_return wu;
    }
    // Full tail bucket: chain a fresh overflow bucket holding the entry.
    const AllocResult next_alloc = co_await ops.AllocPage(ptr.server_id());
    if (!next_alloc.ok()) {
      if (!ops.alive()) co_return Status::Unavailable("client crashed");
      (void)co_await ops.UnlockPage(ptr);
      if (next_alloc.status.IsOutOfMemory()) {
        co_return Status::OutOfMemory("overflow bucket");
      }
      co_return next_alloc.status;
    }
    const rdma::RemotePtr next = next_alloc.ptr;
    std::vector<uint8_t> fresh(kBucketBytes, 0);
    BucketView next_bucket(fresh.data());
    next_bucket.set_slot(0, KV{key, value});
    next_bucket.set_count(1);
    // Crashing here orphans the bucket lock (lease-steal reclaims it) and
    // leaks the unpublished overflow bucket — both sound.
    const Status fresh_write =
        co_await ops.WriteRaw(next, fresh.data(), kBucketBytes);
    if (!fresh_write.ok()) co_return fresh_write;
    bucket.set_overflow(next.raw());
    const Status wu = co_await ops.WriteUnlockPage(ptr, buf);
    if (wu.IsAborted()) {
      ctx.restarts.Inc();  // overflow bucket leaks (unreachable); retry promoted
      continue;
    }
    co_return wu;
  }
}

sim::Task<Status> DistributedHashIndex::Update(nam::ClientContext& ctx,
                                               Key key, Value value) {
  metrics::OpSpan span(ctx.trace(), "update");
  co_return co_await ModifyFirst(
      RemoteOps(ctx), HeadBucketFor(key), key,
      [value](BucketView bucket, uint32_t i) {
        KV kv = bucket.slot(i);
        kv.value = value;
        bucket.set_slot(i, kv);
      });
}

sim::Task<uint64_t> DistributedHashIndex::LookupAll(nam::ClientContext& ctx,
                                                    Key key,
                                                    std::vector<Value>* out) {
  metrics::OpSpan span(ctx.trace(), "lookup_all");
  RemoteOps ops(ctx);
  uint8_t* buf = ctx.page_a();
  rdma::RemotePtr ptr = HeadBucketFor(key);
  uint64_t found = 0;
  while (!ptr.is_null()) {
    const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
    if (!read.ok()) break;  // degraded: report the matches found so far
    BucketView bucket(buf);
    for (uint32_t i = 0; i < bucket.count(); ++i) {
      if (bucket.slot(i).key == key) {
        if (out != nullptr) out->push_back(bucket.slot(i).value);
        found++;
      }
    }
    ptr = rdma::RemotePtr(bucket.overflow());
  }
  co_return found;
}

sim::Task<Status> DistributedHashIndex::Delete(nam::ClientContext& ctx,
                                               Key key) {
  metrics::OpSpan span(ctx.trace(), "delete");
  co_return co_await ModifyFirst(
      RemoteOps(ctx), HeadBucketFor(key), key,
      [](BucketView bucket, uint32_t i) {
        // In-place removal: swap the last slot down (hash order is
        // arbitrary).
        bucket.set_slot(i, bucket.slot(bucket.count() - 1));
        bucket.set_count(bucket.count() - 1);
      });
}

sim::Task<uint64_t> DistributedHashIndex::GarbageCollect(
    nam::ClientContext& ctx) {
  (void)ctx;
  co_return 0;  // deletes are physical; nothing to reclaim
}

DistributedHashIndex::Report DistributedHashIndex::ValidateStructure() const {
  Report report;
  const uint64_t chain_limit = 1'000'000;  // cycle guard
  for (uint32_t s = 0; s < cluster_.num_memory_servers(); ++s) {
    rdma::MemoryRegion* region = cluster_.fabric().region(s);
    for (uint64_t b = 0; b < buckets_per_server_; ++b) {
      rdma::RemotePtr ptr =
          rdma::RemotePtr::Make(s, base_offsets_[s] + b * kBucketBytes);
      report.head_buckets++;
      uint64_t hops = 0;
      bool head = true;
      while (!ptr.is_null()) {
        if (++hops > chain_limit) {
          report.violations.push_back("overflow chain cycle at server " +
                                      std::to_string(s) + " bucket " +
                                      std::to_string(b));
          break;
        }
        if (ptr.server_id() != s ||
            !region->Contains(ptr.offset(), kBucketBytes)) {
          report.violations.push_back("bad bucket pointer " + ptr.ToString());
          break;
        }
        BucketView bucket(region->at(ptr.offset()));
        if (!head) report.overflow_buckets++;
        if (btree::IsLocked(bucket.version())) {
          report.violations.push_back("leaked lock at " + ptr.ToString());
        }
        if (bucket.count() > kSlotsPerBucket) {
          report.violations.push_back("count over capacity at " +
                                      ptr.ToString());
          break;
        }
        for (uint32_t i = 0; i < bucket.count(); ++i) {
          report.entries++;
          const rdma::RemotePtr home = HeadBucketFor(bucket.slot(i).key);
          if (home.server_id() != s ||
              home.offset() != base_offsets_[s] + b * kBucketBytes) {
            report.violations.push_back("misplaced key " +
                                        std::to_string(bucket.slot(i).key));
          }
        }
        ptr = rdma::RemotePtr(bucket.overflow());
        head = false;
      }
    }
  }
  return report;
}

}  // namespace namtree::index
