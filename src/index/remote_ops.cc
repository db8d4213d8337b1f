#include "index/remote_ops.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "btree/types.h"

namespace namtree::index {

using btree::IsLocked;
using Posting = rdma::Fabric::Posting;

namespace {

/// Trace verb of one posted member; READs riding a doorbell are batch
/// slots.
metrics::TraceVerb TraceVerbOf(RemoteOps::ChainOp::Kind kind, bool doorbell) {
  switch (kind) {
    case RemoteOps::ChainOp::Kind::kRead:
      return doorbell ? metrics::TraceVerb::kReadBatch
                      : metrics::TraceVerb::kRead;
    case RemoteOps::ChainOp::Kind::kWrite: return metrics::TraceVerb::kWrite;
    case RemoteOps::ChainOp::Kind::kCas: return metrics::TraceVerb::kCas;
    case RemoteOps::ChainOp::Kind::kFaa: return metrics::TraceVerb::kFaa;
  }
  return metrics::TraceVerb::kRead;
}

}  // namespace

RouteResult RemoteOps::ActingPrimary(rdma::RemotePtr primary) const {
  rdma::Fabric& fabric = ctx_->fabric();
  for (uint32_t r = 0; r < fabric.replication(); ++r) {
    const rdma::RemotePtr replica = fabric.ReplicaPtr(primary, r);
    if (fabric.ServerAlive(replica.server_id())) {
      return RouteResult{Status::OK(), replica};
    }
  }
  return RouteResult{Status::Unavailable("all replicas dead"),
                     rdma::RemotePtr::Null()};
}

RouteResult RemoteOps::LockedReplica(rdma::RemotePtr ptr) const {
  auto it = ctx_->lock_routes.find(ptr.raw());
  if (it != ctx_->lock_routes.end()) {
    return RouteResult{Status::OK(), rdma::RemotePtr(it->second)};
  }
  return ActingPrimary(ptr);
}

void RemoteOps::StampLocked(uint8_t* buf, uint64_t version) {
  const uint64_t locked = btree::MakeLockedWord(version, ctx_->client_id());
  std::memcpy(buf + btree::kVersionOffset, &locked, 8);
}

// Network-fault recovery discipline (docs/fault_model.md §8): a verb that
// comes back kLost is *ambiguous* — the fabric may have executed its memory
// effect and lost only the completion. Post therefore either (a) re-posts a
// chain that is byte-idempotent, or (b) resolves the ambiguity with a
// witness read-back before re-posting. Blind atomic re-posts are what the
// auditor's kUnresolvedAmbiguousRetry violation exists to catch. All
// re-posts are bounded by RetryPolicy::ForVerbs; exhaustion surfaces as
// kTimedOut so restart loops and the YCSB failure breakdown can tell a
// flaky link (kTimedOut) from a dead server (kUnavailable).
sim::Task<Status> RemoteOps::Post(std::span<const ChainOp> chain,
                                  int32_t watched, LostRule rule,
                                  Posting posting) {
  const rdma::RetryPolicy policy = VerbPolicy();
  // The members of one doorbell share a trace chain id.
  const bool doorbell = chain.size() > 1 || posting == Posting::kBatch;
  const uint64_t chain_id = doorbell ? ctx_->trace().NextChainId() : 0;
  for (uint32_t attempt = 0;; ++attempt) {
    const SimTime t0 = TraceStart();
    const rdma::Fabric::PostResult done =
        co_await fabric().Post(ctx_->client_id(), chain, posting);
    for (const ChainOp& op : chain) {
      ctx_->trace().Event(TraceVerbOf(op.kind, doorbell),
                          op.target.server_id(), chain_id, t0);
    }
    // A READ combined onto a sibling lane's in-flight one posts nothing.
    if (done.round_trips == 0) {
      ctx_->combined_reads.Inc();
    } else {
      ctx_->round_trips.Inc(done.round_trips);
    }
    if (!alive()) co_return Status::Unavailable("client crashed");
    if (watched != kNoWatch &&
        !fabric().ServerAlive(static_cast<uint32_t>(watched))) {
      // Whether the post landed or not, that server is gone: at R>1 the op
      // restarts against the promoted replica.
      co_return fabric().replicated()
          ? Status::Aborted("watched server died during the post")
          : Status::Unavailable("memory server dead");
    }
    if (done.ok()) co_return Status::OK();
    if (!rule.witness.is_null()) {
      uint64_t word = 0;
      const ChainOp read_back = ChainOp::Read(rule.witness, &word, 8);
      const Status witnessed =
          co_await Post({&read_back, 1}, kNoWatch, LostRule::Repost());
      if (!witnessed.ok()) co_return witnessed;
      switch (rule.judge(word)) {
        case Witnessed::kLanded: co_return Status::OK();
        case Witnessed::kLostRace:
          co_return Status::Aborted("lost race behind a lost completion");
        case Witnessed::kUntouched: break;  // re-posting cannot double-apply
      }
    }
    if (policy.Exhausted(attempt + 1)) {
      ctx_->verb_retry_exhausted.Inc();
      co_return Status::TimedOut("verb lost in the network");
    }
    ctx_->verb_retry_attempts.Inc();
    co_await sim::Delay(fabric().simulator(),
                        policy.BackoffFor(attempt, ctx_->rng()));
  }
}

sim::Task<Status> RemoteOps::ReadWord(rdma::RemotePtr at, uint64_t* out) {
  const ChainOp read = ChainOp::Read(at, out, 8);
  co_return co_await Post({&read, 1}, kNoWatch, LostRule::Repost());
}

sim::Task<Status> RemoteOps::WriteWord(rdma::RemotePtr at, uint64_t value) {
  const ChainOp write = ChainOp::Write(at, &value, 8);
  co_return co_await Post({&write, 1}, kNoWatch, LostRule::Repost());
}

sim::Task<Status> RemoteOps::WriteRaw(rdma::RemotePtr at, const void* src,
                                      uint32_t len) {
  const ChainOp write = ChainOp::Write(at, src, len);
  co_return co_await Post({&write, 1}, kNoWatch, LostRule::Repost());
}

sim::Task<Status> RemoteOps::ReadPagesBatch(std::vector<ChainOp> reads) {
  co_return co_await Post(reads, kNoWatch, LostRule::Repost(),
                          Posting::kBatch);
}

sim::Task<Status> RemoteOps::ReadPage(rdma::RemotePtr ptr, uint8_t* buf) {
  for (;;) {
    const RouteResult route = ActingPrimary(ptr);
    if (!route.ok()) co_return route.status;
    // With FabricConfig::read_combining a concurrent lane's identical READ
    // serves this one too.
    const ChainOp read = ChainOp::Read(route.ptr, buf, page_size());
    const Status status = co_await Post({&read, 1}, route.ptr.server_id(),
                                        LostRule::Repost(), Posting::kCombined);
    // Aborted: the acting primary died with the READ in flight. Promote
    // the next live replica (ActingPrimary re-resolves past the dead
    // server), so the loop is bounded by the replica count.
    if (!status.IsAborted()) co_return status;
    ctx_->restarts.Inc();
  }
}

sim::Task<PageReadResult> RemoteOps::ReadPageUnlocked(rdma::RemotePtr ptr,
                                                      uint8_t* buf) {
  const rdma::FabricConfig& cfg = fabric().config();
  sim::Simulator& simulator = fabric().simulator();
  const rdma::RetryPolicy lock_policy = rdma::RetryPolicy::ForLocks(cfg);
  const rdma::RetryPolicy steal_policy = rdma::RetryPolicy::ForSteal(cfg);
  // The exact locked word we have been watching, and since when. A change
  // of the word (new holder or new cycle) restarts both the lease window
  // and the backoff schedule.
  uint64_t watched_word = 0;
  SimTime locked_since = 0;
  uint32_t backoff_round = 0;
  // Consecutive liveness-registry probes that failed because the registry
  // host was dead; bounded like RPC retries so an unreachable registry
  // cannot wedge the waiter forever.
  uint32_t failed_probes = 0;
  // Each pass either returns, promotes past a dead replica, backs off
  // (capped exponential), or lease-steals from a dead holder.
  for (;;) {
    // Resolve the acting primary fresh each pass: the lock we watch (and
    // would steal) lives on the replica actually serving reads.
    const RouteResult route = ActingPrimary(ptr);
    if (!route.ok()) co_return PageReadResult{route.status, 0};
    const rdma::RemotePtr at = route.ptr;
    const ChainOp read = ChainOp::Read(at, buf, page_size());
    const Status status = co_await Post({&read, 1}, at.server_id(),
                                        LostRule::Repost(), Posting::kCombined);
    if (status.IsAborted()) {  // mid-read server death: promote and retry
      ctx_->restarts.Inc();
      continue;
    }
    if (!status.ok()) co_return PageReadResult{status, 0};
    uint64_t word;
    std::memcpy(&word, buf + btree::kVersionOffset, 8);
    if (!IsLocked(word)) co_return PageReadResult{Status::OK(), word};
    ctx_->lock_waits.Inc();

    if (word != watched_word) {
      watched_word = word;
      locked_since = simulator.now();
      backoff_round = 0;
    } else if (cfg.lock_lease_ns > 0 &&
               simulator.now() - locked_since >= cfg.lock_lease_ns) {
      // Lease expired on this exact locked word: consult the liveness
      // registry. Readers steal too — otherwise a dead writer wedges every
      // optimistic reader of the page forever.
      const uint32_t holder = btree::HolderOf(word);
      uint64_t holder_alive = 0;
      const ChainOp probe = ChainOp::Probe(fabric().LivenessRecord(holder),
                                           holder, &holder_alive);
      const Status probed = co_await Post(
          {&probe, 1}, probe.target.server_id(), LostRule::Repost());
      if (!alive()) {
        co_return PageReadResult{Status::Unavailable("client crashed"), 0};
      }
      if (!probed.ok()) {
        // The registry record's host is dead (or the probe was lost).
        // Bounded retry on the steal policy (the host's replica group may
        // recover a route), then give up cleanly instead of spinning
        // forever on the orphaned lock.
        failed_probes++;
        ctx_->steal_retry_attempts.Inc();
        if (steal_policy.Exhausted(failed_probes)) {
          ctx_->steal_retry_exhausted.Inc();
          co_return PageReadResult{
              Status::Unavailable("liveness registry unreachable"), 0};
        }
      } else {
        failed_probes = 0;
        if (holder_alive == 0) {
          // CAS the orphan's locked word back to unlocked, one full
          // version cycle ahead so the orphan's partial image never
          // revalidates. A lost steal CAS is judged by the word itself:
          // still the orphan's word = no effect; anything else = freed
          // (by us or a faster waiter). Any other failure is left to the
          // immediate re-read below.
          const rdma::RemotePtr word_at = at.Plus(btree::kVersionOffset);
          uint64_t pre = 0;  // a locked word is never 0
          const ChainOp steal =
              ChainOp::Cas(word_at, word, btree::StolenUnlockWord(word), &pre);
          const auto judge = [word](uint64_t now_word) {
            return now_word == word ? Witnessed::kUntouched
                                    : Witnessed::kLanded;
          };
          const Status stolen = co_await Post(
              {&steal, 1}, kNoWatch, LostRule::ReadBack(word_at, judge));
          if (stolen.IsUnavailable()) co_return PageReadResult{stolen, 0};
          if (pre == word) ctx_->lock_steals.Inc();
          // Re-read immediately (we or a faster waiter just freed it).
          watched_word = 0;
          backoff_round = 0;
          continue;
        }
        locked_since = simulator.now();  // holder is alive: renew the lease
      }
    }

    // Capped exponential backoff with per-client jitter: the delay doubles
    // per consecutive observation of the same locked word and is drawn
    // uniformly from [base/2, base) — RetryPolicy::BackoffFor is the
    // extracted historical formula (same single RNG draw per round).
    const SimTime delay = lock_policy.BackoffFor(backoff_round, ctx_->rng());
    ctx_->backoff_rounds.Inc();
    ctx_->lock_retry_attempts.Inc();
    backoff_round++;
    co_await sim::Delay(simulator, delay);
  }
}

sim::Task<Status> RemoteOps::TryLockPage(rdma::RemotePtr ptr,
                                         uint64_t version) {
  const RouteResult route = ActingPrimary(ptr);
  if (!route.ok()) co_return route.status;
  const rdma::RemotePtr word_at = route.ptr.Plus(btree::kVersionOffset);
  const uint64_t locked = btree::MakeLockedWord(version, ctx_->client_id());
  // A lost CAS is resolved by the holder stamp in our locked word: seeing
  // it proves the swap landed (only the ACK was lost), seeing `version`
  // proves it never executed. Blindly re-CASing instead is exactly what
  // the auditor's UnresolvedAmbiguousRetry violation flags.
  uint64_t pre = version;  // a swap proven by the witness keeps this
  const ChainOp cas = ChainOp::Cas(word_at, version, locked, &pre);
  const auto judge = [version, locked](uint64_t word) {
    if (word == locked) return Witnessed::kLanded;
    return word == version ? Witnessed::kUntouched : Witnessed::kLostRace;
  };
  const Status status = co_await Post({&cas, 1}, route.ptr.server_id(),
                                      LostRule::ReadBack(word_at, judge));
  if (!status.ok()) co_return status;
  if (pre != version) co_return Status::Aborted("lock CAS lost");
  if (fabric().replicated()) {
    // Remember which replica actually holds the lock so the release lands
    // there even if further failovers change the acting primary.
    ctx_->lock_routes[ptr.raw()] = route.ptr.raw();
  }
  co_return Status::OK();
}

sim::Task<PageReadResult> RemoteOps::LockPage(rdma::RemotePtr ptr,
                                              uint8_t* buf) {
  // ReadPageUnlocked backs off / steals, and every failure mode other than
  // a lost CAS race propagates.
  for (;;) {
    PageReadResult read = co_await ReadPageUnlocked(ptr, buf);
    if (!read.ok()) co_return read;
    const Status lock = co_await TryLockPage(ptr, read.version);
    if (lock.ok()) {
      // Keep the local image consistent with the now-locked remote word so
      // a later WriteUnlockPage does not transiently clear the lock bit.
      StampLocked(buf, read.version);
      co_return read;
    }
    if (!lock.IsAborted()) co_return PageReadResult{lock, 0};
    ctx_->restarts.Inc();
  }
}

sim::Task<Status> RemoteOps::Publish(rdma::RemotePtr sibling,
                                     const uint8_t* sibling_buf,
                                     rdma::RemotePtr ptr, const uint8_t* buf) {
  uint64_t word;
  std::memcpy(&word, buf + btree::kVersionOffset, 8);
  assert(IsLocked(word) && "image must carry the lock bit until the release");
  const RouteResult route = LockedReplica(ptr);
  if (!route.ok()) {
    ctx_->lock_routes.erase(ptr.raw());
    co_return route.status;
  }
  const rdma::RemotePtr locked_at = route.ptr;
  const uint32_t locked_server = locked_at.server_id();
  if (!fabric().ServerAlive(locked_server)) {
    // The lock evaporated with its server before we published anything:
    // retry the whole op against the promoted replica.
    ctx_->lock_routes.erase(ptr.raw());
    co_return fabric().replicated()
        ? Status::Aborted("locked primary died before publication")
        : Status::Unavailable("memory server dead");
  }
  const uint32_t page = page_size();
  const uint32_t replicas = fabric().replication();
  // The unlock WRITE installs the next version with the holder bits
  // cleared. Backup images carry the same clean word: a locked backup word
  // would wedge promotion forever (the holder is alive, so no waiter may
  // steal it), and version-equality across replicas must imply
  // content-equality.
  const uint64_t unlocked = btree::VersionOf(word) + 2;
  std::vector<uint8_t> backup_img;
  if (fabric().replicated()) {
    backup_img.assign(buf, buf + page);
    std::memcpy(backup_img.data() + btree::kVersionOffset, &unlocked, 8);
  }
  std::vector<ChainOp> chain;
  chain.reserve(2 * replicas + 1);
  if (!sibling.is_null()) {
    // Sibling backups ride unfenced: the sibling is unreachable until the
    // page WRITE below publishes the link, so an orphaned sibling replica
    // (its chain cut by a mid-chain server death) is harmless garbage.
    chain.push_back(ChainOp::Write(sibling, sibling_buf, page));
    for (uint32_t r = 1; r < replicas; ++r) {
      const rdma::RemotePtr rep = fabric().ReplicaPtr(sibling, r);
      if (fabric().ServerAlive(rep.server_id())) {
        chain.push_back(ChainOp::Write(rep, sibling_buf, page));
      }
    }
  }
  chain.push_back(ChainOp::Write(locked_at, buf, page));
  // Page backups are fenced on the locked primary: once it dies a reader
  // may already have promoted a backup, so a late backup WRITE must not
  // clobber the promoted copy.
  for (uint32_t r = 0; r < replicas; ++r) {
    const rdma::RemotePtr rep = fabric().ReplicaPtr(ptr, r);
    if (rep == locked_at || !fabric().ServerAlive(rep.server_id())) continue;
    ChainOp backup = ChainOp::Write(rep, backup_img.data(), page);
    backup.fence_server = static_cast<int32_t>(locked_server);
    chain.push_back(backup);
  }
  const rdma::RemotePtr word_at = locked_at.Plus(btree::kVersionOffset);
  chain.push_back(ChainOp::Write(word_at, &unlocked, 8));
  // A lost completion: the page stays ours until the unlock WRITE is
  // visible, so while the version word still reads our locked word nobody
  // can have modified the page and every member re-posts the same bytes.
  const auto judge = [word](uint64_t now_word) {
    return now_word == word ? Witnessed::kUntouched : Witnessed::kLanded;
  };
  const Status status =
      co_await Post(chain, locked_server, LostRule::ReadBack(word_at, judge));
  ctx_->lock_routes.erase(ptr.raw());
  co_return status;
}

sim::Task<Status> RemoteOps::WriteUnlockPage(rdma::RemotePtr ptr,
                                             const uint8_t* buf) {
  co_return co_await Publish(rdma::RemotePtr::Null(), nullptr, ptr, buf);
}

sim::Task<Status> RemoteOps::WriteSiblingAndUnlockPage(
    rdma::RemotePtr sibling, const uint8_t* sibling_buf, rdma::RemotePtr ptr,
    const uint8_t* buf) {
  co_return co_await Publish(sibling, sibling_buf, ptr, buf);
}

sim::Task<Status> RemoteOps::UnlockPage(rdma::RemotePtr ptr) {
  const RouteResult route = LockedReplica(ptr);
  ctx_->lock_routes.erase(ptr.raw());
  if (!route.ok()) co_return route.status;
  const uint32_t server = route.ptr.server_id();
  // A lock whose server died took the lock with it: the promoted replica
  // carries a clean unlocked word (backups never store locked words).
  if (fabric().replicated() && !fabric().ServerAlive(server)) {
    co_return Status::OK();
  }
  // Ambiguous release: while the word is still locked with our holder
  // stamp the FAA provably never executed; anything else means the release
  // is visible (or a lease steal intervened — either way a second +1 would
  // corrupt the word).
  const rdma::RemotePtr word_at = route.ptr.Plus(btree::kVersionOffset);
  const ChainOp faa = ChainOp::Faa(word_at, 1);
  const uint32_t me = ctx_->client_id();
  const auto judge = [me](uint64_t word) {
    return IsLocked(word) && btree::HolderOf(word) == me
               ? Witnessed::kUntouched
               : Witnessed::kLanded;
  };
  const Status status =
      co_await Post({&faa, 1}, server, LostRule::ReadBack(word_at, judge));
  // Aborted: the server died mid-release (R>1) — lock and server vanished
  // together.
  co_return status.IsAborted() ? Status::OK() : status;
}

sim::Task<Status> RemoteOps::WriteFreshPage(rdma::RemotePtr ptr,
                                            const uint8_t* buf) {
  // The page is unreachable until a later publication links it, so every
  // lost WRITE re-posts as-is.
  if (!fabric().replicated()) {
    const ChainOp write = ChainOp::Write(ptr, buf, page_size());
    co_return co_await Post({&write, 1}, ptr.server_id(), LostRule::Repost());
  }
  // Primary + all live backups, unfenced: partial replication after a
  // mid-chain death is harmless for the same reason.
  std::vector<ChainOp> chain;
  chain.reserve(fabric().replication());
  for (uint32_t r = 0; r < fabric().replication(); ++r) {
    const rdma::RemotePtr rep = fabric().ReplicaPtr(ptr, r);
    if (!fabric().ServerAlive(rep.server_id())) continue;
    chain.push_back(ChainOp::Write(rep, buf, page_size()));
  }
  if (chain.empty()) co_return Status::Unavailable("all replicas dead");
  co_return co_await Post(chain, kNoWatch, LostRule::Repost());
}

sim::Task<AllocResult> RemoteOps::AllocPage(uint32_t server) {
  const uint32_t n = fabric().num_memory_servers();
  // Each pass that does not return saw its target die under the FAA (R>1),
  // so the passes are bounded by the server count.
  for (uint32_t pass = 0; pass < n; ++pass) {
    // A dead home server's allocations move to the next live server
    // (replicated only); the new page's replica group is the formula group
    // of its actual host.
    uint32_t target = server;
    for (uint32_t i = 1; fabric().replicated() && i < n &&
                         !fabric().ServerAlive(target);
         ++i) {
      target = (server + i) % n;
    }
    if (!fabric().ServerAlive(target)) {
      co_return AllocResult{Status::Unavailable(fabric().replicated()
                                                    ? "all memory servers dead"
                                                    : "memory server dead"),
                            rdma::RemotePtr::Null()};
    }
    const rdma::RemotePtr cursor =
        rdma::RemotePtr::Make(target, rdma::MemoryRegion::kAllocCursorOffset);
    // Ambiguity bookkeeping: a lost allocation FAA leaves no witness in the
    // allocated slot (unlike lock words, cursor slots carry no holder
    // stamp), so pre-read the cursor while faults can fire. The extra READ
    // is gated on fault enablement — knobs-off runs stay verb-identical.
    uint64_t cursor_before = 0;
    bool have_cursor_before = false;
    if (fabric().NetFaultsLive()) {
      const Status pre = co_await ReadWord(cursor, &cursor_before);
      if (!pre.ok()) co_return AllocResult{pre, rdma::RemotePtr::Null()};
      have_cursor_before = true;
    }
    // Ambiguous allocation: the read-back cursor unchanged = our FAA never
    // executed, plain re-post. Moved = ours may be among the movers but is
    // indistinguishable from concurrent allocators', so re-draw
    // conservatively: at worst one page-size hole leaks in the stripe
    // (client.alloc_leaks counts the events).
    const auto judge = [&](uint64_t cursor_now) {
      if (have_cursor_before && cursor_now != cursor_before) {
        ctx_->alloc_leaks.Inc();
      }
      cursor_before = cursor_now;
      have_cursor_before = true;
      return Witnessed::kUntouched;
    };
    uint64_t offset = 0;
    const ChainOp faa = ChainOp::Faa(cursor, page_size(), &offset);
    const Status status =
        co_await Post({&faa, 1}, target, LostRule::ReadBack(cursor, judge));
    if (status.IsAborted()) continue;  // died mid-FAA: cursor never moved
    if (!status.ok()) co_return AllocResult{status, rdma::RemotePtr::Null()};
    if (offset + page_size() > fabric().AllocLimit(target)) {
      co_return AllocResult{Status::OutOfMemory("region exhausted"),
                            rdma::RemotePtr::Null()};
    }
    co_return AllocResult{Status::OK(), rdma::RemotePtr::Make(target, offset)};
  }
  co_return AllocResult{Status::Unavailable("all memory servers dead"),
                        rdma::RemotePtr::Null()};
}

sim::Task<AllocResult> RemoteOps::AllocPageRoundRobin() {
  const uint32_t servers = fabric().num_memory_servers();
  // Skip dead servers (bounded by the server count); exhaustion of the
  // chosen live server still surfaces as OutOfMemory, as before.
  for (uint32_t i = 0; i < servers; ++i) {
    const uint32_t server = ctx_->alloc_rr % servers;
    ctx_->alloc_rr++;
    if (!fabric().ServerAlive(server)) continue;
    co_return co_await AllocPage(server);
  }
  co_return AllocResult{Status::Unavailable("all memory servers dead"),
                        rdma::RemotePtr::Null()};
}

}  // namespace namtree::index
