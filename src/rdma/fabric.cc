#include "rdma/fabric.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace namtree::rdma {

namespace {

// Modeled wire sizes of verb envelopes (request headers, acks).
constexpr uint32_t kReadRequestBytes = 16;
constexpr uint32_t kWriteHeaderBytes = 16;
constexpr uint32_t kAtomicRequestBytes = 32;
constexpr uint32_t kAtomicResponseBytes = 16;
constexpr uint32_t kAckBytes = 8;

/// Suite-wide schedule-exploration override: NAMTREE_SCHEDULE_SEED replays
/// every fabric built by the process under the given schedule seed without
/// touching each construction site. An explicit FabricConfig::schedule_seed
/// wins over the environment. Driven by `scripts/check.sh --explore N` and
/// the CI schedule-exploration matrix.
uint64_t EnvScheduleSeed() {
  const char* value = std::getenv("NAMTREE_SCHEDULE_SEED");
  return value == nullptr ? 0 : std::strtoull(value, nullptr, 10);
}

}  // namespace

Fabric::Fabric(sim::Simulator& simulator, const FabricConfig& config)
    : simulator_(simulator), config_(config), jitter_rng_(config.jitter_seed) {
  if (config_.schedule_seed == 0) config_.schedule_seed = EnvScheduleSeed();
  if (config_.schedule_seed != 0 || config_.schedule_jitter_ns != 0) {
    simulator_.ConfigureSchedule(config_.schedule_seed,
                                 config_.schedule_jitter_ns);
  }
#if NAMTREE_AUDIT
  auditor_ = std::make_unique<VerbAuditor>();
  auditor_->SetLivenessProbe(
      [this](uint32_t client) { return ClientAlive(client); });
#endif
  for (const FabricConfig::CrashPoint& cp : config_.crash_points) {
    uint64_t& after = StateOf(cp.client).crash_after;
    after = std::min(after, cp.after_verbs);
  }
  for (const FabricConfig::ServerCrashPoint& cp :
       config_.server_crash_points) {
    auto [it, inserted] = server_crash_after_.emplace(cp.server,
                                                     cp.after_verbs);
    if (!inserted) it->second = std::min(it->second, cp.after_verbs);
  }
  server_death_time_.assign(config_.num_memory_servers,
                            std::numeric_limits<SimTime>::max());
  server_verbs_executed_.assign(config_.num_memory_servers, 0);
  net_faults_configured_ = config_.NetFaultsConfigured();
  net_rng_.Seed(config_.net_fault_seed);
  for (const FabricConfig::LinkFault& lf : config_.link_faults) {
    link_fault_overrides_[{lf.client, lf.server}] = lf;
  }
  verb_fault_consumed_.assign(config_.verb_fault_points.size(), false);
  replication_ = std::max<uint32_t>(
      1, std::min(config_.replication_factor, config_.num_memory_servers));
  memory_servers_.reserve(config_.num_memory_servers);
  for (uint32_t s = 0; s < config_.num_memory_servers; ++s) {
    memory_servers_.emplace_back(simulator_,
                                 config_.link_bandwidth_bytes_per_sec);
  }
  local_bus_.resize(config_.NumMemoryMachines());
  for (auto& bus : local_bus_) {
    bus = std::make_unique<sim::Link>(config_.local_bandwidth_bytes_per_sec);
  }

  metrics_.RegisterCounter(signaled_verbs_, "fabric.signaled_verbs", {},
                           "verbs posted with a signaled completion");
  metrics_.RegisterCounter(unsignaled_verbs_, "fabric.unsignaled_verbs", {},
                           "chain members riding a doorbell unsignaled");
  metrics_.RegisterCounter(doorbells_, "fabric.doorbells",
                           {}, "doorbell rings (one per verb or chain)");
  metrics_.RegisterCounter(combined_reads_, "fabric.combined_reads", {},
                           "READs combined away onto in-flight ones");
  metrics_.RegisterCounter(duplicate_inflight_reads_,
                           "fabric.duplicate_inflight_reads", {},
                           "same-client duplicate READs posted in flight");
  metrics_.RegisterCounter(dropped_verbs_, "fabric.dropped_verbs", {},
                           "verbs dropped at post or effect time");
  metrics_.RegisterCounter(dropped_responses_, "fabric.dropped_responses",
                           {}, "RPC responses with no waiting caller");
  metrics_.RegisterCounter(rpc_timeouts_, "fabric.rpc_timeouts", {},
                           "RPC attempts abandoned at the deadline");
  metrics_.RegisterCounter(net_dropped_verbs_, "fabric.net.dropped_verbs", {},
                           "verbs lost before the target NIC (no effect)");
  metrics_.RegisterCounter(net_dropped_completions_,
                           "fabric.net.dropped_completions", {},
                           "verbs whose effect applied but whose ack was lost");
  metrics_.RegisterCounter(net_duplicates_, "fabric.net.duplicates", {},
                           "verbs re-executed at the target NIC");
  metrics_.RegisterCounter(net_delayed_verbs_, "fabric.net.delayed_verbs", {},
                           "verbs stretched by injected delay jitter");
  metrics_.RegisterCounter(net_partitioned_drops_,
                           "fabric.net.partitioned_drops", {},
                           "verbs dropped on a severed (client, server) link");
  metrics_.RegisterCounter(
      rpc_dedup_hits_, "fabric.net.rpc_dedup_hits", {},
      "retransmitted RPCs answered from the dedup cache (not re-executed)");
  metrics_.RegisterCounter(rpc_retry_attempts_, "retry.attempts",
                           {{"domain", "rpc"}},
                           "re-attempts after a failed try, by retry domain");
  metrics_.RegisterCounter(rpc_retry_exhausted_, "retry.exhausted",
                           {{"domain", "rpc"}},
                           "retry budgets used up, by retry domain");
  for (uint32_t s = 0; s < config_.num_memory_servers; ++s) {
    metrics_.RegisterCallback(
        "server.bytes",
        [this, s] {
          const ServerStats stats = server_stats(s);
          return stats.tx_bytes + stats.rx_bytes;
        },
        {{"server", std::to_string(s)}},
        "per-server tx+rx bytes since the last reset");
    metrics_.RegisterCallback(
        "server.engine_busy_ns",
        [this, s] {
          return static_cast<uint64_t>(memory_servers_[s].engine.busy_time());
        },
        {{"server", std::to_string(s)}},
        "per-server NIC engine occupancy (ns) since the last reset");
    const std::pair<const char*, uint64_t MemoryServerEndpoint::*> verbs[] = {
        {"read", &MemoryServerEndpoint::reads},
        {"write", &MemoryServerEndpoint::writes},
        {"atomic", &MemoryServerEndpoint::atomics},
        {"send", &MemoryServerEndpoint::sends}};
    for (const auto& [verb, count] : verbs) {
      metrics_.RegisterCallback(
          "server.verbs",
          [this, s, count] { return memory_servers_[s].*count; },
          {{"server", std::to_string(s)}, {"verb", verb}},
          "per-server verbs executed at the target NIC since the last "
          "reset, by verb");
    }
  }
#if NAMTREE_AUDIT
  auditor_->BindMetrics(&metrics_);
#endif
}

void Fabric::RegisterRegion(uint32_t server_id, MemoryRegion* region) {
  assert(server_id < memory_servers_.size());
  memory_servers_[server_id].region = region;
  if (replicated()) {
    // Primary allocations stay inside the region's rank-0 stripe; the
    // stripes above it hold backups of the R-1 preceding servers.
    region->set_alloc_limit(MemoryRegion::kHeaderSize +
                            ReplicaStripeBytes(server_id));
  }
}

void Fabric::SetNumClients(uint32_t n) {
  num_clients_ = n;
  const uint32_t machines =
      (n + config_.clients_per_compute_machine - 1) /
      config_.clients_per_compute_machine;
  while (compute_machines_.size() < machines) {
    compute_machines_.push_back(std::make_unique<ComputeEndpoint>(
        config_.link_bandwidth_bytes_per_sec));
  }
}

Fabric::ComputeEndpoint& Fabric::ComputeFor(uint32_t client) {
  const uint32_t machine = ClientMachine(client);
  while (compute_machines_.size() <= machine) {
    compute_machines_.push_back(std::make_unique<ComputeEndpoint>(
        config_.link_bandwidth_bytes_per_sec));
  }
  return *compute_machines_[machine];
}

void Fabric::KillClient(uint32_t client, SimTime at_time) {
  SimTime& death = StateOf(client).death_time;
  death = std::min(death, std::max(at_time, simulator_.now()));
}

void Fabric::KillServer(uint32_t server, SimTime at_time) {
  assert(server < server_death_time_.size());
  const SimTime t = std::max(at_time, simulator_.now());
  if (t < server_death_time_[server]) server_death_time_[server] = t;
  // An immediate kill settles its fallout now; a scheduled future kill is
  // settled lazily by the first drop site that observes the death (and
  // callers already waiting on its workers by the RPC timeout machinery).
  if (t <= simulator_.now()) OnServerDeathNow(server);
}

void Fabric::OnServerDeathNow(uint32_t server) {
  if (auditor_) auditor_->OnServerDeath(server);
  // Fail callers parked on this server's workers: no response will ever
  // come. Entries already responded (done set, reply SEND in flight) keep
  // their response — it left the NIC before the death.
  for (auto& [call_id, pending] : pending_calls_) {
    (void)call_id;
    if (pending->server_id != server || pending->done.is_set()) continue;
    pending->response = RpcResponse();
    pending->response.status =
        static_cast<uint16_t>(StatusCode::kUnavailable);
    pending->deliver_at = simulator_.now();
    pending->done.Set();
  }
}

bool Fabric::ServerVerbExecutes(uint32_t server) {
  if (!ServerAlive(server)) {
    // First drop site after a scheduled death settles the fallout.
    OnServerDeathNow(server);
    return false;
  }
  const uint64_t done = server_verbs_executed_[server]++;
  auto it = server_crash_after_.find(server);
  if (it != server_crash_after_.end() && done >= it->second) {
    // The crash point fires on this verb effect: the server dies with the
    // verb on its NIC, so the effect never reaches memory.
    KillServer(server, simulator_.now());
    return false;
  }
  return true;
}

void Fabric::SyncReplicasFromPrimaries() {
  if (!replicated()) return;
  for (uint32_t s = 0; s < config_.num_memory_servers; ++s) {
    MemoryRegion* region = memory_servers_[s].region;
    if (region == nullptr) continue;
    const uint64_t cursor = region->allocated();
    if (cursor <= MemoryRegion::kHeaderSize) continue;
    const uint64_t bytes = cursor - MemoryRegion::kHeaderSize;
    for (uint32_t r = 1; r < replication_; ++r) {
      const RemotePtr dst = ReplicaPtr(
          RemotePtr::Make(s, MemoryRegion::kHeaderSize), r);
      MemoryRegion* backup = memory_servers_[dst.server_id()].region;
      assert(backup != nullptr && backup->Contains(dst.offset(), bytes));
      std::memcpy(backup->at(dst.offset()),
                  region->at(MemoryRegion::kHeaderSize), bytes);
    }
  }
}

bool Fabric::CountVerbAndCheckAlive(uint32_t client) {
  ClientState& state = StateOf(client);
  if (simulator_.now() >= state.death_time) return false;
  if (state.verbs_issued++ >= state.crash_after) {
    // The crash point fires on this verb: the client dies while posting
    // it, so the verb never leaves the local NIC.
    KillClient(client, simulator_.now());
    return false;
  }
  return true;
}

void Fabric::PartitionLink(uint32_t client, uint32_t server, SimTime at_time) {
  const SimTime t = std::max(at_time, simulator_.now());
  auto [it, inserted] = partitioned_links_.emplace(
      std::make_pair(client, server), t);
  if (!inserted) it->second = std::min(it->second, t);
}

void Fabric::PartitionLinks(
    const std::vector<std::pair<uint32_t, uint32_t>>& links, SimTime at_time) {
  for (const auto& [client, server] : links) {
    PartitionLink(client, server, at_time);
  }
}

void Fabric::HealLink(uint32_t client, uint32_t server) {
  partitioned_links_.erase(std::make_pair(client, server));
}

bool Fabric::LinkPartitioned(uint32_t client, uint32_t server) const {
  auto it = partitioned_links_.find(std::make_pair(client, server));
  return it != partitioned_links_.end() && simulator_.now() >= it->second;
}

Fabric::NetFault Fabric::DrawNetFault(uint32_t client, uint32_t server,
                                      bool is_atomic) {
  NetFault fault;
  // Exact fault points win: matched against the same post-order verb
  // counter that crash points use (CountVerbAndCheckAlive has already
  // ticked it for the current verb), consumed once each, no RNG draw.
  if (!config_.verb_fault_points.empty()) {
    const uint64_t index = clients_[client].verbs_issued - 1;
    for (size_t i = 0; i < config_.verb_fault_points.size(); ++i) {
      if (verb_fault_consumed_[i]) continue;
      const FabricConfig::VerbFaultPoint& fp = config_.verb_fault_points[i];
      if (fp.client != client || index < fp.after_verb) continue;
      verb_fault_consumed_[i] = true;
      switch (fp.kind) {
        case FabricConfig::VerbFaultPoint::Kind::kDropVerb:
          fault.kind = NetFaultKind::kDropVerb;
          break;
        case FabricConfig::VerbFaultPoint::Kind::kDropCompletion:
          fault.kind = NetFaultKind::kDropCompletion;
          break;
        case FabricConfig::VerbFaultPoint::Kind::kDuplicate:
          fault.kind = NetFaultKind::kDuplicate;
          break;
      }
      return fault;
    }
  }
  // A severed link eats every verb before the target NIC.
  if (LinkPartitioned(client, server)) {
    fault.kind = NetFaultKind::kDropVerb;
    fault.partitioned = true;
    return fault;
  }
  double drop = config_.drop_prob;
  double dup = config_.dup_prob;
  SimTime jitter = config_.delay_jitter_ns;
  if (!link_fault_overrides_.empty()) {
    auto it = link_fault_overrides_.find(std::make_pair(client, server));
    if (it != link_fault_overrides_.end()) {
      drop = it->second.drop_prob;
      dup = it->second.dup_prob;
      jitter = it->second.delay_jitter_ns;
    }
  }
  if (jitter > 0) {
    fault.extra_delay = static_cast<SimTime>(
        net_rng_.NextDouble() * static_cast<double>(jitter));
  }
  if (drop > 0 || dup > 0) {
    const double draw = net_rng_.NextDouble();
    if (draw < drop) {
      // A loss is equally likely to hit the request (no effect) or the
      // acknowledgement (effect applied, completion lost — the ambiguity).
      fault.kind = net_rng_.NextBool(0.5) ? NetFaultKind::kDropCompletion
                                          : NetFaultKind::kDropVerb;
    } else if (draw < drop + dup) {
      // RC NICs answer retransmitted atomics from the response cache
      // (exactly-once); random duplication therefore skips atomics, and
      // only an exact fault point can force one for auditor tests.
      if (!is_atomic) fault.kind = NetFaultKind::kDuplicate;
    }
  }
  return fault;
}

RemotePtr Fabric::LivenessRecord(uint32_t client) const {
  const uint32_t home = client % config_.num_memory_servers;
  for (uint32_t r = 0; r < replication_; ++r) {
    const uint32_t server = (home + r) % config_.num_memory_servers;
    if (ServerAlive(server)) return RemotePtr::Make(server, 0);
  }
  return RemotePtr::Make(home, 0);
}

uint8_t* Fabric::TargetAddress(RemotePtr ptr, uint32_t len) {
  assert(!ptr.is_null());
  MemoryServerEndpoint& ep = memory_servers_[ptr.server_id()];
  assert(ep.region != nullptr && "verb against unregistered region");
  assert(ep.region->Contains(ptr.offset(), len));
  (void)len;
  return ep.region->at(ptr.offset());
}

sim::Task<Fabric::PostResult> Fabric::Post(uint32_t client,
                                           std::span<const ChainOp> ops,
                                           Posting posting) {
  // A READ posted on behalf of combining waiters (see posting_shared_).
  PendingRead* const shared = std::exchange(posting_shared_, nullptr);
  if (ops.empty()) co_return PostResult{};
  const bool lone = ops.size() == 1 && posting != Posting::kBatch;
  // A READ-only chain (range-scan prefetch) has independent members; any
  // WRITE or atomic orders it, as the initiating NIC streams WQEs in
  // posting order.
  const bool ordered =
      std::any_of(ops.begin(), ops.end(), [](const ChainOp& op) {
        return op.kind != ChainOp::Kind::kRead;
      });
  if (!lone && ordered && !config_.verb_chaining) {
    // Unchained posting mode: one signaled verb per member, in order.
    PostResult unchained{VerbCompletion::kOk, 0};
    for (const ChainOp& op : ops) {
      const PostResult one = co_await Post(client, {&op, 1}, Posting::kVerbs);
      unchained.round_trips++;
      if (!one.ok()) {
        unchained.completion = VerbCompletion::kLost;
        break;
      }
    }
    co_return unchained;
  }
  const ChainOp& first = ops.front();
  if (lone && posting == Posting::kCombined && config_.read_combining &&
      first.kind == ChainOp::Kind::kRead && first.liveness_of < 0) {
    // 1. An identical READ of the lane's own client: attach until it
    // completes, and inherit its bytes and completion whatever they are.
    const ReadKey own_key(client, first.target.raw(), first.len);
    auto it = pending_reads_.find(own_key);
    if (it != pending_reads_.end()) {
      // No doorbell, no duplicate. The shared_ptr keeps the landing buffer
      // alive past the poster's erase.
      std::shared_ptr<PendingRead> pending = it->second;
      combined_reads_.Inc();
      co_await pending->done;
      std::memcpy(first.dst, pending->data.data(), first.len);
      co_return PostResult{pending->completion, 0};
    }
    // 2. The machine's newest identical READ, while its effect is still
    // ahead: the bytes it returns are then no older than this call.
    const ReadKey machine_key(ClientMachine(client), first.target.raw(),
                              first.len);
    it = machine_reads_.find(machine_key);
    if (it != machine_reads_.end() &&
        it->second->effect > simulator_.now()) {
      std::shared_ptr<PendingRead> pending = it->second;
      co_await pending->done;
      if (pending->landed && pending->completion == VerbCompletion::kOk) {
        combined_reads_.Inc();
        std::memcpy(first.dst, pending->data.data(), first.len);
        co_return PostResult{VerbCompletion::kOk, 0};
      }
      // Its poster died before the effect, or its completion was lost:
      // that fault is the poster's, so post again from now.
      co_return co_await Post(client, ops, posting);
    }
    // 3. Post it, as the machine's newest.
    auto pending = std::make_shared<PendingRead>(simulator_);
    pending->data.resize(first.len);
    pending_reads_.emplace(own_key, pending);
    machine_reads_[machine_key] = pending;
    ChainOp own = first;
    own.dst = pending->data.data();
    posting_shared_ = pending.get();
    pending->completion =
        (co_await Post(client, {&own, 1}, Posting::kVerbs)).completion;
    // A dropped verb leaves `data` zero-initialised — as unspecified as
    // any dropped READ's buffer; the poster and its own client's waiters
    // re-check liveness after resuming, and share a lost completion.
    pending_reads_.erase(own_key);
    it = machine_reads_.find(machine_key);
    if (it != machine_reads_.end() && it->second == pending) {
      machine_reads_.erase(it);
    }
    pending->done.Set();
    std::memcpy(first.dst, pending->data.data(), first.len);
    co_return PostResult{pending->completion};
  }

  // ---- Post-time gate: one crash-point tick per post ----------------------
  if (!CountVerbAndCheckAlive(client)) {
    // Dead client: the post never leaves the NIC. Charging the post cost
    // keeps virtual time moving for any coroutine still driving verbs.
    dropped_verbs_.Inc();
    co_await sim::Delay(simulator_, config_.nic_post_ns);
    co_return PostResult{};
  }
  if (first.liveness_of >= 0 && !ServerAlive(first.target.server_id())) {
    // Every host of the liveness record is gone: the probe errs out at the
    // posting NIC.
    co_await sim::Delay(simulator_, config_.nic_post_ns);
    co_return PostResult{};
  }
  doorbells_.Inc();
  signaled_verbs_.Inc();  // a chain's tail carries its only completion
  unsignaled_verbs_.Inc(ops.size() - 1);
  Member single;
  std::vector<Member> many(ops.size() > 1 ? ops.size() : 0);
  const std::span<Member> members =
      many.empty() ? std::span<Member>(&single, 1) : std::span<Member>(many);
  for (size_t i = 0; i < ops.size(); ++i) {
    members[i].op = &ops[i];
    members[i].index = i;
  }
  // One network-fault draw per member (an exact fault point matching the
  // post's verb index lands on its first member).
  if (NetFaultsLive()) {
    for (Member& m : members) {
      m.fault = DrawNetFault(client, m.op->target.server_id(),
                             IsAtomic(m.op->kind));
    }
  }
  if (lone && single.fault.kind == NetFaultKind::kDropVerb) {
    // Lost before the target NIC: no memory effect, no completion. The
    // poster's NIC gives up after the retransmission budget. A lost CAS is
    // indistinguishable from a lost ack after a swap — the caller resolves
    // it by reading the word back.
    CountNetDrop(single.fault);
    if (auditor_ && first.kind == ChainOp::Kind::kCas) {
      auditor_->OnCasLost(client, first.target);
    }
    co_await sim::Delay(simulator_,
                        config_.nic_post_ns + config_.net_verb_timeout_ns);
    co_return PostResult{VerbCompletion::kLost};
  }
  // A chain member lost before the NIC also drops the not-yet-posted tail
  // of an ordered chain (the NIC stops streaming WQEs past a faulted one),
  // and any loss — a member, or the signaled tail's ack — completes the
  // chain kLost.
  size_t net_drop_from = ops.size();
  bool chain_lost = false;
  for (const Member& m : members) {
    if (m.fault.extra_delay > 0) net_delayed_verbs_.Inc();
    if (lone) continue;
    if (m.fault.kind == NetFaultKind::kDropVerb) {
      if (ordered) net_drop_from = std::min(net_drop_from, m.index);
      chain_lost = true;
    } else if (m.fault.kind == NetFaultKind::kDropCompletion) {
      chain_lost = true;
      net_dropped_completions_.Inc();
    }
  }

  // ---- Reserve: engine, link and bus time per member -----------------------
  const uint64_t chain_id = lone ? 0 : next_chain_id_++;
  const SimTime t_post = simulator_.now() + config_.nic_post_ns;
  SimTime chain_done = t_post;
  SimTime prev_effect = 0;
  for (Member& m : members) {
    Reserve(client, m, lone, m.index + 1 == ops.size(), t_post,
            ordered ? prev_effect : 0, chain_id);
    prev_effect = m.effect;
    chain_done = std::max(chain_done, m.done);
  }
  // Lone READs of memory are tracked in flight until their completion.
  const bool tracked = lone && first.kind == ChainOp::Kind::kRead &&
                       first.liveness_of < 0;
  if (shared != nullptr) shared->effect = single.effect;

  // ---- Effect: each member at its execution time --------------------------
  // In virtual-time order, which is posting order for an ordered chain.
  if (members.size() > 1) {
    std::stable_sort(members.begin(), members.end(),
                     [](const Member& a, const Member& b) {
                       return a.effect < b.effect;
                     });
  }
  for (size_t k = 0; k < members.size(); ++k) {
    Member& m = members[k];
    co_await sim::DelayUntil(simulator_, m.effect);
    if (!ClientAlive(client)) {
      // Died with the post in flight: the not-yet-executed members drop
      // atomically.
      for (size_t j = k; j < members.size(); ++j) DropWrite(members[j]);
      dropped_verbs_.Inc();
      if (tracked) ReadCompleted(client, first.target, first.len);
      co_return PostResult{};
    }
    if (m.fault.kind == NetFaultKind::kDropVerb || m.index >= net_drop_from) {
      DropWrite(m);
      CountNetDrop(m.fault);
      continue;
    }
    // Server fault domain: a member whose target server is dead (or dies
    // on exactly this effect), or whose fence server has died, drops on
    // its own — members bound for live servers still land, so an unlock
    // aimed at a live primary is not lost to a dead backup.
    if (FencedOut(m.op->fence_server) ||
        !ServerVerbExecutes(m.op->target.server_id())) {
      DropWrite(m);
      dropped_verbs_.Inc();
      if (!lone) continue;
      if (tracked) ReadCompleted(client, first.target, first.len);
      co_return PostResult{};
    }
    Apply(client, m, chain_id);
    if (shared != nullptr) shared->landed = true;
  }

  // ---- Completion ---------------------------------------------------------
  if (lone) {
    if (single.fault.kind == NetFaultKind::kDropCompletion) {
      // The effect landed; the response did not. The poster learns nothing
      // (no bytes, no pre-image) and resolves it by protocol
      // (docs/fault_model.md §8).
      net_dropped_completions_.Inc();
      if (auditor_ && first.kind == ChainOp::Kind::kCas) {
        auditor_->OnCasLost(client, first.target);
      }
      if (tracked) ReadCompleted(client, first.target, first.len);
      co_await sim::DelayUntil(simulator_,
                               single.effect + config_.net_verb_timeout_ns);
      co_return PostResult{VerbCompletion::kLost};
    }
    const uint32_t server = first.target.server_id();
    // A co-located READ/WRITE completes with its bus copy.
    if (!IsLocal(client, server) || IsAtomic(first.kind)) {
      if (first.kind == ChainOp::Kind::kRead) {
        single.done = ReserveResponse(client, server, single.effect, first.len);
      } else if (first.kind == ChainOp::Kind::kWrite) {
        single.done = ReserveAck(server, single.effect);
      }
      co_await sim::DelayUntil(simulator_, single.done);
    }
    if (tracked) ReadCompleted(client, first.target, first.len);
  } else if (chain_lost) {
    if (auditor_) {
      for (const ChainOp& op : ops) {
        if (op.kind == ChainOp::Kind::kCas) {
          auditor_->OnCasLost(client, op.target);
        }
      }
    }
    // Whatever subset of effects landed stays, but the poster learns
    // nothing and gives up after the retransmission budget.
    co_await sim::DelayUntil(simulator_,
                             chain_done + config_.net_verb_timeout_ns);
    co_return PostResult{VerbCompletion::kLost};
  } else {
    co_await sim::DelayUntil(simulator_, chain_done);
  }
  for (const Member& m : members) {
    if (m.executed && m.op->result != nullptr) *m.op->result = m.value;
  }
  co_return PostResult{};
}

void Fabric::Reserve(uint32_t client, Member& m, bool lone, bool tail,
                     SimTime t_post, SimTime after, uint64_t chain_id) {
  const ChainOp& op = *m.op;
  const uint32_t sid = op.target.server_id();
  MemoryServerEndpoint& server = memory_servers_[sid];
  if (op.kind == ChainOp::Kind::kWrite && auditor_) {
    m.ticket = auditor_->OnWritePosted(client, op.target, op.len,
                                       simulator_.now(), chain_id);
  }
  if (lone && op.kind == ChainOp::Kind::kRead && op.liveness_of < 0) {
    ReadPosted(client, op.target, op.len);
  }
  // Atomics pay the NIC's lock unit; a lone (signaled) READ/WRITE the full
  // one-sided engine cost, a doorbell member the unsignaled one.
  const bool atomic = IsAtomic(op.kind);
  const SimTime engine_cost =
      atomic ? config_.atomic_engine_ns
             : EngineCost(sid, lone ? config_.onesided_engine_ns
                                    : config_.unsignaled_engine_ns);
  if (IsLocal(client, sid)) {
    sim::Link& bus = LocalBus(config_.MemoryServerMachine(sid));
    const SimTime start =
        std::max(simulator_.now() + config_.local_latency_ns, after);
    if (atomic) {
      // Atomics serialize through the NIC even locally (loopback) so that
      // remote and local atomics remain mutually atomic; see §4.2.
      m.effect = server.engine.ReserveOccupancy(
          bus.ReserveTransfer(start, kAtomicRequestBytes), engine_cost);
      m.done = m.effect + config_.local_latency_ns;
    } else {
      m.effect = bus.ReserveTransfer(start, op.len);
      m.done = m.effect;
      // A lone co-located READ/WRITE is a plain bus copy: no NIC engine,
      // no retransmission, no verb count at the target.
      if (lone) return;
    }
  } else {
    ComputeEndpoint& compute = ComputeFor(client);
    switch (op.kind) {
      case ChainOp::Kind::kRead: {
        const SimTime t_req_out =
            compute.tx.ReserveTransfer(t_post, kReadRequestBytes);
        const SimTime t_arrive = std::max(
            t_req_out + WireLatency() + m.fault.extra_delay, after);
        m.effect = server.engine.ReserveOccupancy(t_arrive, engine_cost);
        server.rx.ReserveArrival(t_arrive - 1, kReadRequestBytes);
        if (!lone) m.done = ReserveResponse(client, sid, m.effect, op.len);
        break;
      }
      case ChainOp::Kind::kWrite: {
        const uint32_t wire_bytes = op.len + kWriteHeaderBytes;
        const SimTime t_out = compute.tx.ReserveTransfer(t_post, wire_bytes);
        const SimTime first_byte_at_server =
            t_out - compute.tx.TransferDuration(wire_bytes) + WireLatency() +
            m.fault.extra_delay;
        const SimTime t_rx = std::max(
            server.rx.ReserveArrival(first_byte_at_server, wire_bytes), after);
        m.effect = server.engine.ReserveOccupancy(t_rx, engine_cost);
        // Only a chain's signaled tail acks back to the initiator; the acks
        // of the unsignaled members coalesce into it.
        if (lone) break;
        m.done = tail ? ReserveAck(sid, m.effect) : m.effect + WireLatency();
        break;
      }
      case ChainOp::Kind::kCas:
      case ChainOp::Kind::kFaa: {
        const SimTime t_out =
            compute.tx.ReserveTransfer(t_post, kAtomicRequestBytes);
        const SimTime t_arrive =
            std::max(t_out + WireLatency() + m.fault.extra_delay, after);
        server.rx.ReserveArrival(t_arrive - 1, kAtomicRequestBytes);
        m.effect = server.engine.ReserveOccupancy(t_arrive, engine_cost);
        server.tx.ReserveTransfer(m.effect, kAtomicResponseBytes);
        m.done = compute.rx.ReserveArrival(m.effect + WireLatency(),
                                           kAtomicResponseBytes);
        break;
      }
    }
  }
  const bool twice = m.fault.kind == NetFaultKind::kDuplicate;
  if (twice) {
    // Retransmission re-executes the member at the NIC: a second engine
    // occupancy; Apply decides what the re-execution does to memory.
    net_duplicates_.Inc();
    m.effect = server.engine.ReserveOccupancy(m.effect, engine_cost);
  }
  uint64_t& executed = op.kind == ChainOp::Kind::kRead    ? server.reads
                       : op.kind == ChainOp::Kind::kWrite ? server.writes
                                                          : server.atomics;
  executed += twice ? 2 : 1;
}

SimTime Fabric::ReserveResponse(uint32_t client, uint32_t server_id,
                                SimTime effect, uint32_t len) {
  sim::Link& tx = memory_servers_[server_id].tx;
  const SimTime t_tx = tx.ReserveTransfer(effect, len);
  const SimTime first_byte_at_client =
      t_tx - tx.TransferDuration(len) + WireLatency();
  return ComputeFor(client).rx.ReserveArrival(first_byte_at_client, len);
}

SimTime Fabric::ReserveAck(uint32_t server_id, SimTime effect) {
  memory_servers_[server_id].tx.ReserveTransfer(effect, kAckBytes);
  return effect + WireLatency();
}

void Fabric::Apply(uint32_t client, Member& m, uint64_t chain_id) {
  const ChainOp& op = *m.op;
  const SimTime now = simulator_.now();
  const bool twice = m.fault.kind == NetFaultKind::kDuplicate;
  m.executed = true;
  switch (op.kind) {
    case ChainOp::Kind::kRead: {
      if (op.liveness_of >= 0) {
        const uint64_t alive =
            ClientAlive(static_cast<uint32_t>(op.liveness_of)) ? 1 : 0;
        std::memcpy(op.dst, &alive, 8);
        break;
      }
      if (auditor_) {
        auditor_->OnReadEffect(client, op.target, op.len, now, chain_id);
      }
      std::memcpy(op.dst, TargetAddress(op.target, op.len), op.len);
      break;
    }
    case ChainOp::Kind::kWrite: {
      // A duplicated WRITE lands the same bytes again — byte-idempotent,
      // so no second auditor effect (the sanctioned duplicate).
      if (auditor_) auditor_->OnWriteEffect(m.ticket, op.src, now);
      std::memcpy(TargetAddress(op.target, op.len), op.src, op.len);
      break;
    }
    case ChainOp::Kind::kCas: {
      uint8_t* remote = TargetAddress(op.target, 8);
      std::memcpy(&m.value, remote, 8);
      if (m.value == op.expected) std::memcpy(remote, &op.desired, 8);
      if (auditor_) {
        auditor_->OnCasEffect(client, op.target, op.expected, op.desired,
                              m.value, now, chain_id);
      }
      if (twice) {
        // Forced duplicate (exact fault point only): the CAS compares
        // again. After a successful first swap the word no longer matches
        // `expected`, so CAS duplication is self-neutralising.
        uint64_t again;
        std::memcpy(&again, remote, 8);
        if (again == op.expected) std::memcpy(remote, &op.desired, 8);
      }
      break;
    }
    case ChainOp::Kind::kFaa: {
      // FAA is not idempotent: a forced duplicate adds again, and each
      // execution is reported on its own so an unsanctioned duplicate is
      // caught (a duplicated release FAA trips kUnlockWithoutLock).
      uint8_t* remote = TargetAddress(op.target, 8);
      for (int k = 0; k < (twice ? 2 : 1); ++k) {
        uint64_t prev;
        std::memcpy(&prev, remote, 8);
        if (k == 0) m.value = prev;
        const uint64_t updated = prev + op.add;
        std::memcpy(remote, &updated, 8);
        if (auditor_) {
          auditor_->OnFaaEffect(client, op.target, op.add, prev, now);
        }
      }
      break;
    }
  }
}

sim::Task<RpcResponse> Fabric::Call(uint32_t client, uint32_t server_id,
                                    RpcRequest request) {
  // The one RPC resend discipline (satellite of docs/fault_model.md §8):
  // bounded attempts with a per-attempt deadline. With rpc_timeout_ns unset
  // but network faults live, the retransmission budget stands in as the
  // deadline so a lost SEND cannot hang the caller forever. That synthetic
  // deadline only bounds attempts where a loss was actually drawn — a
  // delivered request with an intact reply path waits for its response,
  // however slow the handler (a long scan legitimately exceeds the verb
  // timeout, and abandoning it would just re-execute it).
  RetryPolicy policy = RetryPolicy::ForRpc(config_);
  bool synthetic_deadline = false;
  if (NetFaultsLive() && policy.timeout_ns == 0) {
    policy.max_attempts = config_.rpc_max_retries + 1;
    policy.timeout_ns = config_.net_verb_timeout_ns;
    synthetic_deadline = true;
  }
  // Every retransmission of this logical call carries the same rpc_id; the
  // server-side dedup layer (AdmitRpc) keys on it so a handler whose reply
  // was lost is answered from cache instead of re-executed. 0 when network
  // faults are off (no resends happen, no dedup state accrues).
  const uint64_t rpc_id = NetFaultsLive() ? next_rpc_id_++ : 0;
  for (uint32_t attempt = 0; !policy.Exhausted(attempt); ++attempt) {
    if (attempt > 0) rpc_retry_attempts_.Inc();
    if (!CountVerbAndCheckAlive(client)) {
      dropped_verbs_.Inc();
      co_await sim::Delay(simulator_, config_.nic_post_ns);
      RpcResponse dead;
      dead.status = static_cast<uint16_t>(StatusCode::kUnavailable);
      co_return dead;
    }
    doorbells_.Inc();
    signaled_verbs_.Inc();
    NetFault net;
    if (NetFaultsLive()) net = DrawNetFault(client, server_id, false);
    if (net.kind == NetFaultKind::kDropVerb) {
      // The request SEND is lost: the handler never sees it, the caller
      // burns this attempt waiting out the deadline.
      CountNetDrop(net);
      co_await sim::Delay(simulator_,
                          config_.nic_post_ns + policy.timeout_ns);
      continue;
    }
    if (net.extra_delay > 0) net_delayed_verbs_.Inc();
    if (!ServerAlive(server_id)) {
      // The connection to a dead server errs out at the posting NIC;
      // retrying cannot help, so fail fast with kUnavailable (also needed
      // with rpc_timeout_ns=0, where a lost delivery would hang forever).
      OnServerDeathNow(server_id);
      co_await sim::Delay(simulator_, config_.nic_post_ns);
      RpcResponse down;
      down.status = static_cast<uint16_t>(StatusCode::kUnavailable);
      co_return down;
    }
    MemoryServerEndpoint& server = memory_servers_[server_id];
    const uint32_t wire_bytes = request.WireBytes();

    SimTime t_deliver;
    if (IsLocal(client, server_id)) {
      sim::Link& bus = LocalBus(config_.MemoryServerMachine(server_id));
      t_deliver = bus.ReserveTransfer(
          simulator_.now() + config_.local_latency_ns, wire_bytes);
    } else {
      ComputeEndpoint& compute = ComputeFor(client);
      const SimTime t_post = simulator_.now() + config_.nic_post_ns;
      const SimTime t_out = compute.tx.ReserveTransfer(t_post, wire_bytes);
      const SimTime t_arrive = t_out + WireLatency() + net.extra_delay;
      server.rx.ReserveArrival(t_arrive - 1, wire_bytes);
      t_deliver = server.engine.ReserveOccupancy(
          t_arrive, TwoSidedEngineCost(server_id, wire_bytes));
    }

    server.sends++;
    if (net.kind == NetFaultKind::kDuplicate) {
      // A retransmitted SEND costs the NIC twice but the SRQ's completion
      // bookkeeping delivers the request to a handler once.
      net_duplicates_.Inc();
      server.sends++;
      t_deliver = server.engine.ReserveOccupancy(
          t_deliver, TwoSidedEngineCost(server_id, wire_bytes));
    }
    co_await sim::DelayUntil(simulator_, t_deliver);
    if (!ClientAlive(client)) {  // SEND dropped in flight
      dropped_verbs_.Inc();
      RpcResponse dead;
      dead.status = static_cast<uint16_t>(StatusCode::kUnavailable);
      co_return dead;
    }
    if (!ServerVerbExecutes(server_id)) {
      // The server died with the SEND in flight: the request is lost and
      // no worker will ever see it.
      dropped_verbs_.Inc();
      RpcResponse down;
      down.status = static_cast<uint16_t>(StatusCode::kUnavailable);
      co_return down;
    }

    const uint64_t call_id = next_call_id_++;
    PendingCall* pending =
        pending_calls_
            .emplace(call_id, std::make_unique<PendingCall>(simulator_))
            .first->second.get();
    pending->server_id = server_id;
    IncomingRpc incoming;
    incoming.client_id = client;
    incoming.request = request;  // copied: a timeout resends it
    incoming.call_id = call_id;
    incoming.rpc_id = rpc_id;
    server.srq->Deliver(std::move(incoming));
    // The delivered request orders everything the caller did so far before
    // the handler's work (two-sided HB edge).
    if (auditor_) auditor_->OnRpcRequest(client, server_id);

    const SimTime deadline = policy.timeout_ns > 0
                                 ? simulator_.now() + policy.timeout_ns
                                 : 0;
    if (net.kind == NetFaultKind::kDropCompletion) {
      // The handler runs and responds, but the reply SEND is lost on the
      // wire: the caller waits out the full deadline, abandons the call,
      // and resends. The resend carries the same rpc_id, so AdmitRpc on
      // the server answers it from the dedup cache — the handler's effects
      // apply exactly once even though its reply was ambiguous.
      net_dropped_completions_.Inc();
      co_await sim::DelayUntil(simulator_, deadline);
      pending_calls_.erase(call_id);
      rpc_timeouts_.Inc();
      continue;
    }
    const bool completed = co_await pending->done.AwaitUntil(
        synthetic_deadline ? 0 : deadline);
    if (!completed) {
      // Abandon the call: the registry entry dies here, so a handler that
      // responds later finds nothing (never a dangling caller frame).
      pending_calls_.erase(call_id);
      rpc_timeouts_.Inc();
      continue;
    }
    co_await sim::DelayUntil(simulator_, pending->deliver_at);
    RpcResponse response = std::move(pending->response);
    pending_calls_.erase(call_id);
    if (!ClientAlive(client)) {
      response = RpcResponse();
      response.status = static_cast<uint16_t>(StatusCode::kUnavailable);
    } else if (auditor_) {
      // The consumed reply closes the RPC pair: the handler's effects are
      // now ordered before everything the caller does next.
      auditor_->OnRpcReply(client, server_id);
    }
    co_return response;
  }
  rpc_retry_exhausted_.Inc();
  RpcResponse timed_out;
  timed_out.status = static_cast<uint16_t>(StatusCode::kTimedOut);
  co_return timed_out;
}

bool Fabric::AdmitRpc(uint32_t server_id, const IncomingRpc& rpc) {
  if (rpc.rpc_id == 0) return true;  // network faults off: no resends exist
  auto [it, inserted] = rpc_dedup_.try_emplace(rpc.rpc_id);
  if (inserted) return true;  // first delivery: run the handler
  RpcDedupEntry& entry = it->second;
  rpc_dedup_hits_.Inc();
  if (entry.done) {
    // Already executed, reply was lost: retransmit the cached response
    // (paying the reply send costs again) without re-running the handler.
    Respond(server_id, rpc, entry.response);
  } else {
    // The original delivery is still in a handler. Park this duplicate;
    // Respond answers it from the cache the moment the original replies.
    entry.waiters.push_back(rpc);
  }
  return false;
}

void Fabric::Respond(uint32_t server_id, const IncomingRpc& incoming,
                     RpcResponse response) {
  if (incoming.rpc_id != 0) {
    auto it = rpc_dedup_.find(incoming.rpc_id);
    if (it != rpc_dedup_.end() && !it->second.done) {
      // First reply for this rpc_id: cache it for retransmissions, then
      // answer every duplicate that arrived while the handler ran. The
      // recursive Respond calls see done == true and skip this block.
      it->second.done = true;
      it->second.response = response;
      std::vector<IncomingRpc> waiters = std::move(it->second.waiters);
      it->second.waiters.clear();
      for (const IncomingRpc& w : waiters) {
        Respond(server_id, w, it->second.response);
      }
    }
  }
  if (!ServerAlive(server_id)) {
    // A handler racing its own server's death: the dead NIC sends
    // nothing. The caller was (or will be) failed by the death fallout.
    dropped_responses_.Inc();
    return;
  }
  MemoryServerEndpoint& server = memory_servers_[server_id];
  const uint32_t wire_bytes = response.WireBytes();

  // The reply SEND always pays its costs — the responding NIC cannot know
  // the caller abandoned the call.
  SimTime done;
  if (IsLocal(incoming.client_id, server_id)) {
    sim::Link& bus = LocalBus(config_.MemoryServerMachine(server_id));
    done = bus.ReserveTransfer(simulator_.now() + config_.local_latency_ns,
                               wire_bytes);
  } else {
    ComputeEndpoint& compute = ComputeFor(incoming.client_id);
    // UD responses fragment into MTU-sized datagrams, each costing engine
    // time on the sending NIC; RC sends the response as one message.
    SimTime t_send = simulator_.now();
    if (config_.rpc_transport ==
        FabricConfig::RpcTransport::kUnreliableDatagram) {
      t_send = server.engine.ReserveOccupancy(
          t_send, TwoSidedEngineCost(server_id, wire_bytes));
    }
    const SimTime t_out = server.tx.ReserveTransfer(t_send, wire_bytes);
    const SimTime first_byte = t_out - server.tx.TransferDuration(wire_bytes) +
                               WireLatency();
    done = compute.rx.ReserveArrival(first_byte, wire_bytes);
  }

  auto it = pending_calls_.find(incoming.call_id);
  if (it == pending_calls_.end()) {
    dropped_responses_.Inc();  // caller timed out or died; reply goes nowhere
    return;
  }
  PendingCall& pending = *it->second;
  pending.response = std::move(response);
  pending.deliver_at = done;
  pending.done.Set();
}

Fabric::ServerStats Fabric::server_stats(uint32_t server) const {
  const MemoryServerEndpoint& ep = memory_servers_[server];
  ServerStats stats{};
  stats.tx_bytes = ep.tx.total_bytes();
  stats.rx_bytes = ep.rx.total_bytes();
  stats.verbs = ep.engine.total_transfers();
  stats.engine_busy = ep.engine.busy_time();
  stats.reads = ep.reads;
  stats.writes = ep.writes;
  stats.atomics = ep.atomics;
  stats.sends = ep.sends;
  return stats;
}

uint64_t Fabric::TotalMemoryServerBytes() const {
  uint64_t total = 0;
  for (uint32_t s = 0; s < memory_servers_.size(); ++s) {
    const ServerStats stats = server_stats(s);
    total += stats.tx_bytes + stats.rx_bytes;
  }
  return total;
}

void Fabric::ReadPosted(uint32_t client, RemotePtr src, uint32_t len) {
  if (client >= inflight_reads_.size()) inflight_reads_.resize(client + 1);
  auto& reads = inflight_reads_[client];
  const std::pair<uint64_t, uint32_t> read(src.raw(), len);
  if (std::find(reads.begin(), reads.end(), read) != reads.end()) {
    duplicate_inflight_reads_.Inc();
  }
  reads.push_back(read);
}

void Fabric::ReadCompleted(uint32_t client, RemotePtr src, uint32_t len) {
  auto& reads = inflight_reads_[client];
  *std::find(reads.begin(), reads.end(),
             std::pair<uint64_t, uint32_t>(src.raw(), len)) = reads.back();
  reads.pop_back();
}

void Fabric::ResetStats() {
  for (auto& ep : memory_servers_) {
    ep.tx.ResetStats();
    ep.rx.ResetStats();
    ep.engine.ResetStats();
    ep.reads = 0;
    ep.writes = 0;
    ep.atomics = 0;
    ep.sends = 0;
  }
  for (auto& ep : compute_machines_) {
    ep->tx.ResetStats();
    ep->rx.ResetStats();
  }
  for (auto& bus : local_bus_) bus->ResetStats();
  signaled_verbs_.Reset();
  unsignaled_verbs_.Reset();
  doorbells_.Reset();
  combined_reads_.Reset();
}

}  // namespace namtree::rdma
