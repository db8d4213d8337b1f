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
    auto [it, inserted] = crash_after_.emplace(cp.client, cp.after_verbs);
    if (!inserted) it->second = std::min(it->second, cp.after_verbs);
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
  const SimTime t = std::max(at_time, simulator_.now());
  auto [it, inserted] = death_time_.emplace(client, t);
  if (!inserted) it->second = std::min(it->second, t);
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
  if (!ClientAlive(client)) return false;
  const uint64_t issued = verbs_issued_[client]++;
  auto it = crash_after_.find(client);
  if (it != crash_after_.end() && issued >= it->second) {
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
    const uint64_t index = verbs_issued_[client] - 1;
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

sim::Task<EpochReadResult> Fabric::ReadClientEpoch(uint32_t reader,
                                                   uint32_t target) {
  if (!CountVerbAndCheckAlive(reader)) {
    dropped_verbs_.Inc();
    co_await sim::Delay(simulator_, config_.nic_post_ns);
    // A dead reader learns nothing; callers re-check alive.
    co_return EpochReadResult{Status::OK(), true};
  }
  constexpr uint32_t kEpochBytes = 8;
  // The registry record of `target` lives on server target % N; under
  // replication its replica group is consulted in rank order so the probe
  // survives the home server's death.
  const uint32_t home = target % config_.num_memory_servers;
  uint32_t server_id = home;
  bool host_found = false;
  for (uint32_t r = 0; r < replication_; ++r) {
    const uint32_t candidate = (home + r) % config_.num_memory_servers;
    if (ServerAlive(candidate)) {
      server_id = candidate;
      host_found = true;
      break;
    }
  }
  if (!host_found) {
    // Every host of the record is gone: the post errs out locally.
    co_await sim::Delay(simulator_, config_.nic_post_ns);
    co_return EpochReadResult{
        Status::Unavailable("liveness registry host dead"), true};
  }
  doorbells_.Inc();
  signaled_verbs_.Inc();
  MemoryServerEndpoint& server = memory_servers_[server_id];

  if (IsLocal(reader, server_id)) {
    sim::Link& bus = LocalBus(config_.MemoryServerMachine(server_id));
    const SimTime done = bus.ReserveTransfer(
        simulator_.now() + config_.local_latency_ns, kEpochBytes);
    co_await sim::DelayUntil(simulator_, done);
    if (!ServerVerbExecutes(server_id)) {
      dropped_verbs_.Inc();
      co_return EpochReadResult{
          Status::Unavailable("liveness registry host dead"), true};
    }
    co_return EpochReadResult{Status::OK(), ClientAlive(target)};
  }

  ComputeEndpoint& compute = ComputeFor(reader);
  const SimTime t_post = simulator_.now() + config_.nic_post_ns;
  const SimTime t_req_out = compute.tx.ReserveTransfer(t_post,
                                                       kReadRequestBytes);
  const SimTime t_arrive = t_req_out + WireLatency();
  const SimTime t_effect = server.engine.ReserveOccupancy(
      t_arrive, EngineCost(server_id, config_.onesided_engine_ns));
  server.rx.ReserveArrival(t_arrive - 1, kReadRequestBytes);

  server.reads++;
  co_await sim::DelayUntil(simulator_, t_effect);
  if (!ServerVerbExecutes(server_id)) {  // host died with the READ in flight
    dropped_verbs_.Inc();
    co_return EpochReadResult{
        Status::Unavailable("liveness registry host dead"), true};
  }
  const bool alive = ClientAlive(target);

  const SimTime t_tx = server.tx.ReserveTransfer(t_effect, kEpochBytes);
  const SimTime first_byte_at_client =
      t_tx - server.tx.TransferDuration(kEpochBytes) + WireLatency();
  const SimTime done = compute.rx.ReserveArrival(first_byte_at_client,
                                                 kEpochBytes);
  co_await sim::DelayUntil(simulator_, done);
  co_return EpochReadResult{Status::OK(), alive};
}

uint8_t* Fabric::TargetAddress(RemotePtr ptr, uint32_t len) {
  assert(!ptr.is_null());
  MemoryServerEndpoint& ep = memory_servers_[ptr.server_id()];
  assert(ep.region != nullptr && "verb against unregistered region");
  assert(ep.region->Contains(ptr.offset(), len));
  (void)len;
  return ep.region->at(ptr.offset());
}

sim::Task<VerbCompletion> Fabric::Read(uint32_t client, RemotePtr src,
                                       void* dst, uint32_t len) {
  if (!CountVerbAndCheckAlive(client)) {
    // Dead client: the verb never leaves the NIC. Charging the post cost
    // keeps virtual time moving for any coroutine still driving verbs.
    dropped_verbs_.Inc();
    co_await sim::Delay(simulator_, config_.nic_post_ns);
    co_return VerbCompletion::kOk;  // a dead caller observes nothing anyway
  }
  NetFault net;
  if (NetFaultsLive()) net = DrawNetFault(client, src.server_id(), false);
  doorbells_.Inc();
  signaled_verbs_.Inc();
  if (net.kind == NetFaultKind::kDropVerb) {
    // Lost before the target NIC: no memory effect, no completion. The
    // caller's NIC gives up after the retransmission budget.
    (net.partitioned ? net_partitioned_drops_ : net_dropped_verbs_).Inc();
    co_await sim::Delay(simulator_,
                        config_.nic_post_ns + config_.net_verb_timeout_ns);
    co_return VerbCompletion::kLost;
  }
  if (net.extra_delay > 0) net_delayed_verbs_.Inc();
  // Standalone READ in-flight tracking (drops complete the posting too):
  // overlapping same-client duplicates are the combiner's waste metric.
  ReadPosted(client, src, len);
  MemoryServerEndpoint& server = memory_servers_[src.server_id()];
  uint8_t* remote = TargetAddress(src, len);

  if (IsLocal(client, src.server_id())) {
    sim::Link& bus = LocalBus(config_.MemoryServerMachine(src.server_id()));
    const SimTime done = bus.ReserveTransfer(
        simulator_.now() + config_.local_latency_ns, len);
    co_await sim::DelayUntil(simulator_, done);
    ReadCompleted(client, src, len);
    if (!ClientAlive(client)) {
      dropped_verbs_.Inc();
      co_return VerbCompletion::kOk;
    }
    if (!ServerVerbExecutes(src.server_id())) {  // target region is gone
      dropped_verbs_.Inc();
      co_return VerbCompletion::kOk;
    }
    if (auditor_) auditor_->OnReadEffect(client, src, len, simulator_.now());
    std::memcpy(dst, remote, len);
    if (net.kind == NetFaultKind::kDropCompletion) {
      net_dropped_completions_.Inc();
      co_await sim::Delay(simulator_, config_.net_verb_timeout_ns);
      co_return VerbCompletion::kLost;
    }
    co_return VerbCompletion::kOk;
  }

  ComputeEndpoint& compute = ComputeFor(client);
  const SimTime t_post = simulator_.now() + config_.nic_post_ns;
  const SimTime t_req_out = compute.tx.ReserveTransfer(t_post,
                                                       kReadRequestBytes);
  const SimTime t_arrive = t_req_out + WireLatency() + net.extra_delay;
  SimTime t_effect =
      server.engine.ReserveOccupancy(
          t_arrive, EngineCost(src.server_id(), config_.onesided_engine_ns));
  server.rx.ReserveArrival(t_arrive - 1, kReadRequestBytes);

  server.reads++;
  if (net.kind == NetFaultKind::kDuplicate) {
    // Retransmission re-executes the READ at the NIC: a second engine
    // occupancy, harmless to memory. The client sees one response.
    net_duplicates_.Inc();
    server.reads++;
    t_effect = server.engine.ReserveOccupancy(
        t_effect, EngineCost(src.server_id(), config_.onesided_engine_ns));
  }
  co_await sim::DelayUntil(simulator_, t_effect);
  if (!ClientAlive(client)) {  // died with the verb in flight: drop it
    dropped_verbs_.Inc();
    ReadCompleted(client, src, len);
    co_return VerbCompletion::kOk;
  }
  if (!ServerVerbExecutes(src.server_id())) {  // target region is gone
    dropped_verbs_.Inc();
    ReadCompleted(client, src, len);
    co_return VerbCompletion::kOk;
  }
  if (auditor_) auditor_->OnReadEffect(client, src, len, simulator_.now());
  std::memcpy(dst, remote, len);

  if (net.kind == NetFaultKind::kDropCompletion) {
    // The response never reaches the client: the bytes are in flight but
    // unacknowledged, so the caller must treat the buffer as unspecified.
    net_dropped_completions_.Inc();
    ReadCompleted(client, src, len);
    co_await sim::DelayUntil(simulator_,
                             t_effect + config_.net_verb_timeout_ns);
    co_return VerbCompletion::kLost;
  }

  const SimTime t_tx = server.tx.ReserveTransfer(t_effect, len);
  const SimTime first_byte_at_client =
      t_tx - server.tx.TransferDuration(len) + WireLatency();
  const SimTime done = compute.rx.ReserveArrival(first_byte_at_client, len);
  co_await sim::DelayUntil(simulator_, done);
  ReadCompleted(client, src, len);
  co_return VerbCompletion::kOk;
}

sim::Task<CombinedReadResult> Fabric::CombinedRead(uint32_t client,
                                                   RemotePtr src, void* dst,
                                                   uint32_t len) {
  if (!config_.read_combining) {
    const VerbCompletion c = co_await Read(client, src, dst, len);
    co_return CombinedReadResult{false, c};
  }
  const auto key = std::make_tuple(client, src.raw(), len);
  auto it = pending_reads_.find(key);
  if (it != pending_reads_.end()) {
    // Attach to the outstanding verb: no doorbell, no duplicate. The
    // shared_ptr keeps the landing buffer alive past the poster's erase.
    std::shared_ptr<PendingRead> pending = it->second;
    combined_reads_.Inc();
    co_await pending->done;
    std::memcpy(dst, pending->data.data(), len);
    co_return CombinedReadResult{true, pending->completion};
  }
  auto pending = std::make_shared<PendingRead>(simulator_);
  pending->data.resize(len);
  pending_reads_.emplace(key, pending);
  pending->completion = co_await Read(client, src, pending->data.data(), len);
  // Dropped verbs (dead client/server) leave `data` zero-initialised —
  // as unspecified as any dropped READ's buffer; every caller re-checks
  // liveness after resuming, poster and waiters alike. A lost completion
  // propagates to every combined waiter (they share the missing ack).
  pending_reads_.erase(key);
  pending->done.Set();
  std::memcpy(dst, pending->data.data(), len);
  co_return CombinedReadResult{false, pending->completion};
}

sim::Task<Fabric::PostResult> Fabric::Post(uint32_t client,
                                           std::span<const ChainOp> ops,
                                           Posting posting) {
  if (ops.size() != 1 || posting == Posting::kBatch) {
    co_return co_await PostChain(client, {ops.begin(), ops.end()});
  }
  const ChainOp& op = ops.front();
  switch (op.kind) {
    case ChainOp::Kind::kRead: {
      if (posting == Posting::kCombined) {
        const CombinedReadResult r =
            co_await CombinedRead(client, op.target, op.dst, op.len);
        co_return PostResult{r.completion, r.combined ? 0u : 1u};
      }
      co_return PostResult{co_await Read(client, op.target, op.dst, op.len)};
    }
    case ChainOp::Kind::kWrite:
      co_return PostResult{co_await Write(client, op.target, op.src, op.len,
                                          op.fence_server)};
    case ChainOp::Kind::kCas:
    case ChainOp::Kind::kFaa: {
      const AtomicResult r =
          op.kind == ChainOp::Kind::kCas
              ? co_await CompareAndSwap(client, op.target, op.expected,
                                        op.desired)
              : co_await FetchAndAdd(client, op.target, op.add);
      if (r.ok() && op.result != nullptr) *op.result = r.value;
      co_return PostResult{r.completion};
    }
  }
  co_return PostResult{};
}

sim::Task<Fabric::PostResult> Fabric::PostChain(uint32_t client,
                                                std::vector<ChainOp> ops) {
  if (ops.empty()) co_return PostResult{};
  // A READ-only chain (range-scan prefetch) has independent members; any
  // WRITE or atomic makes the chain ordered — each member's effect waits
  // for its predecessor, as the initiating NIC streams WQEs in posting
  // order.
  bool ordered = false;
  for (const ChainOp& op : ops) {
    if (op.kind != ChainOp::Kind::kRead) ordered = true;
  }
  if (ordered && !config_.verb_chaining) {
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
  // One doorbell, one crash-point tick for the whole chain.
  if (!CountVerbAndCheckAlive(client)) {
    dropped_verbs_.Inc();
    co_await sim::Delay(simulator_, config_.nic_post_ns);
    co_return PostResult{};
  }
  doorbells_.Inc();
  signaled_verbs_.Inc();  // the tail carries the chain's only completion
  unsignaled_verbs_.Inc(ops.size() - 1);
  const uint64_t chain_id = next_chain_id_++;

  // Network faults hit chain members individually (one fault draw per
  // member; an exact fault point matching the chain's verb index lands on
  // its first member). The first member lost before the NIC also kills the
  // not-yet-posted tail of an ordered chain — the initiating NIC stops
  // streaming WQEs past a faulted one — and any loss (member or the
  // signaled tail's ack) surfaces as a kLost chain completion.
  std::vector<NetFault> member_faults;
  size_t net_drop_from = ops.size();
  bool completion_lost = false;
  if (NetFaultsLive()) {
    member_faults.resize(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      member_faults[i] = DrawNetFault(client, ops[i].target.server_id(),
                                      IsAtomic(ops[i].kind));
      if (member_faults[i].kind == NetFaultKind::kDropVerb) {
        if (ordered) net_drop_from = std::min(net_drop_from, i);
        completion_lost = true;
      } else if (member_faults[i].kind == NetFaultKind::kDropCompletion) {
        completion_lost = true;
        net_dropped_completions_.Inc();
      }
      if (member_faults[i].extra_delay > 0) net_delayed_verbs_.Inc();
    }
  }

  struct Pending {
    SimTime effect;
    size_t index;
    uint64_t audit_ticket;
  };
  std::vector<Pending> pending;
  pending.reserve(ops.size());

  ComputeEndpoint& compute = ComputeFor(client);
  // One doorbell for the whole chain; only the final verb is signaled.
  const SimTime t_post = simulator_.now() + config_.nic_post_ns;
  SimTime overall_done = t_post;
  SimTime prev_effect = 0;

  for (size_t i = 0; i < ops.size(); ++i) {
    const ChainOp& op = ops[i];
    const NetFault mf =
        member_faults.empty() ? NetFault{} : member_faults[i];
    const uint32_t sid = op.target.server_id();
    MemoryServerEndpoint& server = memory_servers_[sid];
    uint64_t ticket = 0;
    if (op.kind == ChainOp::Kind::kWrite && auditor_) {
      ticket = auditor_->OnWritePosted(client, op.target, op.len,
                                       simulator_.now(), chain_id);
    }

    SimTime t_effect = 0;
    SimTime done = 0;
    if (IsLocal(client, sid)) {
      sim::Link& bus = LocalBus(config_.MemoryServerMachine(sid));
      SimTime start = simulator_.now() + config_.local_latency_ns;
      if (ordered) start = std::max(start, prev_effect);
      if (IsAtomic(op.kind)) {
        // Atomics serialize through the NIC even locally (loopback) so
        // that remote and local atomics remain mutually atomic; see §4.2.
        t_effect = server.engine.ReserveOccupancy(
            bus.ReserveTransfer(start, kAtomicRequestBytes),
            config_.atomic_engine_ns);
        done = t_effect + config_.local_latency_ns;
      } else {
        t_effect = bus.ReserveTransfer(start, op.len);
        done = t_effect;
      }
    } else {
      switch (op.kind) {
        case ChainOp::Kind::kRead: {
          const SimTime t_req_out =
              compute.tx.ReserveTransfer(t_post, kReadRequestBytes);
          SimTime t_arrive = t_req_out + WireLatency() + mf.extra_delay;
          if (ordered) t_arrive = std::max(t_arrive, prev_effect);
          t_effect = server.engine.ReserveOccupancy(
              t_arrive, EngineCost(sid, config_.unsignaled_engine_ns));
          server.rx.ReserveArrival(t_arrive - 1, kReadRequestBytes);
          const SimTime t_tx = server.tx.ReserveTransfer(t_effect, op.len);
          const SimTime first_byte =
              t_tx - server.tx.TransferDuration(op.len) + WireLatency();
          done = compute.rx.ReserveArrival(first_byte, op.len);
          break;
        }
        case ChainOp::Kind::kWrite: {
          const uint32_t wire_bytes = op.len + kWriteHeaderBytes;
          const SimTime t_out = compute.tx.ReserveTransfer(t_post, wire_bytes);
          const SimTime first_byte_at_server =
              t_out - compute.tx.TransferDuration(wire_bytes) + WireLatency() +
              mf.extra_delay;
          SimTime t_rx =
              server.rx.ReserveArrival(first_byte_at_server, wire_bytes);
          if (ordered) t_rx = std::max(t_rx, prev_effect);
          t_effect = server.engine.ReserveOccupancy(
              t_rx, EngineCost(sid, config_.unsignaled_engine_ns));
          // Only the signaled tail acks back to the initiator; the acks of
          // the unsignaled members coalesce into it.
          if (i + 1 == ops.size()) {
            server.tx.ReserveTransfer(t_effect, kAckBytes);
          }
          done = t_effect + WireLatency();
          break;
        }
        case ChainOp::Kind::kCas:
        case ChainOp::Kind::kFaa: {
          const SimTime t_out =
              compute.tx.ReserveTransfer(t_post, kAtomicRequestBytes);
          SimTime t_arrive = t_out + WireLatency() + mf.extra_delay;
          if (ordered) t_arrive = std::max(t_arrive, prev_effect);
          server.rx.ReserveArrival(t_arrive - 1, kAtomicRequestBytes);
          t_effect = server.engine.ReserveOccupancy(t_arrive,
                                                    config_.atomic_engine_ns);
          server.tx.ReserveTransfer(t_effect, kAtomicResponseBytes);
          done = compute.rx.ReserveArrival(t_effect + WireLatency(),
                                           kAtomicResponseBytes);
          break;
        }
      }
    }
    if (mf.kind == NetFaultKind::kDuplicate) {
      // Retransmission re-executes this member at the NIC: a second
      // engine occupancy; the re-executed memory effect happens at the
      // (later) second slot in the effects loop below.
      net_duplicates_.Inc();
      t_effect = server.engine.ReserveOccupancy(
          t_effect, IsAtomic(op.kind)
                        ? config_.atomic_engine_ns
                        : EngineCost(sid, config_.unsignaled_engine_ns));
    }
    uint64_t& executed = op.kind == ChainOp::Kind::kRead    ? server.reads
                         : op.kind == ChainOp::Kind::kWrite ? server.writes
                                                            : server.atomics;
    executed += mf.kind == NetFaultKind::kDuplicate ? 2 : 1;
    prev_effect = t_effect;
    overall_done = std::max(overall_done, done);
    pending.push_back({t_effect, i, ticket});
  }

  // Perform the memory effects in virtual-time order (equals posting order
  // for ordered chains).
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.effect < b.effect;
                   });
  for (size_t pi = 0; pi < pending.size(); ++pi) {
    const Pending& p = pending[pi];
    co_await sim::DelayUntil(simulator_, p.effect);
    if (!ClientAlive(client)) {
      // Died mid-chain: the not-yet-executed tail drops atomically.
      if (auditor_) {
        for (size_t pj = pi; pj < pending.size(); ++pj) {
          if (ops[pending[pj].index].kind == ChainOp::Kind::kWrite) {
            auditor_->DropWrite(pending[pj].audit_ticket);
          }
        }
      }
      dropped_verbs_.Inc();
      co_return PostResult{};
    }
    const ChainOp& op = ops[p.index];
    // Network fault domain: a member lost before the NIC drops here, and
    // so does the unexecuted tail behind it (ordered chains stream WQEs in
    // posting order; net_drop_from marks where the NIC stopped).
    if (!member_faults.empty() &&
        (member_faults[p.index].kind == NetFaultKind::kDropVerb ||
         p.index >= net_drop_from)) {
      if (auditor_ && op.kind == ChainOp::Kind::kWrite) {
        auditor_->DropWrite(p.audit_ticket);
      }
      (member_faults[p.index].partitioned ? net_partitioned_drops_
                                          : net_dropped_verbs_)
          .Inc();
      continue;
    }
    // Server fault domain: a member whose target server is dead (or dies
    // on exactly this effect), or whose fence server has died, drops
    // individually — members bound for live servers still land, so an
    // unlock aimed at a live primary is not lost to a dead backup.
    if (FencedOut(op.fence_server) ||
        !ServerVerbExecutes(op.target.server_id())) {
      if (auditor_ && op.kind == ChainOp::Kind::kWrite) {
        auditor_->DropWrite(p.audit_ticket);
      }
      dropped_verbs_.Inc();
      continue;
    }
    switch (op.kind) {
      case ChainOp::Kind::kRead: {
        if (auditor_) {
          auditor_->OnReadEffect(client, op.target, op.len, simulator_.now(),
                                 chain_id);
        }
        std::memcpy(op.dst, TargetAddress(op.target, op.len), op.len);
        break;
      }
      case ChainOp::Kind::kWrite: {
        if (auditor_) {
          auditor_->OnWriteEffect(p.audit_ticket, op.src, simulator_.now());
        }
        std::memcpy(TargetAddress(op.target, op.len), op.src, op.len);
        break;
      }
      case ChainOp::Kind::kCas: {
        uint8_t* remote = TargetAddress(op.target, 8);
        uint64_t current;
        std::memcpy(&current, remote, 8);
        if (current == op.expected) {
          std::memcpy(remote, &op.desired, 8);
        }
        if (auditor_) {
          auditor_->OnCasEffect(client, op.target, op.expected, op.desired,
                                current, simulator_.now(), chain_id);
        }
        if (op.result != nullptr) *op.result = current;
        if (!member_faults.empty() &&
            member_faults[p.index].kind == NetFaultKind::kDuplicate) {
          // Forced atomic duplicate (exact fault point): the retransmitted
          // CAS compares again. After a successful first execution the
          // word no longer matches `expected`, so the re-execution is a
          // no-op — CAS duplication is self-neutralising, unlike FAA.
          uint64_t again;
          std::memcpy(&again, remote, 8);
          if (again == op.expected) std::memcpy(remote, &op.desired, 8);
        }
        break;
      }
      case ChainOp::Kind::kFaa: {
        const bool twice =
            !member_faults.empty() &&
            member_faults[p.index].kind == NetFaultKind::kDuplicate;
        const uint64_t current = ApplyFaa(client, op.target, op.add, twice);
        if (op.result != nullptr) *op.result = current;
        break;
      }
    }
  }
  if (completion_lost) {
    if (auditor_) {
      for (const ChainOp& op : ops) {
        if (op.kind == ChainOp::Kind::kCas) {
          auditor_->OnCasLost(client, op.target);
        }
      }
    }
    // The signaled tail's acknowledgement never arrives: whatever subset
    // of effects landed stays, but the poster learns nothing and gives up
    // after the retransmission budget.
    co_await sim::DelayUntil(simulator_,
                             overall_done + config_.net_verb_timeout_ns);
    co_return PostResult{VerbCompletion::kLost};
  }
  co_await sim::DelayUntil(simulator_, overall_done);
  co_return PostResult{};
}

sim::Task<VerbCompletion> Fabric::Write(uint32_t client, RemotePtr dst,
                                        const void* src, uint32_t len,
                                        int32_t fence_server) {
  if (!CountVerbAndCheckAlive(client)) {
    dropped_verbs_.Inc();
    co_await sim::Delay(simulator_, config_.nic_post_ns);
    co_return VerbCompletion::kOk;
  }
  NetFault net;
  if (NetFaultsLive()) net = DrawNetFault(client, dst.server_id(), false);
  doorbells_.Inc();
  signaled_verbs_.Inc();
  if (net.kind == NetFaultKind::kDropVerb) {
    // Lost before the target NIC: the bytes never land, the ack never
    // comes. Re-posting is safe (byte-idempotent payload).
    (net.partitioned ? net_partitioned_drops_ : net_dropped_verbs_).Inc();
    co_await sim::Delay(simulator_,
                        config_.nic_post_ns + config_.net_verb_timeout_ns);
    co_return VerbCompletion::kLost;
  }
  if (net.extra_delay > 0) net_delayed_verbs_.Inc();
  MemoryServerEndpoint& server = memory_servers_[dst.server_id()];
  uint8_t* remote = TargetAddress(dst, len);
  const uint64_t audit_ticket =
      auditor_ ? auditor_->OnWritePosted(client, dst, len, simulator_.now())
               : 0;

  if (IsLocal(client, dst.server_id())) {
    sim::Link& bus = LocalBus(config_.MemoryServerMachine(dst.server_id()));
    const SimTime done = bus.ReserveTransfer(
        simulator_.now() + config_.local_latency_ns, len);
    co_await sim::DelayUntil(simulator_, done);
    if (!ClientAlive(client)) {
      if (auditor_) auditor_->DropWrite(audit_ticket);
      dropped_verbs_.Inc();
      co_return VerbCompletion::kOk;
    }
    if (FencedOut(fence_server) || !ServerVerbExecutes(dst.server_id())) {
      if (auditor_) auditor_->DropWrite(audit_ticket);
      dropped_verbs_.Inc();
      co_return VerbCompletion::kOk;
    }
    if (auditor_) auditor_->OnWriteEffect(audit_ticket, src, simulator_.now());
    std::memcpy(remote, src, len);
    if (net.kind == NetFaultKind::kDropCompletion) {
      net_dropped_completions_.Inc();
      co_await sim::Delay(simulator_, config_.net_verb_timeout_ns);
      co_return VerbCompletion::kLost;
    }
    co_return VerbCompletion::kOk;
  }

  ComputeEndpoint& compute = ComputeFor(client);
  const uint32_t wire_bytes = len + kWriteHeaderBytes;
  const SimTime t_post = simulator_.now() + config_.nic_post_ns;
  const SimTime t_out = compute.tx.ReserveTransfer(t_post, wire_bytes);
  const SimTime first_byte_at_server =
      t_out - compute.tx.TransferDuration(wire_bytes) +
      WireLatency() + net.extra_delay;
  const SimTime t_rx = server.rx.ReserveArrival(first_byte_at_server,
                                                wire_bytes);
  SimTime t_effect =
      server.engine.ReserveOccupancy(
          t_rx, EngineCost(dst.server_id(), config_.onesided_engine_ns));

  server.writes++;
  if (net.kind == NetFaultKind::kDuplicate) {
    // Retransmission re-executes the WRITE at the NIC: a second engine
    // occupancy landing the same bytes — byte-idempotent, so no second
    // auditor effect (the sanctioned duplicate).
    net_duplicates_.Inc();
    server.writes++;
    t_effect = server.engine.ReserveOccupancy(
        t_effect, EngineCost(dst.server_id(), config_.onesided_engine_ns));
  }
  co_await sim::DelayUntil(simulator_, t_effect);
  if (!ClientAlive(client)) {  // verb-atomic drop: nothing lands
    if (auditor_) auditor_->DropWrite(audit_ticket);
    dropped_verbs_.Inc();
    co_return VerbCompletion::kOk;
  }
  // Target region gone, or the fence server died first.
  if (FencedOut(fence_server) || !ServerVerbExecutes(dst.server_id())) {
    if (auditor_) auditor_->DropWrite(audit_ticket);
    dropped_verbs_.Inc();
    co_return VerbCompletion::kOk;
  }
  if (auditor_) auditor_->OnWriteEffect(audit_ticket, src, simulator_.now());
  std::memcpy(remote, src, len);

  if (net.kind == NetFaultKind::kDropCompletion) {
    // The bytes landed; the ack did not. The caller resolves by reading
    // the published word back (docs/fault_model.md §8).
    net_dropped_completions_.Inc();
    co_await sim::DelayUntil(simulator_,
                             t_effect + config_.net_verb_timeout_ns);
    co_return VerbCompletion::kLost;
  }

  server.tx.ReserveTransfer(t_effect, kAckBytes);
  const SimTime done = t_effect + WireLatency();
  co_await sim::DelayUntil(simulator_, done);
  co_return VerbCompletion::kOk;
}

SimTime Fabric::ReserveAtomic(uint32_t client, uint32_t server_id,
                              const NetFault& net, SimTime* done) {
  MemoryServerEndpoint& server = memory_servers_[server_id];
  SimTime t_effect;
  if (IsLocal(client, server_id)) {
    sim::Link& bus = LocalBus(config_.MemoryServerMachine(server_id));
    // Atomics still serialize through the NIC even locally (loopback) so
    // that remote and local atomics remain mutually atomic; see §4.2.
    t_effect = server.engine.ReserveOccupancy(
        bus.ReserveTransfer(simulator_.now() + config_.local_latency_ns,
                            kAtomicRequestBytes),
        config_.atomic_engine_ns);
    *done = t_effect + config_.local_latency_ns;
  } else {
    ComputeEndpoint& compute = ComputeFor(client);
    const SimTime t_post = simulator_.now() + config_.nic_post_ns;
    const SimTime t_out =
        compute.tx.ReserveTransfer(t_post, kAtomicRequestBytes);
    const SimTime t_arrive = t_out + WireLatency() + net.extra_delay;
    server.rx.ReserveArrival(t_arrive - 1, kAtomicRequestBytes);
    t_effect =
        server.engine.ReserveOccupancy(t_arrive, config_.atomic_engine_ns);
    server.tx.ReserveTransfer(t_effect, kAtomicResponseBytes);
    *done = compute.rx.ReserveArrival(t_effect + WireLatency(),
                                      kAtomicResponseBytes);
  }
  server.atomics++;
  if (net.kind == NetFaultKind::kDuplicate) {
    net_duplicates_.Inc();
    server.atomics++;
    t_effect =
        server.engine.ReserveOccupancy(t_effect, config_.atomic_engine_ns);
  }
  return t_effect;
}

sim::Task<AtomicResult> Fabric::CompareAndSwap(uint32_t client,
                                               RemotePtr target,
                                               uint64_t expected,
                                               uint64_t desired) {
  if (!CountVerbAndCheckAlive(client)) {
    dropped_verbs_.Inc();
    co_await sim::Delay(simulator_, config_.nic_post_ns);
    // Meaningless to a dead caller; RemoteOps checks alive().
    co_return AtomicResult{};
  }
  NetFault net;
  if (NetFaultsLive()) net = DrawNetFault(client, target.server_id(), true);
  doorbells_.Inc();
  signaled_verbs_.Inc();
  if (net.kind == NetFaultKind::kDropVerb) {
    // Lost before the NIC: no swap happened. Indistinguishable (to the
    // caller) from a lost ack after a successful swap — resolved by
    // reading the word back.
    (net.partitioned ? net_partitioned_drops_ : net_dropped_verbs_).Inc();
    if (auditor_) auditor_->OnCasLost(client, target);
    co_await sim::Delay(simulator_,
                        config_.nic_post_ns + config_.net_verb_timeout_ns);
    co_return AtomicResult{0, VerbCompletion::kLost};
  }
  if (net.extra_delay > 0) net_delayed_verbs_.Inc();
  uint8_t* remote = TargetAddress(target, 8);

  // A forced duplicate (exact fault point only) executes the CAS twice. A
  // successful first swap makes the second a no-op, so only the engine
  // pays; see FetchAndAdd for the non-neutral case.
  SimTime done;
  const SimTime t_effect =
      ReserveAtomic(client, target.server_id(), net, &done);
  co_await sim::DelayUntil(simulator_, t_effect);
  if (!ClientAlive(client)) {  // verb-atomic drop: no swap
    dropped_verbs_.Inc();
    co_return AtomicResult{};
  }
  if (!ServerVerbExecutes(target.server_id())) {  // target region is gone
    dropped_verbs_.Inc();
    co_return AtomicResult{};  // callers disambiguate via ServerAlive
  }
  uint64_t current;
  std::memcpy(&current, remote, 8);
  if (current == expected) {
    std::memcpy(remote, &desired, 8);
  }
  if (auditor_) {
    auditor_->OnCasEffect(client, target, expected, desired, current,
                          simulator_.now());
  }
  if (net.kind == NetFaultKind::kDuplicate) {
    uint64_t again;
    std::memcpy(&again, remote, 8);
    if (again == expected) std::memcpy(remote, &desired, 8);
  }
  if (net.kind == NetFaultKind::kDropCompletion) {
    // The swap (or its failure) happened; the response was lost. The
    // pre-image never reaches the caller — stamp read-back resolves it.
    net_dropped_completions_.Inc();
    if (auditor_) auditor_->OnCasLost(client, target);
    co_await sim::DelayUntil(simulator_,
                             t_effect + config_.net_verb_timeout_ns);
    co_return AtomicResult{0, VerbCompletion::kLost};
  }
  co_await sim::DelayUntil(simulator_, done);
  co_return AtomicResult{current, VerbCompletion::kOk};
}

uint64_t Fabric::ApplyFaa(uint32_t client, RemotePtr target, uint64_t add,
                          bool twice) {
  uint8_t* remote = TargetAddress(target, 8);
  uint64_t prev[2] = {0, 0};
  for (int k = 0; k < (twice ? 2 : 1); ++k) {
    std::memcpy(&prev[k], remote, 8);
    const uint64_t updated = prev[k] + add;
    std::memcpy(remote, &updated, 8);
    if (auditor_) {
      auditor_->OnFaaEffect(client, target, add, prev[k], simulator_.now());
    }
  }
  return prev[0];
}

sim::Task<AtomicResult> Fabric::FetchAndAdd(uint32_t client, RemotePtr target,
                                            uint64_t add) {
  if (!CountVerbAndCheckAlive(client)) {
    dropped_verbs_.Inc();
    co_await sim::Delay(simulator_, config_.nic_post_ns);
    co_return AtomicResult{};
  }
  NetFault net;
  if (NetFaultsLive()) net = DrawNetFault(client, target.server_id(), true);
  doorbells_.Inc();
  signaled_verbs_.Inc();
  if (net.kind == NetFaultKind::kDropVerb) {
    (net.partitioned ? net_partitioned_drops_ : net_dropped_verbs_).Inc();
    co_await sim::Delay(simulator_,
                        config_.nic_post_ns + config_.net_verb_timeout_ns);
    co_return AtomicResult{0, VerbCompletion::kLost};
  }
  if (net.extra_delay > 0) net_delayed_verbs_.Inc();

  // A forced duplicate (exact fault point only) executes the FAA twice, and
  // FAA is NOT idempotent: the re-execution adds again, and the second
  // effect is reported to the auditor as its own event so unsanctioned dups
  // are caught (a duplicated release FAA trips kUnlockWithoutLock).
  SimTime done;
  const SimTime t_effect =
      ReserveAtomic(client, target.server_id(), net, &done);
  co_await sim::DelayUntil(simulator_, t_effect);
  if (!ClientAlive(client)) {  // verb-atomic drop: no add
    dropped_verbs_.Inc();
    co_return AtomicResult{};
  }
  if (!ServerVerbExecutes(target.server_id())) {  // target region is gone
    dropped_verbs_.Inc();
    co_return AtomicResult{};  // callers disambiguate via ServerAlive
  }
  const uint64_t current = ApplyFaa(client, target, add,
                                    net.kind == NetFaultKind::kDuplicate);
  if (net.kind == NetFaultKind::kDropCompletion) {
    // The add happened; the pre-image never came back.
    net_dropped_completions_.Inc();
    co_await sim::DelayUntil(simulator_,
                             t_effect + config_.net_verb_timeout_ns);
    co_return AtomicResult{0, VerbCompletion::kLost};
  }
  co_await sim::DelayUntil(simulator_, done);
  co_return AtomicResult{current, VerbCompletion::kOk};
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
      (net.partitioned ? net_partitioned_drops_ : net_dropped_verbs_).Inc();
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
