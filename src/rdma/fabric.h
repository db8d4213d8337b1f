#ifndef NAMTREE_RDMA_FABRIC_H_
#define NAMTREE_RDMA_FABRIC_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "rdma/audit.h"
#include "rdma/fabric_config.h"
#include "rdma/memory_region.h"
#include "rdma/remote_ptr.h"
#include "rdma/rpc.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace namtree::rdma {

/// How a posted verb completed from the initiating client's point of view.
/// kOk = the completion arrived (the memory effect, if any, is visible).
/// kLost = no completion within the retransmission budget: either the verb
/// never executed (dropped before the NIC) or it executed and only the
/// acknowledgement was lost — the caller cannot tell which and must resolve
/// the ambiguity by protocol (docs/fault_model.md §8). Only a flaky-network
/// fault domain produces kLost; lossless runs always see kOk.
enum class VerbCompletion : uint8_t { kOk, kLost };

/// The simulated RDMA network connecting compute clients to memory servers.
///
/// All verbs perform their *real* memory effect (copy / compare-and-swap /
/// fetch-and-add against the registered `MemoryRegion`) at the virtual time
/// at which the target NIC would execute them, so concurrent protocols
/// observe exactly the interleavings a real one-sided fabric produces
/// (verb-atomic granularity, serialized by the target NIC engine).
///
/// Resources modeled per memory server: a NIC processing engine (serializes
/// verb execution; occupancy depends on verb type, FabricConfig) and tx/rx
/// links at FDR-4x port bandwidth. Compute machines contribute tx/rx links
/// shared by their (default 40) clients. Co-located accesses (Appendix A.3)
/// bypass the wire and use the machine-local memory bus instead.
class Fabric {
 public:
  Fabric(sim::Simulator& simulator, const FabricConfig& config);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Simulator& simulator() { return simulator_; }
  const FabricConfig& config() const { return config_; }

  // ---- Registration / topology ------------------------------------------

  /// Registers `region` as memory server `server_id`'s RDMA-visible memory.
  void RegisterRegion(uint32_t server_id, MemoryRegion* region);

  MemoryRegion* region(uint32_t server_id) {
    return memory_servers_[server_id].region;
  }
  Srq& srq(uint32_t server_id) { return *memory_servers_[server_id].srq; }

  uint32_t num_memory_servers() const { return config_.num_memory_servers; }

  /// Informs the fabric how many closed-loop clients exist (sizes the
  /// per-connection overhead term and the compute machine count).
  void SetNumClients(uint32_t n);
  uint32_t num_clients() const { return num_clients_; }

  /// Compute machine hosting `client`.
  uint32_t ClientMachine(uint32_t client) const {
    return client / config_.clients_per_compute_machine;
  }

  /// True when `client` and memory server `server` share a machine and the
  /// co-located fast path applies.
  bool IsLocal(uint32_t client, uint32_t server) const {
    return config_.colocate &&
           ClientMachine(client) == config_.MemoryServerMachine(server);
  }

  // ---- Crash-fault injection ---------------------------------------------

  /// Kills `client` at virtual time `at_time` (0 or past = immediately).
  /// From its death on, the client's in-flight verbs are dropped before
  /// their memory effect and every verb it posts returns without effect;
  /// callers observe this through `RemoteOps` as Status::Unavailable.
  /// Deterministic alternative: FabricConfig::crash_points kills a client
  /// after its Nth verb. Killing is idempotent; the earliest time wins.
  void KillClient(uint32_t client, SimTime at_time = 0);

  /// Client liveness at the current virtual time. This is the
  /// fabric-maintained registry that waiters consult (via a
  /// ChainOp::Probe) before stealing an orphaned lock.
  bool ClientAlive(uint32_t client) const {
    return client >= clients_.size() ||
           simulator_.now() < clients_[client].death_time;
  }

  /// Where `client`'s liveness record lives: on memory server
  /// `client % num_memory_servers`, or, under replication, on the first
  /// live server of that server's replica group (the home server when
  /// every replica is dead). The registry is fabric state, not region
  /// bytes, so the offset is symbolic.
  RemotePtr LivenessRecord(uint32_t client) const;

  // ---- Memory-server fault domain -----------------------------------------

  /// Kills memory server `server` at virtual time `at_time` (0 or past =
  /// immediately). From its death on, one-sided verbs targeting its region
  /// drop before their memory effect (per chain *member* — members bound
  /// for live servers still land), RPCs routed to it complete with
  /// kUnavailable, and its worker loop stops consuming the SRQ. Killing is
  /// idempotent; the earliest time wins. Deterministic alternative:
  /// FabricConfig::server_crash_points.
  void KillServer(uint32_t server, SimTime at_time = 0);

  /// Memory-server liveness at the current virtual time.
  bool ServerAlive(uint32_t server) const {
    return simulator_.now() < server_death_time_[server];
  }

  /// Verb effects executed against `server` so far (server crash points
  /// key off this count).
  uint64_t server_verbs_executed(uint32_t server) const {
    return server_verbs_executed_[server];
  }

  // ---- Network fault domain (flaky fabric) --------------------------------

  /// Severs the (client, server) link from `at_time` (0 or past =
  /// immediately) until HealLink: every verb the client posts at that
  /// server is dropped before its memory effect and its completion never
  /// arrives (kLost after the retransmission budget). Both endpoints stay
  /// alive — this is a partial partition, not a crash.
  void PartitionLink(uint32_t client, uint32_t server, SimTime at_time = 0);

  /// Severs several links at once (each pair is {client, server}).
  void PartitionLinks(
      const std::vector<std::pair<uint32_t, uint32_t>>& links,
      SimTime at_time = 0);

  /// Restores a severed link immediately.
  void HealLink(uint32_t client, uint32_t server);

  /// True when the (client, server) link is severed at the current virtual
  /// time.
  bool LinkPartitioned(uint32_t client, uint32_t server) const;

  /// True once any network-fault source can still fire: configured
  /// probabilities / fault points, or at least one severed link. Client
  /// protocols consult this to decide whether ambiguity bookkeeping (e.g.
  /// the allocation-cursor pre-read) is worth a round trip — knobs-off
  /// runs must stay verb-for-verb identical.
  bool NetFaultsLive() const {
    return net_faults_configured_ || !partitioned_links_.empty();
  }

  // ---- Replication ---------------------------------------------------------

  /// Effective replication degree: FabricConfig::replication_factor clamped
  /// to [1, num_memory_servers].
  uint32_t replication() const { return replication_; }
  bool replicated() const { return replication_ > 1; }

  /// Bytes of one rank stripe of `server`'s page area (capacity minus the
  /// header, divided by R). Rank 0 [kHeaderSize, kHeaderSize + stripe) is
  /// the server's own primary stripe; rank r >= 1 holds backups of server
  /// (s - r + N) % N's primaries.
  uint64_t ReplicaStripeBytes(uint32_t server) const {
    return (region_capacity(server) - MemoryRegion::kHeaderSize) /
           replication_;
  }

  /// Address of replica `rank` of the page at primary address `primary`:
  /// server (s + rank) % N, offset shifted up by rank stripes. Rank 0 is
  /// the identity. Pure formula — no directory.
  RemotePtr ReplicaPtr(RemotePtr primary, uint32_t rank) const {
    if (rank == 0) return primary;
    const uint32_t server =
        (primary.server_id() + rank) % config_.num_memory_servers;
    const uint64_t off = primary.offset() - MemoryRegion::kHeaderSize;
    return RemotePtr::Make(
        server, MemoryRegion::kHeaderSize +
                    rank * ReplicaStripeBytes(primary.server_id()) + off);
  }

  /// Primary-allocation cap of `server`'s region: its rank-0 stripe end
  /// under replication, full capacity otherwise.
  uint64_t AllocLimit(uint32_t server) const {
    return replicated()
               ? MemoryRegion::kHeaderSize + ReplicaStripeBytes(server)
               : region_capacity(server);
  }

  /// Copies every server's allocated primary pages into its backup ranks
  /// (setup-time catch-up after bulk load, outside simulated time). No-op
  /// at R=1. Region headers (alloc cursors, catalog slots) are not
  /// replicated.
  void SyncReplicasFromPrimaries();

  // ---- One-sided verbs ----------------------------------------------------

  /// One member of a post: a READ, WRITE, CAS or FETCH_AND_ADD.
  struct ChainOp {
    enum class Kind : uint8_t { kRead, kWrite, kCas, kFaa };

    Kind kind = Kind::kRead;
    RemotePtr target;
    void* dst = nullptr;        ///< READ destination buffer
    const void* src = nullptr;  ///< WRITE source buffer
    uint32_t len = 0;
    uint64_t expected = 0;      ///< CAS compare value
    uint64_t desired = 0;       ///< CAS swap value
    uint64_t add = 0;           ///< FETCH_AND_ADD addend
    /// CAS / FAA pre-image sink (optional); written only when the verb's
    /// completion arrives — a lost completion delivers no pre-image.
    uint64_t* result = nullptr;
    /// Fence: drop this member at effect time if the named server is dead
    /// by then (-1 = unfenced). Replicated unlock chains fence backup
    /// WRITEs on the lock-holding primary: once the primary dies, a
    /// reader may already have promoted a backup, so a late backup WRITE
    /// must not clobber it. Soundness: the member's effect is either
    /// before the primary's death (lands before any promotion could
    /// begin) or after it (dropped).
    int32_t fence_server = -1;
    /// A READ of this client's liveness record (-1 = a READ of memory):
    /// the 8 bytes landing in `dst` are 1 when the client is alive at the
    /// member's effect, else 0.
    int64_t liveness_of = -1;

    static ChainOp Read(RemotePtr src, void* dst, uint32_t len) {
      ChainOp op;
      op.kind = Kind::kRead;
      op.target = src;
      op.dst = dst;
      op.len = len;
      return op;
    }
    static ChainOp Write(RemotePtr dst, const void* src, uint32_t len) {
      ChainOp op;
      op.kind = Kind::kWrite;
      op.target = dst;
      op.src = src;
      op.len = len;
      return op;
    }
    static ChainOp Cas(RemotePtr target, uint64_t expected, uint64_t desired,
                       uint64_t* result = nullptr) {
      ChainOp op;
      op.kind = Kind::kCas;
      op.target = target;
      op.len = 8;
      op.expected = expected;
      op.desired = desired;
      op.result = result;
      return op;
    }
    static ChainOp Faa(RemotePtr target, uint64_t add,
                       uint64_t* result = nullptr) {
      ChainOp op;
      op.kind = Kind::kFaa;
      op.target = target;
      op.len = 8;
      op.add = add;
      op.result = result;
      return op;
    }
    /// The liveness-registry probe: an 8-byte READ of `client`'s record
    /// (`record` = LivenessRecord(client)) into `*alive`.
    static ChainOp Probe(RemotePtr record, uint32_t client, uint64_t* alive) {
      ChainOp op = Read(record, alive, 8);
      op.liveness_of = client;
      return op;
    }
  };

  /// How a post completed: the completion, and how many signaled round
  /// trips the poster waited on in sequence (0 = a READ that rode another
  /// lane's in-flight READ; 1 = one verb or one doorbell chain; one per
  /// member for an ordered chain posted with verb chaining off).
  struct PostResult {
    VerbCompletion completion = VerbCompletion::kOk;
    uint32_t round_trips = 1;
    bool ok() const { return completion == VerbCompletion::kOk; }
  };

  /// How Post puts its members on the wire.
  enum class Posting : uint8_t {
    /// A lone member goes out as its own signaled verb; several members
    /// ride one doorbell.
    kVerbs,
    /// kVerbs, and with FabricConfig::read_combining a lone READ of memory
    /// attaches to an identical (target, len) READ in flight on its
    /// compute machine instead of posting its own (round_trips = 0):
    ///   1. one its own client posted, at any point before completion —
    ///      the waiter inherits that READ's bytes and completion, a
    ///      snapshot that may precede its own call by the in-flight
    ///      window, which the OLC staleness argument (validate version,
    ///      chase right) covers;
    ///   2. else the machine's newest one whose effect has not executed
    ///      at the target yet, so the bytes are never older than the
    ///      call. If that READ's poster died before its effect or its
    ///      completion is not kOk, the waiter posts again by these rules:
    ///      crash and link faults stay per client;
    ///   3. else it posts its own READ, which becomes the machine's newest.
    kCombined,
    /// Always one doorbell, even for a lone member (READ-only prefetch
    /// batches: selectively signaled, cheap unsignaled engine cost).
    kBatch,
  };

  /// The fabric's only one-sided entry (called by RemoteOps::Post): posts
  /// `ops` as `posting` says. Every post runs one pipeline — a post-time
  /// gate (client liveness and crash point, one tick per post; one
  /// network-fault draw per member), a reservation of NIC engine, link and
  /// bus time per member, an effect step per member at its execution time
  /// (client and server liveness, fence, auditor, memory effect), and one
  /// completion. A CAS / FAA delivers its pre-image through `result` when
  /// the post completes kOk.
  ///
  /// A lone member is a signaled verb: READ/WRITE pay
  /// `onesided_engine_ns`, a READ reserves its response (a WRITE its ack)
  /// after its effect, a co-located READ/WRITE is a bus copy that never
  /// touches the NIC engine, and a member lost before the NIC returns kLost
  /// after `nic_post_ns + net_verb_timeout_ns` without reserving anything.
  ///
  /// Several members (or kBatch) ride one doorbell with only the tail
  /// signaled: READ/WRITE members pay `unsignaled_engine_ns` (atomics keep
  /// their lock-unit cost), every response and the tail's ack are
  /// reserved at post time, and the chain counts as one verb against the
  /// crash point — a client dying mid-chain loses the not-yet-executed
  /// tail atomically. A READ-only chain executes its members independently
  /// (the selectively signaled prefetch of §4.3); any WRITE or atomic
  /// makes it ordered, each member's effect waiting for its predecessor's,
  /// which is what makes the {page WRITE, unlock WRITE} and split chains
  /// safe to combine. A member whose server (or fence server) is dead
  /// drops on its own; the first member lost before the NIC also drops the
  /// ordered tail behind it, and any loss completes the chain kLost. With
  /// FabricConfig::verb_chaining off an ordered chain instead posts each
  /// member as a lone verb after its predecessor completed, stopping at
  /// the first lost one.
  ///
  /// A dead client's post drops after `nic_post_ns` with no effect.
  sim::Task<PostResult> Post(uint32_t client, std::span<const ChainOp> ops,
                             Posting posting);

  // ---- Two-sided verbs (RPC) ----------------------------------------------

  /// Sends `request` to `server` via SEND/RECV and suspends until the reply
  /// SEND arrives. With FabricConfig::rpc_timeout_ns set, each attempt is
  /// abandoned after the deadline and resent up to rpc_max_retries times;
  /// exhaustion yields a response with status kTimedOut, and a dead caller
  /// gets kUnavailable.
  sim::Task<RpcResponse> Call(uint32_t client, uint32_t server,
                              RpcRequest request);

  /// Called by a memory-server handler to reply to `incoming`. The caller
  /// keeps running; the response is delivered in the background. A response
  /// whose caller has abandoned the call (timeout / death) still pays the
  /// send costs but is dropped.
  void Respond(uint32_t server, const IncomingRpc& incoming,
               RpcResponse response);

  /// Server-side exactly-once admission, called by a worker before invoking
  /// the handler for `rpc`. Returns true when the handler should execute.
  /// Returns false for a retransmission of a request that already executed
  /// (the cached response is resent without re-running the handler) or that
  /// is still executing (the duplicate is parked and answered when the
  /// original responds). Handlers mutate index state, so this layer — not
  /// handler idempotence — is what makes the Call resend discipline safe.
  /// No-op (always true) when network faults are off: rpc_id is 0 then.
  bool AdmitRpc(uint32_t server, const IncomingRpc& rpc);

  // ---- Verb-protocol audit ------------------------------------------------

  /// The protocol auditor watching this fabric's verbs, or nullptr when the
  /// build compiled it out (-DNAMTREE_AUDIT=OFF; plain Release default).
  VerbAuditor* auditor() { return auditor_.get(); }
  const VerbAuditor* auditor() const { return auditor_.get(); }

  /// OK when no protocol violations were recorded (or auditing is compiled
  /// out), otherwise Corruption describing the first violation.
  Status CheckAuditClean() const {
    return auditor_ ? auditor_->CheckClean() : Status::OK();
  }

  // ---- Statistics ----------------------------------------------------------

  /// The one registry of fabric-level (and, by registration, client- and
  /// audit-level) metric families. Every counter the fabric maintains is a
  /// registered family — read them via `metrics().Value("fabric.doorbells")`
  /// etc. or collect a Snapshot/Delta; there are no per-counter getters.
  /// Families:
  ///   fabric.signaled_verbs    verbs posted with a signaled completion
  ///                            since the last ResetStats (lone verbs
  ///                            plus each chain's signaled tail)
  ///   fabric.unsignaled_verbs  chain members riding a doorbell without
  ///                            their own completion
  ///   fabric.doorbells         doorbell rings: one per lone verb, one per
  ///                            chain
  ///   fabric.combined_reads    READs combined away by Posting::kCombined
  ///                            (verbs never posted; a waiter that has to
  ///                            post after all is not counted)
  ///   fabric.duplicate_inflight_reads  same-client lone READs
  ///                            posted while an identical (target, len)
  ///                            READ of that client was in flight: the
  ///                            waste read combining removes (never reset)
  ///   fabric.dropped_verbs     verbs dropped because their client was dead
  ///                            at post or effect time (never reset)
  ///   fabric.dropped_responses RPC responses whose caller had abandoned
  ///                            the call (never reset)
  ///   fabric.rpc_timeouts      RPC attempts abandoned at the deadline
  ///                            (never reset)
  ///   fabric.net.dropped_verbs        verbs lost before the target NIC
  ///                                   (no memory effect; never reset)
  ///   fabric.net.dropped_completions  verbs whose effect applied but whose
  ///                                   acknowledgement was lost (never reset)
  ///   fabric.net.duplicates           verbs re-executed at the NIC (never
  ///                                   reset)
  ///   fabric.net.delayed_verbs        verbs stretched by delay jitter
  ///                                   (never reset)
  ///   fabric.net.partitioned_drops    verbs dropped on a severed link
  ///                                   (never reset)
  ///   retry.attempts{domain}   re-attempts after a failed try, by retry
  ///                            domain (rpc here; lock/verb/steal are
  ///                            registered by ClientContext; never reset)
  ///   retry.exhausted{domain}  retry budgets used up (never reset)
  ///   server.bytes{server}     per-server tx+rx bytes since last reset
  ///   server.engine_busy_ns{server}
  ///                            per-server NIC engine occupancy (ns) since
  ///                            last reset
  ///   server.verbs{server,verb}
  ///                            per-server verbs executed at the target
  ///                            NIC since last reset, by verb (read, write,
  ///                            atomic, send)
  metrics::MetricRegistry& metrics() { return metrics_; }
  const metrics::MetricRegistry& metrics() const { return metrics_; }

  /// One memory server's target-side accounting since the last reset: the
  /// values behind the server.bytes, server.engine_busy_ns and
  /// server.verbs families, read in one call. server_stats() sets every
  /// field.
  struct ServerStats {
    uint64_t tx_bytes;
    uint64_t rx_bytes;
    uint64_t verbs;  ///< every transfer through the NIC engine
    SimTime engine_busy;
    // Per-verb breakdown (target-side).
    uint64_t reads;
    uint64_t writes;
    uint64_t atomics;
    uint64_t sends;
  };

  ServerStats server_stats(uint32_t server) const;

  /// Sum of tx+rx bytes over all memory servers since the last reset.
  uint64_t TotalMemoryServerBytes() const;

  /// Verbs issued by `client` so far (crash points key off this count).
  uint64_t client_verbs(uint32_t client) const {
    return client < clients_.size() ? clients_[client].verbs_issued : 0;
  }
  /// Per-RPC service-time surcharge from connection bookkeeping
  /// (`per_client_poll_ns` x connected clients).
  SimTime PerRequestConnectionOverhead() const {
    return static_cast<SimTime>(config_.per_client_poll_ns * num_clients_);
  }

  /// One wire traversal, with fault-injection jitter applied when enabled.
  SimTime WireLatency() {
    if (config_.latency_jitter <= 0) return config_.wire_latency_ns;
    const double factor = 1.0 + config_.latency_jitter * jitter_rng_.NextDouble();
    return static_cast<SimTime>(config_.wire_latency_ns * factor);
  }

  /// Straggler factor of memory server `s` (1.0 when none injected).
  double ServerSlowdown(uint32_t server) const {
    if (server < config_.server_slowdown.size()) {
      return config_.server_slowdown[server];
    }
    return 1.0;
  }

  /// NIC engine occupancy at `server`, scaled for injected stragglers.
  SimTime EngineCost(uint32_t server, SimTime base) const {
    return static_cast<SimTime>(base * ServerSlowdown(server));
  }

  /// Engine occupancy of a two-sided message of `wire_bytes` at `server`:
  /// one SEND for RC; ceil(bytes / MTU) cheaper datagrams for UD (§3.2 /
  /// FaSST-style transport).
  SimTime TwoSidedEngineCost(uint32_t server, uint32_t wire_bytes) const {
    if (config_.rpc_transport ==
        FabricConfig::RpcTransport::kUnreliableDatagram) {
      const uint32_t fragments =
          (wire_bytes + config_.ud_mtu - 1) / config_.ud_mtu;
      return EngineCost(server, fragments * config_.ud_engine_ns);
    }
    return EngineCost(server, config_.twosided_engine_ns);
  }

  void ResetStats();

 private:
  struct MemoryServerEndpoint {
    MemoryServerEndpoint(sim::Simulator& simulator, double bw)
        : tx(bw), rx(bw), engine(bw), srq(new Srq(simulator)) {}
    sim::Link tx;
    sim::Link rx;
    sim::Link engine;  // occupancy-only (ReserveOccupancy)
    std::unique_ptr<Srq> srq;
    MemoryRegion* region = nullptr;
    // namtree-lint: metric-ok(NIC-model working state folded into ServerStats at effect time; never read as a metric itself)
    uint64_t reads = 0;
    // namtree-lint: metric-ok(see reads)
    uint64_t writes = 0;
    uint64_t atomics = 0;
    uint64_t sends = 0;
  };

  struct ComputeEndpoint {
    explicit ComputeEndpoint(double bw) : tx(bw), rx(bw) {}
    sim::Link tx;
    sim::Link rx;
  };

  /// Ensures the compute machine endpoint for `client` exists; returns it.
  ComputeEndpoint& ComputeFor(uint32_t client);

  /// Machine-local bus for co-located transfers on memory machine `m`.
  sim::Link& LocalBus(uint32_t machine) { return *local_bus_[machine]; }

  /// Validates that [ptr, ptr+len) lies inside the registered region.
  uint8_t* TargetAddress(RemotePtr ptr, uint32_t len);

  /// Counts one verb against `client` and evaluates its crash point.
  /// Returns false when the client is (or just became) dead — the caller
  /// must drop the verb without a memory effect.
  bool CountVerbAndCheckAlive(uint32_t client);

  /// The crash-fault state of `client`, grown on demand.
  struct ClientState {
    SimTime death_time = std::numeric_limits<SimTime>::max();
    uint64_t crash_after = std::numeric_limits<uint64_t>::max();
    // namtree-lint: metric-ok(the post-order verb index that crash points and fault points match; not an event metric)
    uint64_t verbs_issued = 0;
  };
  ClientState& StateOf(uint32_t client) {
    if (client >= clients_.size()) clients_.resize(client + 1);
    return clients_[client];
  }

  static bool IsAtomic(ChainOp::Kind kind) {
    return kind == ChainOp::Kind::kCas || kind == ChainOp::Kind::kFaa;
  }

  /// True when a WRITE fenced on `fence_server` (-1 = unfenced) must drop:
  /// the fence server is dead at effect time.
  bool FencedOut(int32_t fence_server) const {
    return fence_server >= 0 &&
           !ServerAlive(static_cast<uint32_t>(fence_server));
  }

  /// Effect-time gate of the server fault domain: counts one verb effect
  /// against `server` and evaluates its crash point. Returns false when
  /// the server is dead (or died on exactly this verb) — the caller must
  /// drop the effect. Cost reservations are never affected, so healthy
  /// runs stay bit-identical.
  bool ServerVerbExecutes(uint32_t server);

  /// What the network does to one verb on the (client, server) link.
  enum class NetFaultKind : uint8_t {
    kNone,
    kDropVerb,        ///< lost before the NIC: no effect, no completion
    kDropCompletion,  ///< effect applied, acknowledgement lost
    kDuplicate,       ///< executed twice at the NIC
  };
  struct NetFault {
    NetFaultKind kind = NetFaultKind::kNone;
    SimTime extra_delay = 0;    ///< additive delay-jitter draw
    bool partitioned = false;   ///< drop caused by a severed link
  };

  /// Decides the network's treatment of the verb `client` just posted at
  /// `server`. Called once per posted verb (chains: once per member), but
  /// only when `net_faults_live_` — knobs-off runs never reach the RNG.
  /// Exact verb_fault_points (matched against the post-order verb counter,
  /// consumed once) take precedence; a severed link forces kDropVerb; then
  /// the link's probabilistic knobs draw from `net_rng_`. Random dup draws
  /// skip atomics when `is_atomic` (RC NICs answer retransmitted atomics
  /// from the response cache — exactly-once); only an exact fault point
  /// can force an atomic duplicate.
  NetFault DrawNetFault(uint32_t client, uint32_t server, bool is_atomic);

  /// One member of a post on its way through the pipeline.
  struct Member {
    const ChainOp* op = nullptr;
    size_t index = 0;     ///< posting position
    NetFault fault;
    SimTime effect = 0;   ///< when the target NIC executes it
    SimTime done = 0;     ///< when its completion lands
    uint64_t ticket = 0;  ///< the auditor's WRITE ticket
    uint64_t value = 0;   ///< CAS / FAA pre-image
    bool executed = false;
  };

  /// Reserves `m`'s NIC engine, link and bus time (its effect waits for
  /// `after`, the predecessor's effect in an ordered chain) and counts it
  /// at the target. A lone remote READ/WRITE leaves its response or ack
  /// to the completion step.
  void Reserve(uint32_t client, Member& m, bool lone, bool tail,
               SimTime t_post, SimTime after, uint64_t chain_id);

  /// Reserves a remote READ's response of `len` bytes from `effect`;
  /// returns when it has landed at `client`.
  SimTime ReserveResponse(uint32_t client, uint32_t server, SimTime effect,
                          uint32_t len);

  /// Reserves a remote WRITE's ack from `effect`; returns when it lands.
  SimTime ReserveAck(uint32_t server, SimTime effect);

  /// `m`'s memory effect at the current virtual time, reported to the
  /// auditor; a forced duplicate re-executes a CAS / FAA.
  void Apply(uint32_t client, Member& m, uint64_t chain_id);

  /// Tells the auditor that `m`, a WRITE, will never land.
  void DropWrite(const Member& m) {
    if (auditor_ && m.op->kind == ChainOp::Kind::kWrite) {
      auditor_->DropWrite(m.ticket);
    }
  }

  /// Counts a member lost before the target NIC.
  void CountNetDrop(const NetFault& fault) {
    (fault.partitioned ? net_partitioned_drops_ : net_dropped_verbs_).Inc();
  }

  uint64_t region_capacity(uint32_t server) const {
    return memory_servers_[server].region->capacity();
  }

  /// Fails every pending RPC targeting `server` with kUnavailable (its
  /// workers will never respond) and tells the auditor the region is gone.
  void OnServerDeathNow(uint32_t server);

  sim::Simulator& simulator_;
  FabricConfig config_;
  /// Declared before every registered handle (and before auditor_, whose
  /// callbacks it holds) so handles unregister into a live registry.
  metrics::MetricRegistry metrics_;
  std::vector<MemoryServerEndpoint> memory_servers_;
  std::vector<std::unique_ptr<ComputeEndpoint>> compute_machines_;
  std::vector<std::unique_ptr<sim::Link>> local_bus_;
  uint32_t num_clients_ = 0;
  Rng jitter_rng_{0x9E3779B9};
  std::unique_ptr<VerbAuditor> auditor_;
  // Crash-fault state indexed by client id (death time, earliest crash
  // point, verb counter), and the fabric-owned registry of in-flight RPCs
  // (callers that time out abandon their entry; a late Respond then finds
  // nothing instead of a dangling pointer).
  std::vector<ClientState> clients_;
  // Memory-server fault domain: death times (sentinel = immortal),
  // effect-time verb counters, and per-server crash points (earliest
  // after_verbs wins).
  std::vector<SimTime> server_death_time_;
  std::vector<uint64_t> server_verbs_executed_;
  std::unordered_map<uint32_t, uint64_t> server_crash_after_;
  uint32_t replication_ = 1;
  // Network fault domain: cached enablement, dedicated RNG (seeded from
  // net_fault_seed; drawn only when faults are live), per-link overrides,
  // severed links (value = partition start time), and one consumed flag
  // per configured exact fault point.
  bool net_faults_configured_ = false;
  Rng net_rng_{0x51ED270Bu};
  std::map<std::pair<uint32_t, uint32_t>, FabricConfig::LinkFault>
      link_fault_overrides_;
  std::map<std::pair<uint32_t, uint32_t>, SimTime> partitioned_links_;
  std::vector<bool> verb_fault_consumed_;
  std::unordered_map<uint64_t, std::unique_ptr<PendingCall>> pending_calls_;
  uint64_t next_call_id_ = 1;
  /// Exactly-once bookkeeping for two-sided calls under network faults. An
  /// entry is created when the first delivery of an rpc_id is admitted and
  /// holds the cached response once the handler replied; duplicates that
  /// arrive while the original is still executing park in `waiters` and are
  /// answered from the cache when it responds. Only populated while
  /// NetFaultsLive() (rpc_id stays 0 otherwise), so knobs-off runs never
  /// touch it.
  struct RpcDedupEntry {
    bool done = false;
    RpcResponse response;
    std::vector<IncomingRpc> waiters;
  };
  std::unordered_map<uint64_t, RpcDedupEntry> rpc_dedup_;
  uint64_t next_rpc_id_ = 1;
  /// Doorbell-chain ids handed to the auditor so a race report can name the
  /// chain both verbs rode in (0 = lone verb).
  uint64_t next_chain_id_ = 1;
  /// In-flight combining state (FabricConfig::read_combining): one entry
  /// per outstanding combinable READ. Waiters park on `done` and copy out
  /// of `data`; shared ownership keeps the landing buffer alive for
  /// waiters that resume after the poster erased its table entries.
  struct PendingRead {
    explicit PendingRead(sim::Simulator& simulator) : done(simulator) {}
    std::vector<uint8_t> data;
    sim::SimEvent done;
    /// Completion outcome of the primary verb.
    VerbCompletion completion = VerbCompletion::kOk;
    /// When the target NIC executes it (0 until reserved: a READ dropped
    /// at post time never gets one).
    SimTime effect = 0;
    /// The memory effect copied the target's bytes into `data`.
    bool landed = false;
  };
  using ReadKey = std::tuple<uint32_t, uint64_t, uint32_t>;
  /// Keyed (client, target raw, len): every waiter of the poster's client.
  std::map<ReadKey, std::shared_ptr<PendingRead>> pending_reads_;
  /// Keyed (compute machine, target raw, len): the machine's newest
  /// combinable READ, open to its other clients until its effect.
  std::map<ReadKey, std::shared_ptr<PendingRead>> machine_reads_;
  /// The combinable READ the next Post call posts on its waiters' behalf:
  /// set by Post's combining branch right before it awaits that call, and
  /// taken at the call's first statement (a Task starts when awaited), so
  /// no other post can see it.
  PendingRead* posting_shared_ = nullptr;
  /// Lone READ in-flight tracking behind fabric.duplicate_inflight_reads:
  /// the outstanding (target raw, len) READs of each client, indexed by
  /// client id. A client has at most a few (one per pipelined lane), so a
  /// linear scan beats a keyed map on this per-READ path. Drops complete
  /// the posting too; doorbell-chain members and liveness probes are not
  /// tracked (a chain's builder deduplicates them, and they share one
  /// doorbell anyway).
  void ReadPosted(uint32_t client, RemotePtr src, uint32_t len);
  void ReadCompleted(uint32_t client, RemotePtr src, uint32_t len);
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> inflight_reads_;
  metrics::Counter duplicate_inflight_reads_;
  // Registered in the constructor under the family names documented at
  // metrics(); ResetStats() zeroes the first four, the drop/timeout
  // counters run for the fabric's lifetime.
  metrics::Counter combined_reads_;
  metrics::Counter dropped_verbs_;
  metrics::Counter dropped_responses_;
  metrics::Counter rpc_timeouts_;
  metrics::Counter signaled_verbs_;
  metrics::Counter unsignaled_verbs_;
  metrics::Counter doorbells_;
  // Network-fault event families (never reset).
  metrics::Counter net_dropped_verbs_;
  metrics::Counter net_dropped_completions_;
  metrics::Counter net_duplicates_;
  metrics::Counter net_delayed_verbs_;
  metrics::Counter net_partitioned_drops_;
  metrics::Counter rpc_dedup_hits_;
  // RPC retry discipline (domain=rpc cells of the shared retry.* families;
  // ClientContext registers the lock/verb/steal cells).
  metrics::Counter rpc_retry_attempts_;
  metrics::Counter rpc_retry_exhausted_;
};

}  // namespace namtree::rdma

#endif  // NAMTREE_RDMA_FABRIC_H_
