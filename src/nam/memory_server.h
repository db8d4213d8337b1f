#ifndef NAMTREE_NAM_MEMORY_SERVER_H_
#define NAMTREE_NAM_MEMORY_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "rdma/fabric.h"
#include "rdma/memory_region.h"
#include "rdma/rpc.h"
#include "sim/task.h"

namespace namtree::nam {

/// A NAM memory server: an RDMA-registered memory region plus a small pool
/// of worker threads that poll the shared receive queue and execute RPC
/// handlers (two-sided access path, paper §3.2). One-sided verbs bypass
/// these workers entirely and hit the region through the NIC.
///
/// Registers two families in the fabric's registry, labeled {server}
/// (never reset):
///   server.rpcs          requests a worker admitted to a handler
///   server.worker.busy_ns  handler occupancy (ns), summed over workers
class MemoryServer {
 public:
  /// Handler invoked by a worker for each incoming RPC. The handler runs in
  /// virtual time (it should co_await Delay for its CPU consumption) and
  /// must eventually call fabric.Respond(server_id, rpc, response).
  using RpcHandler =
      std::function<sim::Task<>(MemoryServer& server, rdma::IncomingRpc rpc)>;

  MemoryServer(rdma::Fabric& fabric, uint32_t server_id,
               uint64_t region_bytes)
      : fabric_(fabric),
        server_id_(server_id),
        region_(server_id, region_bytes) {
    fabric_.RegisterRegion(server_id, &region_);
    const metrics::LabelSet labels = {{"server", std::to_string(server_id)}};
    fabric_.metrics().RegisterCounter(requests_handled_, "server.rpcs", labels,
                                      "RPCs admitted to a handler");
    fabric_.metrics().RegisterCounter(
        worker_busy_ns_, "server.worker.busy_ns", labels,
        "handler occupancy (ns) summed over the server's workers");
  }

  MemoryServer(const MemoryServer&) = delete;
  MemoryServer& operator=(const MemoryServer&) = delete;

  ~MemoryServer() {
    // Workers are infinite loops suspended on the SRQ; reclaim their frames.
    for (auto h : worker_handles_) h.destroy();
  }

  uint32_t server_id() const { return server_id_; }
  rdma::MemoryRegion& region() { return region_; }
  rdma::Fabric& fabric() { return fabric_; }

  /// Registers the handler serving RPCs tagged with `service`; a memory
  /// server can host several services (indexes) concurrently, sharing one
  /// worker pool and SRQ. The first registration spawns the workers.
  void RegisterHandler(uint16_t service, RpcHandler handler) {
    handlers_[service] = std::move(handler);
    Start();
  }

  /// Convenience for single-service deployments: registers under service 0.
  void Start(RpcHandler handler) { RegisterHandler(0, std::move(handler)); }

  /// Spawns the `workers_per_server` (FabricConfig) worker coroutines;
  /// idempotent.
  void Start() {
    if (!worker_handles_.empty()) return;
    const uint32_t workers = fabric_.config().workers_per_server;
    for (uint32_t w = 0; w < workers; ++w) {
      // The worker loop never finishes; keep the raw handle so the frame
      // can be reclaimed in the destructor.
      auto h = WorkerLoop().Release();
      worker_handles_.push_back(h);
      fabric_.simulator().ScheduleAt(fabric_.simulator().now(), h);
    }
  }

  /// CPU cost scaled by the QPI penalty if this server's cores sit on the
  /// far socket from the NIC, and by any injected straggler slowdown.
  SimTime ScaledCpu(SimTime base) const {
    double factor = fabric_.ServerSlowdown(server_id_);
    if (fabric_.config().CrossesQpi(server_id_)) {
      factor *= fabric_.config().qpi_penalty;
    }
    return static_cast<SimTime>(static_cast<double>(base) * factor);
  }

  /// Per-request fixed handler cost: RPC handling plus connection-state
  /// bookkeeping that grows with the number of connected clients.
  SimTime RequestOverhead() const {
    return ScaledCpu(fabric_.config().rpc_fixed_ns) +
           fabric_.PerRequestConnectionOverhead();
  }

  uint64_t requests_handled() const { return requests_handled_; }
  /// Virtual time the workers spent inside handlers, summed over workers.
  uint64_t worker_busy_ns() const { return worker_busy_ns_; }

 private:
  sim::Task<> WorkerLoop() {
    for (;;) {
      rdma::IncomingRpc rpc = co_await fabric_.srq(server_id_).Recv();
      if (!fabric_.ServerAlive(server_id_)) {
        // A dead server's workers are gone: requests still queued on the
        // SRQ are lost (their callers are failed by the death fallout).
        continue;
      }
      if (!fabric_.AdmitRpc(server_id_, rpc)) {
        // Retransmission of a request that already executed (or is mid
        // handler): answered from the fabric's dedup cache, never re-run.
        continue;
      }
      requests_handled_.Inc();
      auto it = handlers_.find(rpc.request.service);
      if (it == handlers_.end()) {
        rdma::RpcResponse resp;
        resp.status = static_cast<uint16_t>(StatusCode::kUnsupported);
        fabric_.Respond(server_id_, rpc, std::move(resp));
        continue;
      }
      const SimTime start = fabric_.simulator().now();
      co_await it->second(*this, std::move(rpc));
      worker_busy_ns_.Inc(fabric_.simulator().now() - start);
    }
  }

  rdma::Fabric& fabric_;
  uint32_t server_id_;
  rdma::MemoryRegion region_;
  std::map<uint16_t, RpcHandler> handlers_;
  std::vector<sim::Task<>::Handle> worker_handles_;
  metrics::Counter requests_handled_;
  metrics::Counter worker_busy_ns_;
};

}  // namespace namtree::nam

#endif  // NAMTREE_NAM_MEMORY_SERVER_H_
