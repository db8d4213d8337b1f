// Memory-server fault domain (docs/fault_model.md §7): kill one of four
// memory servers and measure what each replication factor preserves. Three
// phases per factor — healthy (no kill: the replication overhead itself),
// kill (the server dies mid-window: failover transient), after (the server
// is dead before the window: degraded steady state). At R=1 the dead
// server's pages are simply gone and the affected ops fail kUnavailable;
// at R=2 clients promote the rank-striped replicas and the workload keeps
// completing. `ops_per_s` counts every op the window finished, failed ones
// included (at R=1 failing fast inflates it); `ok_ops_per_s` counts only
// the ops that succeeded. `--json <path>` writes the report the CI gate
// archives (BENCH_pr7.json).
//
//   ./build/bench/fault_server_loss [--keys=50000] [--clients=32]
//                                   [--json=BENCH_pr7.json]

#include <cstdio>
#include <string>

#include "bench_common.h"

#include "index/fine_grained.h"
#include "nam/cluster.h"

using namespace namtree;
using namtree::bench::JsonReport;
using namtree::bench::Num;
using namtree::bench::PrintRow;

namespace {

constexpr uint32_t kServers = 4;
constexpr uint32_t kVictim = 1;
constexpr SimTime kKillAt = 8 * kMillisecond;
constexpr SimTime kWindow = 20 * kMillisecond;

enum class Phase { kHealthy, kKill, kAfter };

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kHealthy: return "healthy";
    case Phase::kKill: return "kill";
    case Phase::kAfter: return "after";
  }
  return "?";
}

struct Cell {
  ycsb::RunResult result;
  uint64_t dropped_verbs = 0;
};

Cell RunCell(uint64_t keys, uint32_t clients, uint32_t replication,
             Phase phase) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = kServers;
  fc.replication_factor = replication;
  fc.lock_lease_ns = 100 * kMicrosecond;
  nam::Cluster cluster(fc, 64ull << 20);
  index::IndexConfig ic;
  ic.page_size = 256;
  index::FineGrainedIndex index(cluster, ic);
  const auto data = ycsb::GenerateDataset(keys);
  if (!index.BulkLoad(data).ok()) std::abort();

  if (phase == Phase::kKill) {
    cluster.fabric().KillServer(kVictim, kKillAt);
  } else if (phase == Phase::kAfter) {
    cluster.fabric().KillServer(kVictim);  // dead before the first op
  }

  ycsb::RunConfig run;
  run.num_clients = clients;
  run.mix = ycsb::WorkloadD();  // 50% inserts: the replica chains are hot
  run.warmup = 0;
  run.duration = kWindow;
  run.seed = 7;

  Cell cell;
  cell.result = ycsb::RunWorkload(cluster, index, keys, run);
  cell.dropped_verbs = cluster.fabric().metrics().Value("fabric.dropped_verbs");
  return cell;
}

/// Throughput of the ops that succeeded: (ops - failed) / window.
double OkOpsPerSec(const ycsb::RunResult& r) {
  return static_cast<double>(r.ops() - r.failures().total()) / r.seconds;
}

/// Failures a memory-server fault can cause; NotFound is workload noise.
uint64_t FaultFailedOps(const ycsb::RunResult& r) {
  return r.failures().total() - r.failures().not_found;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const uint64_t keys = static_cast<uint64_t>(args.GetInt("keys", 50000));
  const uint32_t clients =
      static_cast<uint32_t>(args.GetInt("clients", 32));

  namtree::bench::PrintPreamble(
      "Memory-server loss: replication factor vs fault domain",
      "Fine-grained YCSB D while 1 of 4 memory servers dies",
      Num(static_cast<double>(keys)) + " keys, " + Num(clients) +
          " clients, kill at " + Num(kKillAt / 1e6) + "ms of a " +
          Num(kWindow / 1e6) + "ms window");

  JsonReport report;
  report.Set("bench", std::string("fault_server_loss"));
  report.Set("config.keys", keys);
  report.Set("config.clients", static_cast<uint64_t>(clients));
  report.Set("config.memory_servers", static_cast<uint64_t>(kServers));
  report.Set("config.victim_server", static_cast<uint64_t>(kVictim));

  for (uint32_t replication : {1u, 2u}) {
    std::printf("\n# subplot: replication_%u\n", replication);
    PrintRow({"phase", "ops_per_s", "ok_ops_per_s", "failed_ops",
              "fault_failed_ops",
              "unavailable", "aborted", "lock_steals", "dropped_verbs"});
    for (Phase phase : {Phase::kHealthy, Phase::kKill, Phase::kAfter}) {
      const Cell cell = RunCell(keys, clients, replication, phase);
      const auto& r = cell.result;
      PrintRow({PhaseName(phase), Num(r.ops_per_sec), Num(OkOpsPerSec(r)),
                Num(static_cast<double>(r.failures().total())),
                Num(static_cast<double>(FaultFailedOps(r))),
                Num(static_cast<double>(r.failures().unavailable)),
                Num(static_cast<double>(r.failures().aborted)),
                Num(static_cast<double>(r.lock_steals())),
                Num(static_cast<double>(cell.dropped_verbs))});
      const std::string key = "replication_" + std::to_string(replication) +
                              "." + PhaseName(phase);
      report.Set(key + ".ops_per_s", r.ops_per_sec);
      report.Set(key + ".ok_ops_per_s", OkOpsPerSec(r));
      report.Set(key + ".failed_ops", r.failures().total());
      report.Set(key + ".fault_failed_ops", FaultFailedOps(r));
      report.Set(key + ".unavailable", r.failures().unavailable);
      report.Set(key + ".aborted", r.failures().aborted);
      report.Set(key + ".dropped_verbs", cell.dropped_verbs);
    }
  }

  if (!namtree::bench::MaybeWriteJson(args, report)) return 1;
  return 0;
}
