#ifndef NAMTREE_PERFBENCH_PERFBENCH_H_
#define NAMTREE_PERFBENCH_PERFBENCH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/units.h"
#include "ycsb/workload.h"

namespace perfbench {

using namtree::SimTime;

/// The four index designs, in report order. Metric names carry the suffix
/// returned by DesignSuffix ("vops_per_s.cg", ...).
enum class Design { kCg, kCg1s, kFg, kHybrid };
inline constexpr std::array<Design, 4> kDesigns = {
    Design::kCg, Design::kCg1s, Design::kFg, Design::kHybrid};
const char* DesignSuffix(Design design);

/// One benchmark workload: the op mix plus only the knobs that define it.
struct Workload {
  std::string name;
  namtree::ycsb::WorkloadMix mix;
  namtree::ycsb::RequestDistribution dist =
      namtree::ycsb::RequestDistribution::kUniform;
  /// §6.1 attribute-value skew: 80/12/5/3 of the data on the 4 servers.
  bool skewed_placement = false;
  uint32_t client_cache_pages = 0;
  bool speculative_descent = false;
  bool read_combining = false;
  uint32_t pipeline_depth = 1;
  /// Virtual measurement window, sized so one window of all four designs
  /// costs 1-2 host seconds at the default scale.
  SimTime window = 100 * namtree::kMillisecond;
};

/// Memory servers in every cluster, on two machines (FabricConfig default).
inline constexpr uint32_t kServers = 4;

/// Virtual warmup before every window opens.
inline constexpr SimTime kWarmup = 2 * namtree::kMillisecond;

/// The workloads in report order; nullopt for an unknown name.
const std::vector<Workload>& Workloads();
std::optional<Workload> FindWorkload(std::string_view name);

/// Experiment size. The defaults are the benchmark's scale; tests shrink it.
struct Scale {
  uint64_t keys = 1'000'000;
  uint32_t clients = 240;
  /// Overrides Workload::window when non-zero.
  SimTime window = 0;
};

/// Op types the per-op-type metrics cover (labels: ycsb::OpTypeName).
inline constexpr std::array<namtree::ycsb::OpType, 3> kReportedOps = {
    namtree::ycsb::OpType::kPoint, namtree::ycsb::OpType::kInsert,
    namtree::ycsb::OpType::kRange};

/// Virtual-time outcome of one measured window. Repeats exactly for a
/// fixed seed; `==` is the byte-identity the determinism checks use.
struct VirtualResult {
  uint64_t ops = 0;     ///< ops completed inside the window
  uint64_t failed = 0;  ///< of those, ops with a non-OK status class
  double vops_per_s = 0;
  double p99_us = 0;
  std::array<uint64_t, kReportedOps.size()> op_count{};
  std::array<double, kReportedOps.size()> op_p50_us{};
  std::array<double, kReportedOps.size()> op_p99_us{};

  bool operator==(const VirtualResult&) const = default;
  /// Every field at full precision, one line.
  std::string ToString() const;
};

/// Latency samples of one or more measured windows. Merging pools windows:
/// throughput is then total ops over total window, percentiles come from
/// the merged histograms.
struct Samples {
  namtree::Histogram latency;
  std::array<namtree::Histogram, kReportedOps.size()> op_latency;
  uint64_t failed = 0;
  SimTime window = 0;  ///< summed virtual window length

  void Merge(const Samples& other);
  VirtualResult Summary() const;
};

/// Exclusive split of traced op latency by verb class. Where verbs of one
/// op overlap in virtual time, the instant goes to the first class in this
/// order that has a verb in flight; an instant with none in flight is
/// client time (compute, backoff, spin gaps).
enum class Layer { kRpc, kAtomic, kWrite, kRead, kClient };
inline constexpr size_t kNumLayers = 5;
const char* LayerName(Layer layer);
using LayerSplit = std::array<SimTime, kNumLayers>;

/// Splits one span; the parts always sum to span.duration().
LayerSplit SplitSpan(const namtree::metrics::SpanRecord& span);

/// Host wall-clock seconds (steady clock).
double WallSeconds();

/// Everything one or more windows of one design measured. Add() pools
/// windows: every count, time and sample set sums.
struct RunOutcome {
  Samples samples;
  VirtualResult virt;       ///< samples.Summary()
  double host_cpu_s = 0;    ///< thread CPU time of the measured calls
  uint64_t events = 0;      ///< simulator events during the calls
  uint64_t ops_issued = 0;  ///< ops started, warmup and drain included
  SimTime reset_window = 0; ///< virtual ns from warmup end to drain end

  // Target-side fabric stats since the warmup-end reset, summed over servers.
  uint64_t reads = 0, writes = 0, atomics = 0, sends = 0, bytes = 0;
  uint64_t doorbells = 0;
  SimTime nic_busy_max = 0;    ///< busiest server's engine_busy
  uint64_t hot_server_verbs = 0;  ///< busiest server's NIC transfers
  uint64_t server_verbs = 0;      ///< all servers' NIC transfers
  // Whole-run deltas (warmup and drain included).
  uint64_t rpcs_handled = 0;
  uint64_t round_trips = 0, restarts = 0, lock_waits = 0, backoff = 0;
  uint64_t combined_reads = 0, spec_hits = 0, mispredicts = 0;

  // Traced runs only: summed split of the window's ops.
  LayerSplit split{};
  /// Spans whose split did not sum to their latency, that dropped events
  /// or that went missing, plus one if the window's spans did not cover
  /// exactly its ops and their latency; any is a failed check.
  uint64_t bad_spans = 0;

  void Add(const RunOutcome& other);
};

/// One design's cluster, bulk-loaded for one workload. Construction is the
/// timed set-up; each Cell runs exactly one measured window.
class Cell {
 public:
  Cell(Design design, const Workload& workload, const Scale& scale);
  ~Cell();
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  /// Wall-clock seconds to build the cluster and bulk-load it.
  double setup_s() const { return setup_s_; }
  /// Thread CPU seconds of the same set-up.
  double setup_cpu_s() const { return setup_cpu_s_; }
  /// Wall-clock seconds of BulkLoad alone.
  double bulk_load_s() const { return bulk_load_s_; }

  /// One window through ycsb::RunWorkload, tracing off.
  RunOutcome RunUntraced(uint64_t seed);
  /// The same window through the benchmark's own closed loop, which mirrors
  /// RunWorkload event for event but opens one OpSpan per op around its
  /// call into the index. With `traced`, every client's OpTrace keeps all
  /// its spans, and after the timed region each span of the window is
  /// split with SplitSpan into `split`. Untraced, the loop is the baseline
  /// that trace.host_overhead divides by.
  RunOutcome RunClosedLoop(uint64_t seed, bool traced);

  /// Output checks after the run; an empty list means every check passed.
  std::vector<std::string> Check(uint64_t seed);

 private:
  class CountingIndex;
  struct Impl;
  std::unique_ptr<Impl> impl_;
  double setup_s_ = 0;
  double setup_cpu_s_ = 0;
  double bulk_load_s_ = 0;
};

}  // namespace perfbench

#endif  // NAMTREE_PERFBENCH_PERFBENCH_H_
