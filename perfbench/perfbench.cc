#include "perfbench.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <limits>
#include <span>
#include <utility>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "index/coarse_grained.h"
#include "index/coarse_one_sided.h"
#include "index/fine_grained.h"
#include "index/hybrid.h"
#include "index/index.h"
#include "index/inspector.h"
#include "nam/cluster.h"
#include "rdma/fabric_config.h"
#include "sim/task.h"
#include "ycsb/runner.h"

namespace perfbench {

namespace btree = namtree::btree;
namespace index = namtree::index;
namespace metrics = namtree::metrics;
namespace nam = namtree::nam;
namespace rdma = namtree::rdma;
namespace sim = namtree::sim;
namespace ycsb = namtree::ycsb;
using namtree::Status;

const char* DesignSuffix(Design design) {
  switch (design) {
    case Design::kCg:
      return "cg";
    case Design::kCg1s:
      return "cg1s";
    case Design::kFg:
      return "fg";
    case Design::kHybrid:
      return "hybrid";
  }
  return "?";
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> w(4);
    w[0].name = "point_uniform";
    w[0].mix = ycsb::WorkloadA();

    w[1].name = "insert_zipf";
    w[1].mix = ycsb::WorkloadD();
    w[1].dist = ycsb::RequestDistribution::kZipfian;

    w[2].name = "scan_skew";
    w[2].mix = ycsb::WorkloadB(0.001);
    w[2].skewed_placement = true;

    w[3].name = "cached_zipf";
    w[3].mix = ycsb::WorkloadC();
    w[3].dist = ycsb::RequestDistribution::kZipfian;
    // Holds every FG/CG1S inner page at the default scale, but only ~5% of
    // the hybrid's leaf routes.
    w[3].client_cache_pages = 1024;
    w[3].speculative_descent = true;
    w[3].read_combining = true;
    w[3].pipeline_depth = 4;
    // The first 20 ms after load, while the client caches fill. Its host
    // cost per op is several times the others', and past ~20 ms hot-leaf
    // splits start a slow, seed-dependent transient that has not settled
    // after 150 ms.
    w[3].window = 20 * namtree::kMillisecond;
    return w;
  }();
  return workloads;
}

std::optional<Workload> FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

std::string VirtualResult::ToString() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "ops=%llu failed=%llu vops=%.17g p99=%.17g",
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(failed), vops_per_s, p99_us);
  out += buf;
  for (size_t i = 0; i < kReportedOps.size(); ++i) {
    std::snprintf(buf, sizeof(buf), " %s:%llu/%.17g/%.17g",
                  ycsb::OpTypeName(kReportedOps[i]),
                  static_cast<unsigned long long>(op_count[i]), op_p50_us[i],
                  op_p99_us[i]);
    out += buf;
  }
  return out;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRpc:
      return "rpc";
    case Layer::kAtomic:
      return "atomic";
    case Layer::kWrite:
      return "write";
    case Layer::kRead:
      return "read";
    case Layer::kClient:
      return "client";
  }
  return "?";
}

namespace {

Layer LayerOf(metrics::TraceVerb verb) {
  switch (verb) {
    case metrics::TraceVerb::kRpc:
      return Layer::kRpc;
    case metrics::TraceVerb::kCas:
    case metrics::TraceVerb::kFaa:
      return Layer::kAtomic;
    case metrics::TraceVerb::kWrite:
      return Layer::kWrite;
    case metrics::TraceVerb::kRead:
    case metrics::TraceVerb::kReadBatch:
      return Layer::kRead;
  }
  return Layer::kClient;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double Us(double ns) { return ns / 1000.0; }

/// Index of `type` in kReportedOps, or kReportedOps.size() if unreported.
size_t ReportedIndex(ycsb::OpType type) {
  return static_cast<size_t>(
      std::find(kReportedOps.begin(), kReportedOps.end(), type) -
      kReportedOps.begin());
}

}  // namespace

void Samples::Merge(const Samples& other) {
  latency.Merge(other.latency);
  for (size_t i = 0; i < op_latency.size(); ++i) {
    op_latency[i].Merge(other.op_latency[i]);
  }
  failed += other.failed;
  window += other.window;
}

VirtualResult Samples::Summary() const {
  VirtualResult v;
  v.ops = latency.count();
  v.failed = failed;
  v.vops_per_s = window == 0 ? 0.0
                             : static_cast<double>(v.ops) /
                                   (static_cast<double>(window) /
                                    namtree::kSecond);
  v.p99_us = Us(latency.Quantile(0.99));
  for (size_t i = 0; i < kReportedOps.size(); ++i) {
    v.op_count[i] = op_latency[i].count();
    v.op_p50_us[i] = Us(op_latency[i].Quantile(0.5));
    v.op_p99_us[i] = Us(op_latency[i].Quantile(0.99));
  }
  return v;
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LayerSplit SplitSpan(const metrics::SpanRecord& span) {
  LayerSplit split{};
  if (span.finish <= span.start) return split;
  struct Interval {
    SimTime lo, hi;
    size_t layer;
  };
  std::vector<Interval> verbs;
  std::vector<SimTime> cuts = {span.start, span.finish};
  for (const metrics::TraceEvent& e : span.events) {
    const SimTime lo = std::clamp(e.start, span.start, span.finish);
    const SimTime hi = std::clamp(e.finish, span.start, span.finish);
    if (hi <= lo) continue;
    verbs.push_back({lo, hi, static_cast<size_t>(LayerOf(e.verb))});
    cuts.push_back(lo);
    cuts.push_back(hi);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    size_t layer = static_cast<size_t>(Layer::kClient);
    for (const Interval& v : verbs) {
      if (v.lo <= cuts[i] && v.hi >= cuts[i + 1]) {
        layer = std::min(layer, v.layer);
      }
    }
    split[layer] += cuts[i + 1] - cuts[i];
  }
  return split;
}

void RunOutcome::Add(const RunOutcome& o) {
  samples.Merge(o.samples);
  virt = samples.Summary();
  host_cpu_s += o.host_cpu_s;
  events += o.events;
  ops_issued += o.ops_issued;
  reset_window += o.reset_window;
  reads += o.reads;
  writes += o.writes;
  atomics += o.atomics;
  sends += o.sends;
  bytes += o.bytes;
  doorbells += o.doorbells;
  nic_busy_max += o.nic_busy_max;
  hot_server_verbs += o.hot_server_verbs;
  server_verbs += o.server_verbs;
  rpcs_handled += o.rpcs_handled;
  round_trips += o.round_trips;
  restarts += o.restarts;
  lock_waits += o.lock_waits;
  backoff += o.backoff;
  combined_reads += o.combined_reads;
  spec_hits += o.spec_hits;
  mispredicts += o.mispredicts;
  for (size_t l = 0; l < kNumLayers; ++l) split[l] += o.split[l];
  bad_spans += o.bad_spans;
}

// ---------------------------------------------------------------------------
// CountingIndex: forwards every call to the design under test and counts
// what the output checks need. Forwarding returns the inner task itself, so
// only Insert and RunBatch add a coroutine frame; awaiting one is a
// symmetric transfer and schedules no simulator event.
// ---------------------------------------------------------------------------

class Cell::CountingIndex final : public index::DistributedIndex {
 public:
  explicit CountingIndex(index::DistributedIndex& inner) : inner_(inner) {}

  /// Ops started through this wrapper (warmup and drain included).
  uint64_t issued = 0;
  /// Every insert the design acknowledged with OK.
  std::vector<btree::KV> acked_inserts;

  Status BulkLoad(std::span<const btree::KV> sorted) override {
    return inner_.BulkLoad(sorted);
  }
  sim::Task<index::LookupResult> Lookup(nam::ClientContext& ctx,
                                        btree::Key key) override {
    ++issued;
    return inner_.Lookup(ctx, key);
  }
  sim::Task<uint64_t> Scan(nam::ClientContext& ctx, btree::Key lo,
                           btree::Key hi, std::vector<btree::KV>* out,
                           Status* status) override {
    ++issued;
    return inner_.Scan(ctx, lo, hi, out, status);
  }
  sim::Task<Status> Insert(nam::ClientContext& ctx, btree::Key key,
                           btree::Value value) override {
    ++issued;
    return CountedInsert(ctx, key, value);
  }
  sim::Task<Status> Update(nam::ClientContext& ctx, btree::Key key,
                           btree::Value value) override {
    ++issued;
    return inner_.Update(ctx, key, value);
  }
  sim::Task<uint64_t> LookupAll(nam::ClientContext& ctx, btree::Key key,
                                std::vector<btree::Value>* out) override {
    ++issued;
    return inner_.LookupAll(ctx, key, out);
  }
  sim::Task<Status> Delete(nam::ClientContext& ctx, btree::Key key) override {
    ++issued;
    return inner_.Delete(ctx, key);
  }
  sim::Task<uint64_t> GarbageCollect(nam::ClientContext& ctx) override {
    return inner_.GarbageCollect(ctx);
  }
  bool SupportsBatchedPointOps() const override {
    return inner_.SupportsBatchedPointOps();
  }
  sim::Task<void> RunBatch(nam::ClientContext& ctx,
                           std::span<const index::PointOp> ops,
                           index::PointOpResult* results) override {
    issued += ops.size();
    return CountedBatch(ctx, ops, results);
  }
  sim::Task<void> MultiGet(nam::ClientContext& ctx,
                           std::span<const btree::Key> keys,
                           index::LookupResult* results) override {
    issued += keys.size();
    return inner_.MultiGet(ctx, keys, results);
  }
  std::string name() const override { return inner_.name(); }
  uint32_t page_size() const override { return inner_.page_size(); }

 private:
  // Callers co_await these immediately, so the reference parameters outlive
  // the frames.
  sim::Task<Status> CountedInsert(nam::ClientContext& ctx, btree::Key key,
                                  btree::Value value) {
    const Status status = co_await inner_.Insert(ctx, key, value);
    if (status.ok()) acked_inserts.push_back({key, value});
    co_return status;
  }
  sim::Task<void> CountedBatch(nam::ClientContext& ctx,
                               std::span<const index::PointOp> ops,
                               index::PointOpResult* results) {
    co_await inner_.RunBatch(ctx, ops, results);
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind == index::PointOpKind::kInsert && results[i].status.ok()) {
        acked_inserts.push_back({ops[i].key, ops[i].value});
      }
    }
  }

  index::DistributedIndex& inner_;
};

struct Cell::Impl {
  Design design;
  Workload workload;
  Scale scale;
  std::unique_ptr<nam::Cluster> cluster;
  std::unique_ptr<index::DistributedIndex> index;
  std::unique_ptr<CountingIndex> counted;

  ycsb::RunConfig MakeRunConfig(uint64_t seed) const {
    ycsb::RunConfig rc;
    rc.num_clients = scale.clients;
    rc.warmup = kWarmup;
    rc.duration = scale.window != 0 ? scale.window : workload.window;
    rc.mix = workload.mix;
    rc.dist = workload.dist;
    rc.seed = seed;
    rc.pipeline_depth = workload.pipeline_depth;
    return rc;
  }

  std::vector<uint64_t> RpcsHandled() {
    std::vector<uint64_t> handled;
    for (uint32_t s = 0; s < cluster->num_memory_servers(); ++s) {
      handled.push_back(cluster->memory_server(s).requests_handled());
    }
    return handled;
  }

  /// Reads the target-side fabric stats, which the runner's warmup marker
  /// reset at `warmup_end`, and the whole-run RPC delta.
  void ReadFabric(SimTime warmup_end, const std::vector<uint64_t>& handled0,
                  RunOutcome& out) {
    rdma::Fabric& fabric = cluster->fabric();
    const std::vector<uint64_t> handled1 = RpcsHandled();
    for (uint32_t s = 0; s < cluster->num_memory_servers(); ++s) {
      const rdma::Fabric::ServerStats st = fabric.server_stats(s);
      out.reads += st.reads;
      out.writes += st.writes;
      out.atomics += st.atomics;
      out.sends += st.sends;
      out.bytes += st.tx_bytes + st.rx_bytes;
      out.nic_busy_max = std::max(out.nic_busy_max, st.engine_busy);
      out.server_verbs += st.verbs;
      out.hot_server_verbs = std::max(out.hot_server_verbs, st.verbs);
      out.rpcs_handled += handled1[s] - handled0[s];
    }
    out.doorbells = fabric.metrics().Value("fabric.doorbells");
    out.reset_window = cluster->simulator().now() - warmup_end;
  }

  index::IndexInspector::Report Inspect() {
    rdma::Fabric& fabric = cluster->fabric();
    switch (design) {
      case Design::kCg:
        return index::IndexInspector::Inspect(
            fabric, static_cast<index::CoarseGrainedIndex&>(*index));
      case Design::kCg1s:
        return index::IndexInspector::Inspect(
            fabric, static_cast<const index::CoarseOneSidedIndex&>(*index));
      case Design::kFg:
        return index::IndexInspector::Inspect(
            fabric, static_cast<const index::FineGrainedIndex&>(*index));
      case Design::kHybrid:
        return index::IndexInspector::Inspect(
            fabric, static_cast<index::HybridIndex&>(*index));
    }
    return {};
  }
};

Cell::Cell(Design design, const Workload& workload, const Scale& scale)
    : impl_(std::make_unique<Impl>()) {
  impl_->design = design;
  impl_->workload = workload;
  impl_->scale = scale;
  const double t0 = WallSeconds();
  const double cpu0 = ThreadCpuSeconds();

  rdma::FabricConfig fabric_config;
  fabric_config.num_memory_servers = kServers;
  fabric_config.read_combining = workload.read_combining;

  index::IndexConfig index_config;
  index_config.client_cache_pages = workload.client_cache_pages;
  index_config.speculative_descent = workload.speculative_descent;
  if (workload.skewed_placement) {
    index_config.partition_weights = {0.80, 0.12, 0.05, 0.03};
  }
  // Leaves, inner pages and split headroom (~52 entries per 1 KB leaf,
  // inflated); sized so skew can place most pages on server 0.
  const uint64_t pages = scale.keys / 40 + 1024;
  const uint64_t region_bytes =
      pages * index_config.page_size * 3 + (16ull << 20);
  impl_->cluster = std::make_unique<nam::Cluster>(fabric_config, region_bytes);
  nam::Cluster& cluster = *impl_->cluster;
  switch (design) {
    case Design::kCg:
      impl_->index =
          std::make_unique<index::CoarseGrainedIndex>(cluster, index_config);
      break;
    case Design::kCg1s:
      impl_->index =
          std::make_unique<index::CoarseOneSidedIndex>(cluster, index_config);
      break;
    case Design::kFg:
      impl_->index =
          std::make_unique<index::FineGrainedIndex>(cluster, index_config);
      break;
    case Design::kHybrid:
      impl_->index = std::make_unique<index::HybridIndex>(cluster, index_config);
      break;
  }
  impl_->counted = std::make_unique<CountingIndex>(*impl_->index);

  const std::vector<btree::KV> data = ycsb::GenerateDataset(scale.keys);
  const double t1 = WallSeconds();
  const Status status = impl_->index->BulkLoad(data);
  const double t2 = WallSeconds();
  const double cpu2 = ThreadCpuSeconds();
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s bulk load failed: %s\n",
                 DesignSuffix(design), status.ToString().c_str());
    std::exit(1);
  }
  setup_s_ = t2 - t0;
  setup_cpu_s_ = cpu2 - cpu0;
  bulk_load_s_ = t2 - t1;
}

Cell::~Cell() = default;

RunOutcome Cell::RunUntraced(uint64_t seed) {
  Impl& m = *impl_;
  sim::Simulator& simulator = m.cluster->simulator();
  const ycsb::RunConfig rc = m.MakeRunConfig(seed);

  const SimTime warmup_end = simulator.now() + rc.warmup;
  const uint64_t events0 = simulator.events_processed();
  const uint64_t issued0 = m.counted->issued;
  const std::vector<uint64_t> handled0 = m.RpcsHandled();

  const double cpu0 = ThreadCpuSeconds();
  const ycsb::RunResult r =
      ycsb::RunWorkload(*m.cluster, *m.counted, m.scale.keys, rc);
  const double cpu1 = ThreadCpuSeconds();

  RunOutcome out;
  out.host_cpu_s = cpu1 - cpu0;
  out.events = simulator.events_processed() - events0;
  out.ops_issued = m.counted->issued - issued0;
  out.samples.latency = r.latency;
  for (size_t i = 0; i < kReportedOps.size(); ++i) {
    out.samples.op_latency[i] =
        r.per_type[static_cast<int>(kReportedOps[i])].latency;
  }
  out.samples.failed = r.failed_ops();
  out.samples.window = rc.duration;
  out.virt = out.samples.Summary();
  m.ReadFabric(warmup_end, handled0, out);
  out.round_trips = r.round_trips();
  out.restarts = r.restarts();
  out.lock_waits = r.lock_waits();
  out.backoff = r.backoff_rounds();
  out.combined_reads = r.combined_reads();
  out.spec_hits = r.speculative_hits();
  out.mispredicts = r.mispredicts();
  return out;
}

// ---------------------------------------------------------------------------
// The benchmark's closed loop. It mirrors ycsb::RunWorkload's ClientLoop and
// BatchedClientLoop step for step (same contexts, seeds, spawn order, warmup
// marker and generator draws), so the virtual-time execution is identical;
// the only addition is one OpSpan per op around the call into the index,
// which records nothing unless the client's OpTrace is enabled.
// ---------------------------------------------------------------------------

namespace {

struct LoopState {
  SimTime warmup_end = 0;
  SimTime deadline = 0;
  Samples samples;
  /// Summed latency of the window's ops; the traced split must cover it.
  SimTime latency_ns = 0;

  /// Same window rule as the runner's Account.
  void Account(ycsb::OpType type, const Status& status, SimTime start,
               SimTime end) {
    if (start < warmup_end || end > deadline) return;
    const uint64_t latency = static_cast<uint64_t>(end - start);
    samples.latency.Add(latency);
    latency_ns += end - start;
    const size_t i = ReportedIndex(type);
    if (i < kReportedOps.size()) samples.op_latency[i].Add(latency);
    if (namtree::StatusClassOf(status.code()) != namtree::StatusClass::kOk) {
      samples.failed++;
    }
  }
};

// Every referent lives in RunClosedLoop's frame, which blocks on
// simulator.Run() until all spawned tasks finish. `span_ops` gets, per
// span, the number of ops it covers.
sim::Task<> ClientLoop(nam::Cluster& cluster, index::DistributedIndex& index,
                       ycsb::WorkloadGenerator& gen, nam::ClientContext& ctx,
                       LoopState& state, std::vector<uint32_t>& span_ops) {
  sim::Simulator& simulator = cluster.simulator();
  while (simulator.now() < state.deadline) {
    if (!cluster.fabric().ClientAlive(ctx.client_id())) break;
    const ycsb::Operation op = gen.Next(ctx.rng());
    const SimTime start = simulator.now();
    Status status;
    {
      metrics::OpSpan span(ctx.trace(), ycsb::OpTypeName(op.type));
      switch (op.type) {
        case ycsb::OpType::kPoint:
          status = (co_await index.Lookup(ctx, op.key)).status;
          break;
        case ycsb::OpType::kRange:
          (void)co_await index.Scan(ctx, op.key, op.hi, nullptr, &status);
          break;
        case ycsb::OpType::kInsert:
          status = co_await index.Insert(ctx, op.key, op.value);
          break;
        case ycsb::OpType::kUpdate:
          status = co_await index.Update(ctx, op.key, op.value);
          break;
        case ycsb::OpType::kDelete:
          status = co_await index.Delete(ctx, op.key);
          break;
      }
    }
    span_ops.push_back(1);
    state.Account(op.type, status, start, simulator.now());
  }
}

sim::Task<> BatchedLoop(nam::Cluster& cluster, index::DistributedIndex& index,
                        ycsb::WorkloadGenerator& gen, nam::ClientContext& ctx,
                        LoopState& state, std::vector<uint32_t>& span_ops,
                        uint32_t depth) {
  sim::Simulator& simulator = cluster.simulator();
  std::vector<index::PointOp> ops;
  std::vector<ycsb::OpType> types;
  std::vector<index::PointOpResult> results;
  while (simulator.now() < state.deadline) {
    if (!cluster.fabric().ClientAlive(ctx.client_id())) break;
    ops.clear();
    types.clear();
    ycsb::Operation range_op;
    bool have_range = false;
    while (ops.size() < depth) {
      const ycsb::Operation op = gen.Next(ctx.rng());
      if (op.type == ycsb::OpType::kRange) {
        range_op = op;
        have_range = true;
        break;
      }
      index::PointOp p;
      switch (op.type) {
        case ycsb::OpType::kPoint: p.kind = index::PointOpKind::kLookup; break;
        case ycsb::OpType::kInsert: p.kind = index::PointOpKind::kInsert; break;
        case ycsb::OpType::kUpdate: p.kind = index::PointOpKind::kUpdate; break;
        case ycsb::OpType::kDelete: p.kind = index::PointOpKind::kDelete; break;
        case ycsb::OpType::kRange: break;  // unreachable
      }
      p.key = op.key;
      p.value = op.value;
      ops.push_back(p);
      types.push_back(op.type);
    }
    if (!ops.empty()) {
      const SimTime start = simulator.now();
      results.assign(ops.size(), index::PointOpResult{});
      {
        // One span per batch: every op in it observes the batch latency.
        metrics::OpSpan span(ctx.trace(), "batch");
        co_await index.RunBatch(ctx, ops, results.data());
      }
      span_ops.push_back(static_cast<uint32_t>(ops.size()));
      const SimTime end = simulator.now();
      for (size_t i = 0; i < ops.size(); ++i) {
        state.Account(types[i], results[i].status, start, end);
      }
    }
    if (have_range) {
      const SimTime start = simulator.now();
      Status status;
      {
        metrics::OpSpan span(ctx.trace(), "range");
        (void)co_await index.Scan(ctx, range_op.key, range_op.hi, nullptr,
                                  &status);
      }
      span_ops.push_back(1);
      state.Account(ycsb::OpType::kRange, status, start, simulator.now());
    }
  }
}

sim::Task<> WarmupMarker(nam::Cluster& cluster, SimTime warmup_end) {
  co_await sim::DelayUntil(cluster.simulator(), warmup_end);
  cluster.fabric().ResetStats();
}

}  // namespace

RunOutcome Cell::RunClosedLoop(uint64_t seed, bool traced) {
  Impl& m = *impl_;
  nam::Cluster& cluster = *m.cluster;
  sim::Simulator& simulator = cluster.simulator();
  const ycsb::RunConfig rc = m.MakeRunConfig(seed);
  index::DistributedIndex& index = *m.counted;

  const uint64_t events0 = simulator.events_processed();
  const uint64_t issued0 = m.counted->issued;
  const double cpu0 = ThreadCpuSeconds();

  cluster.fabric().SetNumClients(rc.num_clients);
  LoopState state;
  state.warmup_end = simulator.now() + rc.warmup;
  state.deadline = state.warmup_end + rc.duration;
  ycsb::WorkloadGenerator gen(rc.mix, m.scale.keys, rc.dist, rc.zipf_theta);

  std::vector<std::unique_ptr<nam::ClientContext>> contexts;
  for (uint32_t c = 0; c < rc.num_clients; ++c) {
    contexts.push_back(std::make_unique<nam::ClientContext>(
        c, cluster.fabric(), index.page_size(), rc.seed));
  }
  // One list per context, so at most num_clients * depth of them.
  const uint32_t depth = std::max<uint32_t>(1, rc.pipeline_depth);
  std::vector<std::vector<uint32_t>> span_ops(
      static_cast<size_t>(rc.num_clients) * depth);
  sim::Spawn(simulator, WarmupMarker(cluster, state.warmup_end));
  const bool batched = depth > 1 && index.SupportsBatchedPointOps();
  for (uint32_t c = 0; c < rc.num_clients; ++c) {
    if (batched) {
      sim::Spawn(simulator, BatchedLoop(cluster, index, gen, *contexts[c],
                                        state, span_ops[c], depth));
      continue;
    }
    sim::Spawn(simulator, ClientLoop(cluster, index, gen, *contexts[c], state,
                                     span_ops[c]));
    for (uint32_t lane = 1; lane < depth; ++lane) {
      contexts.push_back(std::make_unique<nam::ClientContext>(
          c, cluster.fabric(), index.page_size(),
          rc.seed ^ (0x9E3779B97F4A7C15ull * lane)));
      sim::Spawn(simulator,
                 ClientLoop(cluster, index, gen, *contexts.back(), state,
                            span_ops[contexts.size() - 1]));
    }
  }
  // The ring keeps every span of the run, so they are split after the
  // timed region and the host time covers only the program's tracing. One
  // outlier slot is the minimum OpTrace supports.
  if (traced) {
    for (const auto& ctx : contexts) {
      ctx->trace().Enable(std::numeric_limits<size_t>::max(), 1);
    }
  }

  simulator.Run();
  const double cpu1 = ThreadCpuSeconds();

  RunOutcome out;
  out.host_cpu_s = cpu1 - cpu0;
  out.events = simulator.events_processed() - events0;
  out.ops_issued = m.counted->issued - issued0;
  state.samples.window = rc.duration;
  out.samples = state.samples;
  out.virt = out.samples.Summary();
  if (!traced) return out;

  // Split the window's spans; each counts once per op it covers. Together
  // they must cover exactly the ops and latency the window accounted.
  uint64_t covered_ops = 0;
  SimTime covered_ns = 0;
  for (size_t c = 0; c < contexts.size(); ++c) {
    const std::deque<metrics::SpanRecord>& ring = contexts[c]->trace().ring();
    if (ring.size() != span_ops[c].size()) {
      out.bad_spans++;
      continue;
    }
    for (size_t i = 0; i < ring.size(); ++i) {
      const metrics::SpanRecord& span = ring[i];
      if (span.start < state.warmup_end || span.finish > state.deadline) {
        continue;
      }
      const SimTime n = span_ops[c][i];
      const LayerSplit s = SplitSpan(span);
      SimTime sum = 0;
      for (size_t l = 0; l < kNumLayers; ++l) {
        out.split[l] += s[l] * n;
        sum += s[l];
      }
      covered_ops += n;
      covered_ns += span.duration() * n;
      if (span.truncated > 0 || sum != span.duration()) out.bad_spans++;
    }
  }
  if (covered_ops != out.virt.ops || covered_ns != state.latency_ns) {
    out.bad_spans++;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

namespace {

// Every referent lives in Check's frame, which blocks on simulator.Run().
sim::Task<> ReadBack(index::DistributedIndex& index, nam::ClientContext& ctx,
                     std::vector<btree::KV> loaded,
                     std::vector<btree::KV> inserted,
                     std::vector<std::string>& failures) {
  uint64_t bad_loaded = 0, bad_inserted = 0;
  for (const btree::KV& kv : loaded) {
    const index::LookupResult r = co_await index.Lookup(ctx, kv.key);
    if (!r.status.ok() || !r.found || r.value != kv.value) bad_loaded++;
  }
  for (const btree::KV& kv : inserted) {
    std::vector<btree::Value> values;
    (void)co_await index.LookupAll(ctx, kv.key, &values);
    if (std::find(values.begin(), values.end(), kv.value) == values.end()) {
      bad_inserted++;
    }
  }
  if (bad_loaded > 0) {
    failures.push_back(std::to_string(bad_loaded) + " of " +
                       std::to_string(loaded.size()) +
                       " sampled loaded keys did not read back");
  }
  if (bad_inserted > 0) {
    failures.push_back(std::to_string(bad_inserted) + " of " +
                       std::to_string(inserted.size()) +
                       " sampled acknowledged inserts did not read back");
  }
}

}  // namespace

std::vector<std::string> Cell::Check(uint64_t seed) {
  constexpr size_t kLoadedSample = 1000;
  constexpr size_t kInsertSample = 500;
  Impl& m = *impl_;
  std::vector<std::string> failures;

  const index::IndexInspector::Report report = m.Inspect();
  if (!report.ok()) {
    failures.push_back("inspector: " + std::to_string(report.violations.size()) +
                       " violations, first: " + report.violations.front());
  }
  const uint64_t expected = m.scale.keys + m.counted->acked_inserts.size();
  if (report.live_entries != expected) {
    failures.push_back("live entries " + std::to_string(report.live_entries) +
                       " != loaded keys + acknowledged inserts " +
                       std::to_string(expected));
  }

  namtree::Rng rng(seed ^ 0xC0FFEEull);
  std::vector<btree::KV> loaded;
  for (size_t i = 0; i < kLoadedSample; ++i) {
    const uint64_t k = rng.NextBelow(m.scale.keys);
    loaded.push_back({k * ycsb::kKeyStride, k});
  }
  std::vector<btree::KV> inserted;
  const auto& acked = m.counted->acked_inserts;
  const size_t step =
      std::max<size_t>(1, (acked.size() + kInsertSample - 1) / kInsertSample);
  for (size_t i = 0; i < acked.size(); i += step) inserted.push_back(acked[i]);

  nam::ClientContext ctx(0, m.cluster->fabric(), m.index->page_size(), seed);
  sim::Spawn(m.cluster->simulator(),
             ReadBack(*m.index, ctx, std::move(loaded), std::move(inserted),
                      failures));
  m.cluster->simulator().Run();

  const Status audit = m.cluster->fabric().CheckAuditClean();
  if (!audit.ok()) failures.push_back("audit: " + audit.ToString());
  return failures;
}

}  // namespace perfbench
