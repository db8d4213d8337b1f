#ifndef NAMTREE_COMMON_METRICS_H_
#define NAMTREE_COMMON_METRICS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"

namespace namtree::metrics {

class MetricRegistry;

/// Ordered label key/value pairs attached to one metric handle, e.g.
/// {{"client", "3"}}. Every handle of a family must carry the same keys in
/// the same order; values distinguish the cells.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : uint8_t {
  kCounter,    ///< monotone within a window; Delta subtracts, reset-aware
  kGauge,      ///< point-in-time level; Delta reports the end value
  kHistogram,  ///< value distribution; Snapshot merges cells per label set
  kCallback,   ///< counter read through a function at Collect() time
};

/// A registered monotone counter. The handle owns the storage: the hot-path
/// increment is a plain `uint64_t` bump with no indirection, so migrating a
/// bare field to a Counter cannot perturb simulated behavior. `Inc()` is
/// the one sanctioned mutation path (lint rule 8 `raw-counter-field` keeps
/// bare fields from growing back); reads convert implicitly.
class Counter {
 public:
  Counter() = default;
  ~Counter();
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) { value_ += n; }
  /// Zeroes the cell (measurement-interval reset, e.g. Fabric::ResetStats).
  /// Delta windows spanning a Reset report the post-reset value.
  void Reset() { value_ = 0; }

  uint64_t value() const { return value_; }
  /* implicit */ operator uint64_t() const { return value_; }

 private:
  friend class MetricRegistry;
  uint64_t value_ = 0;
  MetricRegistry* registry_ = nullptr;
  uint32_t family_ = 0;
  uint32_t cell_ = 0;
};

/// A registered level (e.g. configured client count). Delta reports the end
/// value instead of a difference.
class Gauge {
 public:
  Gauge() = default;
  ~Gauge();
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(uint64_t v) { value_ = v; }
  void Add(uint64_t n = 1) { value_ += n; }
  void Sub(uint64_t n = 1) { value_ -= n; }
  uint64_t value() const { return value_; }
  /* implicit */ operator uint64_t() const { return value_; }

 private:
  friend class MetricRegistry;
  uint64_t value_ = 0;
  MetricRegistry* registry_ = nullptr;
  uint32_t family_ = 0;
  uint32_t cell_ = 0;
};

/// A registered distribution (log-bucketed, see common/histogram.h).
/// Snapshot merges all cells that share label values into one histogram.
class Histogram {
 public:
  Histogram() = default;
  ~Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(uint64_t v) { hist_.Add(v); }
  const ::namtree::Histogram& data() const { return hist_; }

 private:
  friend class MetricRegistry;
  ::namtree::Histogram hist_;
  MetricRegistry* registry_ = nullptr;
  uint32_t family_ = 0;
  uint32_t cell_ = 0;
};

/// One family's aggregated samples at Collect() time: per distinct label
/// values (first-seen order), live cells + retired residue summed.
struct FamilySample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::vector<std::string> label_keys;
  /// label values -> summed value. For histogram families this is the
  /// observation count; the merged distribution is in `hists`.
  std::vector<std::pair<std::vector<std::string>, uint64_t>> values;
  std::vector<std::pair<std::vector<std::string>, ::namtree::Histogram>>
      hists;
};

/// A point-in-time copy of every family (registration order). Cheap: one
/// uint64 (plus one histogram copy per histogram cell) per label set.
class Snapshot {
 public:
  /// Sum of all cells of `family` (0 when absent).
  uint64_t Value(std::string_view family) const;
  /// Sum of the cells whose label `key` equals `value`.
  uint64_t Value(std::string_view family, std::string_view key,
                 std::string_view value) const;
  bool Has(std::string_view family) const;
  const std::vector<FamilySample>& families() const { return families_; }

 private:
  friend class MetricRegistry;
  friend class Delta;
  std::vector<FamilySample> families_;
};

/// The window between two snapshots: per label set, counters/callbacks are
/// end-minus-begin with Prometheus-style reset detection (`end < begin`
/// reports `end`, so a window spanning Fabric::ResetStats reproduces the
/// legacy "since last reset" reading); gauges report the end level;
/// histogram families report the windowed observation count in `values`
/// and the cumulative end-of-window distribution in `hists`. Cells created
/// mid-window count from zero. Default-constructed Delta is empty (every
/// lookup returns 0) — ycsb::RunResult relies on that.
class Delta {
 public:
  Delta() = default;
  static Delta Between(const Snapshot& begin, const Snapshot& end);

  uint64_t Value(std::string_view family) const;
  uint64_t Value(std::string_view family, std::string_view key,
                 std::string_view value) const;
  bool Has(std::string_view family) const;
  const std::vector<FamilySample>& families() const { return families_; }

 private:
  std::vector<FamilySample> families_;
};

/// One registry of named metric families, each fanned out over label
/// values. Handles (Counter/Gauge/Histogram) own their storage and register
/// by address; destroying a handle folds its final value into a per-label
/// "retired" residue so family totals stay monotone across handle churn
/// (e.g. per-run ClientContexts on a long-lived fabric). Single-threaded by
/// design, like the simulator it instruments.
///
/// Adding a metric is one line at the owning struct plus one Register call:
///   metrics::Counter frobs;                      // member
///   registry.RegisterCounter(frobs, "x.frobs");  // ctor
/// It then appears in every Snapshot/Delta and every bench --json artifact
/// with no serializer edits.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  void RegisterCounter(Counter& c, std::string_view name,
                       LabelSet labels = {}, std::string_view help = {});
  void RegisterGauge(Gauge& g, std::string_view name, LabelSet labels = {},
                     std::string_view help = {});
  void RegisterHistogram(Histogram& h, std::string_view name,
                         LabelSet labels = {}, std::string_view help = {});
  /// Registers a counter whose value is produced by `fn` at Collect()/
  /// Value() time — for totals maintained elsewhere (link byte counts,
  /// auditor tallies). The callback must outlive the registry or be
  /// removed with the owning object (callbacks are never unregistered;
  /// register them only from owners that live as long as the registry).
  void RegisterCallback(std::string_view name,
                        std::function<uint64_t()> fn, LabelSet labels = {},
                        std::string_view help = {});

  Snapshot Collect() const;

  /// Live aggregated reads without building a full Snapshot.
  uint64_t Value(std::string_view family) const;
  uint64_t Value(std::string_view family, std::string_view key,
                 std::string_view value) const;
  /// Help string of `family` ("" when absent).
  std::string_view Help(std::string_view family) const;
  size_t family_count() const { return families_.size(); }

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct Cell {
    std::vector<std::string> label_values;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
    std::function<uint64_t()> callback;
    bool live = false;
  };
  /// A live cell's current value (a histogram's sample count).
  static uint64_t CellValue(const Cell& cell);
  struct Family {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<std::string> label_keys;
    std::vector<Cell> cells;
    /// Final values of destroyed handles, keyed by label values; keeps
    /// per-label totals monotone across handle churn.
    std::map<std::vector<std::string>, uint64_t> retired;
    std::map<std::vector<std::string>, ::namtree::Histogram> retired_hists;
  };

  Family& FamilyFor(std::string_view name, MetricKind kind,
                    const LabelSet& labels, std::string_view help);
  uint32_t AddCell(Family& family, const LabelSet& labels);
  void Unregister(uint32_t family, uint32_t cell, uint64_t final_value,
                  const ::namtree::Histogram* final_hist);

  std::vector<Family> families_;
  std::map<std::string, uint32_t, std::less<>> index_;
};

// ---------------------------------------------------------------------------
// Per-operation tracing
// ---------------------------------------------------------------------------

/// Verb kinds recorded in a span (the one-sided verbs plus two-sided RPC).
enum class TraceVerb : uint8_t {
  kRead,
  kWrite,
  kCas,
  kFaa,
  kRpc,
  kReadBatch,  ///< doorbell-batched multi-page READ (speculative descent)
};

const char* TraceVerbName(TraceVerb verb);

/// One verb-level event inside an op span, in virtual time.
struct TraceEvent {
  TraceVerb verb = TraceVerb::kRead;
  uint32_t server = 0;  ///< target memory server
  /// Per-client doorbell chain id this verb rode in (0 = standalone verb).
  uint64_t chain = 0;
  SimTime start = 0;
  SimTime finish = 0;
};

/// One traced index operation: op label, window, and the verbs it issued.
struct SpanRecord {
  std::string op;  ///< op label ("point", "insert", "scan", ...)
  uint64_t id = 0;  ///< per-client span sequence number
  SimTime start = 0;
  SimTime finish = 0;
  std::vector<TraceEvent> events;
  /// Events dropped after kMaxEventsPerSpan (giant scans stay bounded).
  uint32_t truncated = 0;

  SimTime duration() const { return finish - start; }
  /// "point #12 [17..42us] 3 verbs:" plus one indented line per verb.
  std::string ToString() const;
};

/// Bounded per-client trace of op spans. Off by default — `Event()` and
/// span begin/end are no-ops until `Enable()`, so knobs-off runs do no
/// tracing work beyond one branch. Owned by nam::ClientContext; verb events
/// are recorded by the counted-verb helpers (index::RemoteOps, ClientContext
/// ::Call), spans are opened by the YCSB runner and index entry points.
/// Completed spans land in a ring of the newest `ring_capacity` records;
/// the slowest `outliers_per_op` spans per op label are retained separately
/// (the top-K stand-in for the slowest percentile) and can be dumped
/// verb-by-verb via DumpOutliers().
class OpTrace {
 public:
  static constexpr size_t kDefaultRingCapacity = 256;
  static constexpr size_t kDefaultOutliersPerOp = 4;
  static constexpr size_t kMaxEventsPerSpan = 512;

  explicit OpTrace(uint32_t client_id = 0) : client_id_(client_id) {}

  /// Installs the virtual-time source (the owning context wires this to
  /// its simulator). Required before Enable().
  void SetClock(std::function<SimTime()> now) { now_ = std::move(now); }

  void Enable(size_t ring_capacity = kDefaultRingCapacity,
              size_t outliers_per_op = kDefaultOutliersPerOp);
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }
  bool in_span() const { return open_; }
  uint32_t client_id() const { return client_id_; }

  /// Opens a span; returns false (and records nothing) when tracing is off
  /// or a span is already open — nested index-entry spans stay inert under
  /// the runner's outer span. Use the RAII OpSpan instead of calling this
  /// directly.
  bool BeginSpan(const char* op);
  void EndSpan();

  /// Records one verb event into the open span (dropped when no span is
  /// open). `start` is the virtual time captured before the verb was
  /// issued; finish is now().
  void Event(TraceVerb verb, uint32_t server, uint64_t chain, SimTime start);

  /// Hands out per-client chain ids for doorbell-batched verb chains.
  uint64_t NextChainId() { return ++next_chain_id_; }

  /// Completed spans, oldest first, at most `ring_capacity` of them.
  const std::deque<SpanRecord>& ring() const { return ring_; }
  /// The retained slowest spans for `op`, slowest first.
  std::vector<const SpanRecord*> SlowestFor(std::string_view op) const;
  /// Called whenever a completed span enters the slowest-K set for its op.
  void SetOutlierHook(std::function<void(const SpanRecord&)> hook) {
    outlier_hook_ = std::move(hook);
  }
  /// Verb-by-verb dump of the slowest spans per op label.
  std::string DumpOutliers() const;

 private:
  uint32_t client_id_ = 0;
  bool enabled_ = false;
  bool open_ = false;
  size_t ring_capacity_ = kDefaultRingCapacity;
  size_t outliers_per_op_ = kDefaultOutliersPerOp;
  uint64_t next_span_id_ = 0;
  uint64_t next_chain_id_ = 0;
  std::function<SimTime()> now_;
  SpanRecord current_;
  std::deque<SpanRecord> ring_;
  /// op label -> retained spans, kept sorted slowest-first.
  std::map<std::string, std::vector<SpanRecord>, std::less<>> outliers_;
  std::function<void(const SpanRecord&)> outlier_hook_;
};

/// RAII op span: opens on construction (inert when tracing is off or an
/// outer span is already open), closes on destruction.
class OpSpan {
 public:
  OpSpan(OpTrace& trace, const char* op)
      : trace_(&trace), owns_(trace.BeginSpan(op)) {}
  ~OpSpan() {
    if (owns_) trace_->EndSpan();
  }
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

  /// True when this span actually records (outermost span, tracing on).
  bool active() const { return owns_; }

 private:
  OpTrace* trace_;
  bool owns_;
};

}  // namespace namtree::metrics

#endif  // NAMTREE_COMMON_METRICS_H_
