#include "common/metrics.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>

namespace namtree::metrics {

namespace {

/// Finds the entry for `label_values` in a per-label vector, or nullptr.
template <typename V>
const V* FindLabeled(
    const std::vector<std::pair<std::vector<std::string>, V>>& entries,
    const std::vector<std::string>& label_values) {
  for (const auto& [values, v] : entries) {
    if (values == label_values) return &v;
  }
  return nullptr;
}

template <typename V>
V& FindOrAddLabeled(
    std::vector<std::pair<std::vector<std::string>, V>>& entries,
    const std::vector<std::string>& label_values) {
  for (auto& [values, v] : entries) {
    if (values == label_values) return v;
  }
  entries.emplace_back(label_values, V{});
  return entries.back().second;
}

const FamilySample* FindFamily(const std::vector<FamilySample>& families,
                               std::string_view name) {
  for (const auto& f : families) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

uint64_t SumFamily(const FamilySample* f) {
  if (f == nullptr) return 0;
  uint64_t total = 0;
  for (const auto& [values, v] : f->values) total += v;
  return total;
}

uint64_t SumFamilyWhere(const FamilySample* f, std::string_view key,
                        std::string_view value) {
  if (f == nullptr) return 0;
  const auto it =
      std::find(f->label_keys.begin(), f->label_keys.end(), key);
  if (it == f->label_keys.end()) return 0;
  const size_t pos = static_cast<size_t>(it - f->label_keys.begin());
  uint64_t total = 0;
  for (const auto& [values, v] : f->values) {
    if (values[pos] == value) total += v;
  }
  return total;
}

}  // namespace

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

Counter::~Counter() {
  if (registry_ != nullptr) {
    registry_->Unregister(family_, cell_, value_, nullptr);
  }
}

Gauge::~Gauge() {
  if (registry_ != nullptr) {
    registry_->Unregister(family_, cell_, value_, nullptr);
  }
}

Histogram::~Histogram() {
  if (registry_ != nullptr) {
    registry_->Unregister(family_, cell_, hist_.count(), &hist_);
  }
}

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

MetricRegistry::Family& MetricRegistry::FamilyFor(std::string_view name,
                                                  MetricKind kind,
                                                  const LabelSet& labels,
                                                  std::string_view help) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    Family family;
    family.name = std::string(name);
    family.help = std::string(help);
    family.kind = kind;
    for (const auto& [key, value] : labels) family.label_keys.push_back(key);
    families_.push_back(std::move(family));
    it = index_.emplace(std::string(name),
                        static_cast<uint32_t>(families_.size() - 1))
             .first;
  }
  Family& family = families_[it->second];
  assert(family.kind == kind && "family re-registered with another kind");
  assert(family.label_keys.size() == labels.size() &&
         "family re-registered with different label keys");
  return family;
}

uint32_t MetricRegistry::AddCell(Family& family, const LabelSet& labels) {
  Cell cell;
  for (const auto& [key, value] : labels) {
    cell.label_values.push_back(value);
  }
  cell.live = true;
  // Reuse a dead slot so long sweeps (many short-lived contexts) stay flat.
  for (size_t i = 0; i < family.cells.size(); ++i) {
    if (!family.cells[i].live) {
      family.cells[i] = std::move(cell);
      return static_cast<uint32_t>(i);
    }
  }
  family.cells.push_back(std::move(cell));
  return static_cast<uint32_t>(family.cells.size() - 1);
}

void MetricRegistry::RegisterCounter(Counter& c, std::string_view name,
                                     LabelSet labels,
                                     std::string_view help) {
  assert(c.registry_ == nullptr && "counter already registered");
  Family& family = FamilyFor(name, MetricKind::kCounter, labels, help);
  const uint32_t cell = AddCell(family, labels);
  family.cells[cell].counter = &c;
  c.registry_ = this;
  c.family_ = index_.find(name)->second;
  c.cell_ = cell;
}

void MetricRegistry::RegisterGauge(Gauge& g, std::string_view name,
                                   LabelSet labels, std::string_view help) {
  assert(g.registry_ == nullptr && "gauge already registered");
  Family& family = FamilyFor(name, MetricKind::kGauge, labels, help);
  const uint32_t cell = AddCell(family, labels);
  family.cells[cell].gauge = &g;
  g.registry_ = this;
  g.family_ = index_.find(name)->second;
  g.cell_ = cell;
}

void MetricRegistry::RegisterHistogram(Histogram& h, std::string_view name,
                                       LabelSet labels,
                                       std::string_view help) {
  assert(h.registry_ == nullptr && "histogram already registered");
  Family& family = FamilyFor(name, MetricKind::kHistogram, labels, help);
  const uint32_t cell = AddCell(family, labels);
  family.cells[cell].histogram = &h;
  h.registry_ = this;
  h.family_ = index_.find(name)->second;
  h.cell_ = cell;
}

void MetricRegistry::RegisterCallback(std::string_view name,
                                      std::function<uint64_t()> fn,
                                      LabelSet labels,
                                      std::string_view help) {
  Family& family = FamilyFor(name, MetricKind::kCallback, labels, help);
  const uint32_t cell = AddCell(family, labels);
  family.cells[cell].callback = std::move(fn);
}

void MetricRegistry::Unregister(uint32_t family_index, uint32_t cell_index,
                                uint64_t final_value,
                                const ::namtree::Histogram* final_hist) {
  Family& family = families_[family_index];
  Cell& cell = family.cells[cell_index];
  // Fold the handle's final value into the per-label residue so family
  // totals never step backwards when a handle dies.
  family.retired[cell.label_values] += final_value;
  if (final_hist != nullptr) {
    family.retired_hists[cell.label_values].Merge(*final_hist);
  }
  cell = Cell{};  // live = false; slot reusable
}

Snapshot MetricRegistry::Collect() const {
  Snapshot snapshot;
  snapshot.families_.reserve(families_.size());
  for (const Family& family : families_) {
    FamilySample sample;
    sample.name = family.name;
    sample.kind = family.kind;
    sample.label_keys = family.label_keys;
    for (const auto& [label_values, retired] : family.retired) {
      FindOrAddLabeled(sample.values, label_values) += retired;
    }
    for (const auto& [label_values, hist] : family.retired_hists) {
      FindOrAddLabeled(sample.hists, label_values).Merge(hist);
    }
    for (const Cell& cell : family.cells) {
      if (!cell.live) continue;
      uint64_t v = 0;
      if (cell.counter != nullptr) {
        v = cell.counter->value();
      } else if (cell.gauge != nullptr) {
        v = cell.gauge->value();
      } else if (cell.histogram != nullptr) {
        v = cell.histogram->data().count();
        FindOrAddLabeled(sample.hists, cell.label_values)
            .Merge(cell.histogram->data());
      } else if (cell.callback) {
        v = cell.callback();
      }
      FindOrAddLabeled(sample.values, cell.label_values) += v;
    }
    snapshot.families_.push_back(std::move(sample));
  }
  return snapshot;
}

uint64_t MetricRegistry::CellValue(const Cell& cell) {
  if (cell.counter != nullptr) return cell.counter->value();
  if (cell.gauge != nullptr) return cell.gauge->value();
  if (cell.histogram != nullptr) return cell.histogram->data().count();
  return cell.callback ? cell.callback() : 0;
}

uint64_t MetricRegistry::Value(std::string_view family) const {
  const auto it = index_.find(family);
  if (it == index_.end()) return 0;
  const Family& f = families_[it->second];
  uint64_t total = 0;
  for (const auto& [label_values, retired] : f.retired) total += retired;
  for (const Cell& cell : f.cells) {
    if (cell.live) total += CellValue(cell);
  }
  return total;
}

uint64_t MetricRegistry::Value(std::string_view family, std::string_view key,
                               std::string_view value) const {
  const auto it = index_.find(family);
  if (it == index_.end()) return 0;
  const Family& f = families_[it->second];
  const auto key_it =
      std::find(f.label_keys.begin(), f.label_keys.end(), key);
  if (key_it == f.label_keys.end()) return 0;
  const size_t pos = static_cast<size_t>(key_it - f.label_keys.begin());
  uint64_t total = 0;
  for (const auto& [label_values, retired] : f.retired) {
    if (label_values[pos] == value) total += retired;
  }
  for (const Cell& cell : f.cells) {
    if (cell.live && cell.label_values[pos] == value) total += CellValue(cell);
  }
  return total;
}

std::string_view MetricRegistry::Help(std::string_view family) const {
  const auto it = index_.find(family);
  if (it == index_.end()) return {};
  return families_[it->second].help;
}

// ---------------------------------------------------------------------------
// Snapshot / Delta
// ---------------------------------------------------------------------------

uint64_t Snapshot::Value(std::string_view family) const {
  return SumFamily(FindFamily(families_, family));
}

uint64_t Snapshot::Value(std::string_view family, std::string_view key,
                         std::string_view value) const {
  return SumFamilyWhere(FindFamily(families_, family), key, value);
}

bool Snapshot::Has(std::string_view family) const {
  return FindFamily(families_, family) != nullptr;
}

Delta Delta::Between(const Snapshot& begin, const Snapshot& end) {
  Delta delta;
  delta.families_.reserve(end.families_.size());
  for (const FamilySample& after : end.families_) {
    const FamilySample* before = FindFamily(begin.families_, after.name);
    FamilySample windowed;
    windowed.name = after.name;
    windowed.kind = after.kind;
    windowed.label_keys = after.label_keys;
    windowed.hists = after.hists;  // cumulative end-of-window distributions
    for (const auto& [label_values, end_value] : after.values) {
      uint64_t value = end_value;
      if (windowed.kind != MetricKind::kGauge && before != nullptr) {
        const uint64_t* begin_value =
            FindLabeled(before->values, label_values);
        if (begin_value != nullptr && *begin_value <= end_value) {
          value = end_value - *begin_value;  // else: reset mid-window
        }
      }
      windowed.values.emplace_back(label_values, value);
    }
    delta.families_.push_back(std::move(windowed));
  }
  return delta;
}

uint64_t Delta::Value(std::string_view family) const {
  return SumFamily(FindFamily(families_, family));
}

uint64_t Delta::Value(std::string_view family, std::string_view key,
                      std::string_view value) const {
  return SumFamilyWhere(FindFamily(families_, family), key, value);
}

bool Delta::Has(std::string_view family) const {
  return FindFamily(families_, family) != nullptr;
}

// ---------------------------------------------------------------------------
// Op tracing
// ---------------------------------------------------------------------------

const char* TraceVerbName(TraceVerb verb) {
  switch (verb) {
    case TraceVerb::kRead:
      return "READ";
    case TraceVerb::kWrite:
      return "WRITE";
    case TraceVerb::kCas:
      return "CAS";
    case TraceVerb::kFaa:
      return "FAA";
    case TraceVerb::kRpc:
      return "RPC";
    case TraceVerb::kReadBatch:
      return "READ_BATCH";
  }
  return "?";
}

std::string SpanRecord::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s #%" PRIu64 " [%" PRId64 "..%" PRId64 "ns, %" PRId64
                "ns] %zu verbs%s:",
                op.c_str(), id, start, finish, duration(), events.size(),
                truncated > 0 ? " (truncated)" : "");
  std::string out = buf;
  for (const TraceEvent& e : events) {
    std::snprintf(buf, sizeof(buf),
                  "\n  %-10s server=%u chain=%" PRIu64 " [%" PRId64
                  "..%" PRId64 "ns, %" PRId64 "ns]",
                  TraceVerbName(e.verb), e.server, e.chain, e.start,
                  e.finish, e.finish - e.start);
    out += buf;
  }
  return out;
}

void OpTrace::Enable(size_t ring_capacity, size_t outliers_per_op) {
  assert(now_ && "OpTrace needs a clock (SetClock) before Enable");
  enabled_ = true;
  ring_capacity_ = ring_capacity;
  outliers_per_op_ = outliers_per_op;
}

bool OpTrace::BeginSpan(const char* op) {
  if (!enabled_ || open_) return false;
  open_ = true;
  current_ = SpanRecord{};
  current_.op = op;
  current_.id = ++next_span_id_;
  current_.start = now_();
  return true;
}

void OpTrace::EndSpan() {
  if (!open_) return;
  open_ = false;
  current_.finish = now_();

  // Retain among the slowest K for this op label (slowest first).
  auto& slowest = outliers_[current_.op];
  const bool retain =
      slowest.size() < outliers_per_op_ ||
      current_.duration() > slowest.back().duration();
  if (retain && outliers_per_op_ > 0) {
    const auto pos = std::find_if(
        slowest.begin(), slowest.end(), [&](const SpanRecord& r) {
          return current_.duration() > r.duration();
        });
    slowest.insert(pos, current_);
    if (slowest.size() > outliers_per_op_) slowest.pop_back();
    if (outlier_hook_) outlier_hook_(current_);
  }

  ring_.push_back(std::move(current_));
  while (ring_.size() > ring_capacity_) ring_.pop_front();
}

void OpTrace::Event(TraceVerb verb, uint32_t server, uint64_t chain,
                    SimTime start) {
  if (!enabled_ || !open_) return;
  if (current_.events.size() >= kMaxEventsPerSpan) {
    current_.truncated++;
    return;
  }
  TraceEvent event;
  event.verb = verb;
  event.server = server;
  event.chain = chain;
  event.start = start;
  event.finish = now_();
  current_.events.push_back(event);
}

std::vector<const SpanRecord*> OpTrace::SlowestFor(
    std::string_view op) const {
  std::vector<const SpanRecord*> out;
  const auto it = outliers_.find(op);
  if (it == outliers_.end()) return out;
  out.reserve(it->second.size());
  for (const SpanRecord& r : it->second) out.push_back(&r);
  return out;
}

std::string OpTrace::DumpOutliers() const {
  std::string out;
  for (const auto& [op, spans] : outliers_) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "client %u, op %s: %zu slowest spans\n",
                  client_id_, op.c_str(), spans.size());
    out += buf;
    for (const SpanRecord& span : spans) {
      out += span.ToString();
      out += '\n';
    }
  }
  return out;
}

}  // namespace namtree::metrics
