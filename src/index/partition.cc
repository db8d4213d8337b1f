#include "index/partition.h"

#include <algorithm>
#include <cassert>

namespace namtree::index {

void Partitioner::FitBoundaries(std::span<const btree::KV> sorted,
                                std::span<const double> weights) {
  if (kind_ == PartitionKind::kHash) return;
  boundaries_.clear();
  if (num_servers_ <= 1) return;

  std::vector<double> w(weights.begin(), weights.end());
  if (w.size() != num_servers_) {
    w.assign(num_servers_, 1.0 / num_servers_);
  }
  double total = 0;
  for (double x : w) total += x;

  double cumulative = 0;
  for (uint32_t s = 0; s + 1 < num_servers_; ++s) {
    cumulative += w[s] / total;
    const size_t idx = std::min<size_t>(
        sorted.empty() ? 0
                       : static_cast<size_t>(cumulative *
                                             static_cast<double>(sorted.size())),
        sorted.empty() ? 0 : sorted.size() - 1);
    const btree::Key boundary = sorted.empty()
                                    ? (s + 1) * (btree::kInfinityKey /
                                                 num_servers_)
                                    : sorted[idx].key;
    boundaries_.push_back(boundary);
  }
  // Boundaries must be non-decreasing; enforce in degenerate cases.
  for (size_t i = 1; i < boundaries_.size(); ++i) {
    boundaries_[i] = std::max(boundaries_[i], boundaries_[i - 1]);
  }
}

uint64_t Partitioner::HashKey(btree::Key key) {
  // Fibonacci hash with an avalanche step.
  uint64_t h = key * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  return h;
}

uint32_t Partitioner::ServerFor(btree::Key key) const {
  if (kind_ == PartitionKind::kHash) {
    return static_cast<uint32_t>(HashKey(key) % num_servers_);
  }
  const auto it =
      std::upper_bound(boundaries_.begin(), boundaries_.end(), key);
  return static_cast<uint32_t>(it - boundaries_.begin());
}

std::vector<std::span<const btree::KV>> Partitioner::Slice(
    std::span<const btree::KV> sorted,
    std::vector<std::vector<btree::KV>>* scattered) const {
  std::vector<std::span<const btree::KV>> slices(num_servers_);
  if (kind_ == PartitionKind::kHash) {
    scattered->assign(num_servers_, {});
    for (const btree::KV& kv : sorted) {
      (*scattered)[ServerFor(kv.key)].push_back(kv);
    }
    for (uint32_t s = 0; s < num_servers_; ++s) slices[s] = (*scattered)[s];
    return slices;
  }
  size_t begin = 0;
  for (uint32_t s = 0; s < num_servers_; ++s) {
    const btree::Key upper = UpperBoundOf(s);
    size_t end = begin;
    while (end < sorted.size() && sorted[end].key < upper) end++;
    slices[s] = sorted.subspan(begin, end - begin);
    begin = end;
  }
  return slices;
}

std::vector<uint32_t> Partitioner::ServersFor(btree::Key lo,
                                              btree::Key hi) const {
  std::vector<uint32_t> servers;
  if (kind_ == PartitionKind::kHash) {
    for (uint32_t s = 0; s < num_servers_; ++s) servers.push_back(s);
    return servers;
  }
  if (lo >= hi) return servers;
  const uint32_t first = ServerFor(lo);
  const uint32_t last = ServerFor(hi - 1);
  for (uint32_t s = first; s <= last; ++s) servers.push_back(s);
  return servers;
}

}  // namespace namtree::index
