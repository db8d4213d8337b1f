#include "index/inspector.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "btree/page.h"
#include "btree/types.h"

namespace namtree::index {

using btree::Key;
using btree::kInfinityKey;
using btree::PageView;

namespace {

constexpr uint64_t kHopLimit = 100'000'000;  // cycle guard

/// Resolves a raw remote pointer to a host-side PageView; appends a
/// violation and returns false when the pointer is malformed.
bool Resolve(rdma::Fabric& fabric, uint64_t raw, uint32_t page_size,
             IndexInspector::Report* report, PageView* out) {
  rdma::RemotePtr ptr(raw);
  if (ptr.is_null()) {
    report->violations.push_back("null pointer dereference");
    return false;
  }
  if (ptr.server_id() >= fabric.num_memory_servers()) {
    report->violations.push_back("pointer to unknown server " +
                                 std::to_string(ptr.server_id()));
    return false;
  }
  // Under replication a dead primary is served by its first live replica;
  // inspect the copy clients actually read after failover.
  if (fabric.replicated() && !fabric.ServerAlive(ptr.server_id())) {
    for (uint32_t r = 1; r < fabric.replication(); ++r) {
      const rdma::RemotePtr rep = fabric.ReplicaPtr(ptr, r);
      if (fabric.ServerAlive(rep.server_id())) {
        ptr = rep;
        break;
      }
    }
  }
  rdma::MemoryRegion* region = fabric.region(ptr.server_id());
  if (!region->Contains(ptr.offset(), page_size)) {
    report->violations.push_back("pointer past region end: " +
                                 ptr.ToString());
    return false;
  }
  *out = PageView(region->at(ptr.offset()), page_size);
  return true;
}

void CheckUnlocked(PageView page, const std::string& what,
                   IndexInspector::Report* report) {
  if (btree::IsLocked(page.version_word())) {
    report->violations.push_back(what + ": lock bit set at quiescence");
  }
}

}  // namespace

std::string IndexInspector::Report::ToString() const {
  std::ostringstream os;
  os << "pages: " << inner_pages << " inner, " << leaf_pages
     << " leaf; entries: " << live_entries << " live, "
     << tombstones << " tombstoned; height " << height << "; "
     << stale_mirrors << " stale mirror(s); " << violations.size()
     << " violation(s)";
  for (const std::string& v : violations) os << "\n  - " << v;
  return os.str();
}

void IndexInspector::InspectLeafChain(rdma::Fabric& fabric,
                                      uint64_t first_raw, uint32_t page_size,
                                      Report* report,
                                      std::vector<uint64_t>* chain_leaves) {
  uint64_t raw = first_raw;
  Key previous_high = 0;
  bool first = true;
  uint64_t hops = 0;

  while (raw != 0) {
    if (++hops > kHopLimit) {
      report->violations.push_back("leaf chain does not terminate (cycle?)");
      return;
    }
    PageView page(nullptr, page_size);
    if (!Resolve(fabric, raw, page_size, report, &page)) return;
    const std::string what =
        "leaf chain page " + rdma::RemotePtr(raw).ToString();
    CheckUnlocked(page, what, report);

    if (page.level() != 0) {
      report->violations.push_back(what + ": non-leaf page in leaf chain");
      return;
    }
    if (page.is_drained()) {
      // Drained by epoch rebalancing: must be empty with a zero fence so
      // every search chases right; exempt from the fence ordering checks.
      if (page.count() != 0 || page.high_key() != 0) {
        report->violations.push_back(what + ": malformed drained page");
      }
      raw = page.right_sibling();
      continue;
    }
    report->leaf_pages++;
    if (chain_leaves != nullptr) chain_leaves->push_back(raw);

    const uint32_t n = page.count();
    if (n > page.leaf_capacity()) {
      report->violations.push_back(what + ": count over capacity");
    }
    const btree::KV* entries = page.leaf_entries();
    for (uint32_t i = 1; i < n; ++i) {
      if (entries[i - 1].key > entries[i].key) {
        report->violations.push_back(what + ": entries out of order");
        break;
      }
    }
    for (uint32_t i = 0; i < n; ++i) {
      if (page.LeafIsTombstoned(i)) {
        report->tombstones++;
      } else {
        report->live_entries++;
      }
    }
    if (n > 0) {
      if (!first && entries[0].key < previous_high) {
        report->violations.push_back(what + ": first key below low fence");
      }
      if (entries[n - 1].key > page.high_key()) {
        report->violations.push_back(what + ": last key above high fence");
      }
    }
    if (!first && page.high_key() < previous_high) {
      report->violations.push_back(what + ": high fences not ascending");
    }
    previous_high = page.high_key();
    first = false;

    const uint64_t next = page.right_sibling();
    if (next == 0 && page.high_key() != kInfinityKey) {
      report->violations.push_back(what +
                                   ": chain ends before the +inf fence");
    }
    raw = next;
  }
}

void IndexInspector::InspectInnerLevels(
    rdma::Fabric& fabric, uint64_t root_raw, uint32_t page_size,
    uint8_t bottom_level, Report* report,
    std::vector<uint64_t>* bottom_children) {
  PageView root(nullptr, page_size);
  if (!Resolve(fabric, root_raw, page_size, report, &root)) return;
  report->height = std::max<uint64_t>(report->height, root.level() + 1ull);

  uint64_t level_left = root_raw;
  for (int level = root.level(); level >= bottom_level; --level) {
    uint64_t raw = level_left;
    uint64_t next_level_left = 0;
    Key previous_high = 0;
    bool first = true;
    uint64_t hops = 0;
    while (raw != 0) {
      if (++hops > kHopLimit) {
        report->violations.push_back("inner chain does not terminate");
        return;
      }
      PageView page(nullptr, page_size);
      if (!Resolve(fabric, raw, page_size, report, &page)) return;
      const std::string what = "inner level " + std::to_string(level) +
                               " page " + rdma::RemotePtr(raw).ToString();
      CheckUnlocked(page, what, report);
      if (page.level() != level) {
        report->violations.push_back(what + ": wrong level byte");
        return;
      }
      report->inner_pages++;
      const uint32_t n = page.count();
      if (n > page.inner_capacity()) {
        report->violations.push_back(what +
                                     ": separator count over capacity");
      }
      const Key* keys = page.inner_keys();
      for (uint32_t i = 1; i < n; ++i) {
        if (keys[i - 1] > keys[i]) {
          report->violations.push_back(what + ": separators out of order");
          break;
        }
      }
      if (n > 0 && keys[n - 1] > page.high_key()) {
        report->violations.push_back(what + ": separator above high fence");
      }
      if (!first && page.high_key() < previous_high) {
        report->violations.push_back(what + ": high fences not ascending");
      }

      for (uint32_t c = 0; c <= n; ++c) {
        const uint64_t child = page.inner_children()[c];
        if (level == bottom_level) {
          if (bottom_children != nullptr) bottom_children->push_back(child);
          continue;
        }
        PageView child_page(nullptr, page_size);
        if (!Resolve(fabric, child, page_size, report, &child_page)) return;
        if (child_page.level() != level - 1) {
          report->violations.push_back(what + ": child at wrong level");
        }
      }
      if (first) next_level_left = page.inner_children()[0];
      previous_high = page.high_key();
      first = false;
      const uint64_t next = page.right_sibling();
      if (next == 0 && page.high_key() != kInfinityKey) {
        report->violations.push_back(what +
                                     ": level chain ends before +inf fence");
      }
      raw = next;
    }
    level_left = next_level_left;
  }
}

void IndexInspector::CheckReachability(rdma::Fabric& fabric,
                                       uint32_t page_size,
                                       const std::vector<uint64_t>& referenced,
                                       const std::vector<uint64_t>& chain,
                                       Report* report) {
  const std::set<uint64_t> chain_set(chain.begin(), chain.end());
  for (uint64_t leaf : referenced) {
    if (chain_set.find(leaf) != chain_set.end()) continue;
    // Stale separators may legitimately reference pages drained by epoch
    // rebalancing; searches chase through them.
    PageView probe(nullptr, page_size);
    if (Resolve(fabric, leaf, page_size, report, &probe) &&
        probe.is_drained()) {
      continue;
    }
    report->violations.push_back(
        "inner levels reference a leaf that is not on the chain: " +
        rdma::RemotePtr(leaf).ToString());
  }
}

void IndexInspector::CompareMirrors(
    rdma::Fabric& fabric, uint32_t page_size, rdma::RemotePtr root_ptr,
    const std::vector<rdma::RemotePtr>& mirrors, Report* report) {
  PageView root(nullptr, page_size);
  if (!Resolve(fabric, root_ptr.raw(), page_size, report, &root) ||
      root.count() > root.inner_capacity()) {
    return;  // InspectInnerLevels reports a malformed root
  }
  for (const rdma::RemotePtr mirror : mirrors) {
    if (mirror.is_null() || !fabric.ServerAlive(mirror.server_id())) continue;
    PageView copy(nullptr, page_size);
    if (!Resolve(fabric, mirror.raw(), page_size, report, &copy)) continue;
    if (btree::IsLocked(copy.version_word())) continue;
    const uint32_t n = root.count();
    const bool same =
        copy.level() == root.level() && copy.count() == n &&
        copy.high_key() == root.high_key() &&
        copy.right_sibling() == root.right_sibling() &&
        std::equal(root.inner_keys(), root.inner_keys() + n,
                   copy.inner_keys()) &&
        std::equal(root.inner_children(), root.inner_children() + n + 1,
                   copy.inner_children());
    if (!same) report->stale_mirrors++;
  }
}

IndexInspector::Report IndexInspector::Inspect(rdma::Fabric& fabric,
                                               CoarseGrainedIndex& index) {
  Report report;
  const uint32_t page_size = index.page_size();
  for (uint32_t s = 0; s < fabric.num_memory_servers(); ++s) {
    ServerTree& tree = index.tree(s);
    std::vector<uint64_t> referenced;
    std::vector<uint64_t> chain;
    if (tree.root_level() > 0) {
      InspectInnerLevels(fabric, tree.root_raw(), page_size, 1, &report,
                         &referenced);
      if (!referenced.empty()) {
        InspectLeafChain(fabric, referenced.front(), page_size, &report,
                         &chain);
      }
    } else {
      report.height = std::max<uint64_t>(report.height, 1);
      InspectLeafChain(fabric, tree.root_raw(), page_size, &report, &chain);
    }
    CheckReachability(fabric, page_size, referenced, chain, &report);
  }
  return report;
}

IndexInspector::Report IndexInspector::Inspect(rdma::Fabric& fabric,
                                               const LeafChainIndex& index) {
  Report report;
  const uint32_t page_size = index.page_size();
  for (uint32_t t = 0; t < index.num_trees(); ++t) {
    std::vector<uint64_t> referenced;
    for (const auto& [root, level] : index.UpperRoots(t)) {
      if (level > 0) {
        InspectInnerLevels(fabric, root.raw(), page_size, 1, &report,
                           &referenced);
      } else {
        report.height = std::max<uint64_t>(report.height, 1);
      }
    }
    std::vector<uint64_t> chain;
    InspectLeafChain(fabric, index.first_leaf(t).raw(), page_size, &report,
                     &chain);
    CheckReachability(fabric, page_size, referenced, chain, &report);
    if (!index.mirrors(t).empty()) {
      CompareMirrors(fabric, page_size, index.root(t), index.mirrors(t),
                     &report);
    }
  }
  return report;
}

}  // namespace namtree::index
