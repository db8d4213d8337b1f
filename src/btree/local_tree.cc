#include "btree/local_tree.h"

#include <cassert>
#include <cstring>
#include <new>

namespace namtree::btree {

ThreadEnv::~ThreadEnv() {
  for (uint8_t* p : pages_) ::operator delete[](p, std::align_val_t(64));
}

uint64_t ThreadEnv::AllocatePage(uint32_t bytes) {
  uint8_t* p =
      static_cast<uint8_t*>(::operator new[](bytes, std::align_val_t(64)));
  std::memset(p, 0, bytes);
  {
    std::lock_guard<std::mutex> guard(pages_mutex_);
    pages_.push_back(p);
  }
  return reinterpret_cast<uint64_t>(p);
}

LocalBLinkTree::LocalBLinkTree(uint32_t page_size)
    : tree_(page_size, NodeCosts{}) {
  assert(page_size >= PageView::kMinPageSize);
  assert(page_size % 8 == 0);
  // An empty build leaves one empty leaf as the root.
  const Status status = tree_.Build({}, kFillPercent);
  assert(status.ok());
  (void)status;
}

Result<Value> LocalBLinkTree::Lookup(Key key) const {
  const std::optional<Value> value = sim::RunInline(tree_.Lookup(key));
  if (!value.has_value()) return Status::NotFound();
  return *value;
}

}  // namespace namtree::btree
