#include "btree/bulk_load.h"

#include <algorithm>

#include "btree/page.h"

namespace namtree::btree {

namespace {

/// Lays out one level over `items` entries of the level below, `per_page`
/// to a page: `fill(page, first, count)` writes a page and returns its low
/// key. At least one page is built.
template <typename Fill>
Status BuildLevel(size_t items, size_t per_page, uint32_t page_size,
                  const PageAllocator& alloc, std::vector<ChildRef>* out,
                  Fill fill) {
  out->clear();
  uint8_t* prev = nullptr;
  size_t i = 0;
  do {
    const NewPage page = alloc();
    if (page.raw == 0) return Status::OutOfMemory("bulk load");
    const size_t take = std::min(per_page, items - i);
    const Key low = fill(PageView(page.data, page_size), i, take);
    if (prev != nullptr) {
      PageHeader& left = PageView(prev, page_size).header();
      left.right_sibling = page.raw;
      left.high_key = low;
    }
    out->push_back({low, page.raw});
    prev = page.data;
    i += take;
  } while (i < items);
  return Status::OK();
}

}  // namespace

Status BuildLeafLevel(std::span<const KV> sorted, uint32_t page_size,
                      uint32_t fill_percent, const PageAllocator& alloc,
                      std::vector<ChildRef>* leaves) {
  const size_t per_page = std::max<uint32_t>(
      1, PageView::LeafCapacity(page_size) * fill_percent / 100);
  return BuildLevel(sorted.size(), per_page, page_size, alloc, leaves,
                    [&](PageView leaf, size_t first, size_t count) {
                      leaf.InitLeaf(kInfinityKey, 0);
                      std::copy_n(sorted.begin() + first, count,
                                  leaf.leaf_entries());
                      leaf.header().count = static_cast<uint16_t>(count);
                      return count > 0 ? sorted[first].key : 0;
                    });
}

Status BuildInnerLevels(std::vector<ChildRef> level, uint32_t page_size,
                        uint32_t fill_percent, bool at_least_one,
                        const PageAllocator& alloc, uint64_t* root,
                        uint8_t* root_level) {
  const size_t children_per_page =
      std::max<uint32_t>(
          2, PageView::InnerKeyCapacity(page_size) * fill_percent / 100) +
      1;
  uint8_t height = 0;
  std::vector<ChildRef> upper;
  while (level.size() > 1 || (at_least_one && height == 0)) {
    height++;
    const Status status = BuildLevel(
        level.size(), children_per_page, page_size, alloc, &upper,
        [&](PageView inner, size_t first, size_t count) {
          inner.InitInner(height, kInfinityKey, 0);
          inner.inner_children()[0] = level[first].raw_ptr;
          for (size_t c = 1; c < count; ++c) {
            inner.inner_keys()[c - 1] = level[first + c].low;
            inner.inner_children()[c] = level[first + c].raw_ptr;
          }
          inner.header().count = static_cast<uint16_t>(count - 1);
          return level[first].low;
        });
    if (!status.ok()) return status;
    level.swap(upper);
  }
  *root = level[0].raw_ptr;
  *root_level = height;
  return Status::OK();
}

}  // namespace namtree::btree
