#ifndef NAMTREE_BTREE_BULK_LOAD_H_
#define NAMTREE_BTREE_BULK_LOAD_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "btree/types.h"
#include "common/status.h"

namespace namtree::btree {

/// One page of a tree level under construction: the smallest key reachable
/// through it and its pointer word (RemotePtr::raw() of a region page, the
/// address of a heap page).
struct ChildRef {
  Key low;
  uint64_t raw_ptr;
};

/// A zeroed page handed to the bulk loader; raw == 0 when memory ran out.
struct NewPage {
  uint64_t raw = 0;
  uint8_t* data = nullptr;
};

/// Hands out the pages of a build, one call per page in allocation order.
/// Placement is the allocator's: one memory server, round-robin over all of
/// them, or the heap.
using PageAllocator = std::function<NewPage()>;

// The bulk loader of every tree in the repo. Each level is laid out left to
// right, `fill_percent` of each page used, every page linked to its right
// neighbour with the neighbour's low key as its high fence; the rightmost
// page keeps the +inf fence and no sibling. An exhausted allocator yields
// kOutOfMemory.

/// Builds the leaf level over `sorted` (ascending by key) into `*leaves`;
/// an empty input still gets one empty leaf.
Status BuildLeafLevel(std::span<const KV> sorted, uint32_t page_size,
                      uint32_t fill_percent, const PageAllocator& alloc,
                      std::vector<ChildRef>* leaves);

/// Builds inner levels over `level` until a single page is left, returned
/// in `*root` with its level in `*root_level`. `at_least_one` builds an
/// inner level even over a single child (the hybrid's lowest local level
/// above remote leaves).
Status BuildInnerLevels(std::vector<ChildRef> level, uint32_t page_size,
                        uint32_t fill_percent, bool at_least_one,
                        const PageAllocator& alloc, uint64_t* root,
                        uint8_t* root_level);

}  // namespace namtree::btree

#endif  // NAMTREE_BTREE_BULK_LOAD_H_
