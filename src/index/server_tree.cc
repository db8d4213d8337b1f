#include "index/server_tree.h"

#include <cassert>
#include <optional>

#include "rdma/remote_ptr.h"

namespace namtree::index {

uint8_t* ServerEnv::Page(uint64_t raw) const {
  const rdma::RemotePtr ptr(raw);
  assert(!ptr.is_null());
  assert(ptr.server_id() == server.server_id());
  return server.region().at(ptr.offset());
}

uint64_t ServerEnv::AllocatePage(uint32_t bytes) {
  const rdma::RemotePtr ptr = server.region().AllocateLocal(bytes);
  return ptr.is_null() ? 0 : ptr.raw();
}

ServerTree::ServerTree(nam::MemoryServer& server, uint32_t page_size)
    : BLinkTree(page_size,
                btree::NodeCosts{server.fabric().config().cpu_inner_node_ns,
                                 server.fabric().config().cpu_leaf_node_ns,
                                 server.fabric().config().cpu_insert_extra_ns},
                server) {}

sim::Task<LookupResult> ServerTree::Lookup(btree::Key key) {
  const std::optional<btree::Value> value = co_await BLinkTree::Lookup(key);
  co_return LookupResult{value.has_value(), value.value_or(0), Status::OK()};
}

}  // namespace namtree::index
