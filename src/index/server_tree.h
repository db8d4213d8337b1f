#ifndef NAMTREE_INDEX_SERVER_TREE_H_
#define NAMTREE_INDEX_SERVER_TREE_H_

#include <atomic>
#include <cstdint>

#include "btree/blink_tree.h"
#include "btree/types.h"
#include "index/index.h"
#include "nam/memory_server.h"
#include "sim/task.h"

namespace namtree::index {

/// The simulated environment of a memory server's tree: pages live in the
/// server's region, and handler CPU (scaled for the QPI penalty) and lock
/// spins are virtual-time delays of the handler coroutine.
struct ServerEnv {
  explicit ServerEnv(nam::MemoryServer& s) : server(s) {}

  uint8_t* Page(uint64_t raw) const;
  /// 0 = region exhausted (kResourceExhausted surfaces through the caller,
  /// never an assert).
  uint64_t AllocatePage(uint32_t bytes);
  sim::Delay Spin() const {
    return sim::Delay(server.fabric().simulator(),
                      server.fabric().config().lock_retry_ns);
  }
  sim::Delay Cpu(SimTime base) const {
    return sim::Delay(server.fabric().simulator(), server.ScaledCpu(base));
  }

  nam::MemoryServer& server;
  std::atomic<uint64_t> root{0};
};

/// A B-link tree living inside one memory server's region, operated on by
/// that server's RPC handler coroutines in simulated time: the OLC core of
/// btree::BLinkTree with every node visit charged to the worker's CPU, so
/// lock waits and CPU saturation shape throughput the way they do on real
/// memory servers.
///
/// This is the server side of the coarse-grained design (§3, local leaves:
/// Build) and the upper levels of the hybrid (§5, remote leaf children:
/// BuildOverChildren, FindLeafChild, InstallChildSeparator).
class ServerTree : public btree::BLinkTree<ServerEnv> {
 public:
  /// A child reference used to build the hybrid upper levels.
  using ChildRef = btree::ChildRef;
  using TreeStats = btree::TreeStats;

  ServerTree(nam::MemoryServer& server, uint32_t page_size);

  /// CG lookup of the first live entry with `key`.
  sim::Task<LookupResult> Lookup(btree::Key key);
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_SERVER_TREE_H_
