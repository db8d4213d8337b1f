// Lint fixture (never compiled): the fabric posts on top of its own
// entry; src/rdma/ is outside rule raw-fabric-verb.

namespace namtree::rdma {

sim::Task<Fabric::PostResult> Fabric::PostTwice(uint32_t client,
                                                std::span<const ChainOp> ops) {
  (void)co_await Post(client, ops, Posting::kVerbs);
  co_return co_await fabric_->Post(client, ops, Posting::kVerbs);
}

}  // namespace namtree::rdma
