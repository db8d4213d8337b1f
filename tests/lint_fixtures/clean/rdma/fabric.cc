// Lint fixture (never compiled): the fabric implements its verbs on top of
// each other; src/rdma/ is outside rule raw-fabric-verb.

namespace namtree::rdma {

sim::Task<VerbCompletion> Fabric::ReadTwice(uint32_t client, RemotePtr src,
                                            void* dst, uint32_t len) {
  (void)co_await Read(client, src, dst, len);
  co_return co_await fabric_->Read(client, src, dst, len);
}

}  // namespace namtree::rdma
