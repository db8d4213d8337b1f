// Lint fixture (never compiled): a one-sided fabric verb awaited outside
// RemoteOps::Post must fail rule raw-fabric-verb.

namespace namtree::index {

sim::Task<Status> PeekWord(RemoteOps& ops, rdma::RemotePtr at,
                           uint64_t* out) {
  (void)co_await ops.fabric().Read(ops.ctx().client_id(), at, out, 8);
  co_return Status::OK();
}

}  // namespace namtree::index
