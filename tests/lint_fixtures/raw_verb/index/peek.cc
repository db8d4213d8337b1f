// Lint fixture (never compiled): a one-sided fabric verb awaited outside
// RemoteOps::Post must fail rule raw-fabric-verb.

namespace namtree::index {

sim::Task<Status> PeekWord(RemoteOps& ops, rdma::RemotePtr at,
                           uint64_t* out) {
  const ChainOp read = ChainOp::Read(at, out, 8);
  (void)co_await ops.fabric().Post(ops.ctx().client_id(), {&read, 1},
                                   Posting::kVerbs);
  co_return Status::OK();
}

}  // namespace namtree::index
