// Lint fixture (never compiled): the one sanctioned raw verb lives in
// RemoteOps::Post; everything else posts through it.

namespace namtree::index {

sim::Task<Status> RemoteOps::Post(std::span<const ChainOp> chain,
                                  int32_t watched, LostRule rule,
                                  Posting posting) {
  const rdma::Fabric::PostResult done =
      co_await fabric().Post(ctx_->client_id(), chain, posting);
  co_return done.ok() ? Status::OK() : Status::TimedOut("lost");
}

sim::Task<Status> RemoteOps::ReadWord(rdma::RemotePtr at, uint64_t* out) {
  const ChainOp read = ChainOp::Read(at, out, 8);
  co_return co_await Post({&read, 1}, kNoWatch, LostRule::Repost());
}

}  // namespace namtree::index
