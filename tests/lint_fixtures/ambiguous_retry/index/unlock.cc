// Lint fixture (never compiled): rule unresolved-ambiguous-retry must flag
// the three atomic chains posted with LostRule::Repost() — an inline
// member, a named one and one pushed into a chain — and neither the
// ReadBack post nor the audited Repost below them.

namespace namtree::index {

sim::Task<Status> RemoteOps::BlindRelease(rdma::RemotePtr word_at) {
  const ChainOp faa = ChainOp::Faa(word_at, 1);
  co_return co_await Post({&faa, 1}, kNoWatch, LostRule::Repost());
}

sim::Task<Status> RemoteOps::BlindSwap(rdma::RemotePtr word_at,
                                       uint64_t version, uint64_t locked) {
  std::vector<ChainOp> chain;
  chain.push_back(ChainOp::Cas(word_at, version, locked));
  co_return co_await Post(chain, kNoWatch, LostRule::Repost());
}

sim::Task<Status> RemoteOps::BlindInline(rdma::RemotePtr word_at) {
  co_return co_await Post({ChainOp::Faa(word_at, 2)}, kNoWatch,
                          LostRule::Repost());
}

sim::Task<Status> RemoteOps::ResolvedRelease(rdma::RemotePtr word_at) {
  const ChainOp faa = ChainOp::Faa(word_at, 1);
  const auto judge = [](uint64_t) { return Witnessed::kLanded; };
  co_return co_await Post({&faa, 1}, kNoWatch,
                          LostRule::ReadBack(word_at, judge));
}

sim::Task<Status> RemoteOps::AuditedCas(rdma::RemotePtr word_at) {
  const ChainOp cas = ChainOp::Cas(word_at, 0, 1);
  // namtree-lint: retry-ok(fixture: the word is private to this client)
  co_return co_await Post({&cas, 1}, kNoWatch, LostRule::Repost());
}

sim::Task<Status> RemoteOps::PlainWrite(rdma::RemotePtr at, uint64_t value) {
  const ChainOp write = ChainOp::Write(at, &value, 8);
  co_return co_await Post({&write, 1}, kNoWatch, LostRule::Repost());
}

}  // namespace namtree::index
