// Lint fixture (never compiled): both conditional-await forms must fail
// rule await-conditional — a conditional Task operand, and a ?: whose arms
// each co_await.

namespace namtree::index {

sim::Task<AllocResult> RemoteOps::AllocPageOn(uint32_t server, bool rr) {
  co_return co_await (rr ? AllocPageRoundRobin() : AllocPage(server));
}

sim::Task<Status> RemoteOps::ReadOrWrite(rdma::RemotePtr at, uint64_t* word,
                                         bool read) {
  const Status status = read ? co_await ReadWord(at, word)
                             : co_await WriteWord(at, *word);
  co_return status;
}

}  // namespace namtree::index
