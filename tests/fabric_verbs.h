// Test shorthands for lone one-sided verbs and chains: each builds
// Fabric::ChainOp members and posts them through Fabric::Post, the fabric's
// only one-sided entry.

#ifndef NAMTREE_TESTS_FABRIC_VERBS_H_
#define NAMTREE_TESTS_FABRIC_VERBS_H_

#include <cstdint>
#include <vector>

#include "rdma/fabric.h"
#include "sim/task.h"

namespace namtree::rdma {

inline sim::Task<VerbCompletion> PostRead(Fabric& fabric, uint32_t client,
                                          RemotePtr src, void* dst,
                                          uint32_t len) {
  const Fabric::ChainOp op = Fabric::ChainOp::Read(src, dst, len);
  co_return (co_await fabric.Post(client, {&op, 1},
                                  Fabric::Posting::kVerbs)).completion;
}

inline sim::Task<VerbCompletion> PostWrite(Fabric& fabric, uint32_t client,
                                           RemotePtr dst, const void* src,
                                           uint32_t len) {
  const Fabric::ChainOp op = Fabric::ChainOp::Write(dst, src, len);
  co_return (co_await fabric.Post(client, {&op, 1},
                                  Fabric::Posting::kVerbs)).completion;
}

/// Returns the CAS pre-image (0 when the post completed without one).
inline sim::Task<uint64_t> PostCas(Fabric& fabric, uint32_t client,
                                   RemotePtr target, uint64_t expected,
                                   uint64_t desired) {
  uint64_t pre = 0;
  const Fabric::ChainOp op =
      Fabric::ChainOp::Cas(target, expected, desired, &pre);
  (void)co_await fabric.Post(client, {&op, 1}, Fabric::Posting::kVerbs);
  co_return pre;
}

/// Returns the FETCH_AND_ADD pre-image (0 when the post completed without
/// one).
inline sim::Task<uint64_t> PostFaa(Fabric& fabric, uint32_t client,
                                   RemotePtr target, uint64_t add) {
  uint64_t pre = 0;
  const Fabric::ChainOp op = Fabric::ChainOp::Faa(target, add, &pre);
  (void)co_await fabric.Post(client, {&op, 1}, Fabric::Posting::kVerbs);
  co_return pre;
}

/// Posts `ops` on one doorbell (or member by member with verb chaining
/// off, for an ordered chain).
inline sim::Task<Fabric::PostResult> PostChain(
    Fabric& fabric, uint32_t client, std::vector<Fabric::ChainOp> ops) {
  co_return co_await fabric.Post(client, ops, Fabric::Posting::kBatch);
}

/// A READ that may combine with an identical in-flight one; returns true
/// when it did.
inline sim::Task<bool> PostCombinedRead(Fabric& fabric, uint32_t client,
                                        RemotePtr src, void* dst,
                                        uint32_t len) {
  const Fabric::ChainOp op = Fabric::ChainOp::Read(src, dst, len);
  co_return (co_await fabric.Post(client, {&op, 1},
                                  Fabric::Posting::kCombined))
                .round_trips == 0;
}

}  // namespace namtree::rdma

#endif  // NAMTREE_TESTS_FABRIC_VERBS_H_
