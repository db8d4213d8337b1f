#ifndef NAMTREE_RDMA_REMOTE_PTR_H_
#define NAMTREE_RDMA_REMOTE_PTR_H_

#include <cassert>
#include <cstdint>
#include <string>

namespace namtree::rdma {

/// A global pointer into the NAM memory pool, packed into 8 bytes exactly as
/// described in §4.1 of the paper:
///
///   bit 63      : valid bit (the paper's "nullbit", inverted: raw value 0
///                 is the NULL pointer, which makes zero-initialised pages
///                 safe)
///   bits 56..62 : memory-server id (7 bits, up to 128 servers)
///   bits 0..55  : byte offset into that server's registered region
///
/// RemotePtr is trivially copyable so it can be stored verbatim inside index
/// pages and shipped over the (simulated) wire.
class RemotePtr {
 public:
  static constexpr uint64_t kValidBit = 1ull << 63;
  static constexpr uint64_t kOffsetMask = (1ull << 56) - 1;
  static constexpr uint32_t kMaxServers = 128;

  constexpr RemotePtr() : raw_(0) {}
  constexpr explicit RemotePtr(uint64_t raw) : raw_(raw) {}

  static RemotePtr Make(uint32_t server_id, uint64_t offset) {
    assert(server_id < kMaxServers);
    assert(offset <= kOffsetMask);
    return RemotePtr(kValidBit | (static_cast<uint64_t>(server_id) << 56) |
                     offset);
  }

  static constexpr RemotePtr Null() { return RemotePtr(); }

  bool is_null() const { return (raw_ & kValidBit) == 0; }
  explicit operator bool() const { return !is_null(); }

  uint32_t server_id() const {
    assert(!is_null());
    return static_cast<uint32_t>((raw_ >> 56) & 0x7F);
  }
  uint64_t offset() const {
    assert(!is_null());
    return raw_ & kOffsetMask;
  }

  /// Pointer displaced by `delta` bytes within the same server region.
  RemotePtr Plus(uint64_t delta) const {
    return Make(server_id(), offset() + delta);
  }

  uint64_t raw() const { return raw_; }

  friend bool operator==(RemotePtr a, RemotePtr b) { return a.raw_ == b.raw_; }
  friend bool operator!=(RemotePtr a, RemotePtr b) { return a.raw_ != b.raw_; }

  std::string ToString() const {
    if (is_null()) return "null";
    // Appending (rather than "s" + std::string&&) sidesteps a GCC 12
    // -Wrestrict false positive in Release builds.
    std::string out = "s";
    out += std::to_string(server_id());
    out += '+';
    out += std::to_string(offset());
    return out;
  }

 private:
  uint64_t raw_;
};

static_assert(sizeof(RemotePtr) == 8, "RemotePtr must pack into 8 bytes");

}  // namespace namtree::rdma

#endif  // NAMTREE_RDMA_REMOTE_PTR_H_
