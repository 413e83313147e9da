// The redundancy scheme of an ncl file (DESIGN.md §16): the one place where
// replication and erasure coding differ.
//
// A file lives on width() lanes, one log peer each. An append is acked once
// ack_quorum() lanes hold it and every earlier append, and recovery rebuilds
// the file from k() lane streams. Every lane region is a header (seq,
// logical length, ...) followed by the lane's bytes, written data-then-header
// (§4.4) whatever the scheme.
//
//   * Replication is the identity code with k = 1: 2f+1 lanes that each
//     store the logical bytes verbatim, an f+1 quorum and the 16-byte
//     NclRegionHeader. Its lane encoder returns views into the caller's
//     buffer; nothing is copied and no GF arithmetic runs.
//   * Erasure coding stripes k data + m parity lanes (src/ncl/ec.h), acks at
//     k and writes the 32-byte self-describing NclShardHeader.
#ifndef SRC_NCL_REDUNDANCY_H_
#define SRC_NCL_REDUNDANCY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/controller/controller.h"
#include "src/ncl/ec.h"
#include "src/ncl/region_format.h"

namespace splitft {

class Redundancy {
 public:
  // Room for the larger of the two lane headers.
  static constexpr uint64_t kMaxHeaderBytes = kNclEcHeaderBytes;

  // Replication at failure budget `fault_budget` when `ec` is empty,
  // otherwise k+m striping with `*ec`.
  Redundancy(int fault_budget, std::optional<EcGeometry> ec);

  // Construction-time checks of an erasure-coded scheme: a malformed
  // geometry, fewer parity lanes than `fault_budget`, or a stripe wider
  // than the registry (`get_peers(width())` failing kUnavailable) are
  // kInvalidArgument. Replication has nothing to check.
  Status Validate(int fault_budget,
                  const std::function<Status(uint32_t)>& get_peers) const;

  int width() const { return width_; }
  int ack_quorum() const { return quorum_; }
  // Lane streams a decode needs.
  uint32_t k() const { return k_; }
  // A data lane stores logical bytes verbatim; every identity lane does.
  bool IsDataLane(uint32_t lane) const { return lane < data_lanes_; }
  // Coded files cannot overwrite committed bytes: recovery decodes lane
  // streams at mixed sequence numbers, which is only column-consistent for
  // an append-only log.
  bool append_only() const { return k_ > 1; }
  // One lane holds the whole file, so reads can go to a single peer.
  bool single_slot_reads() const { return k_ == 1; }

  // ---- Lane region layout ---------------------------------------------
  uint64_t header_bytes() const {
    return ec_ ? kNclEcHeaderBytes : kNclRegionHeaderBytes;
  }
  // Lane bytes that hold `logical` bytes of the file.
  uint64_t LaneBytes(uint64_t logical) const {
    return ec_ ? ec_->ShardCapacity(logical) : logical;
  }
  uint64_t RegionBytes(uint64_t capacity) const {
    return header_bytes() + LaneBytes(capacity);
  }
  uint64_t CapacityFor(uint64_t region_bytes) const {
    return (region_bytes - header_bytes()) * k_;
  }
  // Writes header_bytes() at `out`.
  void EncodeHeader(uint64_t seq, uint64_t length, uint32_t lane,
                    char* out) const;
  struct Header {
    uint64_t seq = 0;
    uint64_t length = 0;
  };
  // Empty when a written header names another geometry or lane: a stale or
  // foreign region that must not be trusted. A never-written region
  // decodes as seq 0.
  std::optional<Header> DecodeHeader(std::string_view raw,
                                     uint32_t lane) const;

  // ---- Lane encoder -----------------------------------------------------
  // What one lane stores for a logical range: its bytes, at `offset` in the
  // lane's content area. Empty when the range misses the lane.
  struct Chunk {
    uint64_t offset = 0;
    std::string_view bytes;
  };
  // The chunk of `lane` for logical range [offset, offset+len) of
  // `logical`. Identity lanes view `logical`; coded lanes encode into
  // `scratch` and view it, so the chunk lives as long as both.
  Chunk Encode(uint32_t lane, std::string_view logical, uint64_t offset,
               uint64_t len, std::string* scratch) const;
  // The lane's whole image of `logical`.
  Chunk EncodeImage(uint32_t lane, std::string_view logical,
                    std::string* scratch) const;
  // Rebuilds logical bytes [0, length) from k() streams, streams[i] read
  // from lane lanes[i]. An identity lane's stream is moved out, not copied.
  Status Decode(const std::vector<uint32_t>& lanes,
                std::vector<std::string>* streams, uint64_t length,
                std::string* out) const;

  // ---- ap-map geometry (ec_k = 0 means replication) ---------------------
  void StampApMap(ApMapEntry* entry) const;
  // kFailedPrecondition when `file`'s ap-map records another geometry:
  // reading its regions under this scheme would misinterpret every lane.
  Status CheckApMap(const ApMapEntry& entry, const std::string& file) const;

 private:
  Chunk EncodeRange(uint32_t lane, std::string_view logical,
                    const EcShardRange& range, std::string* scratch) const;

  std::optional<EcGeometry> ec_;
  int width_;
  int quorum_;
  uint32_t k_;
  uint32_t data_lanes_;
};

}  // namespace splitft

#endif  // SRC_NCL_REDUNDANCY_H_
