#include "src/ncl/redundancy.h"

#include <utility>

namespace splitft {
namespace {

std::string GeometryName(uint32_t k, uint32_t m, uint32_t unit) {
  if (k == 0) {
    return "replication";
  }
  return "k=" + std::to_string(k) + ",m=" + std::to_string(m) +
         ",unit=" + std::to_string(unit);
}

}  // namespace

Redundancy::Redundancy(int fault_budget, std::optional<EcGeometry> ec)
    : ec_(ec),
      width_(ec ? static_cast<int>(ec->shards()) : 2 * fault_budget + 1),
      quorum_(ec ? static_cast<int>(ec->k) : fault_budget + 1),
      k_(ec ? ec->k : 1),
      data_lanes_(ec ? ec->k : static_cast<uint32_t>(width_)) {}

Status Redundancy::Validate(
    int fault_budget, const std::function<Status(uint32_t)>& get_peers) const {
  if (!ec_) {
    return OkStatus();
  }
  RETURN_IF_ERROR(ValidateEcGeometry(*ec_));
  if (static_cast<int>(ec_->m) < fault_budget) {
    return InvalidArgumentError(
        "ec: m=" + std::to_string(ec_->m) +
        " parity shards cannot cover fault_budget f=" +
        std::to_string(fault_budget) + "; need m >= f");
  }
  // Geometry vs registry: k+m distinct peers must exist or every Create
  // would only fail later, at allocation time, with a misleading
  // kUnavailable. The query is best effort: in a controller outage the
  // check is skipped rather than guessed.
  Status peers = get_peers(ec_->shards());
  if (peers.code() == StatusCode::kUnavailable) {
    return InvalidArgumentError(
        "ec: geometry k+m=" + std::to_string(ec_->shards()) +
        " exceeds the reachable log peers (" + peers.message() + ")");
  }
  return OkStatus();
}

void Redundancy::EncodeHeader(uint64_t seq, uint64_t length, uint32_t lane,
                              char* out) const {
  if (ec_) {
    NclShardHeader{seq, length, ec_->k, ec_->m, lane, ec_->stripe_unit}
        .EncodeTo(out);
  } else {
    NclRegionHeader{seq, length}.EncodeTo(out);
  }
}

std::optional<Redundancy::Header> Redundancy::DecodeHeader(
    std::string_view raw, uint32_t lane) const {
  if (!ec_) {
    NclRegionHeader h = NclRegionHeader::Decode(raw);
    return Header{h.seq, h.length};
  }
  NclShardHeader h = NclShardHeader::Decode(raw);
  if (h.seq != 0 && (h.k != ec_->k || h.m != ec_->m ||
                     h.stripe_unit != ec_->stripe_unit ||
                     h.shard_index != lane)) {
    return std::nullopt;
  }
  return Header{h.seq, h.length};
}

Redundancy::Chunk Redundancy::Encode(uint32_t lane, std::string_view logical,
                                     uint64_t offset, uint64_t len,
                                     std::string* scratch) const {
  EcShardRange range{offset, offset + len};
  if (ec_) {
    range = lane < ec_->k ? DataShardRange(*ec_, lane, offset, len)
                          : ParityShardRange(*ec_, offset, len);
  }
  return EncodeRange(lane, logical, range, scratch);
}

Redundancy::Chunk Redundancy::EncodeImage(uint32_t lane,
                                          std::string_view logical,
                                          std::string* scratch) const {
  return EncodeRange(lane, logical, EcShardRange{0, LaneBytes(logical.size())},
                     scratch);
}

Redundancy::Chunk Redundancy::EncodeRange(uint32_t lane,
                                          std::string_view logical,
                                          const EcShardRange& range,
                                          std::string* scratch) const {
  if (range.empty()) {
    return Chunk{range.begin, {}};
  }
  if (!ec_) {
    return Chunk{range.begin, logical.substr(range.begin, range.size())};
  }
  if (lane < ec_->k) {
    ExtractDataShard(*ec_, lane, logical, range, scratch);
  } else {
    EncodeParityShard(*ec_, lane - ec_->k, logical, range, scratch);
  }
  return Chunk{range.begin, *scratch};
}

Status Redundancy::Decode(const std::vector<uint32_t>& lanes,
                          std::vector<std::string>* streams, uint64_t length,
                          std::string* out) const {
  if (!ec_) {
    *out = std::move(streams->front());
    return OkStatus();
  }
  std::vector<EcShardView> views;
  for (size_t i = 0; i < lanes.size(); ++i) {
    views.push_back(EcShardView{lanes[i], (*streams)[i]});
  }
  return EcReconstruct(*ec_, views, length, out);
}

void Redundancy::StampApMap(ApMapEntry* entry) const {
  if (ec_) {
    entry->ec_k = ec_->k;
    entry->ec_m = ec_->m;
    entry->ec_stripe_unit = ec_->stripe_unit;
  }
}

Status Redundancy::CheckApMap(const ApMapEntry& entry,
                              const std::string& file) const {
  ApMapEntry mine;
  StampApMap(&mine);
  if (entry.ec_k == mine.ec_k && entry.ec_m == mine.ec_m &&
      entry.ec_stripe_unit == mine.ec_stripe_unit) {
    return OkStatus();
  }
  return FailedPreconditionError(
      "ncl file " + file + " has ap-map geometry " +
      GeometryName(entry.ec_k, entry.ec_m, entry.ec_stripe_unit) +
      " but the client is configured for " +
      GeometryName(mine.ec_k, mine.ec_m, mine.ec_stripe_unit));
}

}  // namespace splitft
