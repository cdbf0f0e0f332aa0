#include "peerhood/snapshot_cache.hpp"

#include "discovery/analyzer.hpp"
#include "net/frame_check.hpp"

namespace peerhood {

bool SnapshotCache::sections_equal(std::uint8_t sections,
                                   const wire::SectionGens& a,
                                   const wire::SectionGens& b) {
  for (const std::uint8_t section : wire::kSectionOrder) {
    if ((sections & section) == 0) continue;
    if (a.of(section) != b.of(section)) return false;
  }
  return true;
}

SnapshotCache::FramePtr SnapshotCache::encode_frame(
    const wire::FetchResponse& response) const {
  ByteWriter writer;
  if (prefix_.has_value()) {
    // Datagram-ready frame: sealed integrity header + tag + body, baked in
    // once so every requester at this generation ships the same allocation.
    net::begin_frame(writer);
    writer.u8(*prefix_);
    wire::encode_into(writer, response);
    Bytes frame = std::move(writer).take();
    net::seal_frame(frame);
    return std::make_shared<const Bytes>(std::move(frame));
  }
  wire::encode_into(writer, response);
  return std::make_shared<const Bytes>(std::move(writer).take());
}

wire::FetchResponse SnapshotCache::build_response(
    std::uint8_t sections, const SnapshotSource& src) const {
  wire::FetchResponse response;
  response.request_id = wire::kSharedRequestId;
  response.sections = sections;
  response.load_percent = src.load_percent;
  response.epoch = src.epoch;
  response.gens = src.gens;
  if ((sections & wire::kSectionDevice) != 0 && src.device != nullptr) {
    response.device = *src.device;
  }
  if ((sections & wire::kSectionPrototypes) != 0 && src.prototypes != nullptr) {
    response.prototypes = *src.prototypes;
  }
  if ((sections & wire::kSectionServices) != 0 && src.services != nullptr) {
    response.services = *src.services;
  }
  if ((sections & wire::kSectionNeighbours) != 0 && src.storage != nullptr) {
    response.neighbours = snapshot_entries(*src.storage);
  }
  return response;
}

SnapshotCache::FramePtr SnapshotCache::respond(
    const wire::FetchRequest& request, const SnapshotSource& src) {
  const std::uint8_t sections =
      static_cast<std::uint8_t>(request.sections & wire::kSectionAll);
  if (request.baseline.has_value() && request.baseline->epoch == src.epoch) {
    // Conditional fetch against a live baseline: ship only what moved.
    std::uint8_t changed = 0;
    for (const std::uint8_t section : wire::kSectionOrder) {
      if ((sections & section) == 0) continue;
      if (request.baseline->gens.of(section) != src.gens.of(section)) {
        changed |= section;
      }
    }
    if (changed == 0) {
      ++stats_.not_modified;
      if (not_modified_ != nullptr &&
          not_modified_load_ == src.load_percent) {
        return not_modified_;
      }
      wire::FetchResponse response;
      response.not_modified = true;
      response.request_id = wire::kSharedRequestId;
      response.load_percent = src.load_percent;
      not_modified_ = encode_frame(response);
      not_modified_load_ = src.load_percent;
      return not_modified_;
    }
    // Deltas are requester-specific (they depend on the baseline), so they
    // are encoded afresh and can echo the real request id.
    ++stats_.deltas;
    wire::FetchResponse response = build_response(changed, src);
    response.request_id = request.request_id;
    return encode_frame(response);
  }

  // Full response: no baseline, or the responder restarted since the
  // requester last looked (epoch mismatch — generations are incomparable).
  CachedFull& slot = full_[sections];
  if (slot.frame != nullptr && slot.epoch == src.epoch &&
      slot.load_percent == src.load_percent &&
      sections_equal(sections, slot.gens, src.gens)) {
    ++stats_.full_hits;
    return slot.frame;
  }
  ++stats_.full_encodes;
  slot.frame = encode_frame(build_response(sections, src));
  slot.gens = src.gens;
  slot.epoch = src.epoch;
  slot.load_percent = src.load_percent;
  return slot.frame;
}

}  // namespace peerhood
