#include "peerhood/protocol.hpp"

namespace peerhood::wire {

std::uint32_t& SectionGens::of(std::uint8_t section_bit) {
  switch (section_bit) {
    case kSectionDevice:
      return device;
    case kSectionPrototypes:
      return prototypes;
    case kSectionServices:
      return services;
    default:
      return neighbours;
  }
}

std::uint32_t SectionGens::of(std::uint8_t section_bit) const {
  return const_cast<SectionGens*>(this)->of(section_bit);
}

namespace {

constexpr std::uint8_t kTrue = 1;
constexpr std::uint8_t kFalse = 0;

// FetchRequest flag bits; unknown bits reject the frame.
constexpr std::uint8_t kRequestFlagBaseline = 1;

// Enum fields are untrusted input like everything else: a byte outside the
// enum's domain fails the reader, so the surrounding decoder returns nullopt
// instead of materialising an enumerator no switch can handle.
Technology decode_technology(ByteReader& reader) {
  const std::uint8_t raw = reader.u8();
  if (raw >= kTechnologyCount) reader.fail();
  return static_cast<Technology>(raw);
}

MobilityClass decode_mobility(ByteReader& reader) {
  switch (reader.u8()) {
    case static_cast<std::uint8_t>(MobilityClass::kStatic):
      return MobilityClass::kStatic;
    case static_cast<std::uint8_t>(MobilityClass::kHybrid):
      return MobilityClass::kHybrid;
    case static_cast<std::uint8_t>(MobilityClass::kDynamic):
      return MobilityClass::kDynamic;
    default:
      reader.fail();
      return MobilityClass::kStatic;
  }
}

void encode_connect_body(ByteWriter& writer, const ConnectRequest& request) {
  writer.reserve(16 + request.service.size());
  writer.u64(request.session_id);
  writer.string(request.service);
  if (request.client_params.has_value()) {
    writer.u8(kTrue);
    const ClientParams& params = *request.client_params;
    encode_device(writer, params.device);
    writer.u8(static_cast<std::uint8_t>(params.tech));
    writer.string(params.reconnect_service);
    writer.u16(params.port);
  } else {
    writer.u8(kFalse);
  }
}

ConnectRequest decode_connect_body(ByteReader& reader) {
  ConnectRequest request;
  request.session_id = reader.u64();
  request.service = reader.str_view();
  if (reader.u8() == kTrue) {
    ClientParams params;
    params.device = decode_device(reader);
    params.tech = decode_technology(reader);
    params.reconnect_service = reader.str_view();
    params.port = reader.u16();
    request.client_params = std::move(params);
  }
  return request;
}

void encode_snapshot_entry(ByteWriter& writer,
                           const NeighbourSnapshotEntry& entry) {
  writer.reserve(31 + entry.prototypes.size());
  encode_device(writer, entry.device);
  writer.u8(static_cast<std::uint8_t>(entry.prototypes.size()));
  for (const Technology tech : entry.prototypes) {
    writer.u8(static_cast<std::uint8_t>(tech));
  }
  writer.u16(static_cast<std::uint16_t>(entry.services.size()));
  for (const ServiceInfo& service : entry.services) {
    encode_service(writer, service);
  }
  writer.u8(static_cast<std::uint8_t>(entry.jump));
  writer.u64(entry.bridge.as_u64());
  writer.u16(static_cast<std::uint16_t>(entry.quality_sum));
  writer.u8(static_cast<std::uint8_t>(entry.min_link_quality));
}

NeighbourSnapshotEntry decode_snapshot_entry(ByteReader& reader) {
  NeighbourSnapshotEntry entry;
  entry.device = decode_device(reader);
  const std::size_t proto_count = reader.u8();
  for (std::size_t i = 0; i < proto_count; ++i) {
    entry.prototypes.push_back(decode_technology(reader));
  }
  const std::size_t service_count = reader.u16();
  for (std::size_t i = 0; i < service_count && reader.ok(); ++i) {
    entry.services.push_back(decode_service(reader));
  }
  entry.jump = reader.u8();
  entry.bridge = MacAddress::from_u64(reader.u64());
  entry.quality_sum = reader.u16();
  entry.min_link_quality = reader.u8();
  return entry;
}

}  // namespace

void encode_device(ByteWriter& writer, const DeviceInfo& device) {
  writer.reserve(15 + device.name.size());
  writer.u64(device.mac.as_u64());
  writer.string(device.name);
  writer.u32(device.checksum);
  writer.u8(static_cast<std::uint8_t>(device.mobility));
}

DeviceInfo decode_device(ByteReader& reader) {
  DeviceInfo device;
  device.mac = MacAddress::from_u64(reader.u64());
  device.name = reader.str_view();
  device.checksum = reader.u32();
  device.mobility = decode_mobility(reader);
  return device;
}

void encode_service(ByteWriter& writer, const ServiceInfo& service) {
  writer.reserve(6 + service.name.size() + service.attribute.size());
  writer.string(service.name);
  writer.string(service.attribute);
  writer.u16(service.port);
}

ServiceInfo decode_service(ByteReader& reader) {
  ServiceInfo service;
  service.name = reader.str_view();
  service.attribute = reader.str_view();
  service.port = reader.u16();
  return service;
}

void encode_into(ByteWriter& writer, const FetchRequest& request) {
  writer.reserve(7 + (request.baseline.has_value() ? 24 : 0));
  writer.u8(static_cast<std::uint8_t>(Command::kFetchRequest));
  writer.u32(request.request_id);
  writer.u8(request.sections);
  if (request.baseline.has_value()) {
    writer.u8(kRequestFlagBaseline);
    writer.u64(request.baseline->epoch);
    for (const std::uint8_t section : kSectionOrder) {
      writer.u32(request.baseline->gens.of(section));
    }
  } else {
    writer.u8(0);
  }
}

Bytes encode(const FetchRequest& request) {
  ByteWriter writer;
  encode_into(writer, request);
  return std::move(writer).take();
}

void encode_into(ByteWriter& writer, const FetchResponse& response) {
  if (response.not_modified) {
    writer.reserve(6);
    writer.u8(static_cast<std::uint8_t>(Command::kNotModified));
    writer.u32(response.request_id);
    writer.u8(response.load_percent);
    return;
  }
  writer.reserve(15 + 32 * response.services.size() +
                 64 * response.neighbours.size());
  writer.u8(static_cast<std::uint8_t>(Command::kFetchResponse));
  writer.u32(response.request_id);
  writer.u8(response.sections);
  writer.u8(response.load_percent);
  writer.u64(response.epoch);
  if ((response.sections & kSectionDevice) != 0) {
    writer.u32(response.gens.device);
    encode_device(writer, response.device);
  }
  if ((response.sections & kSectionPrototypes) != 0) {
    writer.u32(response.gens.prototypes);
    writer.u8(static_cast<std::uint8_t>(response.prototypes.size()));
    for (const Technology tech : response.prototypes) {
      writer.u8(static_cast<std::uint8_t>(tech));
    }
  }
  if ((response.sections & kSectionServices) != 0) {
    writer.u32(response.gens.services);
    writer.u16(static_cast<std::uint16_t>(response.services.size()));
    for (const ServiceInfo& service : response.services) {
      encode_service(writer, service);
    }
  }
  if ((response.sections & kSectionNeighbours) != 0) {
    writer.u32(response.gens.neighbours);
    writer.u16(static_cast<std::uint16_t>(response.neighbours.size()));
    for (const NeighbourSnapshotEntry& entry : response.neighbours) {
      encode_snapshot_entry(writer, entry);
    }
  }
}

Bytes encode(const FetchResponse& response) {
  ByteWriter writer;
  encode_into(writer, response);
  return std::move(writer).take();
}

std::optional<Command> peek_command(std::span<const std::uint8_t> payload) {
  if (payload.empty()) return std::nullopt;
  return static_cast<Command>(payload[0]);
}

std::optional<FetchRequest> decode_fetch_request(
    std::span<const std::uint8_t> payload) {
  ByteReader reader{payload};
  if (static_cast<Command>(reader.u8()) != Command::kFetchRequest) {
    return std::nullopt;
  }
  FetchRequest request;
  request.request_id = reader.u32();
  request.sections = reader.u8();
  if ((request.sections & ~kSectionAll) != 0) return std::nullopt;
  const std::uint8_t flags = reader.u8();
  if ((flags & ~kRequestFlagBaseline) != 0) return std::nullopt;
  if ((flags & kRequestFlagBaseline) != 0) {
    FetchBaseline baseline;
    baseline.epoch = reader.u64();
    for (const std::uint8_t section : kSectionOrder) {
      baseline.gens.of(section) = reader.u32();
    }
    request.baseline = baseline;
  }
  if (!reader.ok()) return std::nullopt;
  return request;
}

std::optional<FetchResponse> decode_fetch_response(
    std::span<const std::uint8_t> payload) {
  ByteReader reader{payload};
  const auto command = static_cast<Command>(reader.u8());
  FetchResponse response;
  if (command == Command::kNotModified) {
    response.request_id = reader.u32();
    response.load_percent = reader.u8();
    response.not_modified = true;
    if (!reader.ok()) return std::nullopt;
    return response;
  }
  if (command != Command::kFetchResponse) return std::nullopt;
  response.request_id = reader.u32();
  response.sections = reader.u8();
  if ((response.sections & ~kSectionAll) != 0) return std::nullopt;
  response.load_percent = reader.u8();
  response.epoch = reader.u64();
  if ((response.sections & kSectionDevice) != 0) {
    response.gens.device = reader.u32();
    response.device = decode_device(reader);
  }
  if ((response.sections & kSectionPrototypes) != 0) {
    response.gens.prototypes = reader.u32();
    const std::size_t count = reader.u8();
    for (std::size_t i = 0; i < count; ++i) {
      response.prototypes.push_back(decode_technology(reader));
    }
  }
  if ((response.sections & kSectionServices) != 0) {
    response.gens.services = reader.u32();
    const std::size_t count = reader.u16();
    for (std::size_t i = 0; i < count && reader.ok(); ++i) {
      response.services.push_back(decode_service(reader));
    }
  }
  if ((response.sections & kSectionNeighbours) != 0) {
    response.gens.neighbours = reader.u32();
    const std::size_t count = reader.u16();
    for (std::size_t i = 0; i < count && reader.ok(); ++i) {
      response.neighbours.push_back(decode_snapshot_entry(reader));
    }
  }
  if (!reader.ok()) return std::nullopt;
  return response;
}

Bytes encode_connect(const ConnectRequest& request) {
  ByteWriter writer;
  writer.u8(static_cast<std::uint8_t>(Command::kConnect));
  encode_connect_body(writer, request);
  return std::move(writer).take();
}

Bytes encode_resume(const ConnectRequest& request) {
  ByteWriter writer;
  writer.u8(static_cast<std::uint8_t>(Command::kResume));
  encode_connect_body(writer, request);
  return std::move(writer).take();
}

Bytes encode_resume_restart(const ConnectRequest& request) {
  ByteWriter writer;
  writer.u8(static_cast<std::uint8_t>(Command::kResumeRestart));
  encode_connect_body(writer, request);
  return std::move(writer).take();
}

Bytes encode_bridge(const BridgeRequest& request) {
  ByteWriter writer;
  writer.u8(static_cast<std::uint8_t>(Command::kBridge));
  writer.u64(request.destination.as_u64());
  writer.u8(static_cast<std::uint8_t>(request.final_command));
  encode_connect_body(writer, request.inner);
  return std::move(writer).take();
}

Bytes encode_ok() {
  ByteWriter writer;
  writer.u8(static_cast<std::uint8_t>(Command::kOk));
  return std::move(writer).take();
}

Bytes encode_fail(ErrorCode code, std::string_view message) {
  ByteWriter writer;
  writer.reserve(4 + message.size());
  writer.u8(static_cast<std::uint8_t>(Command::kFail));
  writer.u8(static_cast<std::uint8_t>(code));
  writer.string(message);
  return std::move(writer).take();
}

std::optional<Handshake> decode_handshake(std::span<const std::uint8_t> frame) {
  ByteReader reader{frame};
  Handshake handshake;
  handshake.command = static_cast<Command>(reader.u8());
  switch (handshake.command) {
    case Command::kConnect:
    case Command::kResume:
    case Command::kResumeRestart:
      handshake.connect = decode_connect_body(reader);
      break;
    case Command::kBridge:
      handshake.bridge.destination = MacAddress::from_u64(reader.u64());
      handshake.bridge.final_command = static_cast<Command>(reader.u8());
      handshake.bridge.inner = decode_connect_body(reader);
      if (handshake.bridge.final_command != Command::kConnect &&
          handshake.bridge.final_command != Command::kResume &&
          handshake.bridge.final_command != Command::kResumeRestart) {
        return std::nullopt;
      }
      break;
    case Command::kOk:
      break;
    case Command::kFail:
      handshake.fail.code = static_cast<ErrorCode>(reader.u8());
      handshake.fail.message = reader.string();
      break;
    default:
      return std::nullopt;
  }
  // A handshake is exactly one encoded message: trailing bytes mean the
  // frame is something else (an application payload that merely starts
  // with a command byte), not a handshake with padding.
  if (!reader.ok() || !reader.at_end()) return std::nullopt;
  return handshake;
}

}  // namespace peerhood::wire
