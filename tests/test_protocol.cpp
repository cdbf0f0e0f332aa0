#include "peerhood/protocol.hpp"

#include <gtest/gtest.h>

namespace peerhood::wire {
namespace {

DeviceInfo sample_device(std::uint64_t index) {
  DeviceInfo device;
  device.mac = MacAddress::from_index(index);
  device.name = "device-" + std::to_string(index);
  device.checksum = static_cast<std::uint32_t>(index * 17);
  device.mobility = MobilityClass::kHybrid;
  return device;
}

TEST(Protocol, DeviceRoundTrip) {
  const DeviceInfo device = sample_device(3);
  ByteWriter writer;
  encode_device(writer, device);
  ByteReader reader{writer.bytes()};
  EXPECT_EQ(decode_device(reader), device);
  EXPECT_TRUE(reader.ok());
}

TEST(Protocol, ServiceRoundTrip) {
  const ServiceInfo service{"picture.analyse", "compute", 42};
  ByteWriter writer;
  encode_service(writer, service);
  ByteReader reader{writer.bytes()};
  EXPECT_EQ(decode_service(reader), service);
}

TEST(Protocol, FetchRequestRoundTrip) {
  const FetchRequest request{77, kSectionDevice | kSectionNeighbours};
  const auto decoded = decode_fetch_request(encode(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_id, 77u);
  EXPECT_EQ(decoded->sections, kSectionDevice | kSectionNeighbours);
  EXPECT_FALSE(decoded->baseline.has_value());
}

TEST(Protocol, FetchRequestBaselineRoundTrip) {
  FetchRequest request{78, kSectionAll};
  SectionGens gens;
  gens.device = 1;
  gens.prototypes = 2;
  gens.services = 0xffffffffu;  // wraparound values are plain payload
  gens.neighbours = 940;
  request.baseline = FetchBaseline{0xabcdef0123456789ull, gens};
  const auto decoded = decode_fetch_request(encode(request));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->baseline.has_value());
  EXPECT_EQ(*decoded->baseline, *request.baseline);
}

TEST(Protocol, NotModifiedRoundTrip) {
  FetchResponse response;
  response.not_modified = true;
  response.request_id = 5;
  response.load_percent = 61;
  const Bytes frame = encode(response);
  EXPECT_EQ(peek_command(frame), Command::kNotModified);
  const auto decoded = decode_fetch_response(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->not_modified);
  EXPECT_EQ(decoded->request_id, 5u);
  EXPECT_EQ(decoded->load_percent, 61);
  EXPECT_EQ(decoded->sections, 0);
}

TEST(Protocol, ResponseCarriesEpochAndSectionGens) {
  FetchResponse response;
  response.request_id = 12;
  response.sections = kSectionServices | kSectionNeighbours;
  response.epoch = 0x1122334455667788ull;
  response.gens.services = 7;
  response.gens.neighbours = 0xffffffffu;
  response.services = {{"svc", "", 3}};
  const auto decoded = decode_fetch_response(encode(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->epoch, response.epoch);
  EXPECT_EQ(decoded->gens.services, 7u);
  EXPECT_EQ(decoded->gens.neighbours, 0xffffffffu);
  EXPECT_EQ(decoded->services, response.services);
  EXPECT_FALSE(decoded->not_modified);
}

TEST(Protocol, RequestRejectsUnknownSectionBits) {
  Bytes frame = encode(FetchRequest{3, kSectionAll});
  frame[5] = 0x90;  // sections byte: unknown high bits
  EXPECT_FALSE(decode_fetch_request(frame).has_value());
}

TEST(Protocol, ResponseRejectsUnknownSectionBits) {
  FetchResponse response;
  response.sections = kSectionDevice;
  response.device = sample_device(2);
  Bytes frame = encode(response);
  frame[5] = 0x90;  // sections byte: unknown high bits
  EXPECT_FALSE(decode_fetch_response(frame).has_value());
}

TEST(Protocol, FetchResponseFullRoundTrip) {
  FetchResponse response;
  response.request_id = 9;
  response.sections = kSectionAll;
  response.load_percent = 25;
  response.device = sample_device(1);
  response.prototypes = {Technology::kBluetooth, Technology::kWlan};
  response.services = {{"svc-a", "", 10}, {"svc-b", "hidden", 11}};

  NeighbourSnapshotEntry entry;
  entry.device = sample_device(2);
  entry.prototypes = {Technology::kGprs};
  entry.services = {{"remote", "attr", 5}};
  entry.jump = 2;
  entry.bridge = MacAddress::from_index(7);
  entry.quality_sum = 480;
  entry.min_link_quality = 231;
  response.neighbours.push_back(entry);

  const auto decoded = decode_fetch_response(encode(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_id, 9u);
  EXPECT_EQ(decoded->load_percent, 25);
  EXPECT_EQ(decoded->device, response.device);
  EXPECT_EQ(decoded->prototypes, response.prototypes);
  EXPECT_EQ(decoded->services, response.services);
  ASSERT_EQ(decoded->neighbours.size(), 1u);
  const NeighbourSnapshotEntry& back = decoded->neighbours[0];
  EXPECT_EQ(back.device, entry.device);
  EXPECT_EQ(back.jump, 2);
  EXPECT_EQ(back.bridge, entry.bridge);
  EXPECT_EQ(back.quality_sum, 480);
  EXPECT_EQ(back.min_link_quality, 231);
}

TEST(Protocol, FetchResponsePartialSections) {
  FetchResponse response;
  response.request_id = 4;
  response.sections = kSectionServices;
  response.services = {{"only-services", "", 1}};
  const auto decoded = decode_fetch_response(encode(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->neighbours.empty());
  EXPECT_TRUE(decoded->device.mac.is_null());
  ASSERT_EQ(decoded->services.size(), 1u);
}

TEST(Protocol, ConnectRoundTripWithoutParams) {
  ConnectRequest request;
  request.session_id = 0xABCD;
  request.service = "echo";
  const auto decoded = decode_handshake(encode_connect(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->command, Command::kConnect);
  EXPECT_EQ(decoded->connect.session_id, 0xABCDu);
  EXPECT_EQ(decoded->connect.service, "echo");
  EXPECT_FALSE(decoded->connect.client_params.has_value());
}

TEST(Protocol, ConnectRoundTripWithParams) {
  ConnectRequest request;
  request.session_id = 1;
  request.service = "picture.analyse";
  ClientParams params;
  params.device = sample_device(11);
  params.tech = Technology::kBluetooth;
  params.reconnect_service = "client.result";
  params.port = 8;
  request.client_params = params;
  const auto decoded = decode_handshake(encode_connect(request));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->connect.client_params.has_value());
  EXPECT_EQ(*decoded->connect.client_params, params);
}

TEST(Protocol, ResumeCommand) {
  ConnectRequest request;
  request.session_id = 5;
  request.service = "echo";
  const auto decoded = decode_handshake(encode_resume(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->command, Command::kResume);
}

TEST(Protocol, BridgeRoundTrip) {
  BridgeRequest request;
  request.destination = MacAddress::from_index(66);
  request.final_command = Command::kResume;
  request.inner.session_id = 99;
  request.inner.service = "echo";
  const auto decoded = decode_handshake(encode_bridge(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->command, Command::kBridge);
  EXPECT_EQ(decoded->bridge.destination, request.destination);
  EXPECT_EQ(decoded->bridge.final_command, Command::kResume);
  EXPECT_EQ(decoded->bridge.inner.session_id, 99u);
}

TEST(Protocol, BridgeRejectsBadFinalCommand) {
  BridgeRequest request;
  request.destination = MacAddress::from_index(66);
  request.inner.service = "x";
  Bytes frame = encode_bridge(request);
  // Corrupt the final-command byte (offset: cmd(1) + mac(8)).
  frame[9] = 0x63;
  EXPECT_FALSE(decode_handshake(frame).has_value());
}

TEST(Protocol, OkAndFail) {
  const auto ok = decode_handshake(encode_ok());
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->command, Command::kOk);

  const auto fail =
      decode_handshake(encode_fail(ErrorCode::kNoRoute, "nothing"));
  ASSERT_TRUE(fail.has_value());
  EXPECT_EQ(fail->command, Command::kFail);
  EXPECT_EQ(fail->fail.code, ErrorCode::kNoRoute);
  EXPECT_EQ(fail->fail.message, "nothing");
}

// Every handshake encoder's frame decodes only as a whole: one extra byte
// makes it something other than a handshake.
TEST(Protocol, HandshakeWithTrailingBytesRejected) {
  ConnectRequest request;
  request.session_id = 7;
  request.service = "echo";
  BridgeRequest bridge;
  bridge.destination = MacAddress::from_index(3);
  bridge.inner = request;
  const Bytes frames[] = {encode_connect(request),
                          encode_resume(request),
                          encode_resume_restart(request),
                          encode_bridge(bridge),
                          encode_ok(),
                          encode_fail(ErrorCode::kNoRoute, "nothing")};
  for (const Bytes& frame : frames) {
    ASSERT_TRUE(decode_handshake(frame).has_value());
    Bytes padded = frame;
    padded.push_back(0);
    EXPECT_FALSE(decode_handshake(padded).has_value());
  }
  EXPECT_EQ(encode_ok().size(), 1u);
}

TEST(Protocol, MalformedInputRejected) {
  EXPECT_FALSE(decode_handshake(Bytes{}).has_value());
  EXPECT_FALSE(decode_handshake(Bytes{0x63}).has_value());
  // Truncated connect.
  ConnectRequest request;
  request.service = "abcdef";
  Bytes frame = encode_connect(request);
  frame.resize(frame.size() / 2);
  EXPECT_FALSE(decode_handshake(frame).has_value());
  EXPECT_FALSE(decode_fetch_request(Bytes{1, 2}).has_value());
  EXPECT_FALSE(decode_fetch_response(Bytes{2, 0}).has_value());
}

TEST(Protocol, PeekCommand) {
  EXPECT_EQ(peek_command(encode_ok()), Command::kOk);
  EXPECT_EQ(peek_command(Bytes{}), std::nullopt);
}

TEST(Protocol, FuzzDecodersDoNotCrash) {
  Rng rng{2024};
  for (int i = 0; i < 2000; ++i) {
    Bytes junk(static_cast<std::size_t>(rng.uniform_int(0, 64)), 0);
    for (auto& byte : junk) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    (void)decode_handshake(junk);
    (void)decode_fetch_request(junk);
    (void)decode_fetch_response(junk);
    (void)peek_command(junk);
  }
  SUCCEED();
}

}  // namespace
}  // namespace peerhood::wire
