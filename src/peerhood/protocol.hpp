// PeerHood wire protocol.
//
// Two planes, mirroring the paper:
//  * Discovery datagrams — the short information-fetch exchanges of the
//    inquiry thread (Fig. 3.7: device / prototype / service / neighbourhood
//    information), carrying the responder's DeviceStorage snapshot.
//  * Connection handshakes — the first frame on a new connection identifies
//    the intention ("new connection, bridge connection or connection
//    re-establish", §4.1): PH_CONNECT, PH_BRIDGE (+ destination address and
//    service name, Fig. 4.3) or PH_RESUME, answered by PH_OK / PH_FAIL.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/mac_address.hpp"
#include "common/result.hpp"
#include "discovery/analyzer.hpp"
#include "discovery/device.hpp"

namespace peerhood::wire {

// ---------------------------------------------------------------------------
// Commands (first byte of a message in either plane).
enum class Command : std::uint8_t {
  kFetchRequest = 1,
  kFetchResponse = 2,
  kNotModified = 3,  // conditional fetch: nothing changed since the baseline
  kConnect = 10,     // PH_CONNECT
  kBridge = 11,      // PH_BRIDGE
  kResume = 12,      // connection re-establish
  kOk = 13,          // PH_OK
  kFail = 14,        // PH_FAIL
  // Connection re-establish against a *restarted* daemon: the responder lost
  // its in-memory sessions, but its SessionStore journal may still hold the
  // resume frontier. Sent by clients after a kResume was refused with
  // kUnknownSession (or after spotting a fresh epoch on re-fetch).
  kResumeRestart = 15,
};

// Sections of a fetch request/response; the paper issues four short
// connections (Fig. 3.7) or one unified connection (§3.4.1 suggestion).
enum Section : std::uint8_t {
  kSectionDevice = 1,
  kSectionPrototypes = 2,
  kSectionServices = 4,
  kSectionNeighbours = 8,
  kSectionAll = 15,
};

// ---------------------------------------------------------------------------
// Discovery plane.
//
// Versioned conditional fetch: the responder stamps every snapshot section
// with a generation counter and its whole state with a per-start epoch. A
// requester that has fetched before sends the versions it holds (the
// baseline); the responder answers kNotModified when nothing moved, or a
// delta response carrying only the sections whose generation differs.
// Generations are compared for *equality only* — wraparound and regression
// are simply "different", so a u32 counter is safe — and an epoch mismatch
// (responder restarted) always forces a full response.

// Per-section generation counters, one per Section bit.
struct SectionGens {
  std::uint32_t device{0};
  std::uint32_t prototypes{0};
  std::uint32_t services{0};
  std::uint32_t neighbours{0};

  [[nodiscard]] std::uint32_t& of(std::uint8_t section_bit);
  [[nodiscard]] std::uint32_t of(std::uint8_t section_bit) const;

  friend bool operator==(const SectionGens&, const SectionGens&) = default;
};

// The four section bits in canonical wire order.
inline constexpr std::uint8_t kSectionOrder[4] = {
    kSectionDevice, kSectionPrototypes, kSectionServices, kSectionNeighbours};

// The requester's last-seen versions of the responder's state.
struct FetchBaseline {
  std::uint64_t epoch{0};
  SectionGens gens;

  friend bool operator==(const FetchBaseline&, const FetchBaseline&) = default;
};

struct FetchRequest {
  std::uint32_t request_id{0};
  std::uint8_t sections{kSectionAll};
  // Present iff the requester holds versions for every requested section.
  std::optional<FetchBaseline> baseline;
};

// Cached response frames are shared verbatim between requesters, so they
// cannot echo a per-request id; they carry kSharedRequestId instead and the
// requester matches them by peer address. Requesters mint ids from 1.
inline constexpr std::uint32_t kSharedRequestId = 0;

struct FetchResponse {
  std::uint32_t request_id{0};
  // Sections present in *this* message. For a delta response this is the
  // subset of requested sections whose generation moved; absent requested
  // sections are unchanged and the requester keeps its view of them.
  std::uint8_t sections{0};
  // Responder's bridge occupancy percentage (0-100); used by the optional
  // load-derating of advertised link quality (§4: "bottle neck" avoidance).
  std::uint8_t load_percent{0};
  std::uint64_t epoch{0};
  // Generations of the present sections (others are meaningless).
  SectionGens gens;
  // Set when the frame was a kNotModified reply (not a wire field of
  // kFetchResponse; decode_fetch_response accepts both commands).
  bool not_modified{false};
  // Client-side annotation (never on the wire): the responder's epoch differs
  // from the epoch of the view this response was requested against — the
  // responder restarted mid-conversation, so any delta assembled so far is
  // relative to state that no longer exists.
  bool epoch_changed{false};
  DeviceInfo device;
  std::vector<Technology> prototypes;
  std::vector<ServiceInfo> services;
  std::vector<NeighbourSnapshotEntry> neighbours;
};

[[nodiscard]] Bytes encode(const FetchRequest& request);
[[nodiscard]] Bytes encode(const FetchResponse& response);
// As encode(), but appends to `writer` (lets callers prepend framing bytes
// without a copy; the snapshot cache bakes the net-layer datagram tag in).
void encode_into(ByteWriter& writer, const FetchRequest& request);
void encode_into(ByteWriter& writer, const FetchResponse& response);

// ---------------------------------------------------------------------------
// Connection plane.

// Reconnection parameters a client may push at connection start so that the
// server can call back after processing (§5.3 Method 2: "prototype, Pid
// number, service name, checksum, device name and port number are sent in
// the beginning of the connection").
struct ClientParams {
  DeviceInfo device;
  Technology tech{Technology::kBluetooth};
  std::string reconnect_service;
  std::uint16_t port{0};

  friend bool operator==(const ClientParams&, const ClientParams&) = default;
};

struct ConnectRequest {
  std::uint64_t session_id{0};
  std::string service;
  std::optional<ClientParams> client_params;
};

struct BridgeRequest {
  MacAddress destination;
  // What the last bridge sends to the final device: a fresh PH_CONNECT or a
  // PH_RESUME that substitutes an existing session.
  Command final_command{Command::kConnect};
  ConnectRequest inner;
};

struct FailInfo {
  ErrorCode code{ErrorCode::kConnectionFailed};
  std::string message;
};

// A decoded first-frame handshake or control response.
struct Handshake {
  Command command{Command::kOk};
  ConnectRequest connect;  // valid for kConnect / kResume / kResumeRestart
  BridgeRequest bridge;    // valid for kBridge
  FailInfo fail;           // valid for kFail
};

[[nodiscard]] Bytes encode_connect(const ConnectRequest& request);
[[nodiscard]] Bytes encode_resume(const ConnectRequest& request);
[[nodiscard]] Bytes encode_resume_restart(const ConnectRequest& request);
[[nodiscard]] Bytes encode_bridge(const BridgeRequest& request);
[[nodiscard]] Bytes encode_ok();
[[nodiscard]] Bytes encode_fail(ErrorCode code, std::string_view message);

// Decoders return nullopt on malformed input (remote peers are untrusted).
// They take spans so datagram dispatch can hand out views into the received
// frame without copying it into a fresh Bytes first. decode_handshake also
// rejects a frame with bytes left after the message, so PH_OK is exactly the
// one byte encode_ok() writes.
[[nodiscard]] std::optional<Handshake> decode_handshake(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<FetchRequest> decode_fetch_request(
    std::span<const std::uint8_t> payload);
// Decodes kFetchResponse and kNotModified frames (the latter yields
// not_modified == true and no sections).
[[nodiscard]] std::optional<FetchResponse> decode_fetch_response(
    std::span<const std::uint8_t> payload);
// Peeks the command byte of a datagram payload.
[[nodiscard]] std::optional<Command> peek_command(
    std::span<const std::uint8_t> payload);

// Shared sub-encoders (exposed for tests).
void encode_device(ByteWriter& writer, const DeviceInfo& device);
[[nodiscard]] DeviceInfo decode_device(ByteReader& reader);
void encode_service(ByteWriter& writer, const ServiceInfo& service);
[[nodiscard]] ServiceInfo decode_service(ByteReader& reader);

}  // namespace peerhood::wire
