// PosixNetwork unit tests: two real-socket backends in one process, each on
// kernel-assigned loopback ports, pumped alternately. Everything here runs
// against real file descriptors — timings use generous wall deadlines and
// assert on completion, not latency.
#include "net/posix_network.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "net/stream_framer.hpp"

namespace peerhood::net {
namespace {

constexpr auto kBluetooth = Technology::kBluetooth;

PosixConfig fast_config(std::uint64_t index) {
  PosixConfig config;
  config.mac = MacAddress::from_index(index);
  config.seed = index;
  // Keep retries snappy so failure-path tests finish in milliseconds.
  config.connect_timeout = milliseconds(200);
  config.connect_attempts = 2;
  config.connect_backoff_base = milliseconds(5);
  config.connect_backoff_cap = milliseconds(20);
  return config;
}

// Introduces two networks to each other after their ports are known.
void introduce(PosixNetwork& a, PosixNetwork& b) {
  a.add_peer({b.mac(), "127.0.0.1", b.udp_port(), b.tcp_port()});
  b.add_peer({a.mac(), "127.0.0.1", a.udp_port(), a.tcp_port()});
}

// Pumps both event cores until `done` or a wall-clock deadline.
[[nodiscard]] bool pump_until(PosixNetwork& a, PosixNetwork& b,
                              const std::function<bool()>& done,
                              int deadline_ms = 3000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    a.poll_once(milliseconds(2));
    b.poll_once(milliseconds(2));
  }
  return done();
}

class PosixNetworkTest : public ::testing::Test {
 protected:
  PosixNetworkTest()
      : a_{std::make_unique<PosixNetwork>(fast_config(1))},
        b_{std::make_unique<PosixNetwork>(fast_config(2))} {
    introduce(*a_, *b_);
    a_->attach_interface(a_->mac(), kBluetooth, nullptr);
    b_->attach_interface(b_->mac(), kBluetooth, nullptr);
  }

  std::unique_ptr<PosixNetwork> a_;
  std::unique_ptr<PosixNetwork> b_;
};

TEST_F(PosixNetworkTest, DatagramRoundtrip) {
  std::optional<Bytes> received;
  MacAddress from;
  b_->set_datagram_handler(
      b_->mac(), kBluetooth,
      [&](MacAddress sender, std::span<const std::uint8_t> payload) {
        from = sender;
        received = Bytes{payload.begin(), payload.end()};
      });
  const Bytes payload{1, 2, 3, 250};
  a_->send_datagram(a_->mac(), b_->mac(), kBluetooth, payload);
  ASSERT_TRUE(pump_until(*a_, *b_, [&] { return received.has_value(); }));
  EXPECT_EQ(*received, payload);
  EXPECT_EQ(from, a_->mac());
  EXPECT_GE(b_->net_stats().frames_checked, 1u);
  EXPECT_EQ(b_->net_stats().corrupt_drops, 0u);
}

TEST_F(PosixNetworkTest, ConnectAcceptDataBothWaysAndClose) {
  const NetAddress addr{b_->mac(), kBluetooth, 42};
  ConnectionPtr server;
  ASSERT_TRUE(
      b_->listen(addr, [&](ConnectionPtr c) { server = std::move(c); }).ok());

  ConnectionPtr client;
  bool failed = false;
  a_->connect(a_->mac(), addr, [&](Result<ConnectionPtr> result) {
    if (result.ok()) {
      client = std::move(result).value();
    } else {
      failed = true;
    }
  });
  ASSERT_TRUE(pump_until(*a_, *b_,
                         [&] { return (client && server) || failed; }));
  ASSERT_FALSE(failed);
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(client->id(), server->id());
  EXPECT_EQ(client->remote_address(), addr);
  EXPECT_EQ(server->remote_address().mac, a_->mac());
  EXPECT_EQ(a_->live_connection_count(), 1u);
  EXPECT_EQ(b_->live_connection_count(), 1u);

  // Data both directions, via handler on one end and poll_frame on the other.
  std::vector<Bytes> at_server;
  server->set_data_handler([&](const Bytes& f) { at_server.push_back(f); });
  ASSERT_TRUE(client->write(Bytes{10, 20}).ok());
  ASSERT_TRUE(client->write(Bytes{30}).ok());
  ASSERT_TRUE(server->write(Bytes{99}).ok());
  ASSERT_TRUE(pump_until(*a_, *b_, [&] {
    return at_server.size() == 2 && client->poll_frame().has_value();
  }));
  EXPECT_EQ(at_server[0], (Bytes{10, 20}));
  EXPECT_EQ(at_server[1], (Bytes{30}));

  // Local close surfaces at the peer as a close event.
  bool server_closed = false;
  server->set_close_handler([&] { server_closed = true; });
  client->close();
  EXPECT_FALSE(client->open());
  ASSERT_TRUE(pump_until(*a_, *b_, [&] { return server_closed; }));
  EXPECT_TRUE(pump_until(*a_, *b_, [&] {
    return a_->live_connection_count() == 0 &&
           b_->live_connection_count() == 0;
  }));
}

TEST_F(PosixNetworkTest, ConnectToUnboundLogicalPortFails) {
  // TCP reaches b_, but nothing listens on the logical address: the hello is
  // rejected and the connect handler sees kConnectionFailed — the same
  // contract SimNetwork honours for missing listeners.
  std::optional<Error> error;
  a_->connect(a_->mac(), NetAddress{b_->mac(), kBluetooth, 777},
              [&](Result<ConnectionPtr> result) {
                ASSERT_FALSE(result.ok());
                error = result.error();
              });
  ASSERT_TRUE(pump_until(*a_, *b_, [&] { return error.has_value(); }));
  EXPECT_EQ(error->code, ErrorCode::kConnectionFailed);
  EXPECT_EQ(a_->live_connection_count(), 0u);
  EXPECT_EQ(b_->live_connection_count(), 0u);
}

TEST_F(PosixNetworkTest, ConnectToDeadProcessRetriesThenFails) {
  // A peer whose ports point at nothing (its process "crashed"): every TCP
  // connect is refused, retries pay backoff and are counted, the handler
  // fires exactly once with an error.
  const MacAddress ghost = MacAddress::from_index(9);
  // Grab a port that is certainly closed: bind, read it back, close.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);
  a_->add_peer({ghost, "127.0.0.1", dead_port, dead_port});

  int failures = 0;
  a_->connect(a_->mac(), NetAddress{ghost, kBluetooth, 1},
              [&](Result<ConnectionPtr> result) {
                EXPECT_FALSE(result.ok());
                ++failures;
              });
  ASSERT_TRUE(pump_until(*a_, *b_, [&] { return failures > 0; }));
  EXPECT_EQ(failures, 1);
  EXPECT_GE(a_->net_stats().reconnect_attempts, 1u);
}

// A raw loopback TCP listener on a kernel-assigned port. The kernel
// completes the TCP handshake on its own, so a PeerHood connect gets as far
// as sending its hello and then waits on whatever the test does (or not).
struct RawListener {
  RawListener() {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd < 0 ||
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 8) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return;
    }
    port = ntohs(addr.sin_port);
  }
  ~RawListener() {
    if (fd >= 0) ::close(fd);
  }
  RawListener(const RawListener&) = delete;
  RawListener& operator=(const RawListener&) = delete;

  int fd{-1};
  std::uint16_t port{0};
};

TEST_F(PosixNetworkTest, UnansweredHelloTimesOutAfterEveryAttempt) {
  // The listener never accepts, so no hello ack ever comes: every attempt
  // runs into its deadline, retries are counted, and the handler fires once
  // with the timeout reason.
  RawListener silent;
  ASSERT_NE(silent.port, 0);
  PosixConfig config = fast_config(3);
  config.connect_timeout = milliseconds(30);
  config.connect_attempts = 3;
  PosixNetwork a{config};
  a.attach_interface(a.mac(), kBluetooth, nullptr);
  const MacAddress mute = MacAddress::from_index(9);
  a.add_peer({mute, "127.0.0.1", silent.port, silent.port});

  int failures = 0;
  std::optional<Error> error;
  a.connect(a.mac(), NetAddress{mute, kBluetooth, 1},
            [&](Result<ConnectionPtr> result) {
              ++failures;
              if (!result.ok()) error = result.error();
            });
  ASSERT_TRUE(pump_until(a, *b_, [&] { return failures > 0; }));
  EXPECT_EQ(failures, 1);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kConnectionFailed);
  EXPECT_EQ(error->message, "connect timed out");
  EXPECT_EQ(a.net_stats().reconnect_attempts,
            static_cast<std::uint64_t>(config.connect_attempts - 1));
  // Nothing fires after the failure.
  ASSERT_FALSE(pump_until(a, *b_, [&] { return failures > 1; }, 100));
}

TEST_F(PosixNetworkTest, PeerClosingDuringHandshakeFailsWithoutRetry) {
  // The listener accepts, reads the hello and closes: the connect fails at
  // once, with no retry.
  RawListener closer;
  ASSERT_NE(closer.port, 0);
  const MacAddress rude = MacAddress::from_index(9);
  a_->add_peer({rude, "127.0.0.1", closer.port, closer.port});

  int failures = 0;
  std::optional<Error> error;
  a_->connect(a_->mac(), NetAddress{rude, kBluetooth, 1},
              [&](Result<ConnectionPtr> result) {
                ++failures;
                if (!result.ok()) error = result.error();
              });
  int accepted = -1;
  ASSERT_TRUE(pump_until(*a_, *b_, [&] {
    if (accepted < 0) accepted = ::accept(closer.fd, nullptr, nullptr);
    if (accepted < 0) return false;
    // Read the hello first so the close is a clean FIN, not a reset.
    std::uint8_t buffer[256];
    return ::recv(accepted, buffer, sizeof(buffer), MSG_DONTWAIT) > 0;
  }));
  ::close(accepted);
  ASSERT_TRUE(pump_until(*a_, *b_, [&] { return failures > 0; }));
  EXPECT_EQ(failures, 1);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kConnectionFailed);
  EXPECT_EQ(error->message, "peer closed during handshake");
  EXPECT_EQ(a_->net_stats().reconnect_attempts, 0u);
}

TEST_F(PosixNetworkTest, DoubleBindIsAddressInUse) {
  const NetAddress addr{b_->mac(), kBluetooth, 5};
  ASSERT_TRUE(b_->listen(addr, [](ConnectionPtr) {}).ok());
  const Status again = b_->listen(addr, [](ConnectionPtr) {});
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, ErrorCode::kAddressInUse);
  // The first listener keeps the address and keeps accepting.
  b_->stop_listening(addr);
  ASSERT_TRUE(b_->listen(addr, [](ConnectionPtr) {}).ok());
}

TEST_F(PosixNetworkTest, InquiryDiscoversAttachedPeer) {
  a_->begin_inquiry(a_->mac(), kBluetooth);
  // Probe + reply need a few pump rounds; close the window once the reply
  // has had time to land.
  std::vector<MacAddress> responders;
  const bool found = pump_until(*a_, *b_, [&] {
    a_->begin_inquiry(a_->mac(), kBluetooth);  // re-open, re-probe
    a_->poll_once(milliseconds(5));
    b_->poll_once(milliseconds(5));
    a_->poll_once(milliseconds(5));
    responders = a_->end_inquiry(a_->mac(), kBluetooth);
    return !responders.empty();
  });
  ASSERT_TRUE(found);
  ASSERT_EQ(responders.size(), 1u);
  EXPECT_EQ(responders[0], b_->mac());
  // The beacon reply carried the PeerHood SDP tag.
  EXPECT_TRUE(a_->peerhood_tag(b_->mac(), kBluetooth));
}

TEST_F(PosixNetworkTest, DetachedPeerStopsAnswering) {
  b_->detach_interface(b_->mac(), kBluetooth);
  a_->begin_inquiry(a_->mac(), kBluetooth);
  const bool answered = pump_until(
      *a_, *b_,
      [&] {
        std::vector<MacAddress> r = a_->end_inquiry(a_->mac(), kBluetooth);
        a_->begin_inquiry(a_->mac(), kBluetooth);
        return !r.empty();
      },
      200);
  EXPECT_FALSE(answered);
  a_->cancel_inquiry(a_->mac(), kBluetooth);
}

TEST_F(PosixNetworkTest, BoundedSendQueueDropsOldest) {
  PosixConfig tiny = fast_config(1);
  tiny.max_send_queue = 4;
  auto a = std::make_unique<PosixNetwork>(tiny);
  a->add_peer({b_->mac(), "127.0.0.1", b_->udp_port(), b_->tcp_port()});
  b_->add_peer({a->mac(), "127.0.0.1", a->udp_port(), a->tcp_port()});
  a->attach_interface(a->mac(), kBluetooth, nullptr);

  const NetAddress addr{b_->mac(), kBluetooth, 7};
  ConnectionPtr server;
  ASSERT_TRUE(
      b_->listen(addr, [&](ConnectionPtr c) { server = std::move(c); }).ok());
  ConnectionPtr client;
  a->connect(a->mac(), addr, [&](Result<ConnectionPtr> result) {
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    client = std::move(result).value();
  });
  ASSERT_TRUE(pump_until(*a, *b_, [&] { return client && server; }));

  // Flood without pumping either side: the kernel socket buffer fills, the
  // userspace queue caps at 4, and the overflow is dropped oldest-first.
  const Bytes big(60000, 0xAB);
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(client->write(big).ok());
  }
  EXPECT_GT(a->net_stats().send_queue_drops, 0u);
  EXPECT_EQ(b_->net_stats().send_queue_drops, 0u);

  // The stream stays framed: the receiver sees only whole 60000-byte frames.
  std::size_t delivered = 0;
  bool bad_frame = false;
  server->set_data_handler([&](const Bytes& f) {
    ++delivered;
    if (f != big) bad_frame = true;
  });
  ASSERT_TRUE(pump_until(*a, *b_, [&] { return delivered >= 4; }));
  EXPECT_FALSE(bad_frame);
  EXPECT_EQ(a->net_stats().corrupt_drops, 0u);
  EXPECT_EQ(b_->net_stats().corrupt_drops, 0u);
}

TEST_F(PosixNetworkTest, GarbageOnTcpSocketPoisonsNotCrashes) {
  // A rogue client speaks raw bytes at the TCP listener. The stream framer
  // latches poisoned, the connection is dropped and counted — the daemon
  // never sees a frame.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(b_->tcp_port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), 0), 0);
  ASSERT_TRUE(pump_until(*a_, *b_, [&] {
    return b_->net_stats().corrupt_drops >= 1;
  }));
  EXPECT_EQ(b_->live_connection_count(), 0u);
  ::close(fd);
}

TEST_F(PosixNetworkTest, QualityPlaneDefaults) {
  // Configured peer: flat healthy quality. Unknown peer: gone.
  EXPECT_GT(a_->sample_quality(a_->mac(), b_->mac(), kBluetooth), 0);
  EXPECT_EQ(
      a_->sample_quality(a_->mac(), MacAddress::from_index(77), kBluetooth),
      0);
  // No geometry: observation is declined, probe carries the flat sample.
  const auto id = a_->observe_quality(a_->mac(), b_->mac(), kBluetooth, {},
                                      [](const sim::LinkQualityEvent&) {});
  EXPECT_EQ(id, sim::kInvalidQualityObserver);
  const sim::LinkQualityEvent probe =
      a_->probe_link(a_->mac(), b_->mac(), kBluetooth);
  EXPECT_GT(probe.quality, 0);
}

// --- StreamFramer unit coverage ---------------------------------------------

TEST(StreamFramerTest, ReassemblesAcrossArbitrarySplits) {
  const Bytes body{0, 1, 2, 3, 200, 201};
  const Bytes wire = encode_stream_frame(body);
  // Feed the same two frames byte by byte.
  StreamFramer framer;
  int frames = 0;
  for (int copy = 0; copy < 2; ++copy) {
    for (const std::uint8_t byte : wire) {
      framer.feed(std::span<const std::uint8_t>{&byte, 1});
      while (const auto out = framer.next()) {
        EXPECT_EQ(*out, body);
        ++frames;
      }
    }
  }
  EXPECT_EQ(frames, 2);
  EXPECT_FALSE(framer.poisoned());
  EXPECT_EQ(framer.buffered(), 0u);
}

TEST(StreamFramerTest, BadMagicLatches) {
  StreamFramer framer;
  const Bytes junk{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0};
  framer.feed(junk);
  EXPECT_FALSE(framer.next().has_value());
  EXPECT_TRUE(framer.poisoned());
  // Even a pristine frame afterwards yields nothing: position is lost.
  framer.feed(encode_stream_frame(Bytes{1}));
  EXPECT_FALSE(framer.next().has_value());
}

TEST(StreamFramerTest, BitFlipInBodyLatches) {
  Bytes wire = encode_stream_frame(Bytes{5, 6, 7});
  wire.back() ^= 0x01;
  StreamFramer framer;
  framer.feed(wire);
  EXPECT_FALSE(framer.next().has_value());
  EXPECT_TRUE(framer.poisoned());
}

}  // namespace
}  // namespace peerhood::net
