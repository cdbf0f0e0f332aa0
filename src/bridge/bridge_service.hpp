// BridgeService (Ch. 4): the hidden service started with every daemon that
// lets any device relay traffic between nodes that are not in mutual radio
// coverage. Implements the Fig. 4.3 connection process — receive PH_BRIDGE
// with destination address + service name, select the next hop from the
// *bridge's own* storage ("the suitable prototype and route selection of
// next connection will be always carried out by the bridge server and not
// the original device"), chain the connection, propagate the
// acknowledgement, then relay opaque traffic until either side closes.
//
// Connections are kept in one list with the paper's even/odd convention:
// each relayed pair stores its upstream connection at an even index and the
// downstream connection at the following odd index (§4.2).
#pragma once

#include <cstdint>
#include <vector>

#include "common/handler_slot.hpp"
#include "peerhood/daemon.hpp"
#include "peerhood/library.hpp"

namespace peerhood::bridge {

// The hidden service name advertised by bridging-capable daemons.
inline constexpr const char* kBridgeServiceName = "peerhood.bridge";

struct BridgeConfig {
  int max_connections{8};
  // §4.3: "the connection attempt repetition in the Bridge service design
  // would be necessary to guarantee a satisfactory connection".
  int connect_retries{1};
};

class BridgeService {
 public:
  struct Stats {
    std::uint64_t requests{0};
    std::uint64_t established{0};
    std::uint64_t failed_no_route{0};
    std::uint64_t failed_capacity{0};
    std::uint64_t failed_downstream{0};
    std::uint64_t retries{0};
    std::uint64_t relayed_frames{0};
    std::uint64_t relayed_bytes{0};
    std::uint64_t closed_pairs{0};
  };

  BridgeService(Daemon& daemon, Library& library, BridgeConfig config = {});
  ~BridgeService();

  BridgeService(const BridgeService&) = delete;
  BridgeService& operator=(const BridgeService&) = delete;

  // Registers the hidden service and installs the engine PH_BRIDGE handler.
  void start();
  void stop();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] int active_pairs() const;
  [[nodiscard]] const BridgeConfig& config() const { return config_; }

 private:
  void on_bridge_request(net::ConnectionPtr upstream,
                         wire::BridgeRequest request);
  void establish_downstream(net::ConnectionPtr upstream,
                            wire::BridgeRequest request, int attempts_left);
  void pair_up(net::ConnectionPtr upstream, net::ConnectionPtr downstream);
  void unpair(std::uint64_t conn_id);
  void update_load();

  Daemon& daemon_;
  Library& library_;
  BridgeConfig config_;
  // Even index: upstream (incoming); odd index: downstream (outgoing).
  std::vector<net::ConnectionPtr> connections_;
  Stats stats_;
  bool running_{false};
  // Guards the in-flight downstream dials (their completions capture `this`
  // and may resolve after this service stopped or was destroyed).
  DestructionSentinel sentinel_;
};

}  // namespace peerhood::bridge
