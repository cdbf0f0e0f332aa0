// Testbed + Node: scenario assembly. A Node composes the full PeerHood
// stack for one simulated device — daemon, library and the hidden bridge
// service (§4: "one hidden bridge service will be included in each PeerHood
// package and executed in the initialization of Daemon"). The Testbed owns
// the simulator, radio medium and network, and provides synchronous-style
// helpers that drive the event loop until an asynchronous operation
// resolves — used heavily by tests, benches and examples.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bridge/bridge_service.hpp"
#include "net/sim_network.hpp"
#include "peerhood/daemon.hpp"
#include "peerhood/library.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"
#include "sim/simulator.hpp"

namespace peerhood::node {

class Testbed;

struct NodeOptions {
  MobilityClass mobility{MobilityClass::kStatic};
  std::vector<Technology> technologies{Technology::kBluetooth};
  // Start the hidden bridge service (relaying capability).
  bool start_bridge{true};
  // Advertise the PeerHood SDP tag (false simulates a non-PeerHood device).
  bool peerhood_capable{true};
  // Overrides applied on top of the defaults; device_name/mobility/
  // technologies fields are filled by the testbed.
  DaemonConfig daemon{};
  bridge::BridgeConfig bridge{};
};

class Node {
 public:
  Node(Testbed& testbed, std::string name, MacAddress mac,
       std::shared_ptr<const sim::MobilityModel> mobility,
       const NodeOptions& options);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] MacAddress mac() const { return daemon_->mac(); }
  [[nodiscard]] Daemon& daemon() { return *daemon_; }
  [[nodiscard]] Library& library() { return *library_; }
  [[nodiscard]] bridge::BridgeService& bridge_service() { return *bridge_; }
  [[nodiscard]] Testbed& testbed() { return testbed_; }

  // Drives the simulator until the connect resolves (or `deadline_s` of
  // simulated time passes).
  [[nodiscard]] Result<ChannelPtr> connect_blocking(
      MacAddress destination, const std::string& service,
      Library::ConnectOptions options = {}, double deadline_s = 180.0);

  // Hard-kills the node's stack: the bridge service drops every relayed
  // pair, the daemon loses all volatile state (Daemon::crash), and the node
  // vanishes from the radio medium until restart(). The SessionStore journal
  // survives in place.
  void crash();
  // Brings a crashed (or stopped) node back: fresh daemon epoch, plugins and
  // engine listening again, bridge relaying again if it was configured to.
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }

 private:
  Testbed& testbed_;
  std::string name_;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<Library> library_;
  std::unique_ptr<bridge::BridgeService> bridge_;
  // Whether restart() should bring the bridge service back up.
  bool bridge_configured_{false};
  bool crashed_{false};
};

class Testbed {
 public:
  explicit Testbed(std::uint64_t seed,
                   sim::LinkQualityModel quality_model = {});

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] sim::RadioMedium& medium() { return medium_; }
  [[nodiscard]] net::SimNetwork& network() { return network_; }

  // Adds a stationary node at `position`.
  Node& add_node(const std::string& name, sim::Vec2 position,
                 NodeOptions options = {});
  // Adds a node with an arbitrary mobility model (mobile devices).
  Node& add_mobile_node(const std::string& name,
                        std::shared_ptr<const sim::MobilityModel> mobility,
                        NodeOptions options = {});

  [[nodiscard]] Node& node(const std::string& name);
  [[nodiscard]] std::vector<Node*> nodes();
  [[nodiscard]] std::vector<MacAddress> macs() const;

  // Advances simulated time.
  void run_for(double seconds_);
  // Runs `rounds` full discovery cycles of the slowest configured
  // technology — long enough for one more hop of awareness per round.
  void run_discovery_rounds(int rounds);

 private:
  sim::Simulator sim_;
  sim::RadioMedium medium_;
  net::SimNetwork network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::uint64_t next_mac_index_{1};
};

}  // namespace peerhood::node
