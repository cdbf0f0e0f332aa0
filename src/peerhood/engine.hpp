// Engine — the PeerHood class "continuously listening for possible
// connections in different network technologies" (§4.1). On accept it reads
// the first frame to identify the connection intention — new connection,
// bridge connection or connection re-establish — and dispatches accordingly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/handler_slot.hpp"
#include "net/network.hpp"
#include "peerhood/channel.hpp"
#include "peerhood/protocol.hpp"
#include "peerhood/session_store.hpp"

namespace peerhood {

class Engine {
 public:
  // Application callback for a newly accepted service connection.
  using ServiceHandler =
      std::function<void(ChannelPtr, const wire::ConnectRequest&)>;
  // Bridge-service callback for PH_BRIDGE requests (wired by BridgeService).
  using BridgeHandler =
      std::function<void(net::ConnectionPtr, wire::BridgeRequest)>;

  struct Stats {
    std::uint64_t accepted{0};
    std::uint64_t connects{0};
    std::uint64_t resumes{0};
    // kResumeRestart resumes honoured from the SessionStore journal after a
    // crash wiped the live session map.
    std::uint64_t restart_resumes{0};
    std::uint64_t bridges{0};
    std::uint64_t rejected{0};
  };

  Engine(net::Network& network, MacAddress mac);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  void start(const std::vector<Technology>& technologies);
  void stop();

  void set_service_handler(std::string service_name, ServiceHandler handler);
  void remove_service_handler(const std::string& service_name);

  void set_bridge_handler(BridgeHandler handler);

  // Session registry used by PH_RESUME to substitute connections of live
  // sessions. Sessions are held weakly: a dropped server channel expires.
  // Expired entries are swept once the map reaches a high-water mark, so a
  // long-lived engine does not keep every dead channel's allocation.
  void register_session(const ChannelPtr& channel);
  void unregister_session(std::uint64_t session_id);
  // Pure lookup — never mutates the registry. Returns nullptr for unknown or
  // expired sessions; callers that observe expiry erase it explicitly via
  // prune_session.
  [[nodiscard]] ChannelPtr find_session(std::uint64_t session_id) const;
  // Erases the entry for `session_id` if its channel has expired; returns
  // true when an expired entry was removed. Live sessions are left intact.
  bool prune_session(std::uint64_t session_id);
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  // Crash support: the live session map is volatile state and dies with the
  // process (stop() deliberately keeps it — a plain stop/start cycle is not
  // a crash).
  void clear_sessions() { sessions_.clear(); }

  // The daemon's crash-survivable resume journal; consulted by the
  // kResumeRestart handshake. May stay null (engines used standalone in
  // tests), in which case kResumeRestart degrades to kUnknownSession.
  void set_session_store(SessionStore* store) { session_store_ = store; }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] MacAddress mac() const { return mac_; }

 private:
  void on_accept(net::ConnectionPtr connection);
  void handle_handshake(net::ConnectionPtr connection, const Bytes& frame);

  net::Network& network_;
  MacAddress mac_;
  std::vector<Technology> listening_;
  std::map<std::string, ServiceHandler> service_handlers_;
  HandlerSlot<void(net::ConnectionPtr, wire::BridgeRequest)> bridge_slot_;
  // Accepted connections awaiting their first (handshake) frame.
  std::map<std::uint64_t, net::ConnectionPtr> pending_;
  std::map<std::uint64_t, std::weak_ptr<Channel>> sessions_;
  std::size_t session_sweep_limit_{kSessionMinSweep};
  static constexpr std::size_t kSessionMinSweep = 64;
  SessionStore* session_store_{nullptr};
  Stats stats_;
};

}  // namespace peerhood
