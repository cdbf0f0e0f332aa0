// ResultRouter — server-side result routing (§5.3): "the optimal would be
// the server establishes the connection with client after the data
// processing". When the task result is ready and the original channel is
// gone, the server reconnects to the client — possibly through bridge
// nodes — and delivers the result.
//
// Two reconnection methods from the paper:
//  * Method 1 ("client service"): the client registered a visible client
//    service; the server finds the client device in its own storage and
//    connects to that service. Costs an extra advertised service and depends
//    on the discovery process having (re)found the client.
//  * Method 2 ("connection parameters"): the client pushed its reconnection
//    parameters at connection start (wire::ClientParams); the server uses
//    them directly. The paper judges this "the best option".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/handler_slot.hpp"
#include "peerhood/library.hpp"
#include "sim/simulator.hpp"

namespace peerhood::handover {

enum class ReconnectMethod {
  kClientService = 1,  // Method 1
  kClientParams = 2,   // Method 2
};

struct ResultRouterConfig {
  ReconnectMethod method{ReconnectMethod::kClientParams};
  // Reconnect attempts; between attempts the router waits for the discovery
  // process to (re)locate the client (the stale direct record must age out
  // and a bridged route take its place — several inquiry cycles). The wait
  // doubles per attempt from retry_base up to kRetryCap, scaled by
  // uniform(1 ± retry_jitter) so concurrent deliveries to one reappearing
  // client do not reconnect in lock-step.
  int max_attempts{6};
  SimDuration retry_base{std::chrono::seconds{6}};
  double retry_jitter{0.25};
  SimDuration connect_timeout{std::chrono::seconds{60}};
};

class ResultRouter {
 public:
  struct Stats {
    std::uint64_t delivered_live{0};
    std::uint64_t delivered_reconnect{0};
    std::uint64_t attempts{0};
    std::uint64_t failures{0};
  };

  explicit ResultRouter(Library& library, ResultRouterConfig config = {})
      : library_{library}, config_{config} {}

  // Delivers `result` to the client behind `channel`. Writes straight to the
  // channel while it is open; otherwise reconnects per the configured method
  // and sends the result on the new connection.
  void deliver(const ChannelPtr& channel, Bytes result,
               std::function<void(Status)> done);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const ResultRouterConfig& config() const { return config_; }

 private:
  // The retry chain holds the session weakly: a client that released its
  // channel must not be kept alive by a pending delivery, and a destroyed
  // router (token expired) silently abandons its in-flight attempts.
  void reconnect_and_send(std::weak_ptr<Channel> channel, Bytes result,
                          std::function<void(Status)> done, int attempts_left);

  Library& library_;
  ResultRouterConfig config_;
  Stats stats_;
  DestructionSentinel sentinel_;
};

}  // namespace peerhood::handover
