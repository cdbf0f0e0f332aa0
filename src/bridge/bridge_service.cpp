#include "bridge/bridge_service.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"
#include "peerhood/dial.hpp"

namespace peerhood::bridge {
namespace {

// Deadline for one downstream dial: connect, forward the bridge frame and
// receive the chain acknowledgement.
constexpr SimDuration kDownstreamTimeout = std::chrono::seconds{45};

}  // namespace

BridgeService::BridgeService(Daemon& daemon, Library& library,
                             BridgeConfig config)
    : daemon_{daemon}, library_{library}, config_{config} {}

BridgeService::~BridgeService() { stop(); }

void BridgeService::start() {
  if (running_) return;
  running_ = true;
  (void)daemon_.register_service(
      ServiceInfo{kBridgeServiceName, kHiddenAttribute, 0});
  daemon_.engine().set_bridge_handler(
      [this](net::ConnectionPtr upstream, wire::BridgeRequest request) {
        on_bridge_request(std::move(upstream), std::move(request));
      });
}

void BridgeService::stop() {
  if (!running_) return;
  running_ = false;
  daemon_.engine().set_bridge_handler(nullptr);
  daemon_.unregister_service(kBridgeServiceName);
  for (const auto& conn : connections_) {
    if (conn != nullptr) {
      conn->set_data_handler(nullptr);
      conn->set_close_handler(nullptr);
      conn->close();
    }
  }
  connections_.clear();
  update_load();
}

int BridgeService::active_pairs() const {
  return static_cast<int>(connections_.size() / 2);
}

void BridgeService::update_load() {
  const double max = std::max(config_.max_connections, 1);
  daemon_.set_load_fraction(active_pairs() / max);
}

void BridgeService::on_bridge_request(net::ConnectionPtr upstream,
                                      wire::BridgeRequest request) {
  ++stats_.requests;
  if (active_pairs() >= config_.max_connections) {
    ++stats_.failed_capacity;
    (void)upstream->write(wire::encode_fail(ErrorCode::kCapacityExceeded,
                                            "bridge at maximum connections"));
    upstream->close();
    return;
  }
  establish_downstream(std::move(upstream), std::move(request),
                       1 + config_.connect_retries);
}

void BridgeService::establish_downstream(net::ConnectionPtr upstream,
                                         wire::BridgeRequest request,
                                         int attempts_left) {
  // Next-hop selection from the bridge's own storage (§4.1).
  const auto record = daemon_.storage().find(request.destination);
  if (!record.has_value()) {
    ++stats_.failed_no_route;
    (void)upstream->write(wire::encode_fail(
        ErrorCode::kNoRoute,
        "bridge has no route to " + request.destination.to_string()));
    upstream->close();
    return;
  }

  Bytes forward_frame;
  net::NetAddress hop;
  if (record->is_direct()) {
    hop = net::NetAddress{request.destination, record->via_tech,
                          net::kPeerHoodEnginePort};
    switch (request.final_command) {
      case wire::Command::kResume:
        forward_frame = wire::encode_resume(request.inner);
        break;
      case wire::Command::kResumeRestart:
        forward_frame = wire::encode_resume_restart(request.inner);
        break;
      default:
        forward_frame = wire::encode_connect(request.inner);
        break;
    }
  } else {
    hop = net::NetAddress{record->bridge, record->via_tech,
                          net::kPeerHoodEnginePort};
    forward_frame = wire::encode_bridge(request);
  }

  // The downstream chaining is exactly a dial: connect, forward the bridge
  // frame, await the chain acknowledgement. Every completion below captures
  // `this`; the token turns a late resolution (after stop()/destruction)
  // into a polite teardown of both ends.
  auto retry_or_fail = [this, token = sentinel_.token(), upstream, request,
                        attempts_left](const Error& error) {
    if (token.expired()) {
      upstream->close();
      return;
    }
    if (attempts_left > 1 && running_) {
      ++stats_.retries;
      establish_downstream(upstream, request, attempts_left - 1);
      return;
    }
    ++stats_.failed_downstream;
    (void)upstream->write(wire::encode_fail(error.code, error.message));
    upstream->close();
  };

  dial_with_ack(
      daemon_.network(), daemon_.mac(), hop, std::move(forward_frame),
      kDownstreamTimeout,
      [this, token = sentinel_.token(), upstream,
       retry_or_fail](Result<net::ConnectionPtr> result) {
        if (!result.ok()) {
          retry_or_fail(result.error());
          return;
        }
        net::ConnectionPtr downstream = std::move(result).value();
        if (token.expired()) {
          // Chain came up just as the bridge died: tear it down.
          downstream->close();
          upstream->close();
          return;
        }
        // Chain is up: acknowledge upstream and start relaying.
        (void)upstream->write(wire::encode_ok());
        ++stats_.established;
        pair_up(upstream, std::move(downstream));
      });
}

void BridgeService::pair_up(net::ConnectionPtr upstream,
                            net::ConnectionPtr downstream) {
  // Even = incoming side, odd = outgoing side (§4.2).
  connections_.push_back(upstream);
  connections_.push_back(downstream);
  update_load();

  auto relay = [this](const net::ConnectionPtr& from,
                      const net::ConnectionPtr& to) {
    // The partner is captured weakly: `connections_` holds the only strong
    // references, so a relayed pair never keeps itself alive through its
    // own handlers (the upstream↔downstream handler cycle of old).
    from->set_data_handler(
        [this, partner = std::weak_ptr<net::Connection>{to}](
            const Bytes& frame) {
          const auto to = partner.lock();
          if (to == nullptr) return;  // pair already torn down
          ++stats_.relayed_frames;
          stats_.relayed_bytes += frame.size();
          // "Every traffic data it receives will be sent directly to the
          // destination" — the bridge does not interpret the payload.
          (void)to->write(frame);
        });
    from->set_close_handler([this, id = from->id()] { unpair(id); });
  };
  relay(upstream, downstream);
  relay(downstream, upstream);
}

void BridgeService::unpair(std::uint64_t conn_id) {
  const auto it = std::find_if(
      connections_.begin(), connections_.end(),
      [conn_id](const net::ConnectionPtr& c) {
        return c != nullptr && c->id() == conn_id;
      });
  if (it == connections_.end()) return;
  const std::size_t index = static_cast<std::size_t>(it - connections_.begin());
  const std::size_t even = index - (index % 2);
  assert(even + 1 < connections_.size());
  // Disconnection propagates to the partner; both leave the list (§4.2:
  // "corresponding connections are disconnected and erased").
  for (const std::size_t i : {even, even + 1}) {
    const net::ConnectionPtr& conn = connections_[i];
    if (conn != nullptr) {
      conn->set_data_handler(nullptr);
      conn->set_close_handler(nullptr);
      conn->close();
    }
  }
  connections_.erase(connections_.begin() + static_cast<long>(even),
                     connections_.begin() + static_cast<long>(even) + 2);
  ++stats_.closed_pairs;
  update_load();
}

}  // namespace peerhood::bridge
