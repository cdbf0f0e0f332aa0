#include "net/sim_network.hpp"

#include <cassert>
#include <utility>

#include "common/handler_slot.hpp"
#include "common/log.hpp"
#include "sim/simulator.hpp"

namespace peerhood::net {
namespace {

// Medium-level frame kinds.
constexpr std::uint8_t kFrameDatagram = SimNetwork::kDatagramFrameTag;
constexpr std::uint8_t kFrameData = 1;
constexpr std::uint8_t kFrameClose = 2;

}  // namespace

// Shared state of one connection: both ends plus the coverage keepalive.
struct SimNetwork::Pair {
  std::uint64_t id{0};
  Technology tech{Technology::kBluetooth};
  NetAddress addr_a;  // initiator side
  NetAddress addr_b;  // acceptor side
  std::weak_ptr<SimConnection> end_a;
  std::weak_ptr<SimConnection> end_b;
  bool open_a{true};
  bool open_b{true};
  bool torn_down{false};
  sim::PeriodicTask keepalive;
};

// One endpoint of a simulated connection.
class SimConnection final : public Connection,
                            public std::enable_shared_from_this<SimConnection> {
 public:
  SimConnection(SimNetwork& net, std::shared_ptr<SimNetwork::Pair> pair,
                bool is_a)
      : net_{net}, pair_{std::move(pair)}, is_a_{is_a} {}

  ~SimConnection() override {
    if (open_) {
      // RAII teardown: dropping the last handle closes this side politely.
      open_ = false;
      close_slot_.sever();
      net_.notify_local_close(*pair_, is_a_);
    }
  }

  Status write(Bytes frame) override {
    if (!open_) {
      return Status{ErrorCode::kConnectionClosed, "write on closed connection"};
    }
    net_.send_conn_frame(pair_->id, local_address().mac,
                         remote_address().mac, pair_->tech, kFrameData,
                         std::move(frame));
    return Status::ok_status();
  }

  void set_data_handler(DataHandler handler) override {
    data_slot_.set(std::move(handler));
    if (!data_slot_.armed() || rx_.empty()) return;
    // Drain buffered frames through the slot. A drained frame's handler may
    // replace itself (fresh handler re-read per frame) or release the last
    // strong reference to this connection — hold a strong self-reference per
    // iteration and re-acquire it through the weak pointer, so the loop
    // never touches a freed object.
    const std::weak_ptr<SimConnection> self = weak_from_this();
    while (const auto strong = self.lock()) {
      if (!strong->data_slot_.armed() || strong->rx_.empty()) break;
      Bytes frame = std::move(strong->rx_.front());
      strong->rx_.pop_front();
      strong->data_slot_.invoke(frame);
    }
  }

  void set_close_handler(CloseHandler handler) override {
    close_slot_.set(std::move(handler));
  }

  std::optional<Bytes> poll_frame() override {
    if (rx_.empty()) return std::nullopt;
    Bytes frame = std::move(rx_.front());
    rx_.pop_front();
    return frame;
  }

  void close() override {
    if (!open_) return;
    open_ = false;
    net_.notify_local_close(*pair_, is_a_);
    release_handlers_deferred();
  }

  [[nodiscard]] bool open() const override { return open_; }

  int link_quality() override {
    if (quality_override_) {
      return quality_override_(net_.simulator().now());
    }
    if (!open_) return 0;
    return net_.medium().sample_quality(local_address().mac,
                                        remote_address().mac, pair_->tech);
  }

  void set_quality_override(QualityOverride override_fn) override {
    quality_override_ = std::move(override_fn);
  }

  [[nodiscard]] NetAddress local_address() const override {
    return is_a_ ? pair_->addr_a : pair_->addr_b;
  }
  [[nodiscard]] NetAddress remote_address() const override {
    return is_a_ ? pair_->addr_b : pair_->addr_a;
  }
  [[nodiscard]] std::uint64_t id() const override { return pair_->id; }

  // --- internal hooks used by SimNetwork -----------------------------------
  void deliver(Bytes payload) {
    if (!open_) return;
    if (data_slot_.armed()) {
      // Slot dispatch copies the handler first: it may replace itself (e.g.
      // the engine's first-frame handshake handler hands the connection to a
      // channel) or release the last reference to this connection.
      data_slot_.invoke(payload);
    } else {
      // Undelivered frames are moved, not copied, into the rx queue.
      rx_.push_back(std::move(payload));
    }
  }

  // Peer closed or coverage lost: mark closed and inform the application.
  // The close handler is consumed, so it fires at most once even when both
  // the peer frame and the keepalive report the same death.
  void force_close() {
    if (!open_) return;
    open_ = false;
    release_handlers_deferred();
    close_slot_.fire_once();
  }

  // Handlers often capture the connection's own shared_ptr (handshake
  // awaiters, relay loops). Clearing them synchronously could destroy the
  // object mid-member-call, so break the cycle on the next event.
  void release_handlers_deferred() {
    const std::weak_ptr<SimConnection> self = weak_from_this();
    net_.simulator().schedule_after(SimDuration{0}, [self] {
      if (const auto strong = self.lock()) strong->clear_handlers();
    });
  }

  // Teardown support (see ~SimNetwork): phase 1 marks the end closed so a
  // later destructor never touches the dying network/medium; phase 2 drops
  // the handlers, breaking handler->channel->connection reference cycles.
  void mark_closed() { open_ = false; }
  void clear_handlers() {
    // Take both handlers out before destroying either: releasing a capture
    // can reentrantly call set_*_handler(nullptr) on this same connection
    // (via ~Channel) or even destroy this connection outright.
    auto data = data_slot_.sever_take();
    auto close_h = close_slot_.sever_take();
    // Locals destroyed here, releasing whatever they captured; no member of
    // *this is touched after this point.
  }

  [[nodiscard]] int override_quality_now() {
    return quality_override_ ? quality_override_(net_.simulator().now()) : -1;
  }
  [[nodiscard]] bool has_quality_override() const {
    return static_cast<bool>(quality_override_);
  }

 private:
  SimNetwork& net_;
  std::shared_ptr<SimNetwork::Pair> pair_;
  bool is_a_;
  bool open_{true};
  HandlerSlot<void(const Bytes&)> data_slot_;
  HandlerSlot<void()> close_slot_;
  QualityOverride quality_override_;
  std::deque<Bytes> rx_;
};

SimNetwork::SimNetwork(sim::RadioMedium& medium) : medium_{medium} {}

SimNetwork::~SimNetwork() {
  // Quiesce every live connection end before the network dies: application
  // code (service-handler lambdas) can hold channels whose connections are
  // only reachable through handler reference cycles; when those cycles are
  // broken below, the resulting destructor runs must not call back into
  // this network or the radio medium.
  std::vector<std::shared_ptr<Pair>> pairs;
  pairs.reserve(pairs_.size());
  for (const auto& [id, pair] : pairs_) pairs.push_back(pair);
  for (const auto& pair : pairs) {
    pair->keepalive.stop();
    pair->torn_down = true;
    for (const auto& end : {pair->end_a.lock(), pair->end_b.lock()}) {
      if (end != nullptr) end->mark_closed();
    }
  }
  for (const auto& pair : pairs) {
    for (const auto& end : {pair->end_a.lock(), pair->end_b.lock()}) {
      if (end != nullptr) end->clear_handlers();
    }
  }
  pairs_.clear();
}

void SimNetwork::attach_interface(
    MacAddress mac, Technology tech,
    std::shared_ptr<const sim::MobilityModel> mobility) {
  interfaces_[iface_key(mac, tech)] = Interface{};
  medium_.register_endpoint(
      mac, tech, std::move(mobility),
      [this, mac, tech](MacAddress from, const Bytes& frame) {
        handle_frame(mac, tech, from, frame);
      });
}

void SimNetwork::detach_interface(MacAddress mac, Technology tech) {
  interfaces_.erase(iface_key(mac, tech));
  medium_.unregister_endpoint(mac, tech);
}

void SimNetwork::set_datagram_handler(MacAddress mac, Technology tech,
                                      DatagramHandler handler) {
  const auto it = interfaces_.find(iface_key(mac, tech));
  assert(it != interfaces_.end());
  it->second.datagram_handler = std::move(handler);
}

void SimNetwork::send_datagram(MacAddress from, MacAddress to, Technology tech,
                               sim::RadioMedium::FramePtr frame) {
  // The sender baked the sealed integrity header + datagram tag in.
  assert(frame != nullptr && frame->size() > kFrameHeaderSize &&
         (*frame)[kFrameHeaderSize] == kDatagramFrameTag);
  medium_.send_frame(from, to, tech, std::move(frame));
}

Status SimNetwork::listen(const NetAddress& address, AcceptHandler handler) {
  // Double-bind is an error, as on real sockets (EADDRINUSE). The silent
  // overwrite this used to do could drop a live engine listener on the floor.
  const auto [it, inserted] =
      listeners_.try_emplace(address, std::move(handler));
  if (!inserted) {
    return Status{ErrorCode::kAddressInUse,
                  "listener already bound at " + address.to_string()};
  }
  return Status::ok_status();
}

void SimNetwork::stop_listening(const NetAddress& address) {
  listeners_.erase(address);
}

void SimNetwork::begin_inquiry(MacAddress mac, Technology tech) {
  // Accounting order matches the pre-interface Plugin code exactly (count,
  // then flip the asymmetry flag) so sim runs stay byte-identical.
  ++medium_.stats().inquiries;
  medium_.set_inquiring(mac, tech, true);
}

std::vector<MacAddress> SimNetwork::end_inquiry(MacAddress mac,
                                                Technology tech) {
  medium_.set_inquiring(mac, tech, false);
  std::vector<MacAddress> responders =
      medium_.discoverable_in_range(mac, tech);
  medium_.stats().inquiry_responses += responders.size();
  return responders;
}

void SimNetwork::cancel_inquiry(MacAddress mac, Technology tech) {
  // Stopped mid-inquiry: leave the medium in a sane state, not forever
  // undiscoverable-by-asymmetry.
  medium_.set_inquiring(mac, tech, false);
}

bool SimNetwork::peerhood_tag(MacAddress mac, Technology tech) const {
  return medium_.peerhood_tag(mac, tech);
}

int SimNetwork::sample_quality(MacAddress local, MacAddress peer,
                               Technology tech) {
  return medium_.sample_quality(local, peer, tech);
}

const sim::TechnologyParams& SimNetwork::params(Technology tech) const {
  return medium_.params(tech);
}

sim::QualityObserverId SimNetwork::observe_quality(
    MacAddress a, MacAddress b, Technology tech,
    sim::QualityObserverConfig config,
    sim::RadioMedium::QualityHandler handler) {
  return medium_.observe_quality(a, b, tech, config, std::move(handler));
}

void SimNetwork::unobserve_quality(sim::QualityObserverId id) {
  medium_.unobserve_quality(id);
}

sim::LinkQualityEvent SimNetwork::probe_link(MacAddress a, MacAddress b,
                                             Technology tech) {
  return medium_.probe_link(a, b, tech);
}

void SimNetwork::connect(MacAddress from_mac, const NetAddress& to,
                         ConnectHandler handler) {
  sim::Simulator& sim = simulator();
  if (from_mac == to.mac) {
    sim.schedule_after(microseconds(1), [handler] {
      handler(Error{ErrorCode::kInvalidArgument, "connect to own interface"});
    });
    return;
  }
  const sim::TechnologyParams& p = medium_.params(to.tech);
  const double delay_s =
      sim.rng().uniform(p.connect_delay_min_s, p.connect_delay_max_s);
  const bool fault = sim.rng().bernoulli(p.connect_failure_prob);
  sim.schedule_after(seconds(delay_s), [this, from_mac, to, handler, fault] {
    if (fault) {
      handler(Error{ErrorCode::kConnectionFailed,
                    "link-layer connection fault"});
      return;
    }
    finish_connect(from_mac, to, handler);
  });
}

void SimNetwork::finish_connect(MacAddress from_mac, NetAddress to,
                                ConnectHandler handler) {
  if (!medium_.in_range(from_mac, to.mac, to.tech)) {
    handler(Error{ErrorCode::kConnectionFailed, "peer out of coverage"});
    return;
  }
  // A scheduled blackout silences the link-layer handshake. Established
  // connections merely stall under a blackout (their frames drop at the
  // medium and retransmission recovers after it lifts), but a new one
  // cannot form across radio silence.
  if (medium_.link_blacked_out(from_mac, to.mac)) {
    handler(Error{ErrorCode::kConnectionFailed, "link blacked out"});
    return;
  }
  const auto listener = listeners_.find(to);
  if (listener == listeners_.end()) {
    handler(Error{ErrorCode::kConnectionFailed,
                  "no listener at " + to.to_string()});
    return;
  }

  auto pair = std::make_shared<Pair>();
  pair->id = next_conn_id_++;
  pair->tech = to.tech;
  pair->addr_a = NetAddress{from_mac, to.tech, 0};
  pair->addr_b = to;
  auto end_a = std::make_shared<SimConnection>(*this, pair, /*is_a=*/true);
  auto end_b = std::make_shared<SimConnection>(*this, pair, /*is_a=*/false);
  pair->end_a = end_a;
  pair->end_b = end_b;
  pairs_[pair->id] = pair;

  const std::uint64_t conn_id = pair->id;
  pair->keepalive.start(simulator(), keepalive_period_,
                        [this, conn_id] { check_keepalive(conn_id); },
                        keepalive_period_);

  // Acceptor first (mirrors listen/accept then connect-return ordering).
  // Copy the accept handler out of the map: it may stop_listening on this
  // very address from inside the callback.
  const AcceptHandler accept = listener->second;
  accept(end_b);
  handler(ConnectionPtr{end_a});
}

void SimNetwork::handle_frame(MacAddress local, Technology tech,
                              MacAddress from, const Bytes& frame) {
  ++stats_.frames_checked;
  const auto body = check_frame(frame);
  if (!body.has_value()) {
    // Truncated or bit-corrupted on the air (sim/fault.hpp): count and drop
    // before any decoder sees the bytes.
    ++stats_.corrupt_drops;
    return;
  }
  if (body->empty()) return;
  const std::uint8_t kind = (*body)[0];
  if (kind == kFrameDatagram) {
    const auto it = interfaces_.find(iface_key(local, tech));
    if (it != interfaces_.end() && it->second.datagram_handler) {
      // Copy the handler before calling: it may detach this very interface
      // (daemon stop from inside a datagram), invalidating the map slot.
      // The payload itself is handed out as a view — no copy.
      const DatagramHandler handler = it->second.datagram_handler;
      handler(from, body->subspan(1));
    }
    return;
  }
  ByteReader reader{body->subspan(1)};
  const std::uint64_t conn_id = reader.u64();
  if (!reader.ok()) return;
  if (kind == kFrameData) {
    Bytes payload;
    payload.assign(body->begin() + 9, body->end());
    on_peer_data(conn_id, local, std::move(payload));
  } else if (kind == kFrameClose) {
    on_peer_close(conn_id, local);
  }
}

void SimNetwork::send_conn_frame(std::uint64_t conn_id, MacAddress from,
                                 MacAddress to, Technology tech,
                                 std::uint8_t kind, Bytes payload) {
  ByteWriter writer;
  writer.reserve(kFrameHeaderSize + 9 + payload.size());
  begin_frame(writer);
  writer.u8(kind);
  writer.u64(conn_id);
  writer.raw(payload);
  Bytes frame = std::move(writer).take();
  seal_frame(frame);
  medium_.send_frame(from, to, tech, std::move(frame));
}

void SimNetwork::on_peer_data(std::uint64_t conn_id, MacAddress receiver,
                              Bytes payload) {
  const auto it = pairs_.find(conn_id);
  if (it == pairs_.end()) return;
  Pair& pair = *it->second;
  const bool to_a = receiver == pair.addr_a.mac;
  auto end = (to_a ? pair.end_a : pair.end_b).lock();
  if (end == nullptr || !end->open()) return;
  end->deliver(std::move(payload));
}

void SimNetwork::on_peer_close(std::uint64_t conn_id, MacAddress receiver) {
  const auto it = pairs_.find(conn_id);
  if (it == pairs_.end()) return;
  Pair& pair = *it->second;
  const bool to_a = receiver == pair.addr_a.mac;
  (to_a ? pair.open_a : pair.open_b) = false;
  if (auto end = (to_a ? pair.end_a : pair.end_b).lock()) {
    end->force_close();
  }
  teardown(pair, /*notify_peers=*/false);
}

void SimNetwork::notify_local_close(Pair& pair, bool is_a) {
  (is_a ? pair.open_a : pair.open_b) = false;
  if (pair.torn_down) return;
  // Tell the peer; a lost frame here is fine — its keepalive/expired-end
  // checks converge to closed anyway.
  const NetAddress& self = is_a ? pair.addr_a : pair.addr_b;
  const NetAddress& peer = is_a ? pair.addr_b : pair.addr_a;
  send_conn_frame(pair.id, self.mac, peer.mac, pair.tech, kFrameClose, {});
  teardown(pair, /*notify_peers=*/false);
}

void SimNetwork::check_keepalive(std::uint64_t conn_id) {
  const auto it = pairs_.find(conn_id);
  if (it == pairs_.end()) return;
  Pair& pair = *it->second;
  auto end_a = pair.end_a.lock();
  auto end_b = pair.end_b.lock();

  bool dead = !medium_.in_range(pair.addr_a.mac, pair.addr_b.mac, pair.tech);
  // An artificial quality override that reaches 0 also kills the link
  // (§5.2.1 decay experiments).
  for (const auto& end : {end_a, end_b}) {
    if (end != nullptr && end->has_quality_override() &&
        end->override_quality_now() <= 0) {
      dead = true;
    }
  }
  // An end whose last handle was dropped behaves as closed.
  if ((pair.open_a && end_a == nullptr) || (pair.open_b && end_b == nullptr)) {
    dead = true;
  }
  if (dead) teardown(pair, /*notify_peers=*/true);
}

void SimNetwork::teardown(Pair& pair, bool notify_peers) {
  if (notify_peers) {
    for (const bool side_a : {true, false}) {
      bool& open_flag = side_a ? pair.open_a : pair.open_b;
      if (!open_flag) continue;
      open_flag = false;
      if (auto end = (side_a ? pair.end_a : pair.end_b).lock()) {
        end->force_close();
      }
    }
  }
  if (pair.open_a || pair.open_b || pair.torn_down) return;
  pair.torn_down = true;
  pair.keepalive.stop();
  // Deferred erase: teardown may run inside the pair's own keepalive tick.
  const std::uint64_t id = pair.id;
  simulator().schedule_after(SimDuration{0}, [this, id] { pairs_.erase(id); });
}

std::size_t SimNetwork::live_connection_count() const {
  std::size_t count = 0;
  for (const auto& [id, pair] : pairs_) {
    if (!pair->torn_down) ++count;
  }
  return count;
}

}  // namespace peerhood::net
