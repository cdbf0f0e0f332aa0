#include "handover/handover.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "net/network.hpp"
#include "peerhood/daemon.hpp"

namespace peerhood::handover {

namespace {

// --- Reactive (paper) parameters ---------------------------------------------
// Fig. 5.5: sample link quality once per monitor period and repair after
// more than kLowCountLimit consecutive samples under the threshold, which is
// the same 230 the discovery plane requires of every route link (Fig. 3.9).
constexpr int kQualityThreshold = sim::LinkQualityModel::kDefaultThreshold;
constexpr int kLowCountLimit = 3;
constexpr SimDuration kMonitorPeriod = std::chrono::seconds{1};
// Plan scoring: quality units subtracted per §3.4.3 mobility-cost unit of
// the bridge ({static,hybrid,dynamic} = {0,1,3}). A mobile bridge whose
// own link is about to die with ours (e.g. a fellow group member walking
// the same corridor) must lose to a weaker but static relay even when its
// advertised neighbour qualities are a full inquiry cycle stale — hence a
// penalty larger than the stale-quality spread (~60 units for dynamic).
constexpr int kBridgeMobilityPenalty = 20;
// Deadline of one session resume, via a bridge or directly with the peer.
constexpr SimDuration kResumeTimeout = std::chrono::seconds{30};

// --- Predictive make-before-break layer --------------------------------------
// The observer arms the predictor this many quality units *above* the
// reactive threshold: early warning, so a slow bridge chain can still be
// pre-dialed before the link reaches the edge. The observer's hysteresis
// band and rate limit are the medium's defaults (sim::QualityObserverConfig).
constexpr int kPredictHeadroom = 10;
constexpr int kArmThreshold = kQualityThreshold + kPredictHeadroom;
// Cadence of the armed predictor between crossing events.
constexpr SimDuration kPredictPollPeriod = std::chrono::milliseconds{250};
// Pre-dial when predicted time-to-loss < setup estimate × margin.
constexpr double kSetupMargin = 1.3;

// Score penalty per failed resume attempt through a bridge within the
// current repair episode — larger than any achievable link score, so one
// failure sorts the bridge behind every untried candidate (a crashed relay
// would otherwise win re-planning forever on its stale advertised quality).
constexpr int kBridgeFailurePenalty = 1000;
}  // namespace

HandoverController::HandoverController(Library& library, ChannelPtr channel,
                                       HandoverConfig config)
    : library_{library}, channel_{std::move(channel)}, config_{config} {}

HandoverController::~HandoverController() { stop(); }

void HandoverController::start() {
  state_ = HandoverState::kPrepare;
  refresh_plan();
  state_ = HandoverState::kMonitor;
  if (config_.predictive_enabled) subscribe_link();
  monitor_.start(library_.daemon().simulator(), kMonitorPeriod,
                 [this] { tick(); }, kMonitorPeriod);
}

void HandoverController::stop() {
  monitor_.stop();
  disarm_predictor();
  unsubscribe_link();
}

std::optional<MacAddress> HandoverController::planned_bridge() const {
  if (plan_.empty()) return std::nullopt;
  return plan_.front().bridge;
}

void HandoverController::set_event_handler(EventHandler handler) {
  event_slot_.set(std::move(handler));
}

void HandoverController::set_permission_callback(PermissionCallback callback) {
  permission_ = std::move(callback);
}

bool HandoverController::emit(const HandoverEvent& event) {
  const DestructionSentinel::Token alive = sentinel_.token();
  // Copy-before-call (inside the slot): the handler may stop() this
  // controller, replace itself via set_event_handler, or destroy the
  // controller outright.
  event_slot_.invoke(event);
  return !alive.expired();
}

void HandoverController::refresh_plan() {
  // State 0 (Fig. 5.5): "Get DeviceList; find connected device from the
  // neighbours of each DeviceList element; store the best quality way."
  plan_.clear();
  const MacAddress peer = channel_->peer();
  const MacAddress self = library_.daemon().mac();
  for (const DeviceRecord& record : library_.daemon().storage().snapshot()) {
    if (!record.is_direct() || record.device.mac == peer ||
        record.device.mac == self) {
      continue;
    }
    const auto link = std::find_if(
        record.neighbour_links.begin(), record.neighbour_links.end(),
        [peer](const NeighbourLink& l) { return l.mac == peer; });
    if (link == record.neighbour_links.end()) continue;
    // Route strength = the weakest of self->bridge and bridge->peer, minus
    // the §3.4.3 mobility cost of the bridge: a relay moving with us is
    // likely to lose the peer exactly when we do.
    int score = std::min(record.quality_sum, link->quality) -
                kBridgeMobilityPenalty * mobility_cost(record.device.mobility);
    if (const auto failed = bridge_failures_.find(record.device.mac);
        failed != bridge_failures_.end()) {
      score -= kBridgeFailurePenalty * failed->second;
    }
    plan_.push_back(RouteCandidate{record.device.mac, score});
  }
  // Fallback: the storage's own (possibly multi-hop) route towards the
  // peer — its first hop can relay the resume through the chain, since
  // every bridge re-resolves the next hop from its own storage (Fig. 5.6).
  const auto peer_record = library_.daemon().storage().find(peer);
  if (peer_record.has_value() && !peer_record->is_direct()) {
    const bool already_planned = std::any_of(
        plan_.begin(), plan_.end(), [&](const RouteCandidate& c) {
          return c.bridge == peer_record->bridge;
        });
    if (!already_planned) {
      int score = peer_record->min_link_quality;
      const auto bridge_record =
          library_.daemon().storage().find(peer_record->bridge);
      if (bridge_record.has_value()) {
        score -= kBridgeMobilityPenalty *
                 mobility_cost(bridge_record->device.mobility);
      }
      if (const auto failed = bridge_failures_.find(peer_record->bridge);
          failed != bridge_failures_.end()) {
        score -= kBridgeFailurePenalty * failed->second;
      }
      plan_.push_back(RouteCandidate{peer_record->bridge, score});
    }
  }
  std::sort(plan_.begin(), plan_.end(),
            [](const RouteCandidate& a, const RouteCandidate& b) {
              return a.score > b.score;
            });
}

// --- Predictive layer --------------------------------------------------------

void HandoverController::subscribe_link() {
  unsubscribe_link();
  if (channel_ == nullptr || channel_->connection() == nullptr) return;
  const net::NetAddress local = channel_->connection()->local_address();
  const net::NetAddress remote = channel_->connection()->remote_address();
  sim::QualityObserverConfig config;
  config.threshold = kArmThreshold;
  net::Network& network = library_.daemon().network();
  observer_ = network.observe_quality(
      local.mac, remote.mac, remote.tech, config,
      [this, token = sentinel_.token()](const sim::LinkQualityEvent& event) {
        if (token.expired()) return;
        on_quality_event(event);
      });
  // Backends without a geometry model (real sockets) decline the
  // subscription: the predictor then never arms and the reactive monitor
  // loop owns every repair.
  if (observer_ == sim::kInvalidQualityObserver) return;
  // The observer's edge detector primes silently: if the link is *already*
  // inside the arming band at subscription (connected near the edge, or a
  // post-handover hop that starts degraded), kFell will never fire — arm
  // the predictor directly.
  const sim::LinkQualityEvent probe =
      network.probe_link(local.mac, remote.mac, remote.tech);
  if (probe.quality > 0 && probe.quality < config.threshold && !busy_) {
    arm_predictor();
  }
}

void HandoverController::unsubscribe_link() {
  if (observer_ == sim::kInvalidQualityObserver) return;
  library_.daemon().network().unobserve_quality(observer_);
  observer_ = sim::kInvalidQualityObserver;
}

double HandoverController::setup_estimate_s() const {
  // Worst-case establishment of a §4.1 bridge chain: the PH_OK travels back
  // only after *two* hops re-established (self->bridge, bridge->peer), each
  // paying the per-hop connect delay — the §4.3 measurement this whole
  // plane exists to outrun.
  Technology tech = Technology::kBluetooth;
  if (channel_ != nullptr && channel_->connection() != nullptr) {
    tech = channel_->connection()->remote_address().tech;
  }
  return 2.0 *
         library_.daemon().network().params(tech).connect_delay_max_s;
}

void HandoverController::on_quality_event(const sim::LinkQualityEvent& event) {
  ++stats_.quality_events;
  using Edge = sim::LinkQualityEvent::Edge;
  switch (event.edge) {
    case Edge::kFell:
      // Below threshold: start tracking time-to-loss. The first check runs
      // on this event's own measurements.
      if (!busy_ && channel_ != nullptr && channel_->open()) {
        arm_predictor();
        predict_check();
      }
      break;
    case Edge::kRose:
      disarm_predictor();
      low_count_ = 0;
      break;
    case Edge::kLost:
      // Coverage gone — prediction missed (or never had a mobility signal).
      link_lost_since_dial_ = true;
      disarm_predictor();
      if (!busy_ && channel_ != nullptr && channel_->sending()) {
        ++stats_.degradations;
        if (!emit(HandoverEvent{HandoverEvent::Kind::kDegradationDetected, {},
                                nullptr, "link left coverage"})) {
          return;  // handler destroyed the controller
        }
        execute();
      }
      break;
    case Edge::kRestored:
      break;
  }
}

void HandoverController::arm_predictor() {
  if (predictor_.running()) return;
  predictor_.start(library_.daemon().simulator(), kPredictPollPeriod,
                   [this] { predict_check(); }, kPredictPollPeriod);
}

void HandoverController::disarm_predictor() { predictor_.stop(); }

void HandoverController::predict_check() {
  if (busy_ || channel_ == nullptr || !channel_->open()) {
    disarm_predictor();
    return;
  }
  const net::ConnectionPtr& conn = channel_->connection();
  if (conn == nullptr) return;
  const net::NetAddress local = conn->local_address();
  const net::NetAddress remote = conn->remote_address();
  net::Network& network = library_.daemon().network();
  const sim::LinkQualityEvent probe =
      network.probe_link(local.mac, remote.mac, remote.tech);
  if (probe.quality > kArmThreshold + sim::QualityObserverConfig{}.hysteresis) {
    // Recovered (defensive double-check of the kRose edge).
    disarm_predictor();
    return;
  }
  if (probe.quality == 0) {
    // Already dead at the model level; treat as a missed prediction — the
    // reactive path (kLost event / monitor tick) repairs it.
    return;
  }
  if (probe.radial_speed_mps <= 1e-6) return;  // not separating
  // §5.3: while the application is idle the loss does not matter — keep
  // watching silently (the predictor stays armed so repair resumes the
  // moment the sending flag comes back).
  if (!channel_->sending()) return;
  const double range = network.params(remote.tech).range_m;
  const double time_to_loss =
      (range - probe.distance_m) / probe.radial_speed_mps;
  if (time_to_loss > setup_estimate_s() * kSetupMargin) return;
  // Pre-dialing only makes sense onto a route that does not share the dying
  // first hop: resuming "via" the hop we are already on replaces the
  // connection with an identical path. Terminal loss with no alternative
  // (and §5.2.2 reconnection) stays with the reactive path.
  if (!config_.routing_enabled) return;
  refresh_plan();
  std::erase_if(plan_, [hop = remote.mac](const RouteCandidate& c) {
    return c.bridge == hop;
  });
  if (plan_.empty()) return;  // keep watching; nothing better to dial
  // Make-before-break window open: pre-dial the best bridge now, swap while
  // the old link is still alive.
  disarm_predictor();
  ++stats_.predictions;
  ++stats_.degradations;
  predicted_ = true;
  link_lost_since_dial_ = false;
  if (!emit(HandoverEvent{
          HandoverEvent::Kind::kPredictedLoss, {}, nullptr,
          "predicted loss in " + std::to_string(time_to_loss) + " s"})) {
    return;  // handler destroyed the controller
  }
  execute();
}

// --- Reactive loop (the paper's Fig. 5.5, kept as fallback) ------------------

void HandoverController::tick() {
  if (busy_) return;
  // Keep the plan fresh: the neighbourhood changes while the device moves.
  refresh_plan();

  if (!channel_->open()) {
    link_lost_since_dial_ = true;
    // The link died before (or despite) soft handover.
    if (!channel_->sending()) {
      ++stats_.suppressed;
      state_ = HandoverState::kDone;
      if (!emit(HandoverEvent{HandoverEvent::Kind::kRepairSuppressed, {},
                              nullptr,
                              "connection lost while idle (result routing "
                              "mode)"})) {
        return;  // handler destroyed the controller
      }
      stop();
      return;
    }
    execute();
    return;
  }

  ++stats_.samples;
  const int quality = channel_->link_quality();
  if (quality < kQualityThreshold) {
    ++low_count_;
  } else {
    low_count_ = 0;
  }
  if (low_count_ > kLowCountLimit) {
    ++stats_.degradations;
    low_count_ = 0;
    if (!emit(HandoverEvent{HandoverEvent::Kind::kDegradationDetected, {},
                            nullptr, "link quality below threshold"})) {
      return;  // handler destroyed the controller
    }
    execute();
  }
}

void HandoverController::execute() {
  if (!channel_->sending()) {
    // §5.3: the application finished sending; repair would be wasted work —
    // the server will route the result back itself.
    ++stats_.suppressed;
    predicted_ = false;
    (void)emit(HandoverEvent{HandoverEvent::Kind::kRepairSuppressed, {},
                             nullptr, "sending flag cleared"});
    return;  // nothing below touches members — destruction-safe either way
  }
  state_ = HandoverState::kExecute;
  busy_ = true;
  if (config_.routing_enabled && !plan_.empty()) {
    attempt_route(0);
  } else if (config_.direct_resume_enabled && !channel_->open()) {
    // No routing plan at all, link dead: go straight at the peer — it may
    // have restarted and be journal-resumable.
    attempt_direct_resume();
  } else if (config_.reconnection_enabled) {
    start_reconnection();
  } else {
    predicted_ = false;
    give_up("no routing plan and reconnection disabled");
  }
}

void HandoverController::attempt_route(std::size_t candidate_index) {
  const std::size_t limit = std::min<std::size_t>(
      plan_.size(), static_cast<std::size_t>(config_.max_route_attempts));
  if (candidate_index >= limit) {
    ++stats_.route_failures;
    predicted_ = false;
    if (!channel_->open()) {
      if (config_.direct_resume_enabled) {
        attempt_direct_resume();
        return;
      }
      finish_dead_link_pass();
      return;
    }
    // Connection still alive: stay in monitor state and hope for recovery
    // or a better plan on the next tick. Re-arm the predictor — the link is
    // still degrading and kFell will not fire again while below threshold.
    dead_link_passes_ = 0;
    busy_ = false;
    state_ = HandoverState::kMonitor;
    if (config_.predictive_enabled && channel_->open()) arm_predictor();
    return;
  }
  const MacAddress bridge = plan_[candidate_index].bridge;
  ++stats_.route_attempts;
  library_.resume_via_bridge(
      bridge, channel_,
      [this, token = sentinel_.token(), bridge,
       candidate_index](Status status) {
        // The resume may resolve long after this controller died.
        if (token.expired()) return;
        if (status.ok()) {
          if (predicted_ && !link_lost_since_dial_) {
            // The swap completed with the old transport still alive —
            // a genuine make-before-break, no outage window.
            ++stats_.predictive_handovers;
          }
          on_repaired(bridge, "rerouted via " + bridge.to_string());
          return;
        }
        ++bridge_failures_[bridge];
        if (!emit(HandoverEvent{HandoverEvent::Kind::kHandoverFailed, bridge,
                                nullptr, status.error().to_string()})) {
          return;  // handler destroyed the controller
        }
        attempt_route(candidate_index + 1);
      },
      kResumeTimeout);
}

void HandoverController::attempt_direct_resume() {
  ++stats_.direct_resumes;
  library_.resume_direct(
      channel_,
      [this, token = sentinel_.token()](Status status) {
        if (token.expired()) return;
        if (status.ok()) {
          // The session survived, possibly across a peer restart.
          on_repaired({}, "resumed directly with peer");
          return;
        }
        if (!emit(HandoverEvent{HandoverEvent::Kind::kHandoverFailed, {},
                                nullptr, status.error().to_string()})) {
          return;  // handler destroyed the controller
        }
        finish_dead_link_pass();
      },
      kResumeTimeout);
}

void HandoverController::finish_dead_link_pass() {
  if (config_.reconnection_enabled) {
    start_reconnection();
    return;
  }
  // Link dead and the whole plan failed. On a bursty medium one pass can
  // fail spuriously (every handshake of every candidate lost), so drop back
  // to monitor and let tick() re-run the plan — but only a few times. After
  // that the route is genuinely gone: go terminal so the application's own
  // recovery (the scenario watchdog) takes over.
  if (++dead_link_passes_ < config_.max_dead_link_passes) {
    busy_ = false;
    state_ = HandoverState::kMonitor;
    return;
  }
  give_up("routing plan exhausted on a dead link");
}

void HandoverController::on_repaired(MacAddress bridge, std::string detail) {
  ++stats_.handovers;
  predicted_ = false;
  busy_ = false;
  low_count_ = 0;
  dead_link_passes_ = 0;
  bridge_failures_.clear();
  state_ = HandoverState::kMonitor;
  // Traffic may now flow through a bridge: move the observer to the link
  // the device can actually sense (self -> bridge hop).
  if (config_.predictive_enabled) subscribe_link();
  (void)emit(HandoverEvent{HandoverEvent::Kind::kHandoverComplete, bridge,
                           nullptr, std::move(detail)});
}

void HandoverController::give_up(std::string detail) {
  busy_ = false;
  state_ = HandoverState::kFailed;
  if (!emit(HandoverEvent{HandoverEvent::Kind::kGaveUp, {}, nullptr,
                          std::move(detail)})) {
    return;  // handler destroyed the controller
  }
  stop();
}

void HandoverController::start_reconnection() {
  state_ = HandoverState::kReconnecting;
  predicted_ = false;
  // §5.2.2: ask the user before restarting the task on another provider.
  // The grant may arrive asynchronously, long after this controller died —
  // hence the sentinel token.
  auto proceed = [this, token = sentinel_.token()](bool granted) {
    if (token.expired()) return;
    if (!granted) {
      give_up("user declined reconnection");
      return;
    }
    const auto providers =
        library_.daemon().storage().providers_of(channel_->service());
    const MacAddress old_peer = channel_->peer();
    const auto it = std::find_if(
        providers.begin(), providers.end(),
        [old_peer](const DeviceRecord& r) { return r.device.mac != old_peer; });
    if (it == providers.end()) {
      give_up("no alternative provider of " + channel_->service());
      return;
    }
    Library::ConnectOptions options;
    library_.connect(
        it->device.mac, channel_->service(), options,
        [this, token](Result<ChannelPtr> result) {
          if (token.expired()) return;
          if (!result.ok()) {
            give_up(result.error().to_string());
            return;
          }
          busy_ = false;
          ++stats_.reconnections;
          state_ = HandoverState::kDone;
          // A reconnection is a *new* session: the task restarts (§5.2.2
          // "the process is identical to a completely new connection").
          if (!emit(HandoverEvent{HandoverEvent::Kind::kReconnected, {},
                                  std::move(result).value(),
                                  "reconnected to another provider"})) {
            return;  // handler destroyed the controller
          }
          stop();
        });
  };
  // Copy before calling: the permission callback may replace itself.
  if (permission_) {
    const PermissionCallback ask = permission_;
    ask(std::move(proceed));
  } else {
    proceed(true);
  }
}

}  // namespace peerhood::handover
