// Daemon configuration. Defaults match the thesis implementation; the
// boolean switches expose the design alternatives the paper discusses so the
// ablation benches (E10-E12) can toggle them.
#pragma once

#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "discovery/route_policy.hpp"
#include "sim/radio.hpp"

namespace peerhood {

struct DaemonConfig {
  std::string device_name{"device"};
  MobilityClass mobility{MobilityClass::kDynamic};
  std::vector<Technology> technologies{Technology::kBluetooth};

  RoutePolicy route_policy{};

  // Direct devices missing this many consecutive inquiry loops are dropped
  // (Fig. 3.12 time-stamp aging).
  int max_missed_loops{3};

  // Known devices are re-fetched only at this interval ("a service checking
  // interval defines a longer interval time for stored devices to achieve
  // the energy saving", §3.5). Inquiry responses still refresh liveness.
  SimDuration service_check_interval{std::chrono::seconds{30}};

  // Discovery-fetch robustness (fault-plane hardening). A fetch waits
  // cost * fetch_timeout_mult + fetch_timeout_extra for its response; a
  // timed-out fetch is re-issued up to fetch_retries more times, spaced by
  // jittered exponential backoff (fetch_retry_backoff doubling per attempt,
  // scaled by uniform(1 ± fetch_retry_jitter)), before the responder is
  // treated as gone for this cycle and its conditional-fetch baseline drops.
  double fetch_timeout_mult{3.0};
  SimDuration fetch_timeout_extra{std::chrono::seconds{2}};
  int fetch_retries{1};
  SimDuration fetch_retry_backoff{std::chrono::seconds{1}};
  double fetch_retry_jitter{0.5};

  // §3.4.1: fetch device/prototype/service/neighbourhood information through
  // one unified connection instead of four short ones (ablation E10).
  bool unified_fetch{false};

  // Requester side: send the last-seen epoch + per-section generations with
  // each fetch so unchanged responders answer kNotModified / section deltas
  // instead of full snapshots (off = always fetch full, the paper's
  // behaviour).
  bool conditional_fetch{true};

  // When false the daemon behaves like pre-thesis PeerHood [2]: neighbour
  // lists are stored for two-jump vision but no routed records are created
  // (baseline for E1/E2).
  bool propagate_routes{true};

  // Crash tolerance (bounded-resource paths).
  // Deferred fetch replies queued per peer; when full the oldest queued
  // reply is dropped (and counted) before the new one is queued, so a
  // requester storm cannot grow daemon memory without bound.
  std::size_t max_peer_send_queue{8};
  // SessionStore journal capacity: resume records surviving a crash. Least
  // recently touched records are evicted first.
  std::size_t session_journal_capacity{64};
  // When non-empty, the SessionStore journal also persists to this file and
  // is reloaded on construction — the real-daemon path, where "crash" means
  // kill -9 and recovery means a fresh process finding the journal on disk.
  // Empty (the default) keeps the journal in-memory, as every sim scenario
  // expects.
  std::string session_journal_path{};

  // Interconnection (Ch. 4).
  bool bridge_enabled{true};
  int max_bridge_connections{8};
  // §4: decrease the advertised link quality proportionally to bridge
  // occupancy to steer routes away from bottleneck bridges (ablation E11).
  bool load_derating{false};
};

}  // namespace peerhood
