// Golden replay digests: the canned scenarios run under three fault tiers
// (none, full chaos, a server crash) and every ScenarioMetrics field is
// hashed — doubles by bit pattern — into one 64-bit digest per cell. The
// digests are committed constants, so any change to what a (seed, schedule)
// pair replays to fails here instead of being claimed unchanged in prose.
//
// A change that means to alter behaviour updates the constants it moves and
// says why in CHANGES.md. On a mismatch the test prints the new value.
// Release and Debug builds must agree on every constant.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "scenario/scenario.hpp"

namespace peerhood::scenario {
namespace {

// FNV-1a over the little-endian bytes of each 64-bit word.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(bool value) { add(static_cast<std::uint64_t>(value)); }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{0xcbf29ce484222325ULL};
};

std::uint64_t digest_of(const ScenarioMetrics& m) {
  Digest d;
  d.add(static_cast<std::uint64_t>(m.sessions.size()));
  for (const SessionMetrics& s : m.sessions) {
    d.add(s.connected);
    d.add(s.sent);
    d.add(s.received);
    d.add(s.handovers);
    d.add(s.predictions);
    d.add(s.predictive_handovers);
    d.add(s.reconnections);
    d.add(s.restarts);
    d.add(s.dup_or_reorder);
    d.add(s.gaps);
    d.add(s.outage_episodes);
    d.add(s.outage_s);
    d.add(s.handover_latency_sum_s);
    d.add(s.handover_latency_count);
  }
  d.add(m.medium_frames);
  d.add(m.medium_frame_bytes);
  d.add(m.quality_observer_evals);
  d.add(m.quality_events);
  const sim::FaultStats& f = m.fault_stats;
  d.add(f.frames_seen);
  d.add(f.loss_drops);
  d.add(f.blackout_drops);
  d.add(f.corrupted);
  d.add(f.duplicated);
  d.add(f.reordered);
  d.add(f.burst_entries);
  d.add(f.node_crashes);
  d.add(f.node_restarts);
  d.add(m.corrupt_frames_dropped);
  const net::NetStats& n = m.net_stats;
  d.add(n.frames_checked);
  d.add(n.corrupt_drops);
  d.add(n.send_queue_drops);
  d.add(n.reconnect_attempts);
  d.add(m.restart_resumes);
  return d.value();
}

enum class Tier { kNone, kChaos, kServerCrash };

// The chaos soak's full fault matrix: bursty loss, corruption, duplication
// and reorder jitter, plus the first session's server going silent for
// [20 s, 30 s) of the body.
void add_chaos(ScenarioSpec& spec) {
  sim::FaultProfile profile;
  profile.loss_good = 0.03;
  profile.loss_bad = 0.6;
  profile.p_good_to_bad = 0.05;
  profile.p_bad_to_good = 0.25;
  profile.quality_coupling = 0.5;
  profile.corrupt_prob = 0.02;
  profile.duplicate_prob = 0.05;
  profile.reorder_prob = 0.1;
  spec.faults.profiles.push_back({Technology::kBluetooth, profile});
  FaultScheduleSpec::Partition cut;
  cut.side_a = {spec.sessions.front().server};
  cut.start_s = 20.0;
  cut.duration_s = 10.0;
  spec.faults.partitions.push_back(cut);
}

// The crash soak's server crash: every session runs reliable and
// crash-tolerant, and the first session's server is down for [30 s, 40 s).
void add_server_crash(ScenarioSpec& spec) {
  for (SessionSpec& session : spec.sessions) {
    session.reliable = true;
    session.handover_config.reconnection_enabled = false;
    session.handover_config.direct_resume_enabled = true;
    session.handover_config.max_dead_link_passes = 1000;
  }
  CrashScheduleSpec::Crash crash;
  crash.targets = {spec.sessions.front().server};
  crash.at_s = 30.0;
  crash.downtime_s = 10.0;
  spec.crashes.crashes.push_back(crash);
}

std::uint64_t run_digest(ScenarioSpec spec, Tier tier) {
  if (tier == Tier::kChaos) add_chaos(spec);
  if (tier == Tier::kServerCrash) add_server_crash(spec);
  ScenarioRunner runner{std::move(spec)};
  const Status status = runner.setup();
  EXPECT_TRUE(status.ok()) << status.error().to_string();
  if (!status.ok()) return 0;
  runner.run();
  // A digest of a scenario that never carried traffic guards nothing.
  EXPECT_GT(runner.metrics().total_received(), 0u);
  return digest_of(runner.metrics());
}

ScenarioSpec make_scenario(const std::string& name, std::uint64_t seed) {
  if (name == "corridor_walk") return corridor_walk(seed, /*predictive=*/true);
  if (name == "office") return office(seed, /*predictive=*/true, 12);
  if (name == "group_walk") return group_walk(seed, /*predictive=*/true);
  return churn(seed, /*predictive=*/true);
}

struct Golden {
  const char* scenario;
  std::uint64_t seed;
  Tier tier;
  std::uint64_t digest;
};

// Computed at the commit that introduced this test.
constexpr Golden kGolden[] = {
    {"corridor_walk", 1, Tier::kNone, 0x96cc8faa7ccd04d5ULL},
    {"corridor_walk", 1, Tier::kChaos, 0xf490c904c6c4ef3dULL},
    {"corridor_walk", 1, Tier::kServerCrash, 0x7b8e936407a07093ULL},
    {"corridor_walk", 2, Tier::kNone, 0x7aaadd7403649e12ULL},
    {"corridor_walk", 2, Tier::kChaos, 0x915ab677aa449b93ULL},
    {"corridor_walk", 2, Tier::kServerCrash, 0x88f715c0b3e01cfULL},
    {"office", 2, Tier::kNone, 0x84fa62ff45e9b465ULL},
    {"office", 2, Tier::kChaos, 0x825b43d19628a0f5ULL},
    {"office", 2, Tier::kServerCrash, 0xfd19fbd4d529a5e1ULL},
    {"office", 3, Tier::kNone, 0xfe6c7c0f392f1da7ULL},
    {"office", 3, Tier::kChaos, 0x30deaccf312e7e56ULL},
    {"office", 3, Tier::kServerCrash, 0x84577fd4ff42e6bcULL},
    {"group_walk", 1, Tier::kNone, 0xa3b2d936ffc11896ULL},
    {"group_walk", 1, Tier::kChaos, 0x80821ed9f5725c0aULL},
    {"group_walk", 1, Tier::kServerCrash, 0x4f69ebf6ee06f650ULL},
    {"group_walk", 2, Tier::kNone, 0xb1db41cf0be27571ULL},
    {"group_walk", 2, Tier::kChaos, 0xfb2e4fdf6d0435fULL},
    {"group_walk", 2, Tier::kServerCrash, 0x8308f3f9237c5ffaULL},
    {"churn", 1, Tier::kNone, 0x61d95463c29dd01dULL},
    {"churn", 1, Tier::kChaos, 0xcfeafbd17094b6bbULL},
    {"churn", 1, Tier::kServerCrash, 0xcd1c826ed74bba97ULL},
    {"churn", 2, Tier::kNone, 0x417f634efd592ef1ULL},
    {"churn", 2, Tier::kChaos, 0x958c17b6b0a6b07fULL},
    {"churn", 2, Tier::kServerCrash, 0x8278ed1a75bfe1dfULL},
};

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kNone:
      return "none";
    case Tier::kChaos:
      return "chaos";
    case Tier::kServerCrash:
      return "server_crash";
  }
  return "?";
}

void check(const std::string& scenario) {
  int cells = 0;
  for (const Golden& golden : kGolden) {
    if (scenario != golden.scenario) continue;
    ++cells;
    SCOPED_TRACE(scenario + " seed " + std::to_string(golden.seed) + " " +
                 tier_name(golden.tier));
    const std::uint64_t actual =
        run_digest(make_scenario(scenario, golden.seed), golden.tier);
    EXPECT_EQ(actual, golden.digest) << "new digest: 0x" << std::hex << actual;
  }
  EXPECT_GT(cells, 0);
}

TEST(ReplayDigest, CorridorWalk) { check("corridor_walk"); }
TEST(ReplayDigest, Office) { check("office"); }
TEST(ReplayDigest, GroupWalk) { check("group_walk"); }
TEST(ReplayDigest, Churn) { check("churn"); }

}  // namespace
}  // namespace peerhood::scenario
