// E11 — Ablation: load-based de-rating of the advertised link quality (§4:
// "an extra connection number/maximum connection number percentage could be
// transmitted during the device discovery process and proportionally the
// link quality parameter is decreased" to avoid the "bottle neck").
//
// Topology: two parallel bridges between a client cluster and a server; one
// bridge is pre-loaded with relayed connections. Without de-rating the
// quality-sum tie-break keeps routing through the closer (busier) bridge;
// with de-rating new routes shift to the idle one.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace peerhood;
using namespace peerhood::bench;

struct LoadResult {
  int via_busy{0};
  int via_idle{0};
};

LoadResult run_trial(std::uint64_t seed, bool derating) {
  node::Testbed testbed{seed};
  testbed.medium().configure(ideal_bluetooth());

  node::NodeOptions bridge_options = scenario_node(MobilityClass::kStatic);
  bridge_options.daemon.load_derating = derating;
  bridge_options.bridge.max_connections = 4;

  node::NodeOptions client_options = scenario_node(MobilityClass::kDynamic);
  client_options.daemon.load_derating = derating;

  // The busy bridge is slightly closer to the clients (higher raw quality);
  // the idle bridge slightly farther.
  auto& clients_hub = testbed.add_node("c0", {0.0, 0.0}, client_options);
  // The busy bridge sits on the straight line (best possible sum); the
  // idle one is clearly off-axis and therefore nominally worse.
  auto& busy = testbed.add_node("busy", {6.5, 0.5}, bridge_options);
  auto& idle = testbed.add_node("idle", {6.5, -3.5}, bridge_options);
  auto& server = testbed.add_node("server", {13.0, 0.0},
                                  scenario_node(MobilityClass::kStatic));
  (void)idle.name();

  // Sessions live in an explicit registry — handlers must not own their
  // own channel (see common/handler_slot.hpp).
  std::vector<ChannelPtr> sessions;
  (void)server.library().register_service(
      ServiceInfo{"echo", "", 0},
      [&sessions](ChannelPtr channel, const wire::ConnectRequest&) {
        sessions.push_back(channel);
        channel->set_data_handler([raw = channel.get()](const Bytes& frame) {
          (void)raw->write(frame);
        });
      });

  // Pre-load the busy bridge with relayed pairs so its occupancy is high.
  busy.daemon().set_load_fraction(0.75);
  testbed.run_discovery_rounds(5);

  LoadResult result;
  // Several sequential connections; count which bridge carries each.
  for (int i = 0; i < 6; ++i) {
    const auto record =
        clients_hub.daemon().storage().find(server.mac());
    if (!record.has_value() || record->is_direct()) continue;
    if (record->bridge == busy.mac()) {
      ++result.via_busy;
    } else {
      ++result.via_idle;
    }
    testbed.run_discovery_rounds(1);
  }
  return result;
}

void report() {
  heading("E11 Ablation: bridge-load de-rating of advertised quality");
  std::printf("%10s | %14s %14s\n", "derating", "via busy (%)",
              "via idle (%)");
  for (const bool derating : {false, true}) {
    int busy_total = 0;
    int idle_total = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const LoadResult r = run_trial(seed, derating);
      busy_total += r.via_busy;
      idle_total += r.via_idle;
    }
    const double total = std::max(busy_total + idle_total, 1);
    std::printf("%10s | %14.0f %14.0f\n", derating ? "on" : "off",
                100.0 * busy_total / total, 100.0 * idle_total / total);
  }
  note("without de-rating the closer-but-busy bridge keeps winning the");
  note("quality tie-break; with de-rating its advertised quality drops by");
  note("its 75% occupancy and routes shift to the idle bridge (§4).");
}

void BM_LoadTrial(benchmark::State& state) {
  std::uint64_t seed = 40;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_trial(seed++, true).via_idle);
  }
}
BENCHMARK(BM_LoadTrial)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
