// In-process sampling profiler for the traced runs. A CPU-time interval
// timer (SIGPROF) interrupts the process; the handler unwinds the stack and
// charges the CPU time since the previous sample to the layer of the
// nearest program frame. Frames of libraries (libc, libstdc++ templates) and
// of shared helpers (common/, frame sealing) are skipped, so their cost lands
// on the layer that called them. Layers are named after the repository's
// modules; the mapping from symbol names to layers is in profiler.cpp.
//
// Attribution runs inside the signal handler against a table built up front
// from the executable's own symbol table, so the handler neither allocates
// nor locks. Because each sample carries the exact CPU time since the last
// one, the layers' self times add up to the profiled CPU time by
// construction; each layer's count of samples is kept as well, so the
// time-weighted split can be checked against the count-weighted one.
#pragma once

#include <array>
#include <cstdint>

namespace perfbench {

enum Layer : int {
  kEventCore,
  kMedium,
  kMobility,
  kFault,
  kSimNetwork,
  kPosix,
  kFramer,
  kDiscoveryEncode,
  kDiscoveryMerge,
  kEngine,
  kReliable,
  kSessionStore,
  kBridge,
  kHandover,
  kScenario,
  kHarness,
  kOther,
  kLayerCount,
};

// Per-layer metric name, e.g. "sim.medium.self_s".
[[nodiscard]] const char* layer_metric(Layer layer);

// Nanoseconds of CPU time charged to each layer, plus the handler's own
// cost. Plain data so a forked child can hand it to its parent.
struct LayerTimes {
  std::array<std::uint64_t, kLayerCount> ns{};
  std::array<std::uint64_t, kLayerCount> hits{};  // samples per layer
  std::uint64_t overhead_ns{0};
  std::uint64_t samples{0};

  LayerTimes& operator+=(const LayerTimes& other);
  [[nodiscard]] double total_s() const;
};

class Profiler {
 public:
  // Loads the symbol table (first call only) and arms the timer. Returns
  // false when the executable's symbols cannot be read.
  static bool start();
  static void stop();
  // Samples taken since start(); valid while running and after stop().
  [[nodiscard]] static LayerTimes snapshot();
  // Classifies one demangled symbol name (exposed for the tests).
  // Returns -1 for frames that are skipped (libraries, shared helpers).
  [[nodiscard]] static int classify(const char* demangled);
};

}  // namespace perfbench
