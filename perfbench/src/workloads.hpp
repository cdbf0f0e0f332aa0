// The benchmark's workloads and what one run of a workload reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "profiler.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  // Smoke size: fewer and smaller scenarios, for a run of seconds.
  bool smoke{false};
};

struct RunResult {
  // Failed correctness checks, one line each; empty = correct.
  std::vector<std::string> errors;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  // End-to-end metrics by name (units in main.cpp's registry).
  std::map<std::string, double> end_to_end;
  // Per-layer counts of one round (see README: every per-layer figure is
  // per round, so runs of different length compare).
  std::map<std::string, double> counts;
  // Workload-specific figures printed on the DETAIL line.
  std::map<std::string, double> detail;
  // Rounds run; per-layer times are divided by it.
  std::uint64_t rounds{1};
  // Profiles and CPU time of child processes (relay-outage scenarios).
  LayerTimes child_times;
  double child_cpu_s{0.0};
};

RunResult run_office_dense(const RunOptions& options);
RunResult run_walk_stream_chaos(const RunOptions& options);
RunResult run_relay_outage(const RunOptions& options);
RunResult run_rt_loopback(const RunOptions& options);

// Runs one diagnostic scenario named by `kind` (office, relay-outage,
// resume-storm, stray-ok) with `params` (seed, nodes, outage, body, budget)
// and prints what it did; used to reproduce the faults listed in README.md.
int run_probe(const std::string& kind,
              const std::map<std::string, double>& params);
// Streams raw counters over a plain loopback Channel and lists the ones that
// never arrived (probe kind stray-ok).
int run_stray_ok_probe(std::uint64_t seed);

// Helpers shared by the workloads.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double median(std::vector<double> values);
// Highest percentile with at least ten samples beyond it (0 with fewer
// than 40 samples, where there is no tail to report).
[[nodiscard]] double tail(std::vector<double> values);

}  // namespace perfbench
