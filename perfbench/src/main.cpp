// phbench — the repository benchmark's workload runner.
//
//   phbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--revision <rev>] [--smoke]
//   phbench probe <office|relay-outage|resume-storm|stray-ok>
//           [--<param> <value>]...
//
// A run prints a PROVENANCE line, a DETAIL line with the workload's own
// figures, and as its last line one JSON object: correct, attempted, failed
// and the metrics — every end-to-end metric with --trace 0, every per-layer
// metric with --trace 1. run.py builds this binary and is the entry point.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common/log.hpp"
#include "profiler.hpp"
#include "workloads.hpp"

namespace perfbench {

double peak_rss_mb() {
  // VmHWM rather than ru_maxrss: Linux carries ru_maxrss across execve, so
  // it would report the launching process's peak when that was larger.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status != nullptr) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail(std::vector<double> values) {
  if (values.size() < 40) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() - 11];
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; run.py checks that it does.
constexpr MetricSpec kEndToEnd[] = {
    {"msgs_per_s", "msgs/s"},
    {"frames_per_msg", "frames/msg"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kCounts[] = {
    {"sim.medium.frames", "count"},
    {"sim.medium.frame_bytes", "bytes"},
    {"sim.medium.quality_evals", "count"},
    {"sim.fault.injected", "count"},
    {"sim.fault.node_crashes", "count"},
    {"net.frames_checked", "count"},
    {"net.corrupt_drops", "count"},
    {"net.send_queue_drops", "count"},
    {"net.reconnect_attempts", "count"},
    {"net.connect_tail_us", "us"},
    {"net.datagram_tail_us", "us"},
    {"discovery.fetches", "count"},
    {"discovery.not_modified", "count"},
    {"discovery.deltas", "count"},
    {"discovery.full_encodes", "count"},
    {"discovery.integrations", "count"},
    {"discovery.fetch_timeouts", "count"},
    {"peerhood.engine.connects", "count"},
    {"peerhood.engine.resumes", "count"},
    {"peerhood.engine.restart_resumes", "count"},
    {"peerhood.reliable.retransmissions", "count"},
    {"peerhood.reliable.fast_retransmits", "count"},
    {"peerhood.reliable.window_refusals", "count"},
    {"peerhood.session_store.journal_writes", "count"},
    {"peerhood.session_store.journal_us", "us"},
    {"bridge.requests", "count"},
    {"bridge.relayed_frames", "count"},
    {"handover.handovers", "count"},
    {"handover.predictive_handovers", "count"},
};

struct Workload {
  const char* name;
  RunResult (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"office-dense", run_office_dense},
    {"walk-stream-chaos", run_walk_stream_chaos},
    {"rt-loopback", run_rt_loopback},
    {"relay-outage", run_relay_outage},
};

double cpu_s(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double sys_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_stime.tv_usec);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: phbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--revision <rev>] [--smoke]\n"
               "       phbench probe <kind> [--<param> <value>]...\n");
  return 2;
}

int run_workload(const Workload& workload, const RunOptions& options,
                 const std::string& revision) {
  std::printf("PROVENANCE {\"workload\":%s,\"nproc\":%ld,\"compiler\":%s,"
              "\"build_type\":%s,\"revision\":%s,\"log_level\":\"warn\","
              "\"shards\":1}\n",
              json_string(workload.name).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
              json_string(PHBENCH_COMPILER).c_str(),
              json_string(PHBENCH_BUILD_TYPE).c_str(),
              json_string(revision).c_str());

  double cpu_start = 0.0;
  double sys_start = 0.0;
  if (options.trace) {
    if (!Profiler::start()) {
      std::fprintf(stderr, "phbench: cannot read the executable's symbols\n");
      return 1;
    }
    cpu_start = cpu_s(RUSAGE_SELF);
    sys_start = sys_s();
  }
  RunResult result = workload.run(options);
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> units;
  if (options.trace) {
    Profiler::stop();
    const double cpu = cpu_s(RUSAGE_SELF) - cpu_start + result.child_cpu_s;
    LayerTimes times = Profiler::snapshot();
    times += result.child_times;
    const double rounds = static_cast<double>(result.rounds);
    for (int l = 0; l < kLayerCount; ++l) {
      const char* name = layer_metric(static_cast<Layer>(l));
      metrics[name] = static_cast<double>(times.ns[static_cast<std::size_t>(l)]) *
                      1e-9 / rounds;
      units[name] = "s";
    }
    const double overhead_s = static_cast<double>(times.overhead_ns) * 1e-9;
    metrics["trace.overhead_s"] = overhead_s / rounds;
    metrics["trace.samples"] = static_cast<double>(times.samples) / rounds;
    units["trace.samples"] = "count";
    metrics["trace.cpu_s"] = cpu / rounds;
    metrics["os.sys_s"] = (sys_s() - sys_start) / rounds;
    for (const char* name : {"trace.overhead_s", "trace.cpu_s", "os.sys_s"}) {
      units[name] = "s";
    }
    if (const std::string why = check_attribution(times); !why.empty()) {
      result.errors.push_back(why);
    }
    for (const MetricSpec& m : kCounts) {
      const auto it = result.counts.find(m.name);
      metrics[m.name] = it == result.counts.end() ? 0.0 : it->second;
      units[m.name] = m.unit;
    }
  } else {
    result.end_to_end["peak_rss_mb"] = peak_rss_mb();
    for (const MetricSpec& m : kEndToEnd) {
      const auto it = result.end_to_end.find(m.name);
      const double value = it == result.end_to_end.end() ? 0.0 : it->second;
      if (!(value > 0.0) || !std::isfinite(value)) {
        result.errors.push_back(std::string{m.name} + " is not positive");
      }
      metrics[m.name] = value;
      units[m.name] = m.unit;
    }
  }

  std::string detail = "DETAIL {\"workload\":" + json_string(workload.name);
  for (const auto& [name, value] : result.detail) {
    detail += "," + json_string(name) + ":" + json_number(value);
  }
  detail += ",\"errors\":[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    detail += (i > 0 ? "," : "") + json_string(result.errors[i]);
  }
  std::printf("%s]}\n", detail.c_str());
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "phbench: %s: %s\n", workload.name, error.c_str());
  }

  std::string line = "{\"correct\":";
  line += result.errors.empty() ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(std::max<std::uint64_t>(1, result.attempted));
  line += ",\"failed\":" + std::to_string(result.failed);
  line += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    line += (first ? "" : ",") + json_string(name) + ":{\"value\":" +
            json_number(value) + ",\"unit\":" + json_string(units[name]) + "}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::fprintf(stderr, "phbench: refusing to measure a build with assertions\n");
  return 3;
#endif
  if (std::strcmp(PHBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "phbench: refusing to measure a %s build\n",
                 PHBENCH_BUILD_TYPE);
    return 3;
  }
  peerhood::Logger::instance().set_level(peerhood::LogLevel::kWarn);

  if (argc >= 3 && std::strcmp(argv[1], "probe") == 0) {
    std::map<std::string, double> params;
    for (int i = 3; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) return usage();
      params[argv[i] + 2] = std::atof(argv[i + 1]);
    }
    return run_probe(argv[2], params);
  }

  std::string workload_name;
  std::string revision = "unknown";
  RunOptions options;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--revision") {
      revision = value;
    } else {
      return usage();
    }
  }
  if ((trace != 0 && trace != 1) || !(options.seconds > 0.0)) return usage();
  options.trace = trace == 1;
  for (const Workload& workload : kWorkloads) {
    if (workload_name == workload.name) {
      return run_workload(workload, options, revision);
    }
  }
  std::fprintf(stderr, "phbench: unknown workload '%s'\n", workload_name.c_str());
  return usage();
}
