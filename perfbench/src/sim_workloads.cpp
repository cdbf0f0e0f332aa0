// The simulated workloads: office-dense, walk-stream-chaos and
// relay-outage. Each run repeats rounds of the same scenario list (built
// from --seed) until --seconds have passed, with at least two rounds so the
// second replays the first and every ScenarioMetrics field can be compared.
// Every scenario runs on the plain single-threaded kernel (shards = 1).
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "checks.hpp"
#include "scenario/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace peerhood;
using scenario::ScenarioMetrics;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Scenario seeds of one run: distinct per (run seed, slot).
std::uint64_t scenario_seed(std::uint64_t run_seed, std::uint64_t slot) {
  return run_seed * 64 + slot + 1;
}

using Check = std::function<std::string(const ScenarioMetrics&)>;

struct Case {
  std::string label;
  ScenarioSpec spec;
  Check check;
  // Run in a child process under a CPU-time and address-space limit.
  bool isolated{false};
};

// --- Scenario specs -----------------------------------------------------------

sim::FaultProfile full_chaos() {
  // The full chaos profile of bench/bench_chaos.cpp: bursty loss plus
  // corruption, duplication and reordering.
  sim::FaultProfile profile;
  profile.loss_good = 0.03;
  profile.loss_bad = 0.6;
  profile.p_good_to_bad = 0.05;
  profile.p_bad_to_good = 0.25;
  profile.quality_coupling = 0.5;
  profile.corrupt_prob = 0.02;
  profile.duplicate_prob = 0.05;
  profile.reorder_prob = 0.1;
  return profile;
}

constexpr int kOfficeNodes = 300;
constexpr int kOfficeSessions = 8;
constexpr std::uint64_t kOfficeInflightBound = 3;
// office-dense times its set-up on one fixed floor, repeated.
constexpr std::uint64_t kOfficeSetupSeed = 2;
constexpr int kOfficeSetupRepeats = 5;

// The canned office floor with `sessions` mobile clients (mob0, mob1, ...)
// holding sessions to the central server srv0.
ScenarioSpec office_dense_spec(std::uint64_t seed, int nodes, int sessions) {
  ScenarioSpec spec = scenario::office(seed, /*predictive=*/true, nodes);
  spec.shards = 1;
  const scenario::SessionSpec first = spec.sessions.front();
  spec.sessions.clear();
  for (int c = 0; c < sessions; ++c) {
    scenario::SessionSpec session = first;
    session.client = "mob" + std::to_string(c);
    spec.sessions.push_back(session);
  }
  return spec;
}

// Group walk past the static relay bridge0, plus three relay anchors whose
// daemons churn; every member streams over a crash-tolerant reliable
// session under the full chaos profile, and the server crashes once.
ScenarioSpec walk_stream_spec(std::uint64_t seed, int members,
                              double message_interval_s,
                              std::size_t message_bytes) {
  ScenarioSpec spec = scenario::group_walk(seed, /*predictive=*/true, members);
  spec.shards = 1;
  spec.duration_s = 900.0;
  scenario::NodeGroup anchors;
  anchors.prefix = "anchor";
  anchors.count = 3;
  anchors.mobility.kind = scenario::MobilitySpec::Kind::kStatic;
  anchors.mobility.start = {4.0, 5.0};
  anchors.spacing = {4.0, 0.0};
  anchors.churn = true;
  spec.groups.push_back(anchors);
  spec.churn_interval_s = 20.0;
  spec.churn_downtime_s = 8.0;
  spec.sessions.clear();
  for (int c = 0; c < members; ++c) {
    scenario::SessionSpec session;
    session.client = "member" + std::to_string(c);
    session.server = "server0";
    session.service = "print";
    session.traffic.message_interval_s = message_interval_s;
    session.traffic.message_bytes = message_bytes;
    session.reliable = true;
    session.handover_config.predictive_enabled = true;
    session.handover_config.reconnection_enabled = false;
    session.handover_config.direct_resume_enabled = true;
    session.handover_config.max_dead_link_passes = 1000;
    spec.sessions.push_back(session);
  }
  spec.faults.profiles.push_back({Technology::kBluetooth, full_chaos()});
  scenario::CrashScheduleSpec::Crash crash;
  crash.targets = {"server"};
  crash.at_s = 300.0;
  crash.downtime_s = 10.0;
  spec.crashes.crashes.push_back(crash);
  return spec;
}

// The canned group walk whose only relay, bridge0, crashes mid-walk.
ScenarioSpec relay_outage_spec(std::uint64_t seed, double outage_s,
                               double body_s) {
  ScenarioSpec spec = scenario::group_walk(seed, /*predictive=*/true, 4);
  spec.shards = 1;
  spec.duration_s = body_s;
  scenario::CrashScheduleSpec::Crash crash;
  crash.targets = {"bridge"};
  crash.at_s = 150.0;
  crash.downtime_s = outage_s;
  spec.crashes.crashes.push_back(crash);
  return spec;
}

// --- Running one scenario -----------------------------------------------------

struct Outcome {
  bool over_budget{false};
  std::string error;  // setup failure or a child that broke its limits
  ScenarioMetrics metrics;
  double setup_s{0.0};
  double body_s{0.0};
  std::map<std::string, double> counts;
};

void add(std::map<std::string, double>& counts, const char* name, double v) {
  counts[name] += v;
}

// Per-layer counts read from the layers' public stats after the body.
std::map<std::string, double> layer_counts(ScenarioRunner& runner) {
  std::map<std::string, double> c;
  const ScenarioMetrics& m = runner.metrics();
  add(c, "sim.medium.frames", static_cast<double>(m.medium_frames));
  add(c, "sim.medium.frame_bytes", static_cast<double>(m.medium_frame_bytes));
  add(c, "sim.medium.quality_evals",
      static_cast<double>(m.quality_observer_evals));
  const sim::FaultStats& f = m.fault_stats;
  add(c, "sim.fault.injected",
      static_cast<double>(f.loss_drops + f.blackout_drops + f.corrupted +
                          f.duplicated + f.reordered));
  add(c, "sim.fault.node_crashes", static_cast<double>(f.node_crashes));
  add(c, "net.frames_checked", static_cast<double>(m.net_stats.frames_checked));
  add(c, "net.corrupt_drops", static_cast<double>(m.net_stats.corrupt_drops));
  add(c, "net.send_queue_drops",
      static_cast<double>(m.net_stats.send_queue_drops));
  add(c, "net.reconnect_attempts",
      static_cast<double>(m.net_stats.reconnect_attempts));
  for (const scenario::SessionMetrics& s : m.sessions) {
    add(c, "handover.handovers", static_cast<double>(s.handovers));
    add(c, "handover.predictive_handovers",
        static_cast<double>(s.predictive_handovers));
  }
  for (node::Node* node : runner.testbed().nodes()) {
    Daemon& daemon = node->daemon();
    if (const Plugin* plugin = daemon.plugin(Technology::kBluetooth)) {
      const Plugin::Stats& p = plugin->stats();
      add(c, "discovery.fetches", static_cast<double>(p.fetch_attempts));
      add(c, "discovery.not_modified", static_cast<double>(p.not_modified));
      add(c, "discovery.deltas", static_cast<double>(p.delta_responses));
      add(c, "discovery.integrations", static_cast<double>(p.integrations));
      add(c, "discovery.fetch_timeouts", static_cast<double>(p.fetch_timeouts));
    }
    add(c, "discovery.full_encodes",
        static_cast<double>(daemon.snapshot_cache().stats().full_encodes));
    const Engine::Stats& e = daemon.engine().stats();
    add(c, "peerhood.engine.connects", static_cast<double>(e.connects));
    add(c, "peerhood.engine.resumes", static_cast<double>(e.resumes));
    add(c, "peerhood.engine.restart_resumes",
        static_cast<double>(e.restart_resumes));
    const bridge::BridgeService::Stats& b = node->bridge_service().stats();
    add(c, "bridge.requests", static_cast<double>(b.requests));
    add(c, "bridge.relayed_frames", static_cast<double>(b.relayed_frames));
  }
  return c;
}

Outcome run_in_process(const ScenarioSpec& spec) {
  Outcome out;
  ScenarioRunner runner{spec};
  const auto t0 = Clock::now();
  const Status status = runner.setup();
  out.setup_s = since(t0);
  if (!status.ok()) {
    out.error = "setup failed: " + status.error().to_string();
    return out;
  }
  const auto t1 = Clock::now();
  runner.run();
  out.body_s = since(t1);
  out.metrics = runner.metrics();
  out.counts = layer_counts(runner);
  return out;
}

// --- Isolated scenarios (relay-outage) ------------------------------------------

constexpr rlim_t kChildCpuBudgetS = 1;
constexpr rlim_t kChildAddressSpace = rlim_t{1} << 30;  // 1 GiB
constexpr int kBudgetExit = 42;
constexpr rlim_t kProbeAddressSpace = rlim_t{2} << 30;  // 2 GiB

// What a child hands its parent through a pipe.
struct ChildReport {
  enum Status : int { kNone, kCompleted, kSetupFailed, kOverBudget };
  int status{kNone};
  LayerTimes times;
};

int g_report_fd = -1;
bool g_child_traced = false;

void write_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n <= 0) return;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

void on_cpu_budget(int) {
  ChildReport report;
  report.status = ChildReport::kOverBudget;
  if (g_child_traced) {
    Profiler::stop();
    report.times = Profiler::snapshot();
  }
  write_all(g_report_fd, &report, sizeof(report));
  _exit(kBudgetExit);
}

[[noreturn]] void child_main(const ScenarioSpec& spec, bool trace, int fd) {
  g_report_fd = fd;
  g_child_traced = trace;
  const rlimit cpu{kChildCpuBudgetS, kChildCpuBudgetS + 1};
  const rlimit as{kChildAddressSpace, kChildAddressSpace};
  setrlimit(RLIMIT_CPU, &cpu);
  setrlimit(RLIMIT_AS, &as);
  struct sigaction action {};
  action.sa_handler = on_cpu_budget;
  sigemptyset(&action.sa_mask);
  sigaddset(&action.sa_mask, SIGPROF);
  sigaction(SIGXCPU, &action, nullptr);
  if (trace) Profiler::start();
  ChildReport report;
  {
    ScenarioRunner runner{spec};
    const bool ok = runner.setup().ok();
    if (ok) runner.run();
    report.status = ok ? ChildReport::kCompleted : ChildReport::kSetupFailed;
  }
  if (trace) {
    Profiler::stop();
    report.times = Profiler::snapshot();
  }
  write_all(fd, &report, sizeof(report));
  _exit(0);
}

Outcome run_isolated(const ScenarioSpec& spec, bool trace,
                     LayerTimes& child_times) {
  Outcome out;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    out.error = "pipe failed";
    return out;
  }
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    out.error = "fork failed";
    return out;
  }
  if (pid == 0) {
    ::close(fds[0]);
    child_main(spec, trace, fds[1]);
  }
  ::close(fds[1]);
  // Wall-clock backstop far beyond the CPU budget; the CPU limit is what
  // normally ends a runaway child.
  const auto deadline = Clock::now() + std::chrono::seconds(
                                           5 + 4 * kChildCpuBudgetS);
  int wstatus = 0;
  bool killed = false;
  while (::waitpid(pid, &wstatus, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &wstatus, 0);
      killed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ChildReport report;
  const ssize_t n = ::read(fds[0], &report, sizeof(report));
  ::close(fds[0]);
  const bool whole = n == static_cast<ssize_t>(sizeof(report));
  if (whole) child_times += report.times;
  const bool exited = !killed && WIFEXITED(wstatus);
  if (whole && exited && WEXITSTATUS(wstatus) == kBudgetExit &&
      report.status == ChildReport::kOverBudget) {
    out.over_budget = true;
  } else if (whole && exited && WEXITSTATUS(wstatus) == 0 &&
             report.status == ChildReport::kCompleted) {
    // Completed within budget: counted as a passed operation.
  } else if (whole && exited && report.status == ChildReport::kSetupFailed) {
    out.error = "setup failed";
  } else {
    out.error = killed ? "killed at the wall-clock backstop"
                : WIFSIGNALED(wstatus)
                    ? "ended by signal " + std::to_string(WTERMSIG(wstatus))
                    : "exited with status " +
                          std::to_string(WEXITSTATUS(wstatus));
  }
  return out;
}

double child_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// --- The round loop -------------------------------------------------------------

// Runs the case list once per round, and another round while one more
// still fits in --seconds. The first round's metrics are the run's
// deterministic figures; every later round, or a replay of the first case
// when only one round fits, must reproduce them field for field.
RunResult run_rounds(const std::vector<Case>& cases, const RunOptions& options) {
  RunResult result;
  std::vector<ScenarioMetrics> first_round(cases.size());
  std::vector<double> setups;
  double body_host_s = 0.0;
  double body_sim_s = 0.0;
  std::uint64_t delivered_all = 0;
  const double cpu_children_start = child_cpu_s();
  const auto start = Clock::now();
  const auto replayed = [&](std::size_t i, const ScenarioMetrics& metrics) {
    if (const std::string diff = diff_metrics(first_round[i], metrics);
        !diff.empty()) {
      result.errors.push_back(cases[i].label + ": replay diverged at " + diff);
    }
  };
  std::uint64_t round = 0;
  double round_s = 0.0;
  do {
    const auto round_start = Clock::now();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      ++result.attempted;
      const Outcome out = c.isolated
                              ? run_isolated(c.spec, options.trace,
                                             result.child_times)
                              : run_in_process(c.spec);
      if (out.over_budget) {
        ++result.failed;
        continue;
      }
      if (!out.error.empty()) {
        result.errors.push_back(c.label + ": " + out.error);
        ++result.failed;
        continue;
      }
      if (c.isolated) continue;  // completed children report no metrics
      setups.push_back(out.setup_s);
      body_host_s += out.body_s;
      body_sim_s += c.spec.duration_s;
      delivered_all += out.metrics.total_received();
      if (round > 0) {
        replayed(i, out.metrics);
        continue;
      }
      if (const std::string why = c.check(out.metrics); !why.empty()) {
        result.errors.push_back(c.label + ": " + why);
      }
      first_round[i] = out.metrics;
      for (const auto& [name, value] : out.counts) result.counts[name] += value;
    }
    ++round;
    round_s = since(round_start);
  } while (since(start) + round_s <= options.seconds);
  result.rounds = round;
  if (round == 1 && !cases.front().isolated) {
    replayed(0, run_in_process(cases.front().spec).metrics);
  }
  result.child_cpu_s = child_cpu_s() - cpu_children_start;

  std::uint64_t delivered = 0;
  std::uint64_t frames = 0;
  std::uint64_t control = 0;
  double outage_s = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (cases[i].isolated) continue;
    delivered += first_round[i].total_received();
    frames += first_round[i].medium_frames;
    control += first_round[i].control_frames();
    outage_s += first_round[i].total_outage_s();
  }
  const double per_msg = delivered > 0 ? 1.0 / static_cast<double>(delivered) : 0.0;
  result.end_to_end["msgs_per_s"] =
      body_host_s > 0.0 ? static_cast<double>(delivered_all) / body_host_s : 0.0;
  result.end_to_end["frames_per_msg"] = static_cast<double>(frames) * per_msg;
  result.end_to_end["setup_s"] = median(setups);
  result.detail["sim_speed"] = body_host_s > 0.0 ? body_sim_s / body_host_s : 0.0;
  result.detail["delivered_msgs"] = static_cast<double>(delivered);
  result.detail["app_outage_s"] = outage_s;
  result.detail["control_frames_per_msg"] = static_cast<double>(control) * per_msg;
  result.detail["rounds"] = static_cast<double>(round);
  result.detail["scenarios_per_round"] = static_cast<double>(cases.size());
  return result;
}

}  // namespace

RunResult run_office_dense(const RunOptions& options) {
  // Set-up host time on this floor is set by the seed (0.4 s to 0.9 s at
  // 300 nodes), so set-ups drawn from --seed would carry the seeds' spread
  // into setup_s: it is the median of repeated set-ups of one fixed floor.
  const int nodes = options.smoke ? 40 : kOfficeNodes;
  const auto start = Clock::now();
  std::vector<double> setups;
  std::string setup_error;
  for (int i = 0; i < (options.smoke ? 1 : kOfficeSetupRepeats); ++i) {
    ScenarioRunner runner{
        office_dense_spec(kOfficeSetupSeed, nodes, kOfficeSessions)};
    const auto t0 = Clock::now();
    const Status status = runner.setup();
    setups.push_back(since(t0));
    if (!status.ok()) setup_error = status.error().to_string();
  }
  RunOptions rest = options;
  rest.seconds -= since(start);

  std::vector<Case> cases;
  for (std::uint64_t slot = 0; slot < (options.smoke ? 2 : 8); ++slot) {
    const std::uint64_t seed = scenario_seed(options.seed, slot);
    cases.push_back({"office(seed " + std::to_string(seed) + ")",
                     office_dense_spec(seed, nodes, kOfficeSessions),
                     [](const ScenarioMetrics& m) {
                       return check_plain_sessions(m, kOfficeInflightBound);
                     }});
  }
  RunResult result = run_rounds(cases, rest);
  result.end_to_end["setup_s"] = median(setups);
  if (!setup_error.empty()) {
    result.errors.push_back("fixed floor: setup failed: " + setup_error);
  }
  return result;
}

RunResult run_walk_stream_chaos(const RunOptions& options) {
  std::vector<Case> cases;
  for (std::uint64_t slot = 0; slot < (options.smoke ? 1 : 24); ++slot) {
    const std::uint64_t seed = scenario_seed(options.seed, slot);
    cases.push_back({"walk-stream(seed " + std::to_string(seed) + ")",
                     walk_stream_spec(seed, 4, 0.05, 256),
                     [](const ScenarioMetrics& m) {
                       std::string why = check_exactly_once(m);
                       return why.empty() ? check_chaos_coverage(m) : why;
                     }});
  }
  return run_rounds(cases, options);
}

RunResult run_relay_outage(const RunOptions& options) {
  std::vector<Case> cases;
  const auto plain = [](const ScenarioMetrics& m) {
    return check_plain_sessions(m, kOfficeInflightBound);
  };
  for (std::uint64_t slot = 0; slot < (options.smoke ? 1 : 30); ++slot) {
    const std::uint64_t seed = scenario_seed(options.seed, slot);
    for (const double outage : {30.0, 60.0}) {
      cases.push_back({"relay-outage(seed " + std::to_string(seed) + ", " +
                           std::to_string(static_cast<int>(outage)) + " s)",
                       relay_outage_spec(seed, outage, 600.0), plain});
    }
  }
  // Fixed inputs: these long outages run away (README, known faults) on
  // every run, so their share of failures is the same whatever the seed.
  for (const std::uint64_t seed : {1, 3}) {
    if (options.smoke && seed != 1) continue;
    cases.push_back({"relay-outage(seed " + std::to_string(seed) + ", 300 s)",
                     relay_outage_spec(seed, 300.0, 600.0), plain,
                     /*isolated=*/true});
  }
  return run_rounds(cases, options);
}

// --- Probes ---------------------------------------------------------------------

// The probes' fixed settings: the sizes the README's reproductions use.
constexpr int kProbeOfficeSessions = 2;
constexpr int kStormMembers = 6;
constexpr double kStormMtbfS = 60.0;
constexpr double kStormMttrS = 8.0;

int run_probe(const std::string& kind,
              const std::map<std::string, double>& params) {
  for (const auto& [name, value] : params) {
    if (name != "seed" && name != "nodes" && name != "outage" &&
        name != "body" && name != "budget") {
      std::fprintf(stderr, "unknown probe parameter '--%s'\n", name.c_str());
      return 2;
    }
  }
  const auto param = [&](const char* name, double fallback) {
    const auto it = params.find(name);
    return it == params.end() ? fallback : it->second;
  };
  const auto seed = static_cast<std::uint64_t>(param("seed", 1));
  if (kind == "stray-ok") return run_stray_ok_probe(seed);
  ScenarioSpec spec;
  if (kind == "office") {
    spec = office_dense_spec(seed, static_cast<int>(param("nodes", 12)),
                             kProbeOfficeSessions);
  } else if (kind == "relay-outage") {
    spec = relay_outage_spec(seed, param("outage", 300), param("body", 600));
  } else if (kind == "resume-storm") {
    // Only relay crash-churns while six crash-tolerant sessions stream.
    spec = walk_stream_spec(seed, kStormMembers, 0.05, 512);
    spec.groups.pop_back();  // no churning anchors: bridge0 is the only relay
    spec.churn_interval_s = 0.0;
    scenario::CrashScheduleSpec::Churn churn;
    churn.targets = {"bridge"};
    churn.mtbf_s = kStormMtbfS;
    churn.mttr_s = kStormMttrS;
    spec.crashes.churns.push_back(churn);
  } else {
    std::fprintf(stderr, "unknown probe '%s'\n", kind.c_str());
    return 2;
  }
  if (params.contains("body")) spec.duration_s = param("body", 600);
  // A probe of a runaway must not take the machine with it: the address
  // space is always capped, and --budget caps CPU seconds.
  const rlimit as{kProbeAddressSpace, kProbeAddressSpace};
  setrlimit(RLIMIT_AS, &as);
  const double budget = param("budget", 0);
  if (budget > 0) {
    const auto limit = static_cast<rlim_t>(budget);
    const rlimit cpu{limit, limit + 1};
    setrlimit(RLIMIT_CPU, &cpu);
    std::signal(SIGXCPU, [](int) {
      constexpr char kMessage[] = "probe: CPU budget exhausted\n";
      (void)!::write(STDOUT_FILENO, kMessage, sizeof(kMessage) - 1);
      _exit(kBudgetExit);
    });
  }
  ScenarioRunner runner{spec};
  const auto t0 = Clock::now();
  const Status status = runner.setup();
  std::printf("probe %s seed %llu: setup %s in %.4f s\n", kind.c_str(),
              static_cast<unsigned long long>(seed),
              status.ok() ? "ok" : status.error().to_string().c_str(), since(t0));
  std::fflush(stdout);
  if (!status.ok()) return 1;
  const auto t1 = Clock::now();
  runner.run();
  const ScenarioMetrics& m = runner.metrics();
  const std::map<std::string, double> counts = layer_counts(runner);
  std::printf(
      "body %.0f s in %.3f s host: sent %llu received %llu outage %.1f s, "
      "medium frames %llu, bridge requests %.0f, engine resumes %.0f, "
      "restart resumes %llu, peak RSS %.1f MB\n",
      spec.duration_s, since(t1),
      static_cast<unsigned long long>(m.total_sent()),
      static_cast<unsigned long long>(m.total_received()), m.total_outage_s(),
      static_cast<unsigned long long>(m.medium_frames),
      counts.at("bridge.requests"), counts.at("peerhood.engine.resumes"),
      static_cast<unsigned long long>(m.restart_resumes), peak_rss_mb());
  return 0;
}

}  // namespace perfbench
