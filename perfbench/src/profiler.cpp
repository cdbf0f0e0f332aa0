#include "profiler.hpp"

#include <cxxabi.h>
#include <elf.h>
#include <execinfo.h>
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {
namespace {

constexpr int kSkip = -1;
constexpr int kMaxFrames = 64;
constexpr long kIntervalUs = 1000;

struct Range {
  std::uintptr_t lo;
  std::uintptr_t hi;
  int layer;
};

// Built once before the timer is armed; read-only inside the handler.
std::vector<Range> g_ranges;
std::uintptr_t g_exe_lo = 0;
std::uintptr_t g_exe_hi = 0;
bool g_loaded = false;

// Written only by the handler (and by start/stop while the timer is off).
LayerTimes g_times;
// CPU clock at the previous sample, and that sample's own cost, which the
// next sample must not charge to a layer.
std::uint64_t g_last_ns = 0;
std::uint64_t g_last_overhead_ns = 0;

std::uint64_t now_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// The process CPU clock advances in scheduler ticks, too coarse to time the
// handler itself; the handler's cost is taken from the monotonic clock (the
// workloads profiled are single-threaded, so the two agree).
std::uint64_t cpu_now_ns() { return now_ns(CLOCK_PROCESS_CPUTIME_ID); }

// Charges the CPU time since the previous sample, less that sample's cost.
void charge(int layer, std::uint64_t cpu_ns) {
  const std::uint64_t elapsed = cpu_ns - g_last_ns;
  g_times.ns[static_cast<std::size_t>(layer)] +=
      elapsed > g_last_overhead_ns ? elapsed - g_last_overhead_ns : 0;
  g_last_ns = cpu_ns;
}

// Rules are tried in order against the function's qualified name; the
// first substring that matches picks the layer.
struct Rule {
  std::string_view needle;
  int layer;
};

constexpr Rule kRules[] = {
    {"perfbench::", kHarness},
    // Shared helpers: charged to whoever called them.
    {"peerhood::ByteWriter", kSkip},
    {"peerhood::ByteReader", kSkip},
    {"peerhood::MacAddress", kSkip},
    {"peerhood::Rng", kSkip},
    {"peerhood::Logger", kSkip},
    {"peerhood::HandlerSlot", kSkip},
    {"peerhood::DestructionSentinel", kSkip},
    {"peerhood::net::seal_frame", kSkip},
    {"peerhood::net::check_frame", kSkip},
    {"peerhood::net::begin_frame", kSkip},
    {"peerhood::net::Connection::", kSkip},
    // sim
    {"peerhood::sim::LinkFaultModel", kFault},
    {"peerhood::sim::NodeCrashPlane", kFault},
    {"peerhood::sim::StaticPosition", kMobility},
    {"peerhood::sim::LinearMotion", kMobility},
    {"peerhood::sim::WaypointPath", kMobility},
    {"peerhood::sim::RandomWaypoint", kMobility},
    {"peerhood::sim::GaussMarkov", kMobility},
    {"peerhood::sim::GroupMember", kMobility},
    {"peerhood::sim::MobilityModel", kMobility},
    {"peerhood::sim::RadioMedium", kMedium},
    {"peerhood::sim::SpatialGrid", kMedium},
    {"peerhood::sim::ShardedMedium", kMedium},
    {"peerhood::sim::LinkQualityModel", kMedium},
    {"peerhood::sim::bluetooth_params", kMedium},
    {"peerhood::sim::default_params", kMedium},
    {"peerhood::sim::", kEventCore},
    // net
    {"StreamFramer", kFramer},
    {"Posix", kPosix},
    {"SimConnection", kSimNetwork},
    {"peerhood::net::SimNetwork", kSimNetwork},
    {"peerhood::net::", kSkip},
    // discovery: responder side (encode) and requester side (merge)
    {"peerhood::SnapshotCache", kDiscoveryEncode},
    {"peerhood::Daemon::answer_fetch", kDiscoveryEncode},
    {"peerhood::Daemon::flush_pending_send", kDiscoveryEncode},
    {"peerhood::Daemon::snapshot_source", kDiscoveryEncode},
    {"peerhood::Daemon::section_gens", kDiscoveryEncode},
    {"peerhood::wire::SectionGens", kDiscoveryEncode},
    {"peerhood::wire::encode_into", kDiscoveryEncode},
    {"peerhood::wire::encode_snapshot_entry", kDiscoveryEncode},
    {"peerhood::wire::encode_device", kDiscoveryEncode},
    {"peerhood::wire::encode_service", kDiscoveryEncode},
    {"peerhood::wire::encode", kEngine},  // connect / resume / bridge frames
    {"peerhood::wire::decode_handshake", kEngine},
    {"peerhood::wire::decode_connect", kEngine},
    {"peerhood::wire::", kDiscoveryMerge},
    {"peerhood::Plugin", kDiscoveryMerge},
    {"peerhood::DeviceStorage", kDiscoveryMerge},
    {"peerhood::NeighbourhoodAnalyzer", kDiscoveryMerge},
    {"peerhood::Daemon::on_datagram", kDiscoveryMerge},
    // peerhood session plane
    {"peerhood::ReliableChannel", kReliable},
    {"peerhood::encode_reliable", kReliable},
    {"peerhood::decode_reliable", kReliable},
    {"peerhood::SessionStore", kSessionStore},
    {"peerhood::Engine", kEngine},
    {"peerhood::Channel", kEngine},
    {"peerhood::Library", kEngine},
    {"peerhood::Daemon", kEngine},
    {"peerhood::dial", kEngine},
    {"peerhood::bridge::", kBridge},
    {"peerhood::handover::", kHandover},
    {"peerhood::scenario::", kScenario},
    {"peerhood::node::", kScenario},
    {"peerhood::", kOther},
};

// The position just past `marker` in `name`, or npos.
std::size_t after(std::string_view name, std::string_view marker) {
  const std::size_t at = name.find(marker);
  return at == std::string_view::npos ? at : at + marker.size();
}

// Cuts `name` at its parameter list: the first '(' outside template
// brackets. Lambdas keep their enclosing function's qualified name.
std::string_view qualified_part(std::string_view name) {
  int depth = 0;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '<') ++depth;
    if (c == '>' && depth > 0) --depth;
    if (c == '(' && depth == 0) {
      // "(anonymous namespace)" is part of the name, not a parameter list.
      if (name.substr(i).starts_with("(anonymous namespace)")) {
        i += std::string_view{"(anonymous namespace)"}.size() - 1;
        continue;
      }
      return name.substr(0, i);
    }
    // A space at depth 0 before any '(' ends a return type ("void f<..>()").
    if (c == ' ' && depth == 0) return qualified_part(name.substr(i + 1));
  }
  return name;
}

int classify_name(std::string_view name) {
  // Invokers of type-erased callables run the callable's body: classify by
  // the callable's type, which names the function that created it.
  for (const std::string_view marker : {"InlineModel<", "HeapModel<"}) {
    const std::size_t at = after(name, marker);
    if (at != std::string_view::npos) return classify_name(name.substr(at));
  }
  if (name.starts_with("std::_Function_handler<")) {
    // _Function_handler<Signature, Functor>: skip the signature.
    int depth = 0;
    for (std::size_t i = 0; i < name.size(); ++i) {
      if (name[i] == '<' || name[i] == '(') ++depth;
      if (name[i] == '>' || name[i] == ')') --depth;
      if (name[i] == ',' && depth == 1) return classify_name(name.substr(i + 2));
    }
    return kSkip;
  }
  const std::string_view subject = qualified_part(name);
  if (subject == "main") return kHarness;
  if (!subject.starts_with("peerhood::") && !subject.starts_with("perfbench::")) {
    return kSkip;  // std::, __gnu_cxx::, runtime support
  }
  for (const Rule& rule : kRules) {
    if (subject.find(rule.needle) != std::string_view::npos) return rule.layer;
  }
  return kSkip;
}

int exe_info(dl_phdr_info* info, std::size_t, void* out) {
  // The first object reported is the executable itself.
  *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
  return 1;
}

bool load_symbols() {
  std::uintptr_t base = 0;
  dl_iterate_phdr(exe_info, &base);
  const int fd = ::open("/proc/self/exe", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < static_cast<off_t>(sizeof(Elf64_Ehdr))) {
    ::close(fd);
    return false;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return false;
  const auto* bytes = static_cast<const std::uint8_t*>(map);
  const auto* eh = reinterpret_cast<const Elf64_Ehdr*>(bytes);
  bool ok = std::memcmp(eh->e_ident, ELFMAG, SELFMAG) == 0 &&
            eh->e_ident[EI_CLASS] == ELFCLASS64 &&
            eh->e_shoff + std::uint64_t{eh->e_shnum} * sizeof(Elf64_Shdr) <= size;
  std::vector<Range> ranges;
  if (ok) {
    const auto* sh = reinterpret_cast<const Elf64_Shdr*>(bytes + eh->e_shoff);
    for (int s = 0; s < eh->e_shnum; ++s) {
      if (sh[s].sh_type != SHT_SYMTAB || sh[s].sh_link >= eh->e_shnum) continue;
      const Elf64_Shdr& strtab = sh[sh[s].sh_link];
      if (sh[s].sh_offset + sh[s].sh_size > size ||
          strtab.sh_offset + strtab.sh_size > size) {
        continue;
      }
      const auto* syms =
          reinterpret_cast<const Elf64_Sym*>(bytes + sh[s].sh_offset);
      const std::size_t count = sh[s].sh_size / sizeof(Elf64_Sym);
      const char* names = reinterpret_cast<const char*>(bytes + strtab.sh_offset);
      for (std::size_t i = 0; i < count; ++i) {
        const Elf64_Sym& sym = syms[i];
        if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_size == 0 ||
            sym.st_name >= strtab.sh_size) {
          continue;
        }
        const char* mangled = names + sym.st_name;
        int status = 0;
        char* demangled = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
        const int layer = classify_name(status == 0 ? demangled : mangled);
        std::free(demangled);
        ranges.push_back({base + sym.st_value, base + sym.st_value + sym.st_size,
                          layer});
      }
    }
  }
  ::munmap(map, size);
  if (ranges.empty()) return false;
  std::sort(ranges.begin(), ranges.end(),
            [](const Range& a, const Range& b) { return a.lo < b.lo; });
  g_exe_lo = ranges.front().lo;
  g_exe_hi = ranges.back().hi;
  for (const Range& r : ranges) g_exe_hi = std::max(g_exe_hi, r.hi);
  g_ranges = std::move(ranges);
  return true;
}

// Layer of one code address; kSkip outside the executable or in a skipped
// function.
int layer_of(std::uintptr_t pc) {
  if (pc < g_exe_lo || pc >= g_exe_hi) return kSkip;
  std::size_t lo = 0;
  std::size_t hi = g_ranges.size();
  while (lo < hi) {  // first range with lo > pc
    const std::size_t mid = (lo + hi) / 2;
    if (g_ranges[mid].lo <= pc) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return kSkip;
  const Range& r = g_ranges[lo - 1];
  return pc < r.hi ? r.layer : kSkip;
}

void on_sigprof(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  const std::uint64_t entry = now_ns(CLOCK_MONOTONIC);
  const std::uint64_t cpu = cpu_now_ns();
  void* frames[kMaxFrames];
  const int n = backtrace(frames, kMaxFrames);
  const auto* uc = static_cast<const ucontext_t*>(context);
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  // Start at the interrupted instruction; the frames above it are the
  // handler and the signal trampoline.
  int first = 0;
  while (first < n && reinterpret_cast<std::uintptr_t>(frames[first]) != pc) {
    ++first;
  }
  int layer = first == n ? layer_of(pc) : kSkip;
  for (int i = first; i < n && layer == kSkip; ++i) {
    auto addr = reinterpret_cast<std::uintptr_t>(frames[i]);
    if (i > first) addr -= 1;  // return address -> the call instruction
    layer = layer_of(addr);
  }
  if (layer == kSkip) layer = kOther;
  charge(layer, cpu);
  ++g_times.hits[static_cast<std::size_t>(layer)];
  ++g_times.samples;
  g_last_overhead_ns = now_ns(CLOCK_MONOTONIC) - entry;
  g_times.overhead_ns += g_last_overhead_ns;
  errno = saved_errno;
}

void set_timer(long interval_us) {
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

}  // namespace

const char* layer_metric(Layer layer) {
  switch (layer) {
    case kEventCore: return "sim.event_core.self_s";
    case kMedium: return "sim.medium.self_s";
    case kMobility: return "sim.mobility.self_s";
    case kFault: return "sim.fault.self_s";
    case kSimNetwork: return "net.sim_network.self_s";
    case kPosix: return "net.posix.self_s";
    case kFramer: return "net.framer.self_s";
    case kDiscoveryEncode: return "discovery.encode.self_s";
    case kDiscoveryMerge: return "discovery.merge.self_s";
    case kEngine: return "peerhood.engine.self_s";
    case kReliable: return "peerhood.reliable.self_s";
    case kSessionStore: return "peerhood.session_store.self_s";
    case kBridge: return "bridge.self_s";
    case kHandover: return "handover.self_s";
    case kScenario: return "scenario.self_s";
    case kHarness: return "harness.self_s";
    case kOther: return "other.self_s";
    case kLayerCount: break;
  }
  return "?";
}

LayerTimes& LayerTimes::operator+=(const LayerTimes& other) {
  for (std::size_t i = 0; i < ns.size(); ++i) {
    ns[i] += other.ns[i];
    hits[i] += other.hits[i];
  }
  overhead_ns += other.overhead_ns;
  samples += other.samples;
  return *this;
}

double LayerTimes::total_s() const {
  std::uint64_t total = 0;
  for (const std::uint64_t v : ns) total += v;
  return static_cast<double>(total) * 1e-9;
}

bool Profiler::start() {
  if (!g_loaded) {
    if (!load_symbols()) return false;
    // backtrace() loads the unwinder on first use; do that outside the
    // handler, where allocating is allowed.
    void* warm[4];
    (void)backtrace(warm, 4);
    struct sigaction action {};
    action.sa_sigaction = on_sigprof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, nullptr);
    g_loaded = true;
  }
  g_times = LayerTimes{};
  g_last_ns = cpu_now_ns();
  g_last_overhead_ns = 0;
  set_timer(kIntervalUs);
  return true;
}

void Profiler::stop() {
  set_timer(0);
  // The stretch since the last sample has no stack; it is harness time
  // (the profiler is stopped from the harness).
  charge(kHarness, cpu_now_ns());
  g_last_overhead_ns = 0;
}

LayerTimes Profiler::snapshot() { return g_times; }

int Profiler::classify(const char* demangled) { return classify_name(demangled); }

}  // namespace perfbench
