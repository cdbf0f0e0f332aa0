// rt-loopback: two full PeerHood stacks (PosixNetwork + Daemon + Library)
// in one process over the loopback interface, pumped alternately from one
// thread with zero-timeout polls, so no timed loop waits on a poll quantum.
//
// After the set-ups, the run repeats rounds of the same operations while
// another round fits in --seconds: a chunk of dials (Library::connect until
// the channel opens), a 64 B and a 1 KiB stream over fresh plain Channels,
// a stream of untagged raw counters, a chunk of a ReliableChannel stream
// whose server journals every frontier to an on-disk SessionStore (as
// tools/realnet_node.cpp does), and a chunk of one-in-flight datagram pings.
// Rates and latencies are medians over the rounds' chunks. Every tagged
// payload carries a sequence number and a digest that is checked on
// arrival; raw counters that never arrive are counted as failed operations.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "checks.hpp"
#include "net/posix_network.hpp"
#include "peerhood/daemon.hpp"
#include "peerhood/library.hpp"
#include "peerhood/reliable_channel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace peerhood;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr Technology kTech = Technology::kBluetooth;
constexpr Technology kPingTech = Technology::kWlan;  // unused by the daemons
constexpr std::size_t kWindow = 64;          // plain-stream payloads in flight
constexpr int kConnectChunk = 20;
constexpr std::size_t kStreamChunk = 64 * kWindow;
constexpr std::uint64_t kRawCounters = 256;
constexpr int kReliableChunk = 250;
constexpr int kPingChunk = 1000;
constexpr int kSetups = 7;
constexpr std::size_t kSampleCapacity = std::size_t{1} << 16;
constexpr double kWaitLimitS = 5.0;  // one operation's wall-clock limit

ReliableConfig journalled_config() {
  // tools/realnet_node.cpp's settings for a loopback session.
  ReliableConfig config;
  config.ack_delay = milliseconds(30);
  config.retransmit_interval = milliseconds(250);
  config.retransmit_cap = seconds(2.0);
  return config;
}

// The most recent kSampleCapacity samples, in memory allocated and touched
// up front, so peak RSS does not grow with the amount of work a run does.
class Samples {
 public:
  Samples() : values_(kSampleCapacity, 0.0) {}
  void add(double value) { values_[count_++ % values_.size()] = value; }
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] std::vector<double> kept() const {
    return {values_.begin(),
            values_.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(count_, values_.size()))};
  }

 private:
  std::vector<double> values_;
  std::size_t count_{0};
};

struct Stack {
  std::unique_ptr<net::PosixNetwork> network;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Library> library;
};

// Both stacks plus the server-side application: plain and reliable sinks
// that verify every payload.
class Loopback {
 public:
  Loopback(std::uint64_t seed, const std::string& journal_path)
      : journal_path_{journal_path} {
    std::filesystem::remove(journal_path_);
    std::filesystem::remove(journal_path_ + ".tmp");
    for (int i = 0; i < 2; ++i) {
      net::PosixConfig config;
      config.mac = MacAddress::from_index(static_cast<std::uint64_t>(i + 1));
      config.seed = seed * 2 + static_cast<std::uint64_t>(i);
      stacks_[i].network = std::make_unique<net::PosixNetwork>(config);
    }
    for (int i = 0; i < 2; ++i) {
      const net::PosixNetwork& peer = *stacks_[1 - i].network;
      stacks_[i].network->add_peer(
          {peer.mac(), "127.0.0.1", peer.udp_port(), peer.tcp_port()});
    }
    for (int i = 0; i < 2; ++i) {
      DaemonConfig config;
      config.device_name = i == 0 ? "client" : "server";
      config.technologies = {kTech};
      if (i == 1) config.session_journal_path = journal_path_;
      Stack& s = stacks_[i];
      s.daemon = std::make_unique<Daemon>(*s.network, s.network->mac(),
                                          nullptr, std::move(config));
      s.library = std::make_unique<Library>(*s.daemon);
      s.daemon->start();
    }
    Library& server = *stacks_[1].library;
    (void)server.register_service(
        ServiceInfo{"sink", "", 0},
        [this](ChannelPtr channel, const wire::ConnectRequest&) {
          server_channels_.push_back(std::move(channel));
          server_channels_.back()->set_data_handler([this](const Bytes& p) {
            if (!plain_check_.accept(p)) ++rejected_;
          });
        });
    (void)server.register_service(
        ServiceInfo{"raw", "", 0},
        [this](ChannelPtr channel, const wire::ConnectRequest&) {
          server_channels_.push_back(std::move(channel));
          server_channels_.back()->set_data_handler([this](const Bytes& p) {
            // A raw chunk ends with one tagged fence payload, shorter than
            // every raw counter.
            const bool ok = p.size() == kRawPayloadSize
                                ? raw_check_.accept(p, raw_limit_)
                                : fence_check_.accept(p);
            if (!ok) ++rejected_;
          });
        });
    (void)server.register_service(
        ServiceInfo{"rsink", "", 0},
        [this](ChannelPtr channel, const wire::ConnectRequest&) {
          adopt_reliable(std::move(channel));
        });
  }

  ~Loopback() {
    server_reliable_.reset();
    reliable_channel_.reset();
    server_channels_.clear();
    std::filesystem::remove(journal_path_);
  }

  Loopback(const Loopback&) = delete;
  Loopback& operator=(const Loopback&) = delete;

  net::PosixNetwork& client_net() { return *stacks_[0].network; }
  net::PosixNetwork& server_net() { return *stacks_[1].network; }
  Library& client() { return *stacks_[0].library; }
  Daemon& daemon(int i) { return *stacks_[i].daemon; }

  void pump() {
    client_net().poll_once(SimDuration{0});
    server_net().poll_once(SimDuration{0});
  }

  // Pumps until `done` or the wall-clock limit; false on timeout.
  template <typename Done>
  bool pump_until(Done done) {
    const auto start = Clock::now();
    while (!done()) {
      if (since(start) > kWaitLimitS) return false;
      pump();
    }
    return true;
  }

  // Both stacks know each other: the client lists the server's sinks and
  // the server lists the client.
  bool discovered() {
    int sinks = 0;
    for (const auto& [device, service] : client().get_service_list()) {
      if (device.mac == server_net().mac() &&
          (service.name == "sink" || service.name == "raw" ||
           service.name == "rsink")) {
        ++sinks;
      }
    }
    bool server_knows = false;
    for (const DeviceRecord& record : stacks_[1].library->get_device_list()) {
      server_knows = server_knows || record.device.mac == client_net().mac();
    }
    return sinks == 3 && server_knows;
  }

  // Dials `service`; the channel, or nullptr on failure or timeout.
  ChannelPtr dial(const std::string& service) {
    std::optional<Result<ChannelPtr>> outcome;
    Library::ConnectOptions options;
    options.timeout = seconds(kWaitLimitS);
    client().connect(server_net().mac(), service, options,
                     [&outcome](Result<ChannelPtr> r) { outcome = std::move(r); });
    if (!pump_until([&] { return outcome.has_value(); })) return nullptr;
    return outcome->ok() ? std::move(*outcome).value() : nullptr;
  }

  void drop_server_channels() {
    for (const ChannelPtr& channel : server_channels_) channel->close();
    server_channels_.clear();
  }

  StreamCheck& plain_check() { return plain_check_; }
  StreamCheck& reliable_check() { return reliable_check_; }
  const RawCounterCheck& raw_check() const { return raw_check_; }
  const StreamCheck& fence_check() const { return fence_check_; }
  std::uint64_t rejected() const { return rejected_; }
  ReliableChannel* server_reliable() { return server_reliable_.get(); }
  std::uint64_t reliable_session() const { return reliable_session_; }
  const Samples& journal_us() const { return journal_us_; }

  void reset_plain_check() { plain_check_ = StreamCheck{}; }
  // A raw chunk of counters 1..limit follows.
  void reset_raw_check(std::uint64_t limit) {
    raw_check_ = RawCounterCheck{};
    fence_check_ = StreamCheck{};
    raw_limit_ = limit;
  }

 private:
  void adopt_reliable(ChannelPtr channel) {
    // Kept apart from the plain channels, which every chunk drops.
    reliable_session_ = channel->session_id();
    reliable_channel_ = channel;
    server_reliable_ = std::make_shared<ReliableChannel>(
        server_net().simulator(), channel, journalled_config());
    Daemon* daemon = stacks_[1].daemon.get();
    server_reliable_->set_journal_hook(
        [this, daemon, id = channel->session_id(), peer = channel->peer(),
         service = channel->service()](std::uint64_t next_seq,
                                       std::uint64_t expected) {
          const auto start = Clock::now();
          if (!daemon->session_store().update_frontier(id, next_seq, expected)) {
            daemon->session_store().put(
                SessionRecord{id, peer, service, next_seq, expected});
          }
          journal_us_.add(since(start) * 1e6);
        });
    server_reliable_->set_data_handler([this](const Bytes& p) {
      if (!reliable_check_.accept(p)) ++rejected_;
    });
  }

  std::string journal_path_;
  Stack stacks_[2];
  std::vector<ChannelPtr> server_channels_;
  ChannelPtr reliable_channel_;
  std::shared_ptr<ReliableChannel> server_reliable_;
  StreamCheck plain_check_;
  StreamCheck reliable_check_;
  RawCounterCheck raw_check_;
  StreamCheck fence_check_;
  std::uint64_t raw_limit_{0};
  std::uint64_t rejected_{0};
  std::uint64_t reliable_session_{0};
  Samples journal_us_;
};

net::NetStats both_stats(Loopback& loop) {
  net::NetStats stats = loop.client_net().net_stats();
  stats += loop.server_net().net_stats();
  return stats;
}

// One chunk of kStreamChunk `size`-byte payloads over a fresh plain
// channel, in lockstep bursts: kWindow payloads written, then all of them
// delivered, so every chunk batches the same way. Returns the chunk's rate
// in payloads per second, or 0 with `error` set.
double plain_chunk(Loopback& loop, std::uint64_t key, std::size_t size,
                   std::string& error) {
  const ChannelPtr channel = loop.dial("sink");
  if (channel == nullptr) {
    error = "connect failed";
    return 0.0;
  }
  loop.reset_plain_check();
  std::uint64_t sent = 0;
  const auto start = Clock::now();
  for (std::size_t burst = 0; burst < kStreamChunk / kWindow; ++burst) {
    for (std::size_t i = 0; i < kWindow; ++i) {
      if (!channel->write(make_payload(key, sent + 1, size)).ok()) {
        error = "write refused at seq " + std::to_string(sent + 1);
        return 0.0;
      }
      ++sent;
    }
    const bool drained = loop.pump_until([&] {
      return loop.plain_check().delivered() == sent ||
             !loop.plain_check().error().empty();
    });
    if (!loop.plain_check().error().empty()) {
      error = loop.plain_check().error();
      return 0.0;
    }
    if (!drained) {
      error = "stalled at " + std::to_string(loop.plain_check().delivered());
      return 0.0;
    }
  }
  const double rate = static_cast<double>(kStreamChunk) / since(start);
  channel->close();
  loop.drop_server_channels();
  return rate;
}

// One chunk of raw counters 1..count over a fresh plain channel, closed by
// a tagged fence payload: once the fence has arrived, every counter before
// it has arrived or is lost. Returns the counters that never arrived, or
// sets `error` when the channel failed or a payload arrived wrong.
std::vector<std::uint64_t> raw_chunk(Loopback& loop, std::uint64_t fence_key,
                                     std::uint64_t count, std::string& error) {
  const ChannelPtr channel = loop.dial("raw");
  if (channel == nullptr) {
    error = "connect failed";
    return {};
  }
  loop.reset_raw_check(count);
  for (std::uint64_t counter = 1; counter <= count; ++counter) {
    if (!channel->write(make_raw_payload(counter)).ok()) {
      error = "write refused at counter " + std::to_string(counter);
      return {};
    }
  }
  if (!channel->write(make_payload(fence_key, 1, 0)).ok()) {
    error = "fence write refused";
    return {};
  }
  const auto failed = [&] {
    return !loop.raw_check().error().empty() ? loop.raw_check().error()
                                             : loop.fence_check().error();
  };
  const bool fenced = loop.pump_until([&] {
    return loop.fence_check().delivered() == 1 || !failed().empty();
  });
  error = !failed().empty() ? failed() : fenced ? "" : "fence never arrived";
  channel->close();
  loop.drop_server_channels();
  return loop.raw_check().missing(count);
}

}  // namespace

int run_stray_ok_probe(std::uint64_t seed) {
  // Raw little-endian counters, as an application without a type byte
  // would send them: counter 13 starts with the PH_OK command code.
  Loopback loop{seed, ".bench_build/probe-journal"};
  if (!loop.pump_until([&] { return loop.discovered(); })) return 1;
  constexpr std::uint64_t kCount = 600;
  std::string error;
  const std::vector<std::uint64_t> missing =
      raw_chunk(loop, seed, kCount, error);
  if (!error.empty()) {
    std::printf("probe stray-ok: %s\n", error.c_str());
    return 1;
  }
  std::printf("probe stray-ok: %llu of %llu counters arrived; missing:",
              static_cast<unsigned long long>(kCount - missing.size()),
              static_cast<unsigned long long>(kCount));
  for (const std::uint64_t v : missing) {
    std::printf(" %llu", static_cast<unsigned long long>(v));
  }
  std::printf("\n");
  return 0;
}

RunResult run_rt_loopback(const RunOptions& options) {
  RunResult result;
  const std::string journal =
      (std::filesystem::current_path() / ".bench_build" /
       ("rt-journal-" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(
      std::filesystem::path{journal}.parent_path());
  const auto fail = [&](const std::string& why) {
    result.errors.push_back(why);
    ++result.failed;
    return result;
  };
  const auto run_start = Clock::now();

  // Set-up: build both stacks and discover, kSetups times; the last pair is
  // the one measured.
  std::vector<double> setups;
  std::unique_ptr<Loopback> loop;
  for (int i = 0; i < kSetups; ++i) {
    loop.reset();
    const auto start = Clock::now();
    // A seed per set-up, so the set-ups sample different discovery timer
    // phases and their median does not hang on one of them.
    loop = std::make_unique<Loopback>(options.seed * 16 + i, journal);
    if (!loop->pump_until([&] { return loop->discovered(); })) {
      return fail("setup: the stacks did not discover each other");
    }
    setups.push_back(since(start));
  }
  result.end_to_end["setup_s"] = median(setups);
  const net::NetStats stats_start = both_stats(*loop);

  // The journalled reliable session and the datagram interfaces live for
  // the whole run; each round adds a chunk to them.
  const ChannelPtr rchannel = loop->dial("rsink");
  if (rchannel == nullptr || loop->server_reliable() == nullptr) {
    return fail("reliable connect failed");
  }
  auto client_layer = std::make_shared<ReliableChannel>(
      loop->client_net().simulator(), rchannel, journalled_config());
  net::PosixNetwork& a = loop->client_net();
  net::PosixNetwork& b = loop->server_net();
  a.attach_interface(a.mac(), kPingTech, nullptr);
  b.attach_interface(b.mac(), kPingTech, nullptr);
  StreamCheck ping_check;
  Clock::time_point arrived{};
  b.set_datagram_handler(b.mac(), kPingTech,
                         [&](MacAddress, std::span<const std::uint8_t> body) {
                           arrived = Clock::now();
                           (void)ping_check.accept(body);
                         });

  Samples connect_us;
  Samples ping_us;
  std::vector<double> small_rates;
  std::vector<double> large_rates;
  std::vector<double> reliable_rates;
  std::uint64_t plain_delivered = 0;
  std::uint64_t stream_frames = 0;
  std::uint64_t rsent = 0;
  std::uint64_t refusals = 0;
  std::uint64_t pings = 0;
  const std::uint64_t rkey = options.seed * 3 + 3;
  const std::uint64_t pkey = options.seed * 3 + 4;
  const auto frames = [&] { return both_stats(*loop).frames_checked; };
  std::uint64_t rounds = 0;
  double round_s = 0.0;
  do {
    const auto round_start = Clock::now();
    ++rounds;

    // Dials.
    for (int i = 0; i < kConnectChunk; ++i) {
      ++result.attempted;
      const auto t0 = Clock::now();
      const ChannelPtr channel = loop->dial("sink");
      if (channel == nullptr) return fail("connect failed");
      connect_us.add(since(t0) * 1e6);
      channel->close();
    }
    loop->drop_server_channels();

    // Plain streams, 64 B then 1 KiB, each on a fresh channel.
    for (const std::size_t size : {std::size_t{64}, std::size_t{1024}}) {
      std::string error;
      const std::uint64_t key = options.seed * 1000 + plain_delivered;
      const std::uint64_t frames_before = frames();
      const double rate = plain_chunk(*loop, key, size, error);
      result.attempted += kStreamChunk + 1;
      if (!error.empty()) {
        return fail(std::to_string(size) + " B stream: " + error);
      }
      stream_frames += frames() - frames_before;
      plain_delivered += kStreamChunk;
      (size == 64 ? small_rates : large_rates).push_back(rate);
    }

    // Raw counters: the same counters every round, whatever the seed.
    {
      std::string error;
      const std::vector<std::uint64_t> missing =
          raw_chunk(*loop, pkey + rounds, kRawCounters, error);
      result.attempted += kRawCounters + 1;
      if (!error.empty()) return fail("raw stream: " + error);
      result.failed += missing.size();
    }

    // A chunk of the journalled reliable stream.
    {
      const std::uint64_t frames_before = frames();
      const std::uint64_t target = rsent + kReliableChunk;
      const auto chunk_start = Clock::now();
      while (loop->reliable_check().delivered() < target) {
        while (rsent < target) {
          if (!client_layer->send(make_payload(rkey, rsent + 1, 64)).ok()) {
            ++refusals;  // window full: backpressure
            break;
          }
          ++rsent;
        }
        loop->pump();
        if (!loop->reliable_check().error().empty()) break;
        if (since(chunk_start) > kWaitLimitS) break;
      }
      result.attempted += kReliableChunk;
      if (loop->reliable_check().delivered() < target) {
        const std::string why = loop->reliable_check().error();
        return fail("reliable stream: " + (why.empty() ? "stalled" : why));
      }
      reliable_rates.push_back(kReliableChunk / since(chunk_start));
      stream_frames += frames() - frames_before;
    }

    // Datagram pings, one in flight.
    for (int i = 0; i < kPingChunk; ++i) {
      ++pings;
      ++result.attempted;
      Bytes payload = make_payload(pkey, pings, 64);
      const auto sent_at = Clock::now();
      a.send_datagram(a.mac(), b.mac(), kPingTech, std::move(payload));
      if (!loop->pump_until([&] { return ping_check.delivered() >= pings; }) ||
          !ping_check.error().empty()) {
        return fail("datagram " + std::to_string(pings) + ": " +
                    (ping_check.error().empty() ? "lost" : ping_check.error()));
      }
      ping_us.add(
          std::chrono::duration<double, std::micro>(arrived - sent_at).count());
    }
    round_s = since(round_start);
  } while (since(run_start) + round_s <= options.seconds);
  result.rounds = rounds;

  if (!loop->pump_until([&] { return client_layer->unacked() == 0; })) {
    return fail("reliable stream: acks never drained");
  }
  const std::uint64_t rdelivered = loop->reliable_check().delivered();
  {
    SessionStore on_disk;
    on_disk.bind_file(journal);
    const SessionRecord* record = on_disk.find(loop->reliable_session());
    const std::string why =
        record == nullptr ? "no journal record on disk"
                          : check_journal_frontier(record->expected, rdelivered);
    if (!why.empty()) result.errors.push_back("journal: " + why);
  }
  const double retransmissions = static_cast<double>(
      client_layer->retransmissions() + loop->server_reliable()->retransmissions());
  const double fast_retransmits =
      static_cast<double>(client_layer->fast_retransmits() +
                          loop->server_reliable()->fast_retransmits());
  client_layer.reset();

  // Checks that span rounds.
  const net::NetStats stats_end = both_stats(*loop);
  if (stats_end.corrupt_drops != stats_start.corrupt_drops) {
    result.errors.push_back("net.corrupt_drops is " +
                            std::to_string(stats_end.corrupt_drops));
  }
  if (loop->rejected() != 0) {
    result.errors.push_back(std::to_string(loop->rejected()) +
                            " payloads failed verification");
  }

  // Equal message counts on the two plain streams: the mix's rate. The
  // journalled stream's rate is a DETAIL figure only: it follows the file
  // system's rename latency, whose run-to-run spread is far above any bound.
  const double small_rate = median(small_rates);
  const double large_rate = median(large_rates);
  const double mix_rate = 2.0 / (1.0 / small_rate + 1.0 / large_rate);
  result.end_to_end["msgs_per_s"] = mix_rate;
  result.end_to_end["frames_per_msg"] =
      static_cast<double>(stream_frames) /
      static_cast<double>(plain_delivered + rdelivered);
  result.detail["connect_p50_us"] = median(connect_us.kept());
  result.detail["small_msgs_per_s"] = small_rate;
  result.detail["stream_mb_per_s"] = large_rate * 1024.0 / 1e6;
  result.detail["reliable_msgs_per_s"] = median(reliable_rates);
  result.detail["datagram_p50_us"] = median(ping_us.kept());
  result.detail["connects"] = static_cast<double>(connect_us.count());
  result.detail["datagrams"] = static_cast<double>(ping_us.count());
  result.detail["rounds"] = static_cast<double>(rounds);

  auto& c = result.counts;
  c["net.frames_checked"] =
      static_cast<double>(stats_end.frames_checked - stats_start.frames_checked);
  c["net.corrupt_drops"] =
      static_cast<double>(stats_end.corrupt_drops - stats_start.corrupt_drops);
  c["net.send_queue_drops"] = static_cast<double>(stats_end.send_queue_drops -
                                                  stats_start.send_queue_drops);
  c["net.reconnect_attempts"] = static_cast<double>(
      stats_end.reconnect_attempts - stats_start.reconnect_attempts);
  c["net.connect_tail_us"] = tail(connect_us.kept());
  c["net.datagram_tail_us"] = tail(ping_us.kept());
  for (int i = 0; i < 2; ++i) {
    Daemon& daemon = loop->daemon(i);
    const Engine::Stats& e = daemon.engine().stats();
    c["peerhood.engine.connects"] += static_cast<double>(e.connects);
    c["peerhood.engine.resumes"] += static_cast<double>(e.resumes);
    c["peerhood.engine.restart_resumes"] += static_cast<double>(e.restart_resumes);
    if (const Plugin* plugin = daemon.plugin(kTech)) {
      const Plugin::Stats& p = plugin->stats();
      c["discovery.fetches"] += static_cast<double>(p.fetch_attempts);
      c["discovery.not_modified"] += static_cast<double>(p.not_modified);
      c["discovery.deltas"] += static_cast<double>(p.delta_responses);
      c["discovery.integrations"] += static_cast<double>(p.integrations);
      c["discovery.fetch_timeouts"] += static_cast<double>(p.fetch_timeouts);
    }
    c["discovery.full_encodes"] +=
        static_cast<double>(daemon.snapshot_cache().stats().full_encodes);
  }
  c["peerhood.reliable.retransmissions"] = retransmissions;
  c["peerhood.reliable.fast_retransmits"] = fast_retransmits;
  c["peerhood.reliable.window_refusals"] = static_cast<double>(refusals);
  c["peerhood.session_store.journal_writes"] =
      static_cast<double>(loop->journal_us().count());
  c["peerhood.session_store.journal_us"] = median(loop->journal_us().kept());
  // Counts per round, like the simulated workloads' figures; latencies are
  // medians and tails and stay as they are.
  for (auto& [name, value] : c) {
    if (!name.ends_with("_us")) value /= static_cast<double>(rounds);
  }
  return result;
}

}  // namespace perfbench
