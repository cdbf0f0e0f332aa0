#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

namespace perfbench {
namespace {

using peerhood::scenario::ScenarioMetrics;
using peerhood::scenario::SessionMetrics;

std::string session_label(std::size_t index) {
  return "session " + std::to_string(index) + ": ";
}

void put_u64(std::uint8_t* out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) value = (value << 8) | in[i];
  return value;
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Appends "field a!=b" for the first differing field; later fields are
// skipped once one differs.
class Differ {
 public:
  template <typename T>
  void field(const std::string& name, const T& a, const T& b) {
    if (!diff_.empty() || a == b) return;
    diff_ = name + " " + std::to_string(a) + " != " + std::to_string(b);
  }
  [[nodiscard]] const std::string& result() const { return diff_; }

 private:
  std::string diff_;
};

}  // namespace

std::string check_plain_sessions(const ScenarioMetrics& metrics,
                                  std::uint64_t inflight_bound) {
  if (metrics.sessions.empty()) return "no sessions";
  for (std::size_t i = 0; i < metrics.sessions.size(); ++i) {
    const SessionMetrics& s = metrics.sessions[i];
    if (!s.connected) return session_label(i) + "never connected";
    if (s.dup_or_reorder != 0) {
      return session_label(i) + std::to_string(s.dup_or_reorder) +
             " messages behind the high-water mark";
    }
    // Signed: messages sent during set-up can arrive in the body, after
    // the counters were reset, so the difference may also be negative.
    const auto unaccounted = static_cast<std::int64_t>(s.sent) -
                             static_cast<std::int64_t>(s.received + s.gaps);
    if (unaccounted > static_cast<std::int64_t>(inflight_bound) ||
        -unaccounted > static_cast<std::int64_t>(inflight_bound)) {
      return session_label(i) + "sent - received - gaps = " +
             std::to_string(unaccounted) + " (bound " +
             std::to_string(inflight_bound) + ")";
    }
  }
  return {};
}

std::string check_exactly_once(const ScenarioMetrics& metrics) {
  if (metrics.sessions.empty()) return "no sessions";
  for (std::size_t i = 0; i < metrics.sessions.size(); ++i) {
    const SessionMetrics& s = metrics.sessions[i];
    if (!s.connected) return session_label(i) + "never connected";
    if (s.dup_or_reorder != 0) {
      return session_label(i) + std::to_string(s.dup_or_reorder) +
             " duplicate or reordered deliveries";
    }
    if (s.gaps != 0) {
      return session_label(i) + std::to_string(s.gaps) + " skipped counters";
    }
    if (s.received > s.sent) return session_label(i) + "received exceeds sent";
    if (s.received == 0) return session_label(i) + "delivered nothing";
  }
  return {};
}

std::string check_chaos_coverage(const ScenarioMetrics& metrics) {
  const peerhood::sim::FaultStats& f = metrics.fault_stats;
  if (f.loss_drops == 0) return "no frame was lost";
  if (f.corrupted == 0) return "no frame was corrupted";
  if (f.duplicated == 0) return "no frame was duplicated";
  if (f.reordered == 0) return "no frame was reordered";
  if (f.burst_entries == 0) return "the loss model never entered a burst";
  if (f.node_crashes == 0) return "the server never crashed";
  if (metrics.corrupt_frames_dropped == 0) {
    return "no corrupted frame was caught by the frame check";
  }
  if (metrics.restart_resumes == 0) return "no session resumed from the journal";
  return {};
}

std::string diff_metrics(const ScenarioMetrics& a, const ScenarioMetrics& b) {
  Differ d;
  d.field("sessions.size", a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size() && i < b.sessions.size(); ++i) {
    const SessionMetrics& x = a.sessions[i];
    const SessionMetrics& y = b.sessions[i];
    const std::string p = "sessions[" + std::to_string(i) + "].";
    d.field(p + "connected", x.connected, y.connected);
    d.field(p + "sent", x.sent, y.sent);
    d.field(p + "received", x.received, y.received);
    d.field(p + "handovers", x.handovers, y.handovers);
    d.field(p + "predictions", x.predictions, y.predictions);
    d.field(p + "predictive_handovers", x.predictive_handovers,
            y.predictive_handovers);
    d.field(p + "reconnections", x.reconnections, y.reconnections);
    d.field(p + "restarts", x.restarts, y.restarts);
    d.field(p + "dup_or_reorder", x.dup_or_reorder, y.dup_or_reorder);
    d.field(p + "gaps", x.gaps, y.gaps);
    d.field(p + "outage_episodes", x.outage_episodes, y.outage_episodes);
    d.field(p + "outage_s", x.outage_s, y.outage_s);
    d.field(p + "handover_latency_sum_s", x.handover_latency_sum_s,
            y.handover_latency_sum_s);
    d.field(p + "handover_latency_count", x.handover_latency_count,
            y.handover_latency_count);
  }
  d.field("medium_frames", a.medium_frames, b.medium_frames);
  d.field("medium_frame_bytes", a.medium_frame_bytes, b.medium_frame_bytes);
  d.field("quality_observer_evals", a.quality_observer_evals,
          b.quality_observer_evals);
  d.field("quality_events", a.quality_events, b.quality_events);
  const peerhood::sim::FaultStats& fa = a.fault_stats;
  const peerhood::sim::FaultStats& fb = b.fault_stats;
  d.field("fault_stats.frames_seen", fa.frames_seen, fb.frames_seen);
  d.field("fault_stats.loss_drops", fa.loss_drops, fb.loss_drops);
  d.field("fault_stats.blackout_drops", fa.blackout_drops, fb.blackout_drops);
  d.field("fault_stats.corrupted", fa.corrupted, fb.corrupted);
  d.field("fault_stats.duplicated", fa.duplicated, fb.duplicated);
  d.field("fault_stats.reordered", fa.reordered, fb.reordered);
  d.field("fault_stats.burst_entries", fa.burst_entries, fb.burst_entries);
  d.field("fault_stats.node_crashes", fa.node_crashes, fb.node_crashes);
  d.field("fault_stats.node_restarts", fa.node_restarts, fb.node_restarts);
  d.field("corrupt_frames_dropped", a.corrupt_frames_dropped,
          b.corrupt_frames_dropped);
  d.field("net_stats.frames_checked", a.net_stats.frames_checked,
          b.net_stats.frames_checked);
  d.field("net_stats.corrupt_drops", a.net_stats.corrupt_drops,
          b.net_stats.corrupt_drops);
  d.field("net_stats.send_queue_drops", a.net_stats.send_queue_drops,
          b.net_stats.send_queue_drops);
  d.field("net_stats.reconnect_attempts", a.net_stats.reconnect_attempts,
          b.net_stats.reconnect_attempts);
  d.field("restart_resumes", a.restart_resumes, b.restart_resumes);
  return d.result();
}

std::uint64_t payload_digest(std::uint64_t seq,
                             std::span<const std::uint8_t> body) {
  // FNV-1a over the sequence number and the body.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((seq >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
  }
  for (const std::uint8_t byte : body) h = (h ^ byte) * 0x100000001b3ULL;
  return h;
}

peerhood::Bytes make_payload(std::uint64_t stream_key, std::uint64_t seq,
                             std::size_t size) {
  peerhood::Bytes payload(std::max(size, kPayloadHeader));
  std::uint64_t state = stream_key ^ (seq * 0xd1342543de82ef95ULL);
  for (std::size_t i = kPayloadHeader; i < payload.size(); i += 8) {
    const std::uint64_t word = splitmix(state);
    const std::size_t n = std::min<std::size_t>(8, payload.size() - i);
    std::memcpy(payload.data() + i, &word, n);
  }
  const auto body =
      std::span<const std::uint8_t>{payload}.subspan(kPayloadHeader);
  payload[0] = kPayloadTag;
  put_u64(payload.data() + 1, seq);
  put_u64(payload.data() + 9, payload_digest(seq, body));
  return payload;
}

bool StreamCheck::accept(std::span<const std::uint8_t> payload) {
  if (!error_.empty()) return false;
  if (payload.size() < kPayloadHeader) {
    error_ = "short payload of " + std::to_string(payload.size()) + " bytes";
    return false;
  }
  if (payload[0] != kPayloadTag) {
    error_ = "payload without the application tag";
    return false;
  }
  const std::uint64_t seq = get_u64(payload.data() + 1);
  const std::uint64_t digest = get_u64(payload.data() + 9);
  if (digest != payload_digest(seq, payload.subspan(kPayloadHeader))) {
    error_ = "digest mismatch at seq " + std::to_string(seq);
    return false;
  }
  if (seq < next_) {
    error_ = "duplicate or reordered seq " + std::to_string(seq) +
             " (expected " + std::to_string(next_) + ")";
    return false;
  }
  if (seq > next_) {
    error_ = "skipped from seq " + std::to_string(next_) + " to " +
             std::to_string(seq);
    return false;
  }
  ++next_;
  return true;
}

peerhood::Bytes make_raw_payload(std::uint64_t counter) {
  peerhood::Bytes payload(kRawPayloadSize);
  put_u64(payload.data(), counter);
  std::uint64_t state = counter;
  for (std::size_t i = 8; i < payload.size(); i += 8) {
    put_u64(payload.data() + i, splitmix(state));
  }
  return payload;
}

bool RawCounterCheck::accept(std::span<const std::uint8_t> payload,
                             std::uint64_t limit) {
  if (!error_.empty()) return false;
  if (payload.size() != kRawPayloadSize) {
    error_ = "raw payload of " + std::to_string(payload.size()) + " bytes";
    return false;
  }
  const std::uint64_t counter = get_u64(payload.data());
  if (counter <= last_) {
    error_ = "duplicate or reordered counter " + std::to_string(counter) +
             " after " + std::to_string(last_);
    return false;
  }
  if (counter > limit) {
    error_ = "counter " + std::to_string(counter) + " was never sent";
    return false;
  }
  if (!std::equal(payload.begin(), payload.end(),
                  make_raw_payload(counter).begin())) {
    error_ = "corrupt body at counter " + std::to_string(counter);
    return false;
  }
  for (std::uint64_t c = last_ + 1; c < counter; ++c) skipped_.push_back(c);
  last_ = counter;
  return true;
}

std::vector<std::uint64_t> RawCounterCheck::missing(std::uint64_t sent) const {
  std::vector<std::uint64_t> out = skipped_;
  for (std::uint64_t c = last_ + 1; c <= sent; ++c) out.push_back(c);
  return out;
}

std::string check_journal_frontier(std::uint64_t frontier,
                                   std::uint64_t delivered) {
  if (frontier == delivered + 1) return {};
  return "journal frontier " + std::to_string(frontier) + " after " +
         std::to_string(delivered) + " delivered messages";
}

std::string check_attribution(const LayerTimes& times) {
  if (times.samples == 0) return "the profiler took no samples";
  const double total = times.total_s();
  double moved = 0.0;
  for (std::size_t l = 0; l < times.ns.size(); ++l) {
    const double by_count = total * static_cast<double>(times.hits[l]) /
                            static_cast<double>(times.samples);
    moved += std::fabs(static_cast<double>(times.ns[l]) * 1e-9 - by_count);
  }
  moved *= 0.5;  // every second moved leaves one layer and enters another
  if (moved <= 0.1 * total) return {};
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "time- and count-weighted self times differ by %.3f s of "
                "%.3f s CPU",
                moved, total);
  return buf;
}

}  // namespace perfbench
