// Correctness checks of the benchmark. Every check is a pure function of a
// workload's outputs, so tests/test_checks.cpp can feed each one a tampered
// result and see it rejected. A check returns an empty string when the
// output is correct and a one-line reason otherwise.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "profiler.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

// --- Simulated workloads ------------------------------------------------------

// Plain (unreliable) sessions on a fault-free medium: every session
// connected, nothing arrived behind the high-water mark, and
// sent - received - gaps stays within +-`inflight_bound`: what can be in
// the air when the body starts (counted received, not sent) or ends (sent,
// not received), or lost with the link that carried it.
[[nodiscard]] std::string check_plain_sessions(
    const peerhood::scenario::ScenarioMetrics& metrics,
    std::uint64_t inflight_bound);

// Reliable sessions: exactly-once, in order (no duplicate, no reorder, no
// skipped counter) and never more received than sent.
[[nodiscard]] std::string check_exactly_once(
    const peerhood::scenario::ScenarioMetrics& metrics);

// The chaos profile and the server crash really happened: every link-fault
// kind fired, a node crashed, and a session resumed from the journal.
[[nodiscard]] std::string check_chaos_coverage(
    const peerhood::scenario::ScenarioMetrics& metrics);

// Replay: a second run of the same spec reproduces every ScenarioMetrics
// field exactly. Names the first field that differs.
[[nodiscard]] std::string diff_metrics(
    const peerhood::scenario::ScenarioMetrics& a,
    const peerhood::scenario::ScenarioMetrics& b);

// --- Real-socket workload -----------------------------------------------------

// Payload layout: [u8 tag][u64 seq][u64 digest][body]. The body is
// generated from (stream key, seq); the digest covers seq and body and is
// computed by the sender, then recomputed on arrival. The leading tag keeps
// the first byte off the handshake command codes: a plain Channel swallows
// an application frame that starts with PH_OK (README, known faults), and
// the verified streams must not lose payloads to that.
inline constexpr std::uint8_t kPayloadTag = 0xA5;
inline constexpr std::size_t kPayloadHeader = 17;

[[nodiscard]] std::uint64_t payload_digest(std::uint64_t seq,
                                           std::span<const std::uint8_t> body);
[[nodiscard]] peerhood::Bytes make_payload(std::uint64_t stream_key,
                                           std::uint64_t seq,
                                           std::size_t size);

// Receiver side of one ordered stream: accepts payloads seq 1, 2, 3, ...
// each exactly once and intact.
class StreamCheck {
 public:
  // Returns false (and records the reason) for a duplicate, a skipped or
  // reordered sequence number, a digest mismatch or a short payload.
  bool accept(std::span<const std::uint8_t> payload);
  [[nodiscard]] std::uint64_t delivered() const { return next_ - 1; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  std::uint64_t next_{1};
  std::string error_;
};

// Untagged stream, as an application without a type byte sends it:
// [u64 LE counter][body generated from the counter], kRawPayloadSize bytes.
// Counters must arrive in ascending order, once each and intact; a counter
// that never arrives is not an error but is counted missing (counter 13,
// whose first byte is PH_OK, is swallowed by the plain Channel).
inline constexpr std::size_t kRawPayloadSize = 64;

[[nodiscard]] peerhood::Bytes make_raw_payload(std::uint64_t counter);

class RawCounterCheck {
 public:
  // Returns false (and records the reason) for a duplicate or reordered
  // counter, a counter beyond `limit`, a body that does not match its
  // counter or a payload of the wrong size.
  bool accept(std::span<const std::uint8_t> payload, std::uint64_t limit);
  // Counters 1..sent that have not arrived, in ascending order.
  [[nodiscard]] std::vector<std::uint64_t> missing(std::uint64_t sent) const;
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  std::uint64_t last_{0};
  std::vector<std::uint64_t> skipped_;
  std::string error_;
};

// The journal frontier read back from disk names the next sequence the
// server expects: one past the last message it delivered.
[[nodiscard]] std::string check_journal_frontier(std::uint64_t frontier,
                                                 std::uint64_t delivered);

// --- Traced runs ----------------------------------------------------------------

// The self times add up to the profiled CPU time by construction, so that
// sum proves nothing. This compares the time-weighted split of the CPU time
// with the count-weighted one (each layer's share of the samples): the
// share of the CPU time that would have to move between layers to turn one
// into the other must stay within 10 %. A layer that owes its time to a few
// long gaps between samples, rather than to samples spread over its work,
// fails it.
[[nodiscard]] std::string check_attribution(const LayerTimes& times);

}  // namespace perfbench
