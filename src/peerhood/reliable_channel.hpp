// ReliableChannel — the data buffering the thesis lists as necessary future
// work (Ch. 6): "So far there exists the possibility to lose data due to
// Write function not being aware of the connection loss ... an efficient
// Data Buffering is necessary to guarantee the data integrity."
//
// A thin reliability layer over Channel: every application frame gets a
// sequence number and is buffered until acknowledged; the receiver delivers
// in order exactly once and acks cumulatively. After a handover (connection
// substitution) the unacknowledged tail is retransmitted, so no frame is
// lost to the in-flight window that died with the old link. Acks piggyback
// on a timer to amortise the cost the paper worried about ("the
// implementation of Data Transferring Acknowledge is too costly due to the
// small size of packet").
//
// Loss hardening (fault plane, sim/fault.hpp):
//  * Acks are out-of-order tolerant — a reordered (older) cumulative ack is
//    ignored instead of regressing the sender's view.
//  * A receiver holding a gap flushes its ack immediately instead of
//    batching; the resulting duplicate acks trigger a fast retransmit of
//    the first unacked frame after three repeats, well before the
//    retransmit timer fires.
//  * The retransmit timer backs off exponentially (doubling up to
//    `retransmit_cap`) while no progress is made and resets to the base
//    interval on every new ack, so a dead link is probed gently and a
//    healed one recovers at full speed.
//
// Bounded-resource paths (crash hardening):
//  * Every ack advertises the receiver's free reorder capacity; the sender
//    sends no new frame beyond min(own window, advertised window) and
//    returns a backpressure error without allocating — a never-draining
//    peer cannot grow sender memory. Retransmissions of already-buffered
//    frames are exempt, so the hole that stalls the receiver can always be
//    filled.
//  * The receiver's reorder buffer is capped; frames beyond the cap are
//    dropped (and counted) rather than buffered — the sender's window
//    bound makes such frames a protocol violation anyway.
//  * A journal hook reports the resume frontier (next outgoing seq, next
//    expected incoming seq) after every change, feeding the daemon's
//    SessionStore so a restarted server can `restore()` the layer at the
//    journalled frontier and the session continues exactly-once.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>

#include "common/handler_slot.hpp"
#include "peerhood/channel.hpp"
#include "sim/simulator.hpp"

namespace peerhood {

struct ReliableConfig {
  // Delay before a cumulative ack is flushed (batching small packets).
  SimDuration ack_delay{std::chrono::milliseconds{200}};
  // Base retransmit timeout; doubles on every timer-driven retransmission
  // round without progress, capped at retransmit_cap.
  SimDuration retransmit_interval{std::chrono::seconds{5}};
  SimDuration retransmit_cap{std::chrono::seconds{40}};
  // Maximum buffered-but-unacked frames before write() refuses.
  std::size_t window{256};
};

// The reliability layer's wire frames, exposed for the protocol fuzzer: the
// decoder must reject (not crash on) any mutation of these.
struct ReliableFrame {
  enum class Kind : std::uint8_t { kData, kAck };
  Kind kind{Kind::kData};
  std::uint64_t seq{0};         // kData
  Bytes payload;                // kData
  std::uint64_t cumulative{0};  // kAck
  std::uint32_t window{0};      // kAck: receiver's free reorder slots
};

[[nodiscard]] Bytes encode_reliable_data(std::uint64_t seq,
                                         const Bytes& payload);
[[nodiscard]] Bytes encode_reliable_ack(std::uint64_t cumulative,
                                        std::uint32_t window);
[[nodiscard]] std::optional<ReliableFrame> decode_reliable_frame(
    std::span<const std::uint8_t> frame);

class ReliableChannel {
 public:
  using DataHandler = std::function<void(const Bytes&)>;
  using HandoverHandler = std::function<void()>;
  using JournalHook = std::function<void(std::uint64_t next_seq,
                                         std::uint64_t expected)>;

  ReliableChannel(sim::Simulator& sim, ChannelPtr channel,
                  ReliableConfig config = {});
  ~ReliableChannel();

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  // Buffers and sends; the frame stays queued until the peer acks it. When
  // the send window (own or peer-advertised) is full, refuses with
  // kCapacityExceeded *before allocating anything* — backpressure, not
  // unbounded buffering.
  Status send(Bytes frame);

  // In-order, exactly-once delivery of the peer's frames.
  void set_data_handler(DataHandler handler);

  // This layer occupies the channel's handover slot (it must resync first);
  // owners that also want handover notifications chain through here.
  void set_handover_handler(HandoverHandler handler);

  // Invoked whenever the resume frontier moves; the daemon points this at
  // its SessionStore journal.
  void set_journal_hook(JournalHook hook);

  // Rebuilds the frontier of a restarted endpoint from its journal: the
  // next sequence it will send and the next it expects. Outstanding state
  // (outbox, reorder buffer) is assumed empty — the restart wiped it.
  void restore(std::uint64_t next_seq, std::uint64_t expected);

  [[nodiscard]] const ChannelPtr& channel() const { return channel_; }
  [[nodiscard]] std::size_t unacked() const { return outbox_.size(); }
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_; }
  [[nodiscard]] std::uint64_t retransmissions() const {
    return retransmissions_;
  }
  [[nodiscard]] std::uint64_t fast_retransmits() const {
    return fast_retransmits_;
  }
  [[nodiscard]] std::uint64_t peer_window() const { return peer_window_; }
  [[nodiscard]] std::uint64_t reorder_drops() const { return reorder_drops_; }
  [[nodiscard]] std::uint64_t malformed_frames() const {
    return malformed_frames_;
  }

  // Flushes any pending ack and retransmits the unacked tail immediately —
  // called automatically after a handover, exposed for tests.
  void resync();

  // Idempotent: stops the timers and detaches from the channel (which holds
  // raw-`this` handlers), leaving the channel itself usable. Called by the
  // destructor, so destroying the reliability layer mid-transfer is safe.
  void shutdown();

 private:
  void on_frame(const Bytes& frame);
  void on_ack(std::uint64_t cumulative, std::uint32_t window);
  void flush_ack();
  void retransmit_outstanding();
  void transmit(std::uint64_t seq, const Bytes& payload);
  // (Re)arms the one-shot retransmit timer at the current rto_; disarms when
  // the outbox is empty.
  void arm_retransmit();
  // Free reorder slots, advertised in every outgoing ack.
  [[nodiscard]] std::uint32_t advertised_window() const;
  void journal();

  sim::Simulator& sim_;
  ChannelPtr channel_;
  ReliableConfig config_;
  HandlerSlot<void(const Bytes&)> data_slot_;
  HandlerSlot<void()> handover_slot_;
  JournalHook journal_hook_;

  // Sender state.
  std::uint64_t next_seq_{1};
  std::map<std::uint64_t, Bytes> outbox_;  // unacked frames by sequence
  std::uint64_t highest_ack_{1};  // largest cumulative ack seen from the peer
  // Peer's last advertised window; until the first ack arrives, assume a
  // symmetric configuration.
  std::uint64_t peer_window_;
  int dup_acks_{0};
  SimDuration rto_{};  // current (backed-off) retransmit timeout
  sim::EventId retransmit_event_{sim::kInvalidEvent};

  // Receiver state.
  std::uint64_t expected_{1};
  std::map<std::uint64_t, Bytes> reorder_;  // future frames
  std::uint64_t delivered_{0};
  bool ack_pending_{false};
  sim::EventId ack_timer_{sim::kInvalidEvent};

  std::uint64_t retransmissions_{0};
  std::uint64_t fast_retransmits_{0};
  std::uint64_t reorder_drops_{0};
  std::uint64_t malformed_frames_{0};
};

}  // namespace peerhood
