#include "peerhood/reliable_channel.hpp"

#include <algorithm>

#include "common/bytes.hpp"

namespace peerhood {
namespace {

// Frame tags on the wire (distinct from migration framing; a channel uses
// either plain frames or a ReliableChannel on both ends).
constexpr std::uint8_t kTagData = 0xD1;
constexpr std::uint8_t kTagAck = 0xD2;

// Consecutive duplicate cumulative acks that trigger a fast retransmit of
// the first unacked frame.
constexpr int kDupAckThreshold = 3;
// Maximum out-of-order frames the receiver buffers; also the basis of the
// window it advertises in every ack.
constexpr std::size_t kReorderCap = 256;

}  // namespace

Bytes encode_reliable_data(std::uint64_t seq, const Bytes& payload) {
  ByteWriter writer;
  writer.u8(kTagData);
  writer.u64(seq);
  writer.blob(payload);
  return std::move(writer).take();
}

Bytes encode_reliable_ack(std::uint64_t cumulative, std::uint32_t window) {
  ByteWriter writer;
  writer.u8(kTagAck);
  writer.u64(cumulative);
  writer.u32(window);
  return std::move(writer).take();
}

std::optional<ReliableFrame> decode_reliable_frame(
    std::span<const std::uint8_t> frame) {
  ByteReader reader{frame};
  ReliableFrame decoded;
  switch (reader.u8()) {
    case kTagData:
      decoded.kind = ReliableFrame::Kind::kData;
      decoded.seq = reader.u64();
      decoded.payload = reader.blob();
      break;
    case kTagAck:
      decoded.kind = ReliableFrame::Kind::kAck;
      decoded.cumulative = reader.u64();
      decoded.window = reader.u32();
      break;
    default:
      return std::nullopt;
  }
  if (!reader.ok()) return std::nullopt;
  return decoded;
}

ReliableChannel::ReliableChannel(sim::Simulator& sim, ChannelPtr channel,
                                 ReliableConfig config)
    : sim_{sim},
      channel_{std::move(channel)},
      config_{config},
      peer_window_{config.window},
      rto_{config.retransmit_interval} {
  channel_->set_data_handler([this](const Bytes& frame) { on_frame(frame); });
  channel_->set_handover_handler([this](const net::ConnectionPtr&) {
    resync();
    handover_slot_.invoke();
  });
}

ReliableChannel::~ReliableChannel() { shutdown(); }

void ReliableChannel::shutdown() {
  sim_.cancel(retransmit_event_);
  retransmit_event_ = sim::kInvalidEvent;
  sim_.cancel(ack_timer_);
  ack_timer_ = sim::kInvalidEvent;
  ack_pending_ = false;
  // The channel outlives this layer whenever the application still holds a
  // ChannelPtr; its handlers capture a raw `this` and must be detached.
  if (channel_ != nullptr) {
    channel_->set_data_handler(nullptr);
    channel_->set_handover_handler(nullptr);
  }
  data_slot_.sever();
  handover_slot_.sever();
}

Status ReliableChannel::send(Bytes frame) {
  // Backpressure check first — this path must not allocate when refusing,
  // so a never-draining peer bounds sender memory at the window size. The
  // message stays within the small-string buffer for the same reason.
  if (outbox_.size() >= std::min<std::uint64_t>(config_.window,
                                                std::max<std::uint64_t>(
                                                    peer_window_, 1))) {
    return Status{ErrorCode::kCapacityExceeded, "window full"};
  }
  const std::uint64_t seq = next_seq_++;
  outbox_.emplace(seq, frame);
  transmit(seq, frame);
  if (retransmit_event_ == sim::kInvalidEvent) arm_retransmit();
  journal();
  return Status::ok_status();
}

void ReliableChannel::transmit(std::uint64_t seq, const Bytes& payload) {
  // A failed write is fine: the frame stays in the outbox and the
  // retransmit timer (or post-handover resync) tries again.
  (void)channel_->write(encode_reliable_data(seq, payload));
}

void ReliableChannel::set_data_handler(DataHandler handler) {
  data_slot_.set(std::move(handler));
}

void ReliableChannel::set_handover_handler(HandoverHandler handler) {
  handover_slot_.set(std::move(handler));
}

void ReliableChannel::set_journal_hook(JournalHook hook) {
  journal_hook_ = std::move(hook);
  journal();
}

void ReliableChannel::journal() {
  if (journal_hook_) journal_hook_(next_seq_, expected_);
}

void ReliableChannel::restore(std::uint64_t next_seq, std::uint64_t expected) {
  next_seq_ = next_seq;
  highest_ack_ = next_seq;  // a restart holds nothing outstanding
  expected_ = expected;
  journal();
}

std::uint32_t ReliableChannel::advertised_window() const {
  const std::size_t used = reorder_.size();
  const std::size_t free =
      kReorderCap > used ? kReorderCap - used : 0;
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(free, UINT32_MAX));
}

void ReliableChannel::on_frame(const Bytes& frame) {
  std::optional<ReliableFrame> decoded = decode_reliable_frame(frame);
  if (!decoded.has_value()) {
    ++malformed_frames_;
    return;
  }
  if (decoded->kind == ReliableFrame::Kind::kAck) {
    on_ack(decoded->cumulative, decoded->window);
    return;
  }
  const std::uint64_t seq = decoded->seq;
  const bool in_order = seq == expected_;
  if (seq >= expected_) {
    // Bound the reorder buffer: a frame past the cap (only possible from a
    // peer ignoring our advertised window) is dropped, not buffered; the
    // immediate ack below re-advertises the window.
    if (in_order || reorder_.count(seq) != 0 ||
        reorder_.size() < kReorderCap) {
      reorder_.emplace(seq, std::move(decoded->payload));
      // Deliver the contiguous prefix.
      while (!reorder_.empty() && reorder_.begin()->first == expected_) {
        Bytes next = std::move(reorder_.begin()->second);
        reorder_.erase(reorder_.begin());
        ++expected_;
        ++delivered_;
        data_slot_.invoke(next);
      }
      journal();
    } else {
      ++reorder_drops_;
    }
  }
  if (!in_order) {
    // A gap, a duplicate or an old frame: ack immediately so the sender
    // sees duplicate cumulative acks and can fast-retransmit the hole.
    flush_ack();
    return;
  }
  if (!ack_pending_) {
    ack_pending_ = true;
    ack_timer_ = sim_.schedule_after(config_.ack_delay,
                                     [this] { flush_ack(); });
  }
}

void ReliableChannel::on_ack(std::uint64_t cumulative, std::uint32_t window) {
  if (cumulative < highest_ack_) return;  // reordered stale ack: ignore
  peer_window_ = window;
  if (cumulative > highest_ack_) {
    // Progress: everything below `cumulative` is delivered at the peer.
    highest_ack_ = cumulative;
    dup_acks_ = 0;
    outbox_.erase(outbox_.begin(), outbox_.lower_bound(cumulative));
    rto_ = config_.retransmit_interval;
    arm_retransmit();
    return;
  }
  // Duplicate cumulative ack: the peer is stuck at a hole we can fill.
  if (outbox_.empty()) return;
  if (++dup_acks_ < kDupAckThreshold) return;
  dup_acks_ = 0;
  ++fast_retransmits_;
  ++retransmissions_;
  transmit(outbox_.begin()->first, outbox_.begin()->second);
}

void ReliableChannel::flush_ack() {
  sim_.cancel(ack_timer_);
  ack_timer_ = sim::kInvalidEvent;
  ack_pending_ = false;
  (void)channel_->write(encode_reliable_ack(expected_, advertised_window()));
}

void ReliableChannel::arm_retransmit() {
  sim_.cancel(retransmit_event_);
  retransmit_event_ = sim::kInvalidEvent;
  if (outbox_.empty()) return;
  retransmit_event_ = sim_.schedule_after(rto_, [this] {
    retransmit_event_ = sim::kInvalidEvent;
    retransmit_outstanding();
  });
}

void ReliableChannel::retransmit_outstanding() {
  if (channel_->open()) {
    for (const auto& [seq, payload] : outbox_) {
      ++retransmissions_;
      transmit(seq, payload);
    }
  }
  // No progress since the last arm: back off so a dead or partitioned link
  // is probed gently; the next genuine ack resets to the base interval.
  rto_ = std::min(rto_ + rto_, config_.retransmit_cap);
  arm_retransmit();
}

void ReliableChannel::resync() {
  if (ack_pending_) flush_ack();
  // The substituted connection is fresh; restart probing at the base rate.
  rto_ = config_.retransmit_interval;
  dup_acks_ = 0;
  for (const auto& [seq, payload] : outbox_) {
    ++retransmissions_;
    transmit(seq, payload);
  }
  arm_retransmit();
}

}  // namespace peerhood
