#include "migration/task_server.hpp"

#include "common/log.hpp"

namespace peerhood::migration {
namespace {

// Sessions with no progress for this long are discarded.
constexpr SimDuration kSessionTimeout = std::chrono::seconds{300};

}  // namespace

TaskServer::TaskServer(Library& library, TaskServerConfig config)
    : library_{library},
      config_{std::move(config)},
      router_{library, config_.result_routing} {}

TaskServer::~TaskServer() { stop(); }

void TaskServer::start() {
  if (running_) return;
  running_ = true;
  (void)library_.register_service(
      ServiceInfo{config_.service_name, "compute", 0},
      [this](ChannelPtr channel, const wire::ConnectRequest&) {
        on_connect(channel);
      });
}

void TaskServer::stop() {
  if (!running_) return;
  running_ = false;
  library_.unregister_service(config_.service_name);
  for (auto& [id, session] : sessions_) {
    library_.daemon().simulator().cancel(session.timeout);
    // The channel handlers capture `this`; sever them in case something
    // else (the engine's session table, a test) still reaches the channel.
    if (session.channel != nullptr) {
      session.channel->set_data_handler(nullptr);
      session.channel->set_handover_handler(nullptr);
    }
  }
  sessions_.clear();
}

void TaskServer::on_connect(const ChannelPtr& channel) {
  ++stats_.sessions;
  const std::uint64_t id = channel->session_id();
  Session session;
  session.channel = channel;
  sessions_[id] = std::move(session);

  channel->set_data_handler(
      [this, id](const Bytes& frame) { on_frame(id, frame); });
  channel->set_handover_handler([this, id](const net::ConnectionPtr&) {
    // The engine substituted the connection (routing handover / resume):
    // tell the client where to continue the upload.
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    ++stats_.resumes_seen;
    (void)it->second.channel->write(
        encode(ProgressFrame{it->second.next_expected}));
  });
  arm_timeout(id);
}

void TaskServer::arm_timeout(std::uint64_t session_id) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  sim::Simulator& sim = library_.daemon().simulator();
  sim.cancel(it->second.timeout);
  it->second.timeout = sim.schedule_after(
      kSessionTimeout, [this, session_id] {
        const auto found = sessions_.find(session_id);
        if (found == sessions_.end()) return;
        if (!found->second.processing) ++stats_.uploads_abandoned;
        sessions_.erase(found);
      });
}

void TaskServer::on_frame(std::uint64_t session_id, const Bytes& frame) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  const auto tag = tag_of(frame);
  if (!tag.has_value()) return;
  arm_timeout(session_id);

  switch (*tag) {
    case FrameTag::kHeader: {
      const auto header = decode_header(frame);
      if (!header.has_value()) return;
      session.spec = header->spec;
      session.header_seen = true;
      session.next_expected = 0;
      if (session.spec.package_count == 0) begin_processing(session_id);
      return;
    }
    case FrameTag::kPackage: {
      if (!session.header_seen || session.processing) return;
      const auto package = decode_package(frame);
      if (!package.has_value()) return;
      // In-order acceptance: after a handover, a resent suffix realigns the
      // stream; stray out-of-order packages are dropped.
      if (package->index != session.next_expected) return;
      ++session.next_expected;
      if (session.next_expected == session.spec.package_count) {
        begin_processing(session_id);
      }
      return;
    }
    default:
      return;  // clients do not send progress/result frames
  }
}

void TaskServer::begin_processing(std::uint64_t session_id) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  session.processing = true;
  ++stats_.uploads_completed;
  const SimDuration processing_time =
      session.spec.per_package_processing *
      static_cast<std::int64_t>(session.spec.package_count);
  library_.daemon().simulator().schedule_after(
      processing_time, [this, token = sentinel_.token(), session_id] {
        if (token.expired()) return;
        finish_session(session_id);
      });
}

void TaskServer::finish_session(std::uint64_t session_id) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  const bool was_open = session.channel->open();

  ResultFrame result;
  result.result_size = config_.result_size;
  result.packages_processed = session.spec.package_count;

  router_.deliver(session.channel, encode(result),
                  [this, token = sentinel_.token(), session_id,
                   was_open](Status status) {
                    if (token.expired()) return;
                    if (status.ok()) {
                      if (was_open) {
                        ++stats_.results_live;
                      } else {
                        ++stats_.results_routed;
                      }
                    } else {
                      ++stats_.results_failed;
                    }
                    const auto found = sessions_.find(session_id);
                    if (found != sessions_.end()) {
                      library_.daemon().simulator().cancel(
                          found->second.timeout);
                      sessions_.erase(found);
                    }
                  });
}

}  // namespace peerhood::migration
