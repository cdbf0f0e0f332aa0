// TaskServer — the picture-analyse style processing service of Fig. 5.10:
// receive the package count, read every package, process the data, then
// write the result back — reconnecting to the client first when the
// connection is gone (result routing, §5.3).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/handler_slot.hpp"
#include "handover/result_router.hpp"
#include "migration/task.hpp"
#include "peerhood/library.hpp"

namespace peerhood::migration {

struct TaskServerConfig {
  std::string service_name{"picture.analyse"};
  // Result payload size (e.g. the annotated picture sent back).
  std::uint32_t result_size{4000};
  handover::ResultRouterConfig result_routing{};
};

class TaskServer {
 public:
  struct Stats {
    std::uint64_t sessions{0};
    std::uint64_t uploads_completed{0};
    std::uint64_t uploads_abandoned{0};
    std::uint64_t results_live{0};
    std::uint64_t results_routed{0};
    std::uint64_t results_failed{0};
    std::uint64_t resumes_seen{0};
  };

  TaskServer(Library& library, TaskServerConfig config = {});
  ~TaskServer();

  TaskServer(const TaskServer&) = delete;
  TaskServer& operator=(const TaskServer&) = delete;

  void start();
  void stop();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const TaskServerConfig& config() const { return config_; }

 private:
  struct Session {
    ChannelPtr channel;
    TaskSpec spec;
    std::uint32_t next_expected{0};
    bool header_seen{false};
    bool processing{false};
    sim::EventId timeout{sim::kInvalidEvent};
  };

  void on_connect(const ChannelPtr& channel);
  void on_frame(std::uint64_t session_id, const Bytes& frame);
  void begin_processing(std::uint64_t session_id);
  void finish_session(std::uint64_t session_id);
  void arm_timeout(std::uint64_t session_id);

  Library& library_;
  TaskServerConfig config_;
  handover::ResultRouter router_;
  std::map<std::uint64_t, Session> sessions_;
  Stats stats_;
  bool running_{false};
  // Guards the processing-completion events (they capture `this` and are
  // not individually tracked/cancelled).
  DestructionSentinel sentinel_;
};

}  // namespace peerhood::migration
