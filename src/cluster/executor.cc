#include "cluster/executor.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/policy.h"

namespace draconis::cluster {

Executor::Executor(Testbed* testbed, const ExecutorConfig& config)
    : TaskRunner(testbed, config.worker_node, net::kInvalidNode,
                 net::HostProfile::Dpdk(TimeNs{150}), /*cores=*/0),
      config_(config),
      rng_(config.worker_node * 1000003ULL + config.exec_props + 17),
      retry_interval_(kInitialRetry) {
  pull_timer_.Bind(simulator_, this, 0, kPullEvent);
  fetch_timer_.Bind(simulator_, this, 0, kFetchEvent);
}

void Executor::OnEvent(uint32_t core, uint32_t kind) {
  if (kind == kTaskEnd) {
    TaskRunner::OnEvent(core, kind);
  } else if (kind == kPullEvent) {
    SendRequest();
  } else if (fetch_pending_) {
    SendParamFetch();  // the fetch or its reply was lost
  }
}

void Executor::Start(net::NodeId scheduler, TimeNs at) {
  scheduler_ = scheduler;
  pull_timer_.ScheduleAt(at);
}

void Executor::Rehome(net::NodeId scheduler) {
  if (recorder_ != nullptr && scheduler != scheduler_) {
    recorder_->RecordGlobal(trace::Kind::kRehome, simulator_->Now(), scheduler, node_id_);
  }
  scheduler_ = scheduler;
}

net::Packet Executor::MakeRequest() const {
  net::Packet request;
  request.op = net::OpCode::kTaskRequest;
  request.dst = scheduler_;
  request.exec_props = config_.exec_props;
  request.rtrv_prio = 1;
  return request;
}

void Executor::SendRequest() {
  // A pure pull into idle queues is certain to be answered with a no-op: the
  // roster carries it from here, as it carries the pulls after a no-op.
  if (parking_ != nullptr && parking_->TryPark(this, simulator_->Now())) {
    return;
  }
  last_request_time_ = simulator_->Now();
  network_->Send(node_id_, MakeRequest());
  pull_timer_.ScheduleAfter(config_.request_timeout);
}

void Executor::Resume(const PollState& state, TimeNs timer_at) {
  rng_ = state.rng;
  retry_interval_ = state.retry_interval;
  last_request_time_ = state.last_request_time;
  pull_timer_.ScheduleAt(timer_at);
}

void Executor::HandlePacket(net::Packet&& pkt) {
  switch (pkt.op) {
    case net::OpCode::kTaskAssignment:
      pull_timer_.Cancel();
      retry_interval_ = kInitialRetry;
      RunTask(std::move(pkt));
      return;
    case net::OpCode::kParamData: {
      // §4.4: the client shipped the real parameters; run the held task.
      if (!fetch_pending_ || !(pkt.tasks.at(0).id == cores_[fetch_core_].task.id)) {
        return;  // stale duplicate
      }
      fetch_timer_.Cancel();
      fetch_pending_ = false;
      Execute(fetch_core_, fetch_access_, fetch_first_);
      return;
    }
    case net::OpCode::kNoOpTask: {
      // Nothing to do yet; ask again after the current backoff, or let the
      // roster carry the idle train until a poll could see a task.
      const TimeNs next_pull =
          simulator_->Now() + NextPollDelay(rng_, retry_interval_, config_.max_retry);
      if (parking_ != nullptr && pkt.src == scheduler_ && parking_->TryPark(this, next_pull)) {
        pull_timer_.Cancel();  // the request watchdog: no request is in flight
        return;
      }
      pull_timer_.ScheduleAt(next_pull);
      return;
    }
    default:
      // Stray packet (e.g. traffic addressed elsewhere in tests); ignore.
      return;
  }
}

void Executor::RunTask(net::Packet&& assignment) {
  DRACONIS_CHECK_MSG(!assignment.tasks.empty(), "assignment without a task");
  net::TaskInfo task = std::move(assignment.tasks[0]);
  const TimeNs now = simulator_->Now();
  const bool in_window = now >= metrics_->measure_start() && now < metrics_->measure_end();
  const TimeNs wait = last_request_time_ >= 0 ? now - last_request_time_ : 0;
  // The executor is idle whenever an assignment reaches it: it takes the
  // task as it arrives.
  const bool first = Pickup(task);
  Arrive(task, static_cast<uint64_t>(wait), !first);

  if (first && in_window && last_request_time_ >= 0) {
    metrics_->RecordGetTask(task.tprops, wait);
  }

  // Data-access penalty for locality experiments.
  TimeNs access = 0;
  if (config_.topology != nullptr) {
    const auto placement =
        core::ClassifyPlacement(*config_.topology, task.tprops, config_.worker_node);
    if (first && metrics_->InWindow(task.meta.first_submit_time)) {
      metrics_->RecordPlacement(placement);
    }
    switch (placement) {
      case net::TaskInfo::Placement::kLocal:
        access = kLocalAccess;
        break;
      case net::TaskInfo::Placement::kSameRack:
        access = kRackAccess;
        break;
      default:
        access = kRemoteAccess;
        break;
    }
  }

  if (config_.drop_tasks) {
    // Fig. 5b no-op mode: drop the task and immediately request the next one
    // (no completion notice; the loop rate is what the benchmark measures).
    ++tasks_executed_;
    SendRequest();
    return;
  }

  const net::NodeId client = assignment.client_addr;
  const bool fetch = task.fn_id == net::kTransmissionFnId && client != net::kInvalidNode;
  // One core runs one task at a time, but a late reply to a re-issued pull
  // can overlap two; each takes a free slot. A second fetch replaces the
  // held one, as the single fetch state requires.
  uint32_t core = 0;
  if (fetch && fetch_pending_) {
    core = fetch_core_;
  } else {
    while (core < cores_.size() && cores_[core].busy) {
      ++core;
    }
    if (core == cores_.size()) {
      cores_.emplace_back();
    }
  }
  cores_[core] = CoreSlot{std::move(task), client, /*busy=*/true};
  if (fetch) {
    // §4.4: a transmission-function task — hold it and fetch the real
    // parameters from the client before running. The executor stays occupied
    // during the fetch round trip.
    fetch_pending_ = true;
    fetch_core_ = core;
    fetch_access_ = access;
    fetch_first_ = first;
    SendParamFetch();
    return;
  }

  Execute(core, access, first);
}

void Executor::SendParamFetch() {
  const CoreSlot& held = cores_[fetch_core_];
  net::Packet fetch;
  fetch.op = net::OpCode::kParamFetch;
  fetch.dst = held.client;
  fetch.tasks.push_back(held.task);
  network_->Send(node_id_, std::move(fetch));
  fetch_timer_.ScheduleAfter(config_.request_timeout);
}

void Executor::Execute(uint32_t core, TimeNs access, bool first) {
  EndAt(Run(cores_[core].task, first, kPickupOverhead, access), core);
}

void Executor::TaskDone(uint32_t /*core*/, net::TaskInfo task, net::NodeId client) {
  Finish();
  // Completion + piggybacked request for the next task.
  net::Packet completion;
  completion.op = net::OpCode::kTaskCompletion;
  completion.dst = scheduler_;
  completion.tasks.push_back(task);
  completion.client_addr = client;
  completion.exec_props = config_.exec_props;
  completion.rtrv_prio = 1;
  last_request_time_ = simulator_->Now();
  network_->Send(node_id_, std::move(completion));
  pull_timer_.ScheduleAfter(config_.request_timeout);
}

}  // namespace draconis::cluster
