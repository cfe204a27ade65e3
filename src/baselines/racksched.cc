#include "baselines/racksched.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace draconis::baselines {

RackSchedProgram::RackSchedProgram(size_t num_nodes, uint64_t seed)
    : PushProgram(num_nodes), rng_(seed) {}

size_t RackSchedProgram::Select(TimeNs /*now*/) {
  // Power-of-two choices over node queue lengths. A lone node needs no draw.
  const std::vector<uint32_t>& queue_len = outstanding();
  const size_t n = queue_len.size();
  if (n == 1) {
    return 0;
  }
  const size_t a = rng_.NextBelow(n);
  size_t b = rng_.NextBelow(n - 1);
  if (b >= a) {
    ++b;
  }
  return queue_len[a] <= queue_len[b] ? a : b;
}

RackSchedWorker::RackSchedWorker(cluster::Testbed* testbed, size_t num_executors,
                                 uint32_t worker_node, net::NodeId scheduler,
                                 IntraNodePolicy policy, bool report_latency)
    : TaskRunner(testbed, worker_node, scheduler, net::HostProfile::Dpdk(TimeNs{150}),
                 num_executors),
      policy_(policy),
      report_latency_(report_latency) {
  DRACONIS_CHECK(num_executors >= 1);
}

void RackSchedWorker::HandlePacket(net::Packet&& pkt) {
  if (pkt.op != net::OpCode::kTaskAssignment) {
    return;
  }
  Arrive(pkt.tasks.at(0));
  if (policy_ == IntraNodePolicy::kProcessorSharing) {
    // Admission is delayed by the dispatcher's overhead, then the task joins
    // the sharing pool immediately (preemptive: no queueing behind peers).
    ps_admitting_.push_back(CoreSlot{std::move(pkt.tasks.at(0)), pkt.client_addr});
    simulator_->ScheduleAt(simulator_->Now() + kDispatchOverhead + cluster::kPickupOverhead, this,
                           0, kPsAdmitEvent);
    return;
  }
  queue_.push_back(CoreSlot{pkt.tasks.at(0), pkt.client_addr, /*busy=*/true});
  TryDispatch();
}

void RackSchedWorker::OnEvent(uint32_t core, uint32_t kind) {
  if (kind == kTaskEnd) {
    TaskRunner::OnEvent(core, kind);
  } else {
    kind == kPsAdmitEvent ? PsAdmit() : PsReschedule();
  }
}

double RackSchedWorker::PsRate() const {
  if (ps_tasks_.empty()) {
    return 1.0;
  }
  const double cores = static_cast<double>(cores_.size());
  const double tasks = static_cast<double>(ps_tasks_.size());
  return tasks <= cores ? 1.0 : cores / tasks;
}

void RackSchedWorker::PsAdmit() {
  const TimeNs now = simulator_->Now();
  PsTask entry;
  entry.task = ps_admitting_.front().task;
  entry.client = ps_admitting_.front().client;
  ps_admitting_.pop_front();
  entry.first = Pickup(entry.task);
  entry.admitted = now;
  entry.remaining = static_cast<double>(entry.task.meta.exec_duration);
  // The dispatcher held the task since it arrived; it joins the pool now.
  BeginService(entry.task, entry.first, now - kDispatchOverhead - cluster::kPickupOverhead, now);
  // Age the pool to `now` at the old rate before the membership changes.
  PsReschedule();
  ps_tasks_.push_back(std::move(entry));
  PsReschedule();
}

void RackSchedWorker::PsReschedule() {
  const TimeNs now = simulator_->Now();
  const double rate = PsRate();
  const double aged = static_cast<double>(now - ps_last_update_) * rate;
  // The pool occupied min(tasks, cores) cores since the last update; the
  // repeats in it held their equal share of them.
  const auto repeats = static_cast<size_t>(std::count_if(
      ps_tasks_.begin(), ps_tasks_.end(), [](const PsTask& t) { return !t.first; }));
  metrics_->RecordBusyInterval(ps_last_update_, now,
                               std::min(ps_tasks_.size(), cores_.size()), repeats,
                               ps_tasks_.size());
  ps_last_update_ = now;

  // Age everyone, completing any task whose work ran out.
  size_t next = ~size_t{0};
  double min_remaining = 0.0;
  for (size_t i = 0; i < ps_tasks_.size();) {
    ps_tasks_[i].remaining -= aged;
    if (ps_tasks_[i].remaining <= 0.5) {
      PsTask done = std::move(ps_tasks_[i]);
      ps_tasks_[i] = std::move(ps_tasks_.back());
      ps_tasks_.pop_back();
      RecordService(done.task, done.first, done.admitted, now);
      FinishTask(std::move(done.task), done.client, worker_node_, report_latency_);
      continue;  // re-examine the element swapped into slot i
    }
    if (next == ~size_t{0} || ps_tasks_[i].remaining < min_remaining) {
      next = i;
      min_remaining = ps_tasks_[i].remaining;
    }
    ++i;
  }

  ps_completion_.Cancel();
  if (next != ~size_t{0}) {
    // The earliest finisher completes after remaining / (possibly new) rate.
    const auto wait = static_cast<TimeNs>(min_remaining / PsRate()) + 1;
    ps_completion_ = simulator_->ScheduleAt(simulator_->Now() + wait, this, 0,
                                            kPsRescheduleEvent, sim::kCancellable);
  }
}

size_t RackSchedWorker::NextQueueIndex() const {
  if (policy_ != IntraNodePolicy::kEdf) {
    return 0;
  }
  // Earliest absolute deadline: enqueue_time + TPROPS microseconds (the
  // deadline tagger's encoding). Strict < keeps ties in arrival order, so an
  // untagged stream (TPROPS == 0) runs exactly cFCFS.
  size_t best = 0;
  TimeNs best_deadline = 0;
  for (size_t i = 0; i < queue_.size(); ++i) {
    const net::TaskInfo& task = queue_[i].task;
    const TimeNs deadline =
        task.meta.enqueue_time + static_cast<TimeNs>(task.tprops) * 1000;
    if (i == 0 || deadline < best_deadline) {
      best = i;
      best_deadline = deadline;
    }
  }
  return best;
}

void RackSchedWorker::TryDispatch() {
  if (queue_.empty()) {
    return;
  }
  for (uint32_t core = 0; core < cores_.size(); ++core) {
    CoreSlot& slot = cores_[core];
    if (slot.busy) {
      continue;
    }
    const size_t index = NextQueueIndex();
    slot = queue_[index];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
    // Intra-node scheduling adds its dispatch overhead before service starts.
    EndAt(Run(slot.task, Pickup(slot.task), kDispatchOverhead + cluster::kPickupOverhead), core);
    if (queue_.empty()) {
      return;
    }
  }
}

void RackSchedWorker::TaskDone(uint32_t /*core*/, net::TaskInfo task, net::NodeId client) {
  FinishTask(std::move(task), client, worker_node_, report_latency_);
  TryDispatch();
}

}  // namespace draconis::baselines
