#include "cluster/client.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace draconis::cluster {

Client::Client(Testbed* testbed, const ClientConfig& config)
    : simulator_(&testbed->simulator()),
      network_(&testbed->network()),
      metrics_(testbed->metrics()),
      recorder_(testbed->recorder()),
      config_(config) {
  DRACONIS_CHECK(metrics_ != nullptr);
  if (config_.max_tasks_per_packet == 0) {
    config_.max_tasks_per_packet = net::MaxTasksPerPacket();
  }
  node_id_ = network_->Register(this, config.host_profile);
}

uint32_t Client::SubmitJob(const std::vector<TaskSpec>& specs) {
  DRACONIS_CHECK_MSG(scheduler_ != net::kInvalidNode, "client has no scheduler configured");
  DRACONIS_CHECK(!specs.empty());
  const uint32_t jid = next_jid_++;
  const TimeNs now = simulator_->Now();
  metrics_->RegisterJob(config_.uid, jid, specs.size());
  Pending* pending = config_.fire_and_forget ? nullptr : outstanding_.Open(jid, specs.size());

  // A tracked task is built in its slot. Built on the stack and copied in,
  // its fields would be stored one by one and read straight back 16 bytes
  // at a time, a read the store buffer cannot forward.
  net::TaskInfo untracked;
  for (size_t i = 0; i < specs.size(); ++i) {
    net::TaskInfo& task = pending != nullptr ? pending[i].task : untracked;
    task = MakeTask(specs[i], jid, static_cast<uint32_t>(i), now);
    metrics_->RecordSubmission(now);
    trace::RecordTask(recorder_, task, trace::Kind::kSubmit, now, now, specs.size(), node_id_);
    if (pending != nullptr) {
      ArmTimeout(pending[i], jid, static_cast<uint32_t>(i));
    }
  }
  // Once every timeout is armed, the job goes out in as many job_submission
  // packets as the MTU requires (§4.3 "Handling Large Jobs"), each packet's
  // list filled in place.
  const size_t per_packet = config_.max_tasks_per_packet;
  for (size_t offset = 0; offset < specs.size(); offset += per_packet) {
    const size_t end = std::min(specs.size(), offset + per_packet);
    net::Packet pkt;
    pkt.tasks.reserve(end - offset);
    for (size_t i = offset; i < end; ++i) {
      pkt.tasks.push_back(MakeTask(specs[i], jid, static_cast<uint32_t>(i), now));
    }
    SendSubmission(std::move(pkt));
  }
  return jid;
}

net::TaskInfo Client::MakeTask(const TaskSpec& spec, uint32_t jid, uint32_t tid,
                               TimeNs now) const {
  net::TaskInfo task;
  task.id = net::TaskId{config_.uid, jid, tid};
  if (spec.oversized_param_bytes > 0) {
    // §4.4: submit a transmission function; the executor fetches the real
    // parameters (FN_PAR carries their size).
    task.fn_id = net::kTransmissionFnId;
    task.fn_par = spec.oversized_param_bytes;
  } else {
    task.fn_id = spec.fn_id;
    task.fn_par = spec.fn_par;
  }
  task.tprops = spec.tprops;
  task.meta.exec_duration = spec.duration;
  task.meta.first_submit_time = now;
  task.meta.submit_time = now;
  return task;
}

void Client::SendTasks(net::TaskList&& tasks) {
  // Split across as many job_submission packets as the MTU requires.
  const size_t total = tasks.size();
  const size_t per_packet = config_.max_tasks_per_packet;
  for (size_t offset = 0; offset < total; offset += per_packet) {
    net::Packet pkt;
    if (total <= per_packet) {
      pkt.tasks = std::move(tasks);  // one packet carries them all
    } else {
      pkt.tasks.assign(tasks.begin() + offset,
                       tasks.begin() + std::min(total, offset + per_packet));
    }
    SendSubmission(std::move(pkt));
  }
}

void Client::SendSubmission(net::Packet&& pkt) {
  pkt.op = net::OpCode::kJobSubmission;
  // Multi-rack placement routes each submission packet (the home ToR unless
  // its queue depth tripped the overflow watermark); legacy clients go
  // straight to their scheduler.
  pkt.dst = config_.router != nullptr ? config_.router->Route(scheduler_) : scheduler_;
  pkt.uid = config_.uid;
  pkt.jid = pkt.tasks[0].id.jid;
  for (const net::TaskInfo& t : pkt.tasks) {
    trace::RecordTask(recorder_, t, trace::Kind::kClientSend, simulator_->Now(),
                      simulator_->Now(), pkt.tasks.size(), pkt.dst);
  }
  network_->Send(node_id_, std::move(pkt));
}

void Client::OnRetry(uint32_t /*unused*/, uint32_t /*unused*/) {
  net::TaskList tasks = std::move(retries_.front());
  retries_.pop_front();
  SendTasks(std::move(tasks));
}

void Client::HandlePacket(net::Packet&& pkt) {
  switch (pkt.op) {
    case net::OpCode::kJobAck:
      return;  // informational only
    case net::OpCode::kErrorQueueFull: {
      // Retry the rejected tasks after a short wait (§4.3).
      net::TaskList retry;
      retry.reserve(pkt.tasks.size());
      for (net::TaskInfo& task : pkt.tasks) {
        if (FindPending(task.id) == nullptr) {
          continue;  // completed in the meantime (stale duplicate)
        }
        metrics_->RecordQueueFullRetry();
        task.meta.submit_time = simulator_->Now() + kQueueFullRetryWait;
        task.meta.attempt += 1;
        trace::RecordTask(recorder_, task, trace::Kind::kQueueFullRetry, simulator_->Now(),
                          simulator_->Now(), kQueueFullRetryWait, node_id_);
        retry.push_back(task);
      }
      if (!retry.empty()) {
        retries_.push_back(std::move(retry));
        simulator_->ScheduleAt(simulator_->Now() + kQueueFullRetryWait, &retry_, 0, 0);
      }
      return;
    }
    case net::OpCode::kParamFetch: {
      // §4.4: an executor asks for a transmission-function task's real
      // parameters; reply with the bulk payload (stateless — the fetch
      // carries the TASK_INFO, whose FN_PAR is the parameter size).
      DRACONIS_CHECK(!pkt.tasks.empty());
      net::Packet data;
      data.op = net::OpCode::kParamData;
      data.dst = pkt.src;
      data.tasks.push_back(pkt.tasks[0]);
      data.payload_bytes = static_cast<uint32_t>(pkt.tasks[0].fn_par);
      network_->Send(node_id_, std::move(data));
      return;
    }
    case net::OpCode::kCompletionNotice: {
      DRACONIS_CHECK(!pkt.tasks.empty());
      const net::TaskInfo& task = pkt.tasks[0];
      Pending* pending = FindPending(task.id);
      if (pending == nullptr) {
        // Duplicate completion after a timeout resubmission. (Fire-and-forget
        // clients track nothing, so every notice would land here — skip.)
        if (!config_.fire_and_forget) {
          trace::RecordTask(recorder_, task, trace::Kind::kDuplicateComplete, simulator_->Now(),
                            simulator_->Now(), 0, node_id_);
        }
        return;
      }
      pending->timeout.Cancel();
      const TimeNs now = simulator_->Now();
      metrics_->RecordEndToEnd(task, now);
      ++completions_;
      consecutive_timeouts_ = 0;
      trace::RecordTask(recorder_, task, trace::Kind::kComplete, now, now, 0, node_id_);
      if (pending->hedged) {
        // The race is decided: cancel the losing replica client-side. It may
        // still be queued or executing — its eventual notice lands in the
        // duplicate-suppression branch above, and its execution (if any) is
        // charged to wasted work by the executor.
        const uint32_t loser = task.meta.attempt >= pending->hedge_attempt
                                   ? pending->hedge_attempt - 1
                                   : pending->hedge_attempt;
        if (task.meta.attempt >= pending->hedge_attempt) {
          metrics_->RecordHedgeWin();
        }
        metrics_->RecordCancellation();
        if (recorder_ != nullptr && recorder_->Sampled(task.id)) {
          recorder_->Record(task.id, trace::Kind::kHedgeCancel, now, now, 0, node_id_,
                            loser, 0);
        }
      }
      outstanding_.Close(task.id.jid, task.id.tid);
      if (on_completion_) {
        on_completion_(task, now);
      }
      return;
    }
    default:
      return;
  }
}

bool Client::HedgeTask(net::TaskId id, TimeNs resampled_duration) {
  Pending* pending = FindPending(id);
  if (pending == nullptr || pending->hedged) {
    // Completed in the meantime, or already hedged (one hedge per task: a
    // second duplicate only adds wasted work, never latency).
    return false;
  }
  const TimeNs now = simulator_->Now();
  net::TaskInfo task = pending->task;
  task.meta.submit_time = now;
  task.meta.attempt += 1;
  if (resampled_duration >= 0) {
    // Executor-side straggler model (docs/dag.md): the replica re-draws its
    // service time, so a pathological draw on the original placement does
    // not doom the duplicate.
    task.meta.exec_duration = resampled_duration;
  }
  metrics_->RecordHedge();
  trace::RecordTask(recorder_, task, trace::Kind::kHedgeLaunch, now, now,
                    static_cast<uint64_t>(now - task.meta.first_submit_time), node_id_);
  pending->hedged = true;
  pending->hedge_attempt = task.meta.attempt;
  // Track the duplicate as the live attempt: a later timeout resubmits from
  // it (attempt + 2) with the usual exponential backoff.
  pending->task = task;
  pending->timeout.Cancel();
  ArmTimeout(*pending, id.jid, id.tid);
  SendTasks({std::move(task)});
  return true;
}

bool Client::CancelTask(net::TaskId id) {
  Pending* pending = FindPending(id);
  if (pending == nullptr) {
    // Already completed (or cancelled): strictly a no-op so late cancels can
    // never double-count (tests/cluster_test.cc pins this).
    return false;
  }
  pending->timeout.Cancel();
  const TimeNs now = simulator_->Now();
  metrics_->RecordCancellation();
  trace::RecordTask(recorder_, pending->task, trace::Kind::kHedgeCancel, now, now, 1, node_id_);
  outstanding_.Close(id.jid, id.tid);
  return true;
}

TimeNs Client::TimeoutFor(const net::TaskInfo& task) const {
  const auto scaled = static_cast<TimeNs>(config_.timeout_multiplier *
                                          static_cast<double>(task.meta.exec_duration));
  const TimeNs base = std::max(scaled, config_.timeout_floor);
  // Exponential backoff across resubmissions so a congested scheduler is not
  // fed an unbounded duplicate storm.
  const uint32_t shift = std::min<uint32_t>(task.meta.attempt, 6);
  return base << shift;
}

Client::Pending* Client::FindPending(const net::TaskId& id) {
  return id.uid == config_.uid ? outstanding_.Find(id.jid, id.tid) : nullptr;
}

void Client::ArmTimeout(Pending& pending, uint32_t jid, uint32_t tid) {
  pending.timeout = simulator_->ScheduleAt(simulator_->Now() + TimeoutFor(pending.task), this,
                                           jid, tid, sim::kCancellable);
}

void Client::OnTimeout(uint32_t jid, uint32_t tid) {
  Pending* pending = outstanding_.Find(jid, tid);
  if (pending == nullptr) {
    return;
  }
  // The task (or its completion) was lost: resubmit it as a fresh
  // single-task job_submission, keeping first_submit_time so the measured
  // latency includes the loss (§8.3).
  metrics_->RecordTimeoutResubmission();
  // §3.3: a timeout is evidence against the *current* scheduler only when the
  // timed-out attempt was sent after the last rehome — stale timeouts of
  // attempts addressed to the previous scheduler must not flip the client
  // back toward a dead switch.
  if (standby_ != net::kInvalidNode && pending->task.meta.submit_time >= last_rehome_time_ &&
      ++consecutive_timeouts_ >= kRehomeAfterTimeouts) {
    // The scheduler looks dead from here; resubmit toward the standby. The
    // swap ping-pongs, so a spurious rehome self-corrects on the next streak.
    consecutive_timeouts_ = 0;
    last_rehome_time_ = simulator_->Now();
    std::swap(scheduler_, standby_);
    metrics_->RecordClientRehome();
    if (recorder_ != nullptr) {
      recorder_->RecordGlobal(trace::Kind::kRehome, simulator_->Now(), scheduler_, node_id_);
    }
  }
  net::TaskInfo task = pending->task;
  task.meta.submit_time = simulator_->Now();
  task.meta.attempt += 1;
  trace::RecordTask(recorder_, task, trace::Kind::kTimeoutResubmit, simulator_->Now(),
                    simulator_->Now(), 0, node_id_);
  pending->task = task;
  ArmTimeout(*pending, jid, tid);
  SendTasks({std::move(task)});
}

}  // namespace draconis::cluster
