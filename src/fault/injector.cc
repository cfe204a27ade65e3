#include "fault/injector.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "trace/recorder.h"
#include "trace/span.h"

namespace draconis::fault {

Injector::Injector(cluster::Testbed* testbed, FaultPlan plan, InjectorHooks hooks)
    : testbed_(testbed), plan_(std::move(plan)), hooks_(std::move(hooks)) {
  DRACONIS_CHECK(testbed != nullptr);
}

void Injector::Arm() {
  DRACONIS_CHECK_MSG(!armed_, "Injector::Arm called twice");
  armed_ = true;
  const std::string invalid = plan_.Validate();
  DRACONIS_CHECK_MSG(invalid.empty(), "invalid FaultPlan: " + invalid);

  sim::Simulator& simulator = testbed_->simulator();
  for (size_t i = 0; i < plan_.events().size(); ++i) {
    const FaultEvent& e = plan_.events()[i];
    simulator.ScheduleAt(e.start, this, static_cast<uint32_t>(i), 0);
    // A failover's `end` only bounds the during-fault metric window — the
    // dead scheduler stays dead — so there is nothing to clear.
    if (e.end != FaultEvent::kNever && e.kind != EventKind::kSchedulerFailover) {
      simulator.ScheduleAt(e.end, this, static_cast<uint32_t>(i), 1);
    }
  }
}

void Injector::OnEvent(uint32_t index, uint32_t edge) {
  edge == 0 ? StartEvent(index) : ClearEvent(index);
}

std::vector<net::NodeId> Injector::Resolve(const NodeRef& ref) const {
  if (ref.role == NodeRef::Role::kNode) {
    DRACONIS_CHECK_MSG(ref.index >= 0, "a raw node reference needs a concrete id");
    return {static_cast<net::NodeId>(ref.index)};
  }
  if (!hooks_.resolve) {
    return {};
  }
  std::vector<net::NodeId> nodes = hooks_.resolve(ref);
  if (ref.index == NodeRef::kAllInstances || nodes.empty()) {
    return nodes;
  }
  const auto index = static_cast<size_t>(ref.index);
  if (index >= nodes.size()) {
    return {};
  }
  return {nodes[index]};
}

void Injector::RecordWindow(const FaultEvent& e) const {
  trace::Recorder* recorder = testbed_->recorder();
  if (recorder == nullptr) {
    return;
  }
  const TimeNs end = e.end != FaultEvent::kNever ? e.end : testbed_->horizon();
  const std::vector<net::NodeId> targets =
      e.kind == EventKind::kLossyLink
          ? Resolve(e.dst)
          : (e.kind == EventKind::kNodeCrash
                 ? Resolve(e.target)
                 : Resolve(NodeRef{NodeRef::Role::kScheduler, 0}));
  recorder->Record(trace::kGlobalTaskId, trace::Kind::kFaultWindow, e.start,
                   std::max(end, e.start), static_cast<uint64_t>(e.kind),
                   targets.empty() ? 0 : targets.front());
}

void Injector::StartEvent(size_t index) {
  const FaultEvent& e = plan_.events()[index];
  if (hooks_.before_action) {
    hooks_.before_action();
  }
  ++events_started_;
  net::Network& network = testbed_->network();
  RecordWindow(e);
  switch (e.kind) {
    case EventKind::kLossyLink:
      for (const net::NodeId src : Resolve(e.src)) {
        for (const net::NodeId dst : Resolve(e.dst)) {
          network.InjectDrop(src, dst, e.probability);
        }
      }
      break;
    case EventKind::kNodeCrash:
      for (const net::NodeId node : Resolve(e.target)) {
        network.Disconnect(node);
      }
      break;
    case EventKind::kLatencyDegrade:
      network.AddLatencyPenalty(e.extra_latency);
      break;
    case EventKind::kSchedulerFailover:
      // §3.3: the active scheduler fails hard — in-flight packets toward it
      // are lost (delivery-time disconnect check) — then the deployment
      // promotes its standby and rehomes the executor fleet. Clients are not
      // told: they discover the failure through timeouts and rehome on their
      // own (cluster/client.cc).
      for (const net::NodeId node : Resolve(NodeRef{NodeRef::Role::kScheduler, 0})) {
        network.Disconnect(node);
      }
      if (hooks_.on_failover) {
        hooks_.on_failover();
      }
      break;
  }
}

void Injector::ClearEvent(size_t index) {
  const FaultEvent& e = plan_.events()[index];
  if (hooks_.before_action) {
    hooks_.before_action();
  }
  ++events_cleared_;
  net::Network& network = testbed_->network();
  switch (e.kind) {
    case EventKind::kLossyLink:
      for (const net::NodeId src : Resolve(e.src)) {
        for (const net::NodeId dst : Resolve(e.dst)) {
          network.RemoveDrop(src, dst);
        }
      }
      break;
    case EventKind::kNodeCrash:
      for (const net::NodeId node : Resolve(e.target)) {
        network.Reconnect(node);
      }
      break;
    case EventKind::kLatencyDegrade:
      network.AddLatencyPenalty(-e.extra_latency);
      break;
    case EventKind::kSchedulerFailover:
      break;  // never scheduled
  }
}

}  // namespace draconis::fault
