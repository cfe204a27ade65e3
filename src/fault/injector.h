// Arms a FaultPlan against a live Testbed (docs/fault_injection.md).
//
// The Injector translates the plan's declarative timeline into simulator
// events: each fault event schedules one callback at its onset (and one at
// its clearance, when it has one) that drives the Network's fault primitives
// — InjectDrop/RemoveDrop, Disconnect/Reconnect, AddLatencyPenalty — and,
// for scheduler_failover, hands control to the deployment through the
// on_failover hook. Role references resolve to fabric NodeIds through the
// resolve hook, which RunExperiment wires to the deployment's node lists.
//
// Determinism: the injector consumes no randomness (per-packet drop draws
// happen inside the Network on its dedicated SeedDomain::kFault stream), and
// an empty plan arms nothing, so a run with an empty — or never-firing —
// plan is bit-identical to a faultless run (tests/determinism_test.cc).

#ifndef DRACONIS_FAULT_INJECTOR_H_
#define DRACONIS_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/testbed.h"
#include "fault/plan.h"
#include "net/packet.h"

namespace draconis::fault {

// Deployment-side callbacks. Both are optional: without `resolve` only raw
// kNode references resolve (enough for substrate-level tests); without
// `on_failover` a scheduler_failover only disconnects the active scheduler.
struct InjectorHooks {
  // Role reference -> fabric node ids (empty: no such instances).
  std::function<std::vector<net::NodeId>(const NodeRef&)> resolve;
  // Called at a scheduler_failover onset, after the active scheduler has
  // been disconnected: promote the standby, rehome the executor fleet.
  std::function<void()> on_failover;
  // Called before every onset and clearance touches the fabric: hand any
  // parked idle poll back to its executor (core/poll_roster.h), whose
  // arithmetic assumes fault-free links.
  std::function<void()> before_action;
};

class Injector : public sim::EventSink {
 public:
  // The testbed (and the hooks' targets) must outlive the injector; the
  // injector must outlive the simulation run it is armed on.
  Injector(cluster::Testbed* testbed, FaultPlan plan, InjectorHooks hooks);
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  // Schedules every plan event on the testbed's simulator. Call once, before
  // the run. A valid plan is required (CHECK: plan.Validate() passed).
  void Arm();

  // Observability for tests: onsets / clearances executed so far.
  uint64_t events_started() const { return events_started_; }
  uint64_t events_cleared() const { return events_cleared_; }

  // sim::EventSink: event `index` of the plan starts (edge 0) or clears
  // (edge 1).
  void OnEvent(uint32_t index, uint32_t edge) override;

 private:
  void StartEvent(size_t index);
  void ClearEvent(size_t index);
  std::vector<net::NodeId> Resolve(const NodeRef& ref) const;
  // The window span rendered by Perfetto as the outage band; clamped to the
  // testbed horizon for events that never clear.
  void RecordWindow(const FaultEvent& e) const;

  cluster::Testbed* testbed_;
  FaultPlan plan_;
  InjectorHooks hooks_;
  bool armed_ = false;
  uint64_t events_started_ = 0;
  uint64_t events_cleared_ = 0;
};

}  // namespace draconis::fault

#endif  // DRACONIS_FAULT_INJECTOR_H_
