// Declarative fault timelines (docs/fault_injection.md).
//
// A FaultPlan is a list of timestamped fault events — lossy-link windows,
// node crashes with recovery, fabric-wide latency degradation, and the §3.3
// scheduler failover — built programmatically (chained builders) or parsed
// from JSON. The plan is pure data: it names targets by *role* (scheduler,
// standby, executor, client) because fabric NodeIds are assigned at
// deployment time; the fault::Injector resolves roles against the live
// deployment when it arms the plan on a Testbed.
//
// Plans are value types (copied freely into ExperimentConfig, including
// across sweep threads) and carry no randomness of their own: per-packet
// drop decisions draw from the network's dedicated fault stream
// (SeedDomain::kFault), and every event fires at a fixed simulated time, so
// the same seed + the same plan is bit-identical across runs.

#ifndef DRACONIS_FAULT_PLAN_H_
#define DRACONIS_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"

namespace draconis::fault {

// A fault target, named by deployment role. `index` selects one instance;
// kAllInstances targets every node of the role.
struct NodeRef {
  enum class Role : uint8_t {
    kScheduler,  // active scheduler instance(s) (deployment->scheduler_nodes)
    kStandby,    // standby scheduler (only exists when the plan has a failover)
    kExecutor,   // pull-based executor fleet
    kClient,     // submitting clients
    kNode,       // a raw fabric NodeId (index = the id); for low-level tests
  };
  static constexpr int32_t kAllInstances = -1;

  Role role = Role::kScheduler;
  int32_t index = 0;
};

enum class EventKind : uint8_t {
  kLossyLink,          // window: drop src->dst packets with `probability`
  kNodeCrash,          // window: target disconnected, reconnected at `end`
  kLatencyDegrade,     // window: every delivery takes `extra_latency` longer
  kSchedulerFailover,  // instant: active scheduler dies, standby promoted
};

const char* EventKindName(EventKind kind);

// One timeline entry. `start` is when the fault sets in; `end` is when it
// clears (kNever = it persists to the end of the run). Unused fields stay at
// their defaults for kinds that do not read them.
struct FaultEvent {
  static constexpr TimeNs kNever = -1;

  EventKind kind = EventKind::kLossyLink;
  TimeNs start = 0;
  TimeNs end = kNever;
  double probability = 1.0;    // kLossyLink
  TimeNs extra_latency = 0;    // kLatencyDegrade
  NodeRef src{};               // kLossyLink
  NodeRef dst{};               // kLossyLink
  NodeRef target{};            // kNodeCrash
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // --- Programmatic builders (chainable) -----------------------------------
  FaultPlan& LossyLink(TimeNs start, TimeNs end, double probability, NodeRef src, NodeRef dst);
  FaultPlan& NodeCrash(TimeNs at, TimeNs recover_at, NodeRef target);
  FaultPlan& LatencyDegrade(TimeNs start, TimeNs end, TimeNs extra_latency);
  // The §3.3 experiment: at `at` the active scheduler is disconnected, the
  // standby is promoted and executors rehome; clients discover the failover
  // through their own timeouts. `settle` bounds the during-fault metric
  // window (kNever: the ExperimentConfig fault_settle default applies).
  FaultPlan& SchedulerFailover(TimeNs at, TimeNs settle = FaultEvent::kNever);

  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  bool has_scheduler_failover() const;
  // Start of the first scheduler_failover event; kNever when none.
  TimeNs failover_at() const;

  // Earliest fault onset across all events; kNever for an empty plan.
  TimeNs first_onset() const;
  // Latest fault clearance; events that never clear (end == kNever,
  // including failovers with no settle) report `never_fallback` instead.
  TimeNs last_clearance(TimeNs never_fallback) const;

  // Schema-level validation (ranges, orderings, role/kind combinations).
  // Returns "" when valid, a descriptive error otherwise.
  std::string Validate() const;

  // --- JSON (docs/fault_injection.md has the schema) -----------------------
  // Accepts durations either as integer nanoseconds or as strings with units
  // ("250us", "5ms"). Returns false + a descriptive error on malformed input
  // or on a plan that fails Validate().
  static bool FromJson(const std::string& text, FaultPlan* out, std::string* error);
  static bool FromJsonFile(const std::string& path, FaultPlan* out, std::string* error);

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace draconis::fault

#endif  // DRACONIS_FAULT_PLAN_H_
