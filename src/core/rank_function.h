// Rank functions: the policy side of the PIFO platform (docs/pifo.md).
//
// A RankFunction maps an arriving task to the 64-bit rank that orders it in
// the p4::Pifo — the "programmable packet scheduling" split (Sivaraman et
// al.): the PIFO block is policy-free, the policy lives entirely in the rank
// computation performed by the match-action stages of the same enqueue pass.
// Lower ranks dequeue first; rank ties resolve FIFO by arrival order (the
// PIFO's contract), so every rank function below is automatically
// work-conserving and starvation-ordered within a rank.
//
// Comparator laws (after *Formal Abstractions for Packet Scheduling*): the
// order induced by (rank, arrival seq) must be total and transitive — free
// here because ranks are integers — and each policy must be monotone in its
// key (priority level, remaining service, absolute deadline, virtual start
// time). tests/rank_function_test.cc pins all of these.
//
// Rank computation happens inside an enqueue pass and may touch the rank
// function's own register groups (WFQ keeps per-tenant finish tags and a
// virtual clock); the one-access-per-register rule of register.h applies
// unchanged, which keeps every policy implementable in real stages.

#ifndef DRACONIS_CORE_RANK_FUNCTION_H_
#define DRACONIS_CORE_RANK_FUNCTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "net/packet.h"
#include "p4/register.h"

namespace draconis::core {

// The switch queueing discipline. kFifo is the paper's circular queue
// (switch_queue.h); every other value replaces it with a rank-ordered
// p4::Pifo driven by the matching RankFunction.
enum class SwitchPolicy : uint8_t {
  kFifo,
  kStrictPriority,  // rank = TPROPS priority level (1 = most urgent)
  kSrpt,            // rank = declared execution time (shortest first)
  kEdf,             // rank = now + TPROPS-as-relative-deadline (µs)
  kWfq,             // rank = per-tenant virtual start time (TPROPS = tenant)
};

// Enumeration order == flag/wire order (mirrors the DeploymentRegistry
// convention for scheduler kinds).
const std::vector<SwitchPolicy>& AllSwitchPolicies();

// Round-trippable flag spelling ("fifo", "sp", "srpt", "edf", "wfq").
const char* SwitchPolicyName(SwitchPolicy policy);
bool SwitchPolicyFromName(const std::string& name, SwitchPolicy* out);

class RankFunction {
 public:
  virtual ~RankFunction() = default;

  virtual const char* name() const = 0;

  // The rank for `task`, computed during its enqueue pass. May perform this
  // rank function's own register accesses within the same pass.
  virtual uint64_t Rank(p4::PacketPass& pass, const net::TaskInfo& task, TimeNs now) = 0;

  // Dequeue observation hook, called in the pass that popped a task of rank
  // `rank` (WFQ advances its virtual clock here). Default: stateless no-op.
  virtual void OnDequeue(p4::PacketPass& pass, uint64_t rank) {
    (void)pass;
    (void)rank;
  }
};

// Today's hard-coded pipeline behaviour as a rank function: rank = the
// TPROPS priority level, so an all-default (TPROPS = 0) workload degenerates
// to pure FIFO — bit-identical to the circular queue (determinism_test.cc).
class StrictPriorityRank : public RankFunction {
 public:
  const char* name() const override { return "sp"; }
  uint64_t Rank(p4::PacketPass& pass, const net::TaskInfo& task, TimeNs now) override;
};

// Shortest remaining processing time. The switch never sees progress, so
// "remaining" is the client-declared execution time riding in TASK_INFO —
// the same field the executors use to run the task.
class SrptRank : public RankFunction {
 public:
  const char* name() const override { return "srpt"; }
  uint64_t Rank(p4::PacketPass& pass, const net::TaskInfo& task, TimeNs now) override;
};

// Earliest deadline first. TPROPS carries the task's relative deadline in
// microseconds (the workload::TaggerStage deadline stage); rank = enqueue time + deadline, an
// absolute nanosecond deadline. TPROPS = 0 degenerates to FIFO.
class EdfRank : public RankFunction {
 public:
  const char* name() const override { return "edf"; }
  uint64_t Rank(p4::PacketPass& pass, const net::TaskInfo& task, TimeNs now) override;
};

// Per-tenant weighted fair queueing via start-time fair queueing (SFQ):
// TPROPS is the tenant id, rank = max(virtual clock, tenant finish tag), and
// the tenant's finish tag advances by cost / weight. The virtual clock — one
// register — advances to the start tag of each dequeued task (OnDequeue), so
// an idle tenant re-enters at the current virtual time instead of burning
// saved-up credit. Finish tags live in one register per tenant; both groups
// obey the one-access rule (clock is read in the enqueue pass, written in
// the dequeue pass).
class WfqRank : public RankFunction {
 public:
  // `weights` must be non-empty and positive; tenant ids clamp to the last
  // entry (mirroring the queue-index clamp in the FIFO pipeline). `ledger`
  // (optional) accounts the tag and clock registers.
  explicit WfqRank(std::vector<uint32_t> weights, p4::ResourceLedger* ledger = nullptr);

  const char* name() const override { return "wfq"; }
  uint64_t Rank(p4::PacketPass& pass, const net::TaskInfo& task, TimeNs now) override;
  void OnDequeue(p4::PacketPass& pass, uint64_t rank) override;

  uint64_t cp_virtual_time() const { return virtual_clock_.ControlPlaneRead(0); }
  uint64_t cp_finish_tag(size_t tenant) const { return finish_tags_.ControlPlaneRead(tenant); }

 private:
  std::vector<uint32_t> weights_;
  p4::RegisterArray<uint64_t> finish_tags_;
  p4::RegisterArray<uint64_t> virtual_clock_;
};

// Per-policy knobs a deployment forwards from its ExperimentConfig.
struct RankFunctionConfig {
  std::vector<uint32_t> wfq_weights = {1, 1};
};

// Builds the rank function for `policy`; nullptr for kFifo (no PIFO).
std::unique_ptr<RankFunction> MakeRankFunction(SwitchPolicy policy,
                                               const RankFunctionConfig& config,
                                               p4::ResourceLedger* ledger = nullptr);

}  // namespace draconis::core

#endif  // DRACONIS_CORE_RANK_FUNCTION_H_
