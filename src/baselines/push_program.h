// The switch half of the push-based baselines (R2P2, RackSched and the
// Malcolm-style balancer): one program that pushes each task to a target —
// an executor slot for R2P2, a worker node for the others — and takes a
// credit back when the target finishes it.
//
// The program owns everything the three kinds share: the per-target
// outstanding counts, the target -> worker table, the counters and the whole
// pass protocol (credits, forwarding, the one-task-per-packet check, the
// enqueue stamp and the push). A kind supplies only its selection rule by
// overriding Select — R2P2Program, RackSchedProgram and MalcolmProgram.
//
// The counters are modeled behaviorally (plain memory) rather than through
// the register layer; the reference P4 programs realize them with per-stage
// register arrays, and what the paper's comparison hinges on is the
// *scheduling* behavior. See DESIGN.md §1.

#ifndef DRACONIS_BASELINES_PUSH_PROGRAM_H_
#define DRACONIS_BASELINES_PUSH_PROGRAM_H_

#include <cstdint>
#include <vector>

#include "cluster/scheduler_counters.h"
#include "common/time.h"
#include "net/network.h"
#include "net/packet.h"
#include "p4/pipeline.h"
#include "trace/recorder.h"

namespace draconis::baselines {

class PushProgram : public p4::SwitchProgram {
 public:
  // Routes target -> the worker endpoint hosting it. Must cover
  // [0, num_targets()) before traffic flows.
  void BindTarget(size_t target, net::NodeId worker);

  // Optional task-lifecycle recorder (nullable; never affects behaviour).
  void SetRecorder(trace::Recorder* recorder) { recorder_ = recorder; }

  void OnPass(p4::PassContext& ctx, net::Packet pkt) override;

  size_t num_targets() const { return outstanding_.size(); }
  const cluster::SchedulerCounters& counters() const { return counters_; }
  uint32_t cp_outstanding(size_t target) const { return outstanding_[target]; }

  // Credit conservation: every push is outstanding until its credit returns,
  // so the outstanding counts sum to tasks_pushed - credits.
  void CheckConservation() const;

 protected:
  explicit PushProgram(size_t num_targets);

  // Select's answer when no target may take the task: the task recirculates
  // until a credit frees one.
  static constexpr size_t kNoTarget = ~size_t{0};

  // The selection rule: the target for one task, or kNoTarget.
  virtual size_t Select(TimeNs now) = 0;

  const std::vector<uint32_t>& outstanding() const { return outstanding_; }

 private:
  std::vector<uint32_t> outstanding_;  // tasks pushed minus credits, per target
  std::vector<net::NodeId> worker_of_target_;
  cluster::SchedulerCounters counters_;
  trace::Recorder* recorder_ = nullptr;
};

}  // namespace draconis::baselines

#endif  // DRACONIS_BASELINES_PUSH_PROGRAM_H_
