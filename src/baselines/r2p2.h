// R2P2's in-switch JBSQ(k) scheduler and its push-based workers (paper §2.2,
// §8.3), rebuilt from scratch on the same switch model as Draconis.
//
// The switch tracks one outstanding-task counter per executor, bounded by
// the JBSQ depth k (k slots including the running task). Each task joins the
// executor with the minimum outstanding count ("R2P2 always selects the
// [executor] with the shortest queue"), incrementing the counter at
// assignment; completions return a credit that decrements it.
//
// The dynamics the paper measures fall out of the bound plus *herding*: the
// shortest-queue selection works on queue-length state that lags slightly
// behind the assignments ("batches of tasks are sent to the executor with
// the shortest queue before the queue length is updated", §8.1), modeled as
// a selection snapshot refreshed every `selection_staleness`:
//   - Tasks arriving within one staleness window pile onto the same
//     "shortest" executor up to its bound and queue *behind a running task*
//     even though other executors are idle — node-level blocking, the reason
//     R2P2-3's tail latency equals the task service time from ~30-40%
//     utilization (Figs. 5a, 6, 8). Draconis parks every task in the central
//     switch queue and hands it to the next executor that frees, so its tail
//     stays microseconds.
//   - With k = 1 there is no queue to absorb the excess at all: the overflow
//     tasks spin through the recirculation port until an executor frees, and
//     under bursts the port backlog overflows and tasks are dropped (Figs. 7
//     and 8's yellow markers). With k = 3 scheduling costs zero
//     recirculations, matching the paper's "brings the number of
//     recirculations and dropped tasks to zero".
//
// The selection rule runs on the shared push program (push_program.h);
// workers hold a bounded FIFO per executor (JBSQ's per-executor queue).

#ifndef DRACONIS_BASELINES_R2P2_H_
#define DRACONIS_BASELINES_R2P2_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "baselines/push_program.h"
#include "cluster/task_runner.h"
#include "cluster/testbed.h"
#include "common/time.h"
#include "net/network.h"
#include "net/packet.h"

namespace draconis::baselines {

// JBSQ(k) over one target per executor slot.
class R2P2Program : public PushProgram {
 public:
  // How stale the shortest-queue selection state may be (~ the switch-worker
  // feedback delay); the JBSQ bound itself is always enforced exactly.
  // Calibrated so that at the paper's Fig. 5a operating point (500 us tasks,
  // 250 ktps) a few percent of tasks herd behind a running task, putting the
  // p99 at ~1 service time.
  static constexpr TimeNs kSelectionStaleness = TimeNs{250};

  // `jbsq_k` bounds the slots per executor, the running task included: R2P2-1
  // has no queue (run one task, queue none); R2P2-3 is the authors' default.
  R2P2Program(size_t num_executors, uint32_t jbsq_k,
              TimeNs selection_staleness = kSelectionStaleness);

  size_t cp_credits() const;  // free slots across the cluster

 private:
  size_t Select(TimeNs now) override;

  uint32_t jbsq_k_;
  TimeNs selection_staleness_;
  std::vector<uint32_t> stale_view_;  // what the selection logic believes
  TimeNs last_refresh_ = -1;
};

// A worker machine hosting `num_executors` executor slots, each with its own
// bounded FIFO. Worker w hosts the contiguous slots [w * num_executors,
// (w + 1) * num_executors).
class R2P2Worker : public cluster::TaskRunner {
 public:
  R2P2Worker(cluster::Testbed* testbed, size_t num_executors, uint32_t worker_node,
             net::NodeId scheduler);

  // net::Endpoint:
  void HandlePacket(net::Packet&& pkt) override;

 private:
  void TryRun(size_t local);
  // TaskRunner:
  void TaskDone(uint32_t core, net::TaskInfo task, net::NodeId client) override;

  size_t first_slot_;
  // Per executor slot (core): the pushed tasks waiting for it.
  std::vector<std::deque<CoreSlot>> queues_;
};

}  // namespace draconis::baselines

#endif  // DRACONIS_BASELINES_R2P2_H_
