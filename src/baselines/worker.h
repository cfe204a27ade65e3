// The worker machine the baselines share (the R2P2, RackSched and Sparrow
// workers): its fabric address, and one copy each of "start a task" and
// "finish it". Each subclass keeps only its own queueing discipline.

#ifndef DRACONIS_BASELINES_WORKER_H_
#define DRACONIS_BASELINES_WORKER_H_

#include <cstdint>

#include "cluster/metrics.h"
#include "cluster/testbed.h"
#include "common/time.h"
#include "net/network.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace draconis::baselines {

class BaselineWorker : public net::Endpoint {
 public:
  // The fabric and pending completion events hold the worker's address.
  BaselineWorker(const BaselineWorker&) = delete;
  BaselineWorker& operator=(const BaselineWorker&) = delete;

  net::NodeId node_id() const { return node_id_; }

 protected:
  // FinishTask's credit target for a worker that returns no credit.
  static constexpr uint32_t kNoCredit = ~uint32_t{0};

  // Registers on the testbed's fabric; the testbed must outlive the worker.
  // `scheduler` receives the credits.
  BaselineWorker(cluster::Testbed* testbed, uint32_t worker_node, net::NodeId scheduler,
                 const net::HostProfile& profile);

  // Records a task picked up now that executes from `exec_start`. A repeat
  // execution (timeout resubmission or a straggler hedge) counts as wasted
  // work: the marginal cost of replication (docs/dag.md).
  void RecordStart(const net::TaskInfo& task, TimeNs exec_start);

  // RecordStart plus the core's busy interval; returns the completion time.
  TimeNs StartTask(const net::TaskInfo& task, TimeNs exec_start);

  // The task finished now: records the node completion, returns a credit for
  // `credit_target` to the scheduler (carrying the task's measured sojourn
  // when `report_sojourn`), and sends the client its completion notice.
  void FinishTask(net::TaskInfo task, net::NodeId client, uint32_t credit_target,
                  bool report_sojourn = false);

  sim::Simulator* simulator_;
  net::Network* network_;
  cluster::MetricsHub* metrics_;
  uint32_t worker_node_;
  net::NodeId scheduler_;
  net::NodeId node_id_;
};

}  // namespace draconis::baselines

#endif  // DRACONIS_BASELINES_WORKER_H_
