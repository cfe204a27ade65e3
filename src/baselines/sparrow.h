// Sparrow (SOSP '13), re-implemented from scratch with its best-performing
// variant: batch sampling with late binding, as in the paper's optimized C++
// comparison (§8 "Schedulers").
//
// For a job of m tasks the scheduler sends d*m probes (d = 2) to distinct
// workers, which enqueue *reservations*. When a reservation reaches the head
// of a worker's queue and a core is free, the worker asks the scheduler for a
// task (get_task); the scheduler hands out an unlaunched task of that job or
// a "no task" response (the late binding that cancels excess reservations).
//
// The scheduler is an ordinary server: its throughput ceiling and probe RTTs
// come from its HostProfile, and its placement quality from d-choice
// sampling — at high load reservations queue behind running tasks on the
// sampled workers (node-level blocking), which is what pushes Sparrow's tail
// to ~2 service times in the paper's Fig. 5a.

#ifndef DRACONIS_BASELINES_SPARROW_H_
#define DRACONIS_BASELINES_SPARROW_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "cluster/scheduler_counters.h"
#include "cluster/task_runner.h"
#include "cluster/testbed.h"
#include "common/rng.h"
#include "common/time.h"
#include "net/network.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "trace/recorder.h"

namespace draconis::baselines {

struct SparrowConfig {
  static constexpr size_t kProbeRatio = 2;  // d: probes per task
  uint64_t seed = 11;

  // Calibrated per-message cost of the optimized C++/sockets implementation
  // (saturates around the paper's ~500 k decisions/s for one scheduler).
  static constexpr TimeNs kPacketCost = TimeNs{350};
  static constexpr TimeNs kStackLatency = TimeNs{2000};

  static net::HostProfile Profile() {
    return net::HostProfile::Socket(kPacketCost, kStackLatency);
  }
};

class SparrowScheduler : public net::Endpoint {
 public:
  // Registers itself on the testbed's fabric; the testbed must outlive it.
  SparrowScheduler(cluster::Testbed* testbed, const SparrowConfig& config);

  net::NodeId node_id() const { return node_id_; }

  // All candidate workers this scheduler may probe.
  void SetWorkers(std::vector<net::NodeId> workers) { workers_ = std::move(workers); }

  // net::Endpoint:
  void HandlePacket(net::Packet pkt) override;

  const cluster::SchedulerCounters& counters() const { return counters_; }

 private:
  struct JobState {
    std::deque<net::TaskInfo> unlaunched;
    net::NodeId client = net::kInvalidNode;
  };

  static uint64_t JobKey(uint32_t uid, uint32_t jid) {
    return (static_cast<uint64_t>(uid) << 32) | jid;
  }

  void HandleSubmission(net::Packet pkt);
  void HandleGetTask(const net::Packet& pkt);

  sim::Simulator* simulator_;
  net::Network* network_;
  trace::Recorder* recorder_;
  SparrowConfig config_;
  Rng rng_;
  net::NodeId node_id_;
  std::vector<net::NodeId> workers_;
  std::unordered_map<uint64_t, JobState> jobs_;
  cluster::SchedulerCounters counters_;
};

// Worker node: a FIFO of reservations feeding `num_executors` cores; each
// core idles for one get_task round trip before running its task (late
// binding's price).
class SparrowWorker : public cluster::TaskRunner {
 public:
  SparrowWorker(cluster::Testbed* testbed, size_t num_executors, uint32_t worker_node);

  // net::Endpoint:
  void HandlePacket(net::Packet pkt) override;

 private:
  struct Reservation {
    net::NodeId scheduler = net::kInvalidNode;
    uint32_t uid = 0;
    uint32_t jid = 0;
  };

  void TryDispatch();

  std::deque<Reservation> reservations_;
  std::vector<bool> core_busy_;
  std::deque<size_t> waiting_cores_;  // cores blocked on a get_task round trip
};

}  // namespace draconis::baselines

#endif  // DRACONIS_BASELINES_SPARROW_H_
