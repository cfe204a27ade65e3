// Draconis-Socket-Server and Draconis-DPDK-Server (paper §8, "Schedulers").
//
// A server-based scheduler that speaks the Draconis protocol — central FCFS
// queue, pull-based executors — but runs on a commodity machine instead of a
// switch. Its performance ceiling comes from per-packet CPU cost, modeled by
// the endpoint's HostProfile. Being a server, it has none of the switch's
// restrictions: the queue is ordinary memory, and instead of answering an
// empty-queue pull with a no-op (the switch must; it cannot hold packets),
// the server parks the request and answers the moment a task arrives.

#ifndef DRACONIS_BASELINES_CENTRAL_SERVER_H_
#define DRACONIS_BASELINES_CENTRAL_SERVER_H_

#include <cstdint>
#include <deque>

#include "cluster/scheduler_counters.h"
#include "cluster/testbed.h"
#include "common/time.h"
#include "net/network.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "trace/recorder.h"

namespace draconis::baselines {

struct CentralServerConfig {
  enum class Transport { kDpdk, kSocket };
  Transport transport = Transport::kDpdk;
  size_t queue_capacity = 1u << 20;  // server RAM is plentiful

  // Calibrated per-packet costs (DESIGN.md §4): a no-op scheduling decision
  // costs one rx + one tx, so DPDK saturates near 1/(2 x 450 ns) ~ 1.1 M
  // decisions/s (paper Fig. 5b) and sockets near 400 k; with the full
  // submission/ack/completion/notice/assignment exchange (5 packets per
  // task) the socket server saturates at ~160 ktps, matching the paper's
  // "systems that use POSIX sockets cannot support more than 160 ktps".
  static constexpr TimeNs kDpdkPacketCost = TimeNs{450};
  static constexpr TimeNs kSocketPacketCost = TimeNs{1250};
  static constexpr TimeNs kSocketStackLatency = TimeNs{3000};

  net::HostProfile Profile() const {
    return transport == Transport::kDpdk
               ? net::HostProfile::Dpdk(kDpdkPacketCost)
               : net::HostProfile::Socket(kSocketPacketCost, kSocketStackLatency);
  }
};

class CentralServerScheduler : public net::Endpoint {
 public:
  // Registers itself on the testbed's fabric and picks up its recorder. The
  // testbed must outlive the scheduler.
  CentralServerScheduler(cluster::Testbed* testbed, const CentralServerConfig& config);

  net::NodeId node_id() const { return node_id_; }
  const cluster::SchedulerCounters& counters() const { return counters_; }

  // net::Endpoint:
  void HandlePacket(net::Packet pkt) override;

 private:
  struct QueuedTask {
    net::TaskInfo task;
    net::NodeId client;
  };

  void HandleSubmission(net::Packet pkt);
  void HandleRequest(const net::Packet& pkt);

  void AssignTo(net::NodeId executor);

  sim::Simulator* simulator_;
  net::Network* network_;
  trace::Recorder* recorder_ = nullptr;
  CentralServerConfig config_;
  net::NodeId node_id_;
  std::deque<QueuedTask> queue_;
  std::deque<net::NodeId> waiting_executors_;
  cluster::SchedulerCounters counters_;
};

}  // namespace draconis::baselines

#endif  // DRACONIS_BASELINES_CENTRAL_SERVER_H_
