// Switch pipeline model.
//
// A SwitchPipeline is the network endpoint standing in for the Tofino data
// plane. Packets delivered to it traverse the match-action pipeline: the
// installed SwitchProgram runs once per pass, operating on registers under
// the single-access rule and emitting actions (forward, recirculate, drop).
//
// Timing model:
//   - A pass takes `pass_latency` from ingress to egress (the paper measures
//     sub-microsecond pipeline traversal).
//   - The front-panel packet rate is astronomically high (4.7 B pps on the
//     paper's switch) and is not modeled as a bottleneck.
//   - Recirculation goes through a loopback port with a *bounded* service
//     rate and queue. When the recirculation port is saturated, packets are
//     dropped — this is the mechanism behind R2P2-1's task drops in the
//     paper's Fig. 7/8 and the reason Draconis uses recirculation sparingly.
//
// Ingress order: packets that reach the pipeline in the same nanosecond
// (from the fabric or the loopback port) run their passes in the canonical
// order of their IngressKey — (launch time, source port, per-link sequence
// number) — not in the order their events happened to be scheduled. A lone
// arrival runs at once; a same-instant group waits for one flush event at
// that instant. The order is thus a property of the packets alone, which is
// what lets the idle-poll fast-forward (core/poll_roster.h) re-create a poll
// late and still land it in its exact place.

#ifndef DRACONIS_P4_PIPELINE_H_
#define DRACONIS_P4_PIPELINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/time.h"
#include "net/network.h"
#include "net/packet.h"
#include "p4/register.h"
#include "sim/simulator.h"
#include "trace/recorder.h"

namespace draconis::cluster {
class Testbed;
}  // namespace draconis::cluster

namespace draconis::p4 {

class SwitchPipeline;

// Where a pass sits in the canonical same-instant ingress order.
struct IngressKey {
  TimeNs sent_at = 0;    // launch time of the hop (or of the recirculation)
  net::NodeId port = 0;  // source node, or kLoopbackPort
  uint64_t seq = 0;      // per-link sequence number (or loopback counter)

  bool operator<(const IngressKey& o) const {
    return std::tie(sent_at, port, seq) < std::tie(o.sent_at, o.port, o.seq);
  }
};

// The reserved ingress port of recirculated packets (no fabric node has it).
inline constexpr net::NodeId kLoopbackPort = net::kInvalidNode;

// Told about every pass once the program has run it.
class PassObserver {
 public:
  virtual ~PassObserver() = default;
  virtual void AfterPass(const IngressKey& key) = 0;
};

// Handed to the program on every pass; carries the action interface and the
// register-access guard.
class PassContext {
 public:
  // Simulated time at which this pass entered the ingress pipeline.
  TimeNs Now() const;

  // How many times this packet has traversed the pipeline before (0 for a
  // fresh packet).
  uint32_t pass_number() const { return pass_number_; }

  // The switch's own fabric address (for programs that plain-forward other
  // traffic: a packet addressed to the switch itself has nowhere to go).
  net::NodeId SwitchNode() const;

  // Sends `pkt` out of the switch toward pkt.dst (after the pipeline delay).
  void Emit(net::Packet pkt);

  // Feeds `pkt` back through the loopback port for another pass. May drop the
  // packet if the recirculation port is saturated, unless `guaranteed` is set
  // (used for pointer-repair packets, which ride the port's high-priority
  // class: losing one would wedge the queue).
  void Recirculate(net::Packet pkt, bool guaranteed = false);

  // Discards the packet, counting the reason.
  void Drop(const net::Packet& pkt, const std::string& reason);

  // The register-access guard for this pass.
  PacketPass& registers() { return *registers_; }

 private:
  friend class SwitchPipeline;
  PassContext(SwitchPipeline* pipeline, uint32_t pass_number, PacketPass* registers)
      : pipeline_(pipeline), pass_number_(pass_number), registers_(registers) {}

  SwitchPipeline* pipeline_;
  uint32_t pass_number_;
  PacketPass* registers_;  // the pipeline's guard, reset for this pass
};

// A P4 program: invoked once per pipeline pass.
class SwitchProgram {
 public:
  virtual ~SwitchProgram() = default;

  // Process one traversal of `pkt`. The implementation must finish the packet
  // by calling exactly one of ctx.Emit / ctx.Recirculate / ctx.Drop (it may
  // additionally Emit cloned packets, mirroring the hardware's packet-clone
  // capability).
  virtual void OnPass(PassContext& ctx, net::Packet pkt) = 0;
};

struct PipelineConfig {
  TimeNs pass_latency = TimeNs{450};
  // Extra latency for one trip through the loopback port (paper §8.7:
  // "recirculation typically takes less than a microsecond").
  TimeNs recirc_latency = TimeNs{750};
  // Loopback-port service rate in packets per second. Far below the
  // front-panel bandwidth, which is what makes recirculation a scarce
  // resource.
  double recirc_rate_pps = 8e6;
  // Backlog the loopback port can absorb before dropping. The shallow queue
  // is what drops R2P2-1's spinning tasks when a burst exhausts its credits
  // (Figs. 7/8); Draconis' repair/swap traffic rides the lossless class and
  // never outruns the port.
  size_t recirc_queue_depth = 64;
};

struct PipelineCounters {
  uint64_t packets_in = 0;       // fresh packets from the fabric
  uint64_t passes = 0;           // total pipeline traversals
  uint64_t recirculations = 0;   // passes that came from the loopback port
  uint64_t recirc_drops = 0;     // packets lost at the loopback port
  uint64_t emitted = 0;          // packets sent out of the switch
  std::map<std::string, uint64_t> program_drops;

  // Fraction of all processed packets that were recirculations (Fig. 7's
  // y-axis).
  double RecirculationShare() const {
    return passes == 0 ? 0.0 : static_cast<double>(recirculations) / static_cast<double>(passes);
  }

  // Field-wise sum; program_drops merges by reason.
  PipelineCounters& operator+=(const PipelineCounters& o);
};

class SwitchPipeline : public net::Endpoint {
 public:
  // Deploys the pipeline on a testbed: registers on its fabric (becoming the
  // fabric's switch node) and picks up its recorder. The testbed and the
  // program must outlive the pipeline.
  SwitchPipeline(cluster::Testbed& testbed, SwitchProgram* program, const PipelineConfig& config);

  // Low-level form for switch-layer unit tests that run without a testbed.
  // The program must outlive the pipeline. Call AttachNetwork before any
  // traffic arrives.
  SwitchPipeline(sim::Simulator* simulator, SwitchProgram* program,
                 const PipelineConfig& config);

  // Registers the pipeline on the fabric and remembers its own address.
  net::NodeId AttachNetwork(net::Network* network);

  net::NodeId node_id() const { return node_id_; }
  const PipelineCounters& counters() const { return counters_; }

  // Optional task-lifecycle recorder (nullable; never affects behaviour).
  void SetRecorder(trace::Recorder* recorder) { recorder_ = recorder; }

  // Optional pass observer (nullable). Set by the Draconis deployment's
  // poll roster.
  void SetPassObserver(PassObserver* observer) { observer_ = observer; }

  // net::Endpoint:
  void HandlePacket(net::Packet pkt) override;

  // Fast-forward seam (core/poll_roster.h). Admits a fabric packet that was
  // elided up to its arrival now into the current same-instant group (never
  // inline: it is ordered among the group, behind the pass that is running).
  void AdmitElided(net::Packet pkt);
  // Counts `n` elided passes of fresh fabric packets that each emitted one
  // packet.
  void CreditElidedPasses(uint64_t n);
  TimeNs pass_latency() const { return config_.pass_latency; }

  // Pass conservation: every fresh packet and every loopback re-entry ran
  // exactly one pass, or still waits in the same-instant group. CHECKs.
  void CheckConservation() const;

 private:
  friend class PassContext;

  // One packet waiting for its pass.
  struct Ingress {
    IngressKey key;
    uint32_t pass_number = 0;
    net::Packet pkt;
  };
  static bool ServedLater(const Ingress& a, const Ingress& b) { return b.key < a.key; }

  // Counts a fresh packet from the fabric and keys it.
  Ingress FromFabric(net::Packet pkt);
  void Admit(Ingress in, bool may_run_inline);
  void Flush();
  void RunPass(Ingress in);
  void EmitFromPass(net::Packet pkt);
  void RecirculateFromPass(net::Packet pkt, bool guaranteed);
  void DropFromPass(const net::Packet& pkt, const std::string& reason);
  void RecordPerTask(const net::Packet& pkt, trace::Kind kind, TimeNs begin, TimeNs end,
                     uint64_t detail);

  sim::Simulator* simulator_;
  SwitchProgram* program_;
  PipelineConfig config_;
  trace::Recorder* recorder_ = nullptr;
  net::Network* network_ = nullptr;
  net::NodeId node_id_ = net::kInvalidNode;
  PipelineCounters counters_;
  // One register-access guard for every pass (passes never nest), reset at
  // the start of each so its access list keeps its capacity.
  PacketPass pass_registers_;

  TimeNs recirc_interval_;
  TimeNs recirc_next_free_ = 0;
  uint64_t loopback_seq_ = 0;  // recirculations issued so far

  // The same-instant group, a min-heap on IngressKey, and whether its flush
  // event is pending (or running).
  std::vector<Ingress> ingress_;
  bool flush_armed_ = false;
  PassObserver* observer_ = nullptr;
};

}  // namespace draconis::p4

#endif  // DRACONIS_P4_PIPELINE_H_
