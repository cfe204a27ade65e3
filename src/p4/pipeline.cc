#include "p4/pipeline.h"

#include <algorithm>
#include <utility>

#include "cluster/testbed.h"
#include "common/check.h"

namespace draconis::p4 {

// A new field fails this until it is summed below.
static_assert(sizeof(PipelineCounters) ==
                  5 * sizeof(uint64_t) + sizeof(std::map<std::string, uint64_t>),
              "add the new PipelineCounters field to operator+=");

PipelineCounters& PipelineCounters::operator+=(const PipelineCounters& o) {
  packets_in += o.packets_in;
  passes += o.passes;
  recirculations += o.recirculations;
  recirc_drops += o.recirc_drops;
  emitted += o.emitted;
  for (const auto& [reason, count] : o.program_drops) {
    program_drops[reason] += count;
  }
  return *this;
}

TimeNs PassContext::Now() const { return pipeline_->simulator_->Now(); }

net::NodeId PassContext::SwitchNode() const { return pipeline_->node_id_; }

void PassContext::Emit(net::Packet pkt) { pipeline_->EmitFromPass(std::move(pkt)); }

void PassContext::Recirculate(net::Packet pkt, bool guaranteed) {
  pipeline_->RecirculateFromPass(std::move(pkt), guaranteed);
}

void PassContext::Drop(const net::Packet& pkt, const std::string& reason) {
  pipeline_->DropFromPass(pkt, reason);
}

SwitchPipeline::SwitchPipeline(cluster::Testbed& testbed, SwitchProgram* program,
                               const PipelineConfig& config)
    : SwitchPipeline(&testbed.simulator(), program, config) {
  SetRecorder(testbed.recorder());
  AttachNetwork(&testbed.network());
}

SwitchPipeline::SwitchPipeline(sim::Simulator* simulator, SwitchProgram* program,
                               const PipelineConfig& config)
    : simulator_(simulator), program_(program), config_(config) {
  DRACONIS_CHECK(simulator != nullptr && program != nullptr);
  DRACONIS_CHECK(config.recirc_rate_pps > 0.0);
  recirc_interval_ = std::max<TimeNs>(1, static_cast<TimeNs>(kSecond / config.recirc_rate_pps));
}

net::NodeId SwitchPipeline::AttachNetwork(net::Network* network) {
  DRACONIS_CHECK(network != nullptr);
  network_ = network;
  node_id_ = network->Register(this, net::HostProfile::Wire());
  network->AddSwitchNode(node_id_);
  return node_id_;
}

SwitchPipeline::Ingress SwitchPipeline::FromFabric(net::Packet pkt) {
  ++counters_.packets_in;
  const IngressKey key{pkt.sent_at, pkt.src, pkt.link_seq};
  const uint32_t pass_number = pkt.pipeline_passes;
  return Ingress{key, pass_number, std::move(pkt)};
}

void SwitchPipeline::HandlePacket(net::Packet pkt) {
  Admit(FromFabric(std::move(pkt)), /*may_run_inline=*/true);
}

void SwitchPipeline::AdmitElided(net::Packet pkt) {
  Admit(FromFabric(std::move(pkt)), /*may_run_inline=*/false);
}

void SwitchPipeline::CreditElidedPasses(uint64_t n) {
  counters_.packets_in += n;
  counters_.passes += n;
  counters_.emitted += n;
}

void SwitchPipeline::CheckConservation() const {
  uint64_t waiting_fresh = 0;
  for (const Ingress& in : ingress_) {
    waiting_fresh += in.pass_number == 0 ? 1 : 0;
  }
  DRACONIS_CHECK_MSG(counters_.passes + waiting_fresh ==
                         counters_.packets_in + counters_.recirculations,
                     "switch passes != packets in + recirculations");
}

void SwitchPipeline::Admit(Ingress in, bool may_run_inline) {
  // A lone arrival runs at once: with nothing else due now, a flush event
  // would be the very next event anyway.
  if (may_run_inline && !flush_armed_ && !simulator_->AnyEventDueNow()) {
    RunPass(std::move(in));
    return;
  }
  ingress_.push_back(std::move(in));
  std::push_heap(ingress_.begin(), ingress_.end(), ServedLater);
  if (!flush_armed_) {
    flush_armed_ = true;
    simulator_->ScheduleAt(simulator_->Now(), [this] { Flush(); });
  }
}

void SwitchPipeline::Flush() {
  // Passes may admit more same-instant packets (AdmitElided); they join the
  // heap and are served in key order with the rest.
  while (!ingress_.empty()) {
    std::pop_heap(ingress_.begin(), ingress_.end(), ServedLater);
    Ingress in = std::move(ingress_.back());
    ingress_.pop_back();
    RunPass(std::move(in));
  }
  flush_armed_ = false;
}

void SwitchPipeline::RunPass(Ingress in) {
  ++counters_.passes;
  if (in.pass_number > 0) {
    ++counters_.recirculations;
  }
  RecordPerTask(in.pkt, trace::Kind::kSwitchPass, simulator_->Now(),
                simulator_->Now() + config_.pass_latency, in.pass_number);
  pass_registers_.Reset();
  PassContext ctx(this, in.pass_number, &pass_registers_);
  program_->OnPass(ctx, std::move(in.pkt));
  if (observer_ != nullptr) {
    observer_->AfterPass(in.key);
  }
}

void SwitchPipeline::RecordPerTask(const net::Packet& pkt, trace::Kind kind, TimeNs begin,
                                   TimeNs end, uint64_t detail) {
  for (const net::TaskInfo& t : pkt.tasks) {
    trace::RecordTask(recorder_, t, kind, begin, end, detail, node_id_,
                      static_cast<uint16_t>(pkt.op));
  }
}

void SwitchPipeline::EmitFromPass(net::Packet pkt) {
  ++counters_.emitted;
  DRACONIS_CHECK_MSG(network_ != nullptr, "pipeline not attached to a network");
  // Egress after the remaining pipeline traversal time.
  network_->SendAfter(config_.pass_latency, node_id_, std::move(pkt));
}

void SwitchPipeline::RecirculateFromPass(net::Packet pkt, bool guaranteed) {
  const TimeNs now = simulator_->Now();
  // Backlog check: how many packets are queued at the loopback port right
  // now. The port serves one packet every recirc_interval_.
  const TimeNs start = std::max(recirc_next_free_, now);
  const auto backlog = static_cast<size_t>((start - now) / recirc_interval_);
  if (backlog >= config_.recirc_queue_depth && !guaranteed) {
    ++counters_.recirc_drops;
    RecordPerTask(pkt, trace::Kind::kRecircDrop, now, now, backlog);
    return;
  }
  // Loopback residency: pass egress -> re-ingress on the next traversal.
  RecordPerTask(pkt, trace::Kind::kRecirc, now + config_.pass_latency,
                start + config_.recirc_latency, backlog);
  recirc_next_free_ = start + recirc_interval_;
  pkt.pipeline_passes += 1;
  Ingress in{IngressKey{now, kLoopbackPort, loopback_seq_++}, pkt.pipeline_passes,
             std::move(pkt)};
  simulator_->ScheduleAt(start + config_.recirc_latency,
                         [this, in = std::move(in)]() mutable {
                           Admit(std::move(in), /*may_run_inline=*/true);
                         });
}

void SwitchPipeline::DropFromPass(const net::Packet& pkt, const std::string& reason) {
  ++counters_.program_drops[reason];
  // Bookkeeping drops ("info_*") end packets whose tasks live on elsewhere;
  // they are not task losses, so only genuine drops are traced.
  if (reason.rfind("info_", 0) != 0) {
    RecordPerTask(pkt, trace::Kind::kProgramDrop, simulator_->Now(), simulator_->Now(), 0);
  }
}

}  // namespace draconis::p4
