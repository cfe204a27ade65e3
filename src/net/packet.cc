#include "net/packet.h"

#include <sstream>

namespace draconis::net {

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kJobSubmission:
      return "job_submission";
    case OpCode::kJobAck:
      return "job_ack";
    case OpCode::kErrorQueueFull:
      return "error_queue_full";
    case OpCode::kTaskRequest:
      return "task_request";
    case OpCode::kTaskAssignment:
      return "task_assignment";
    case OpCode::kNoOpTask:
      return "no_op_task";
    case OpCode::kTaskCompletion:
      return "task_completion";
    case OpCode::kCompletionNotice:
      return "completion_notice";
    case OpCode::kSwapTask:
      return "swap_task";
    case OpCode::kRepair:
      return "repair";
    case OpCode::kProbe:
      return "probe";
    case OpCode::kGetTask:
      return "get_task";
    case OpCode::kCredit:
      return "credit";
    case OpCode::kOther:
      return "other";
    case OpCode::kParamFetch:
      return "param_fetch";
    case OpCode::kParamData:
      return "param_data";
    case OpCode::kQueueDepthSummary:
      return "queue_depth_summary";
  }
  return "unknown";
}

size_t Packet::WireSize() const {
  return kFrameOverheadBytes + tasks.size() * TaskInfo::kWireSize + payload_bytes;
}

std::string Packet::Describe() const {
  std::ostringstream os;
  os << OpCodeName(op) << " src=" << src << " dst=" << dst;
  if (!tasks.empty()) {
    os << " tasks=" << tasks.size() << " first=<" << tasks[0].id.uid << "," << tasks[0].id.jid
       << "," << tasks[0].id.tid << ">";
  }
  if (op == OpCode::kTaskRequest || op == OpCode::kTaskCompletion) {
    os << " exec_props=" << exec_props << " rtrv_prio=" << static_cast<int>(rtrv_prio);
  }
  if (op == OpCode::kSwapTask) {
    os << " swap_indx=" << swap_indx << " pkt_rptr=" << pkt_retrieve_ptr
       << " swaps=" << swap_count;
  }
  if (op == OpCode::kRepair) {
    os << " target=" << (repair_target == RepairTarget::kAddPtr ? "add_ptr" : "retrieve_ptr")
       << " value=" << repair_value << " queue=" << static_cast<int>(queue_index);
  }
  return os.str();
}

size_t MaxTasksPerPacket() { return (kMtuBytes - kFrameOverheadBytes) / TaskInfo::kWireSize; }

}  // namespace draconis::net
