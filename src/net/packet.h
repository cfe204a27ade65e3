// Draconis wire protocol (paper §4.1).
//
// The protocol is an application-layer header embedded in a UDP payload. The
// simulation carries packets as structs rather than byte buffers, but wire
// sizes are accounted for exactly (WireSize) so that serialization delays and
// MTU limits behave like the real system.
//
// Fields that exist only for measurement (timestamps) are kept in a separate
// `meta` block and do not count toward the wire size.

#ifndef DRACONIS_NET_PACKET_H_
#define DRACONIS_NET_PACKET_H_

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <type_traits>

#include "common/check.h"
#include "common/time.h"

namespace draconis::net {

// Identifies a network endpoint (client, worker/executor NIC, switch CPU
// port, or a server scheduler).
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

// OP_CODE values of the Draconis application protocol, plus the auxiliary
// packet kinds the switch program generates internally (swap/repair) and the
// kinds used by the baseline schedulers.
enum class OpCode : uint8_t {
  // Client -> scheduler.
  kJobSubmission = 1,
  // Scheduler -> client.
  kJobAck = 2,
  kErrorQueueFull = 3,
  // Executor -> scheduler.
  kTaskRequest = 4,
  // Scheduler -> executor.
  kTaskAssignment = 5,
  kNoOpTask = 6,
  // Executor -> scheduler (completion + piggybacked task request).
  kTaskCompletion = 7,
  // Scheduler -> client (forwarded completion).
  kCompletionNotice = 8,
  // Switch-internal, recirculated only.
  kSwapTask = 9,
  kRepair = 10,
  // Baseline-specific messages (probes, credits, queue-length reports).
  kProbe = 11,
  kGetTask = 13,
  kCredit = 14,
  // Any non-Draconis traffic; the switch forwards it unchanged.
  kOther = 15,
  // §4.4 large-parameter handling: an executor assigned a "transmission
  // function" task fetches the real parameters from the client directly.
  kParamFetch = 16,
  kParamData = 17,
  // Multi-rack topology (src/topology/): a ToR broadcasts its queue depth to
  // the sibling racks' summary exchanges.
  kQueueDepthSummary = 18,
};

// FN_ID of the special transmission function (§4.4): the submitted task
// carries no parameters; the executor contacts the client to retrieve them
// (FN_PAR holds the parameter size).
inline constexpr uint32_t kTransmissionFnId = 0xFFFFFFF0u;

const char* OpCodeName(OpCode op);

// <UID, JID, TID> uniquely identifies a task in the system.
struct TaskId {
  uint32_t uid = 0;
  uint32_t jid = 0;
  uint32_t tid = 0;

  bool operator==(const TaskId&) const = default;
};

// A hash usable as a key in unordered containers.
struct TaskIdHash {
  size_t operator()(const TaskId& id) const {
    uint64_t h = (static_cast<uint64_t>(id.uid) << 40) ^ (static_cast<uint64_t>(id.jid) << 20) ^
                 id.tid;
    h *= 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

// TASK_INFO (paper Fig. 3): what a job_submission carries per task and what
// the switch stores per queue entry.
struct TaskInfo {
  TaskId id;
  uint32_t fn_id = 0;   // pre-compiled function identifier
  uint64_t fn_par = 0;  // inline parameter (pointer into cluster storage, etc.)
  uint32_t tprops = 0;  // policy-specific: resource bitmap | priority | data-local node

  // How a task was placed relative to its data (locality experiments).
  enum class Placement : uint8_t { kLocal = 0, kSameRack = 1, kRemote = 2, kUnknown = 255 };

  // --- Simulation metadata (not on the wire) ---------------------------------
  struct Meta {
    TimeNs exec_duration = 0;       // service time of the pre-compiled function
    TimeNs first_submit_time = -1;  // first client send (survives resubmission)
    TimeNs submit_time = -1;        // most recent client send
    TimeNs enqueue_time = -1;       // enqueued at the scheduler
    NodeId client = kInvalidNode;   // submitting client (scheduler fills this in)
    uint32_t attempt = 0;           // resubmission count
    Placement placement = Placement::kUnknown;
  } meta;

  // Wire footprint of one TASK_INFO entry: TID + FN_ID + FN_PAR + TPROPS.
  static constexpr size_t kWireSize = 4 + 4 + 8 + 4;
};

// The task list relies on this: it copies a task as raw bytes and never
// runs a destructor.
static_assert(std::is_trivially_copyable_v<TaskInfo>);

// A packet's TASK_INFO list. Every assignment, completion, completion notice
// and swap carries exactly one task (§4.1), so the list keeps one task inline
// and uses the heap only for more: multi-task submissions and queue-full
// errors. The inline slot is raw storage: an empty list never initializes,
// copies or moves it, so the requests and no-ops that make up most traffic
// pay nothing for it. A vector-like subset of std::vector's API.
class TaskList {
 public:
  using value_type = TaskInfo;
  using iterator = TaskInfo*;
  using const_iterator = const TaskInfo*;

  // Written out (not defaulted) so that value-initialization leaves the
  // inline slot raw instead of zeroing it.
  TaskList() noexcept {}  // NOLINT(modernize-use-equals-default)
  TaskList(std::initializer_list<TaskInfo> init) { assign(init.begin(), init.end()); }
  TaskList(const TaskList& other) { assign(other.begin(), other.end()); }
  TaskList(TaskList&& other) noexcept { TakeFrom(other); }
  TaskList& operator=(const TaskList& other) {
    if (this != &other) {
      assign(other.begin(), other.end());
    }
    return *this;
  }
  TaskList& operator=(TaskList&& other) noexcept {
    if (this != &other) {
      FreeHeap();
      TakeFrom(other);
    }
    return *this;
  }
  TaskList& operator=(std::initializer_list<TaskInfo> init) {
    assign(init.begin(), init.end());
    return *this;
  }
  ~TaskList() { FreeHeap(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  TaskInfo* data() { return heap_ != nullptr ? heap_ : &inline_; }
  const TaskInfo* data() const { return heap_ != nullptr ? heap_ : &inline_; }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  TaskInfo& operator[](size_t i) { return data()[i]; }
  const TaskInfo& operator[](size_t i) const { return data()[i]; }
  TaskInfo& at(size_t i) {
    DRACONIS_CHECK_MSG(i < size_, "task index out of range");
    return data()[i];
  }
  const TaskInfo& at(size_t i) const {
    DRACONIS_CHECK_MSG(i < size_, "task index out of range");
    return data()[i];
  }
  TaskInfo& front() { return data()[0]; }
  const TaskInfo& front() const { return data()[0]; }
  TaskInfo& back() { return data()[size_ - 1]; }
  const TaskInfo& back() const { return data()[size_ - 1]; }

  void push_back(const TaskInfo& task) {
    if (size_ == capacity_) {
      const TaskInfo copy = task;  // `task` may live in the buffer we replace
      Reallocate(2 * capacity_);
      new (data() + size_) TaskInfo(copy);
    } else {
      new (data() + size_) TaskInfo(task);
    }
    ++size_;
  }

  void reserve(size_t n) {
    if (n > capacity_) {
      Reallocate(n);
    }
  }

  // New tasks are value-initialized, as std::vector::resize does.
  void resize(size_t n) {
    reserve(n);
    for (size_t i = size_; i < n; ++i) {
      new (data() + i) TaskInfo{};
    }
    size_ = static_cast<uint32_t>(n);
  }

  // Replaces the contents with [first, last), which may lie in this list.
  template <typename It>
  void assign(It first, It last) {
    const auto n = static_cast<size_t>(std::distance(first, last));
    if (n > capacity_) {
      // A range inside this list is never longer than it, so the old
      // contents are not needed.
      size_ = 0;
      Reallocate(n);
    }
    TaskInfo* out = data();
    for (size_t i = 0; i < n; ++i, ++first) {
      new (out + i) TaskInfo(*first);
    }
    size_ = static_cast<uint32_t>(n);
  }

  void clear() { size_ = 0; }

  iterator erase(const_iterator pos) {
    TaskInfo* d = data();
    const auto i = static_cast<size_t>(pos - d);
    std::memmove(static_cast<void*>(d + i), d + i + 1, (size_ - i - 1) * sizeof(TaskInfo));
    --size_;
    return d + i;
  }

 private:
  // Moves the contents to a heap buffer of `n` >= size() tasks.
  void Reallocate(size_t n) {
    TaskInfo* fresh = std::allocator<TaskInfo>().allocate(n);
    if (size_ > 0) {
      std::memcpy(static_cast<void*>(fresh), data(), size_ * sizeof(TaskInfo));
    }
    FreeHeap();
    heap_ = fresh;
    capacity_ = static_cast<uint32_t>(n);
  }
  // Back to the inline slot; the contents are gone.
  void FreeHeap() {
    if (heap_ != nullptr) {
      std::allocator<TaskInfo>().deallocate(heap_, capacity_);
      heap_ = nullptr;
      capacity_ = 1;
    }
  }
  // Takes `other`'s contents, leaving it empty; this list holds no heap.
  void TakeFrom(TaskList& other) {
    size_ = other.size_;
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      other.heap_ = nullptr;
      other.capacity_ = 1;
    } else if (size_ == 1) {
      new (&inline_) TaskInfo(other.inline_);
    }
    other.size_ = 0;
  }

  TaskInfo* heap_ = nullptr;  // null: the one-task inline slot holds the list
  uint32_t size_ = 0;
  uint32_t capacity_ = 1;
  union {
    TaskInfo inline_;  // raw until a task is written into it
  };
};

// Which pointer a kRepair packet corrects.
enum class RepairTarget : uint8_t { kAddPtr = 0, kRetrievePtr = 1 };

// A simulated packet. One struct covers all opcodes; only the fields relevant
// to the opcode are meaningful, mirroring a union-style header layout. The
// fields are ordered by size, so the struct carries no padding beyond its
// tail.
struct Packet {
  OpCode op = OpCode::kOther;
  // kTaskRequest / kTaskCompletion: the retrieve priority (RTRV_PRIO, 1 =
  // highest); see exec_props.
  uint8_t rtrv_prio = 1;
  // Which class-of-service queue the packet addresses (0-based level index).
  uint8_t queue_index = 0;
  // kRepair: which pointer to overwrite (see repair_value).
  RepairTarget repair_target = RepairTarget::kAddPtr;

  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;

  // kJobSubmission / kErrorQueueFull: UID, JID and the task list (#TASKS ==
  // tasks.size()). kTaskAssignment / kSwapTask / kCompletionNotice carry
  // exactly one task in tasks[0].
  uint32_t uid = 0;
  uint32_t jid = 0;

  // kTaskRequest / kTaskCompletion: the executor's properties — a resource
  // bitmap (EXEC_RSRC) or the node id, depending on the active policy.
  uint32_t exec_props = 0;

  // kTaskAssignment: the submitting client, so the executor's completion can
  // be routed back.
  NodeId client_addr = kInvalidNode;

  // kSwapTask: the number of swap passes done and the carried task's skip
  // counter (§5.3); see swap_indx.
  uint32_t swap_count = 0;
  uint32_t skip_counter = 0;

  // kParamData: bulk payload riding with the packet (task parameters); it
  // counts toward the wire size and hence the serialization delay.
  uint32_t payload_bytes = 0;

  // kQueueDepthSummary: the sender's rack (see summary_depth).
  uint32_t summary_rack = 0;

  // Simulation metadata: pipeline traversals so far (recirculations).
  uint32_t pipeline_passes = 0;

  // Set when a swap walk was converted back into a submission (§5.1); such a
  // submission must not be acknowledged to the client a second time.
  bool from_swap = false;

  // kSwapTask: index of the next queue entry to examine and the
  // retrieve-pointer value observed when the walk started.
  uint64_t swap_indx = 0;
  uint64_t pkt_retrieve_ptr = 0;

  // kRepair: the value to write, in the queue named by queue_index.
  uint64_t repair_value = 0;

  // kQueueDepthSummary: the ToR queue depth of summary_rack (the summary
  // rides as payload_bytes for wire accounting).
  uint64_t summary_depth = 0;

  // --- Simulation metadata ----------------------------------------------------
  TimeNs created_at = -1;  // when the original packet was sent
  // Stamped by each launch onto the fabric: when this hop left, and its
  // index among the packets of its directed link (src, dst). A switch
  // orders same-instant ingress by (sent_at, src, link_seq).
  TimeNs sent_at = -1;
  uint64_t link_seq = 0;

  TaskList tasks;

  // Payload bytes on the wire: Ethernet+IP+UDP framing plus the Draconis
  // header and per-task TASK_INFO entries.
  size_t WireSize() const;

  // Human-readable one-liner for logs and test failures.
  std::string Describe() const;
};

// Conventional datagram MTU; job submissions must fit within it.
inline constexpr size_t kMtuBytes = 1500;

// Frame overhead: Ethernet (14+4) + IPv4 (20) + UDP (8) + Draconis base
// header (OP_CODE + UID + JID + #TASKS + misc fields, 16 bytes).
inline constexpr size_t kFrameOverheadBytes = 18 + 20 + 8 + 16;

// Maximum number of TASK_INFO entries that fit in one job_submission.
size_t MaxTasksPerPacket();

}  // namespace draconis::net

#endif  // DRACONIS_NET_PACKET_H_
