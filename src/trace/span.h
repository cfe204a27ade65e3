// Task-lifecycle span records.
//
// One SpanRecord captures one observable edge of a sampled task's life —
// either an interval ([begin, end), e.g. a wire flight or queue residency)
// or an instant (begin == end, e.g. an enqueue or a completion notice). The
// record is a fixed-size POD so the hot path appends into a flat vector with
// no per-event allocation.
// Everything human-readable (names, lanes, Perfetto tracks) is derived at
// export time from the Kind.

#ifndef DRACONIS_TRACE_SPAN_H_
#define DRACONIS_TRACE_SPAN_H_

#include <cstdint>
#include <type_traits>

#include "common/time.h"
#include "net/packet.h"

namespace draconis::trace {

// Every edge of the task lifecycle the tracer can observe. Duration kinds
// carry [begin, end); instant kinds have end == begin (see IsInstant).
enum class Kind : uint8_t {
  // Client (src/cluster/client.cc).
  kSubmit = 0,         // first SubmitJob for this task (detail = job size)
  kClientSend,         // a job_submission left the client (any attempt)
  kTimeoutResubmit,    // timeout fired; the task was resubmitted (§8.3)
  kQueueFullRetry,     // queue-full error received; retry scheduled (§4.3)
  kComplete,           // terminal: completion notice accepted
  kDuplicateComplete,  // suppressed duplicate notice (timeout resubmission)
  kHedgeLaunch,        // straggler hedge: a duplicate was issued via the §8.3
                       // resubmission path (detail = age at hedge, ns)
  kHedgeCancel,        // client-side cancel of the losing replica (attempt =
                       // the cancelled attempt; detail = 1 for explicit
                       // CancelTask, 0 for a hedge loser)
  kCensored,           // terminal: still in flight when the trace closed

  // Fabric (src/net/network.cc).
  kWire,    // span: send -> arrival at the destination NIC (detail = tx wait)
  kHostRx,  // span: arrival -> delivery (rx occupancy + stack latency)
  kNetDrop, // fault-injected or disconnected-host drop

  // Switch pipeline (src/p4/pipeline.cc).
  kSwitchPass,   // span: one match-action traversal (detail = pass number)
  kRecirc,       // span: loopback-port residency (detail = port backlog)
  kRecircDrop,   // lost at a saturated loopback port
  kProgramDrop,  // dropped by the switch program

  // Scheduler (src/core/draconis_program.cc; the central servers, the push
  // program and Sparrow's scheduler record kEnqueue and kAssign too).
  kEnqueue,         // entry written (detail = queue occupancy incl. this task)
  kQueueFullError,  // submission refused, error returned to the client
  kRepairLaunch,    // this task's enqueue launched a pointer repair (§4.5)
  kRepairApply,     // global: a repair packet corrected a pointer
  kSwapExchange,    // §5.1 swap walk exchanged this task at a slot
  kSwapRequeue,     // walk exhausted; task re-entered the submission path
  kQueueWait,       // span: enqueue -> dequeue (queue residency)
  kAssign,          // dequeued and assigned (node = executor or worker)

  // Worker: every executor and push worker (src/cluster/task_runner.cc).
  kExecArrive,   // assignment delivered (detail = pull round-trip)
  kExecPickup,   // span: a core took the task -> service start
  kExecService,  // span: data access + function execution

  // Control plane (global records, no task id).
  kRehome,       // §3.3: an executor/client re-pointed at a standby scheduler
  kFaultWindow,  // span: a fault-plan event was active (detail = EventKind);
                 // Perfetto renders it as the outage band on the system track
};

inline constexpr uint8_t kNumKinds = static_cast<uint8_t>(Kind::kFaultWindow) + 1;

// Stable lower_snake_case name; doubles as the Chrome trace-event name.
const char* KindName(Kind kind);

// True for zero-width kinds (rendered as Perfetto instants, not B/E pairs).
constexpr bool IsInstant(Kind kind) {
  switch (kind) {
    case Kind::kWire:
    case Kind::kHostRx:
    case Kind::kSwitchPass:
    case Kind::kRecirc:
    case Kind::kQueueWait:
    case Kind::kExecPickup:
    case Kind::kExecService:
    case Kind::kFaultWindow:
      return false;
    default:
      return true;
  }
}

// True for kinds that end a task's timeline.
constexpr bool IsTerminal(Kind kind) {
  return kind == Kind::kComplete || kind == Kind::kCensored;
}

// Layer a record belongs to; one Perfetto thread track per (lane, attempt).
enum class Lane : uint8_t { kClient = 0, kNet, kSwitch, kQueue, kExecutor };
inline constexpr uint8_t kNumLanes = static_cast<uint8_t>(Lane::kExecutor) + 1;

const char* LaneName(Lane lane);
Lane LaneFor(Kind kind);

// One recorded edge. Fixed-size and trivially copyable: the recorder's hot
// path is a bounds check plus a 48-byte append.
struct SpanRecord {
  net::TaskId id;     // sampled task (kGlobalTaskId for global records)
  uint32_t node = 0;  // fabric node involved (kind-specific)
  TimeNs begin = 0;
  TimeNs end = 0;       // == begin for instants
  uint64_t detail = 0;  // kind-specific scalar (occupancy, backlog, ...)
  Kind kind = Kind::kSubmit;
  uint8_t attempt = 0;  // resubmission attempt the record belongs to
  uint16_t aux = 0;     // kind-specific small scalar (opcode, queue index)
};

static_assert(std::is_trivially_copyable_v<SpanRecord>);
static_assert(sizeof(SpanRecord) <= 48, "keep the hot-path append compact");

// Sentinel id for records not tied to a task (kRehome, kRepairApply).
inline constexpr net::TaskId kGlobalTaskId{0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu};

struct TraceConfig {
  bool enabled = false;
  // Record one of every `sample_period` task ids, selected by a
  // deterministic hash of <UID, JID, TID> (seed-independent; 1 = every task).
  uint64_t sample_period = 64;
  // Hard cap on retained records; appends beyond it are counted as dropped.
  size_t max_records = size_t{1} << 21;
};

}  // namespace draconis::trace

#endif  // DRACONIS_TRACE_SPAN_H_
