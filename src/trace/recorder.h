// Central task-lifecycle recorder (one per experiment).
//
// The recorder is threaded — as a nullable pointer, beside the MetricsHub —
// through the clients, every worker (cluster::TaskRunner), net::Network, the
// switch pipeline and the schedulers. Each layer records through RecordTask,
// which asks Sampled(id) and, when true, appends a fixed-size SpanRecord.
// Recording never branches simulation behaviour, never schedules events, and
// never consumes randomness:
//
//   * Sampling is a pure hash of <UID, JID, TID> — independent of every
//     seed and RNG stream — so tracing on/off/at-any-rate is bit-identical
//     to an untraced run (tests/determinism_test.cc enforces this).
//   * The hot path is `recorder != nullptr`, a multiply-xor hash, and a
//     48-byte vector append. Disabled tracing costs one null check
//     (bench/micro_trace.cc gates this at < 2%).
//
// The hot-path methods are inline so layers that only *record* (net, p4,
// core) need no link dependency on the trace library; only consumers of
// FinalizeAt and the exporters (cluster, bench, tests) link draconis_trace.

#ifndef DRACONIS_TRACE_RECORDER_H_
#define DRACONIS_TRACE_RECORDER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/time.h"
#include "net/packet.h"
#include "trace/span.h"

namespace draconis::trace {

class Recorder {
 public:
  explicit Recorder(const TraceConfig& config) : config_(config) {
    if (config_.sample_period == 0) {
      config_.sample_period = 1;
    }
    records_.reserve(std::min<size_t>(config_.max_records, 4096));
  }

  // Deterministic, seed-independent task-id mix (distinct multiplier from
  // net::TaskIdHash so sampling does not correlate with container layout).
  static uint64_t HashOf(const net::TaskId& id) {
    uint64_t h = (static_cast<uint64_t>(id.uid) << 40) ^
                 (static_cast<uint64_t>(id.jid) << 20) ^ id.tid;
    h *= 0xD6E8FEB86659FD93ULL;
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ULL;
    h ^= h >> 32;
    return h;
  }

  // Whether this task's lifecycle is recorded. Pure function of the id.
  bool Sampled(const net::TaskId& id) const {
    return config_.sample_period <= 1 || HashOf(id) % config_.sample_period == 0;
  }

  // Appends one record. Callers gate on Sampled(id) themselves so multi-task
  // packets pay one hash per task, not one virtual call per packet.
  void Record(const net::TaskId& id, Kind kind, TimeNs begin, TimeNs end,
              uint64_t detail = 0, uint32_t node = 0, uint32_t attempt = 0,
              uint16_t aux = 0) {
    if (records_.size() >= config_.max_records) {
      ++dropped_;
      return;
    }
    SpanRecord rec;
    rec.id = id;
    rec.node = node;
    rec.begin = begin;
    rec.end = end;
    rec.detail = detail;
    rec.kind = kind;
    rec.attempt = static_cast<uint8_t>(std::min<uint32_t>(attempt, 255));
    rec.aux = aux;
    records_.push_back(rec);
  }

  // A record not tied to any task (kRehome, kRepairApply).
  void RecordGlobal(Kind kind, TimeNs at, uint64_t detail = 0, uint32_t node = 0) {
    Record(kGlobalTaskId, kind, at, at, detail, node);
  }

  // Appends a kCensored terminal at `horizon` for every sampled task whose
  // timeline has no terminal record. Call once, after the run.
  void FinalizeAt(TimeNs horizon);

  const std::vector<SpanRecord>& records() const { return records_; }
  uint64_t dropped_records() const { return dropped_; }
  const TraceConfig& config() const { return config_; }

 private:
  TraceConfig config_;
  std::vector<SpanRecord> records_;
  uint64_t dropped_ = 0;
};

// Records one edge of `task`'s life if tracing is on (`recorder` is non-null)
// and the task is sampled.
inline void RecordTask(Recorder* recorder, const net::TaskInfo& task, Kind kind, TimeNs begin,
                       TimeNs end, uint64_t detail, uint32_t node, uint16_t aux = 0) {
  if (recorder != nullptr && recorder->Sampled(task.id)) {
    recorder->Record(task.id, kind, begin, end, detail, node, task.meta.attempt, aux);
  }
}

}  // namespace draconis::trace

#endif  // DRACONIS_TRACE_RECORDER_H_
