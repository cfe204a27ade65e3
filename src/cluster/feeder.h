// Incremental arrival feeder: replays a generated JobStream into a set of
// clients, scheduling one simulator event at a time so huge job streams don't
// materialize as a million queued closures. Jobs are assigned to clients
// round-robin in arrival order.

#ifndef DRACONIS_CLUSTER_FEEDER_H_
#define DRACONIS_CLUSTER_FEEDER_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "sim/simulator.h"
#include "workload/spec.h"

namespace draconis::cluster {

class Feeder : public sim::EventSink {
 public:
  // Called once per job arrival with the round-robin client index and the
  // job's tasks.
  using Sink = std::function<void(size_t client, const std::vector<workload::TaskSpec>&)>;

  // `stream` must outlive the feeder and must be sorted by arrival time (as
  // the workload generators emit it). `num_clients` must be >= 1.
  Feeder(sim::Simulator* simulator, const workload::JobStream* stream, size_t num_clients,
         Sink sink);

  // Schedules the first arrival; a no-op for an empty stream.
  void Start() { ScheduleNext(); }

  // True once every job in the stream has been fed.
  bool done() const { return next_ >= stream_->size(); }

  size_t jobs_fed() const { return next_; }

  // sim::EventSink: the next job arrives.
  void OnEvent(uint32_t /*unused*/, uint32_t /*unused*/) override;

 private:
  void ScheduleNext();

  sim::Simulator* simulator_;
  const workload::JobStream* stream_;
  size_t num_clients_;
  Sink sink_;
  size_t next_ = 0;
};

}  // namespace draconis::cluster

#endif  // DRACONIS_CLUSTER_FEEDER_H_
