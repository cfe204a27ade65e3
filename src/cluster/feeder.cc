#include "cluster/feeder.h"

#include <utility>

#include "common/check.h"

namespace draconis::cluster {

Feeder::Feeder(sim::Simulator* simulator, const workload::JobStream* stream,
               size_t num_clients, Sink sink)
    : simulator_(simulator),
      stream_(stream),
      num_clients_(num_clients),
      sink_(std::move(sink)) {
  DRACONIS_CHECK(simulator != nullptr && stream != nullptr);
  DRACONIS_CHECK(num_clients >= 1);
  DRACONIS_CHECK(sink_ != nullptr);
}

void Feeder::ScheduleNext() {
  if (done()) {
    return;
  }
  simulator_->ScheduleAt((*stream_)[next_].at, this, 0, 0);
}

void Feeder::OnEvent(uint32_t /*unused*/, uint32_t /*unused*/) {
  const workload::JobArrival& job = (*stream_)[next_];
  sink_(next_ % num_clients_, job.tasks);
  ++next_;
  ScheduleNext();
}

}  // namespace draconis::cluster
