// Microbenchmarks (google-benchmark) for the core data structures: the
// switch queue's register operations, the event queue, histograms, RNG and
// policy checks. These guard against performance regressions in the
// simulator substrate; they do not correspond to a paper figure.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/policy.h"
#include "core/switch_queue.h"
#include "core/topology.h"
#include "sim/simulator.h"
#include "stats/histogram.h"

namespace draconis {
namespace {

core::QueueEntry MakeEntry(uint32_t tid) {
  core::QueueEntry e;
  e.task.id = net::TaskId{1, 1, tid};
  e.valid = true;
  return e;
}

void BM_SwitchQueueEnqueueDequeue(benchmark::State& state) {
  core::SwitchQueue queue("bench", 1 << 16);
  uint32_t tid = 0;
  for (auto _ : state) {
    p4::PacketPass enq;
    benchmark::DoNotOptimize(queue.Enqueue(enq, MakeEntry(tid++)));
    p4::PacketPass deq;
    benchmark::DoNotOptimize(queue.Dequeue(deq));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchQueueEnqueueDequeue);

void BM_SwitchQueueSwap(benchmark::State& state) {
  core::SwitchQueue queue("bench", 1 << 16);
  for (uint32_t i = 0; i < 1024; ++i) {
    p4::PacketPass pass;
    queue.Enqueue(pass, MakeEntry(i));
  }
  uint64_t index = 0;
  core::QueueEntry carried = MakeEntry(9999);
  for (auto _ : state) {
    p4::PacketPass pass;
    auto result = queue.SwapAt(pass, 0, index % 1024, carried);
    if (result.swapped) {
      carried = result.previous;
    }
    ++index;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchQueueSwap);

struct CountingSink final : sim::EventSink {
  void OnEvent(uint32_t /*unused*/, uint32_t /*unused*/) override { ++fired; }
  int fired = 0;
};

void BM_SimulatorEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    CountingSink sink;
    for (int i = 0; i < 1000; ++i) {
      simulator.ScheduleAt(i, &sink, 0, 0);
    }
    simulator.RunAll();
    benchmark::DoNotOptimize(sink.fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventChurn);

void BM_HistogramRecord(benchmark::State& state) {
  stats::Histogram histogram;
  Rng rng(1);
  for (auto _ : state) {
    histogram.Record(static_cast<TimeNs>(rng.NextBelow(10'000'000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramPercentile(benchmark::State& state) {
  stats::Histogram histogram;
  Rng rng(1);
  for (int i = 0; i < 1'000'000; ++i) {
    histogram.Record(static_cast<TimeNs>(rng.NextBelow(10'000'000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram.Percentile(0.99));
  }
}
BENCHMARK(BM_HistogramPercentile);

void BM_RngExponential(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextExponential(250.0));
  }
}
BENCHMARK(BM_RngExponential);

void BM_LocalityPolicyExamine(benchmark::State& state) {
  core::Topology topology = core::Topology::Uniform(10, 3);
  core::LocalityPolicy policy(&topology, core::LocalityPolicy::Limits{3, 9});
  core::QueueEntry entry = MakeEntry(1);
  entry.task.tprops = 4;
  uint32_t exec = 0;
  for (auto _ : state) {
    entry.skip_counter = 0;
    benchmark::DoNotOptimize(policy.ShouldAssign(entry, exec));
    exec = (exec + 1) % 10;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalityPolicyExamine);

}  // namespace
}  // namespace draconis

BENCHMARK_MAIN();
