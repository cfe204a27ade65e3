// The declarative workload platform (docs/workloads.md).
//
// A workload::WorkloadSpec is one value type that fully describes a job
// stream: an arrival process (open-loop Poisson, the Fig. 11 phased ramp, or
// the synthetic Google-trace replay), a ServiceTime distribution, and an
// ordered stack of tagger stages (locality / priority / deadline / tenant)
// that stamp TPROPS after generation. Benches set a spec on
// ExperimentConfig::workload instead of hand-building JobStreams, which is
// what lets one flag (--service-time, --heavy-tail-*) re-shape every bench.
//
// Determinism contract: Generate() is the only stream generator. It runs
// the arrival engine on Rng(seed) and then each tagger on its own
// Rng(stage.seed), so a spec's stream is a pure function of the spec. The
// per-kind stream digests in tests/workload_test.cc pin every draw; the
// run-level goldens in tests/determinism_test.cc ride on them.

#ifndef DRACONIS_WORKLOAD_WORKLOAD_H_
#define DRACONIS_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/time.h"
#include "workload/service_time.h"
#include "workload/spec.h"

namespace draconis::workload {

// Which arrival process drives the stream. kNone disables the spec (an
// explicit ExperimentConfig::stream is used instead).
enum class ArrivalKind {
  kNone,
  // Poisson arrivals at tasks_per_second over [0, duration), in jobs of
  // tasks_per_job tasks with durations drawn from `service`.
  kOpenLoop,
  // Fig. 11's resource phases: Poisson single-task jobs over three
  // consecutive phases of phase_duration; a task in phase p requires
  // resource bit p (A=1, B=2, C=4) in TPROPS.
  kPhased,
  // A synthetic stand-in for the accelerated Google 2011 cluster trace
  // (§8.4). The real trace is bulk data we do not ship; what the paper's
  // evaluation uses from it is (a) bursty job arrivals that "may submit
  // hundreds of tasks at once", (b) a skewed task-duration distribution
  // accelerated to a target mean (500 us or 5 ms), and (c) the 12-level
  // priority labels mapped onto 4 levels with the observed mix. This
  // process reproduces those three: bounded-Pareto job sizes in
  // [1, max_job_size] with shape burst_alpha, lognormal task durations
  // (mean_task_duration, duration_sigma), and, when priority_levels is 4,
  // the paper's priority mix.
  kGoogleTrace,
};

const char* ArrivalKindName(ArrivalKind kind);
bool ArrivalKindFromName(const std::string& name, ArrivalKind* out);
// The registerable arrival-process names, for flags and list_schedulers.
const std::vector<std::string>& ArrivalKindNames();

// The paper's 4-level priority mix after mapping Google's 12 levels onto 4
// (§8.6): 1.2% / 1.7% / 64.6% / 32.2%. Shared by the google-trace arrival
// process and the priority tagger stage.
const std::vector<double>& PaperPriorityMix();

// One named, parameterized tagging stage that stamps TPROPS on every task;
// stages run in declaration order, each with its own Rng(seed):
//   kLocality: a uniformly random data-local node in [0, num_nodes)
//              (Fig. 10: unreplicated data, evenly partitioned).
//   kPriority: a 1-based priority level drawn from `mix` (fractions per
//              level; normalized).
//   kDeadline: a relative deadline in microseconds (the EDF rank function's
//              input, docs/pifo.md): `slack` x the task's own service time
//              plus up to `jitter_us` of uniform extra laxity, floored at 1.
//   kTenant:   a uniformly random tenant id in [0, num_tenants) per job (all
//              tasks of a job belong to one tenant; the WFQ rank's input).
// Apply() also tags an explicit stream after the fact.
struct TaggerStage {
  enum class Kind { kLocality, kPriority, kDeadline, kTenant };

  Kind kind = Kind::kLocality;
  uint64_t seed = 0;
  uint32_t num_nodes = 1;    // kLocality
  std::vector<double> mix;   // kPriority (fractions per 1-based level)
  double slack = 3.0;        // kDeadline
  uint32_t jitter_us = 200;  // kDeadline
  uint32_t num_tenants = 2;  // kTenant

  static TaggerStage Locality(uint32_t num_nodes, uint64_t seed);
  static TaggerStage Priority(std::vector<double> mix, uint64_t seed);
  static TaggerStage Deadline(double slack, uint32_t jitter_us, uint64_t seed);
  static TaggerStage Tenant(uint32_t num_tenants, uint64_t seed);

  void Apply(JobStream& stream) const;
  std::string Validate() const;  // "" when well-formed
  void WriteJson(json::Writer& w) const;
  static bool FromJson(const json::Value& v, TaggerStage* out, std::string* error);
};

struct WorkloadSpec {
  ArrivalKind arrival = ArrivalKind::kNone;

  // kOpenLoop / kPhased / kGoogleTrace: mean offered task rate.
  double tasks_per_second = 100000.0;
  // kOpenLoop / kGoogleTrace: submission window.
  TimeNs duration = FromMillis(100);
  // kOpenLoop: batch size of each job.
  size_t tasks_per_job = 1;
  // kPhased: three consecutive phases of this length (Fig. 11).
  TimeNs phase_duration = FromSeconds(30);
  // kGoogleTrace shape (see ArrivalKind::kGoogleTrace).
  TimeNs mean_task_duration = FromMicros(500);
  double duration_sigma = 1.2;
  double burst_alpha = 1.3;
  uint32_t max_job_size = 300;
  uint32_t priority_levels = 0;
  // kOpenLoop / kPhased service-time model (kGoogleTrace bakes in its own
  // lognormal durations).
  ServiceTime service = ServiceTime::Fixed(FromMicros(500));

  std::vector<TaggerStage> taggers;
  uint64_t seed = 42;

  bool enabled() const { return arrival != ArrivalKind::kNone; }

  // Generates the stream: the arrival engine, then each tagger in order.
  JobStream Generate() const;

  // Upper bound on the last arrival time (for horizon/warmup validation
  // without generating the stream).
  TimeNs ArrivalEnd() const;

  std::string Validate() const;  // "" when well-formed
  std::string label() const;

  // JSON round-trip: WriteJson/ToJson emit the spec as one object (echoed
  // per sweep point); FromJson parses it back, FromJson(Parse(ToJson()))
  // reproduces an identical spec.
  void WriteJson(json::Writer& w) const;
  std::string ToJson() const;
  static bool FromJson(const json::Value& v, WorkloadSpec* out, std::string* error);
};

}  // namespace draconis::workload

#endif  // DRACONIS_WORKLOAD_WORKLOAD_H_
