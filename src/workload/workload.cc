#include "workload/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace draconis::workload {

size_t TotalTasks(const JobStream& stream) {
  size_t total = 0;
  for (const JobArrival& job : stream) {
    total += job.tasks.size();
  }
  return total;
}

TimeNs TotalWork(const JobStream& stream) {
  TimeNs total = 0;
  for (const JobArrival& job : stream) {
    for (const TaskSpec& task : job.tasks) {
      total += task.duration;
    }
  }
  return total;
}

const std::vector<double>& PaperPriorityMix() {
  static const std::vector<double> kMix = {1.2, 1.7, 64.6, 32.2};
  return kMix;
}

const char* ArrivalKindName(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kNone:
      return "none";
    case ArrivalKind::kOpenLoop:
      return "open-loop";
    case ArrivalKind::kPhased:
      return "phased";
    case ArrivalKind::kGoogleTrace:
      return "google-trace";
  }
  return "?";
}

bool ArrivalKindFromName(const std::string& name, ArrivalKind* out) {
  for (ArrivalKind kind :
       {ArrivalKind::kOpenLoop, ArrivalKind::kPhased, ArrivalKind::kGoogleTrace}) {
    if (name == ArrivalKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

const std::vector<std::string>& ArrivalKindNames() {
  static const std::vector<std::string> kNames = {"open-loop", "phased", "google-trace"};
  return kNames;
}

// --- TaggerStage -------------------------------------------------------------

namespace {

const char* StageName(TaggerStage::Kind kind) {
  switch (kind) {
    case TaggerStage::Kind::kLocality:
      return "locality";
    case TaggerStage::Kind::kPriority:
      return "priority";
    case TaggerStage::Kind::kDeadline:
      return "deadline";
    case TaggerStage::Kind::kTenant:
      return "tenant";
  }
  return "?";
}

bool StageFromName(const std::string& name, TaggerStage::Kind* out) {
  for (TaggerStage::Kind kind :
       {TaggerStage::Kind::kLocality, TaggerStage::Kind::kPriority,
        TaggerStage::Kind::kDeadline, TaggerStage::Kind::kTenant}) {
    if (name == StageName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace

TaggerStage TaggerStage::Locality(uint32_t num_nodes, uint64_t seed) {
  TaggerStage stage;
  stage.kind = Kind::kLocality;
  stage.num_nodes = num_nodes;
  stage.seed = seed;
  return stage;
}

TaggerStage TaggerStage::Priority(std::vector<double> mix, uint64_t seed) {
  TaggerStage stage;
  stage.kind = Kind::kPriority;
  stage.mix = std::move(mix);
  stage.seed = seed;
  return stage;
}

TaggerStage TaggerStage::Deadline(double slack, uint32_t jitter_us, uint64_t seed) {
  TaggerStage stage;
  stage.kind = Kind::kDeadline;
  stage.slack = slack;
  stage.jitter_us = jitter_us;
  stage.seed = seed;
  return stage;
}

TaggerStage TaggerStage::Tenant(uint32_t num_tenants, uint64_t seed) {
  TaggerStage stage;
  stage.kind = Kind::kTenant;
  stage.num_tenants = num_tenants;
  stage.seed = seed;
  return stage;
}

void TaggerStage::Apply(JobStream& stream) const {
  const std::string invalid = Validate();
  DRACONIS_CHECK_MSG(invalid.empty(), "invalid TaggerStage: " + invalid);
  Rng rng(seed);
  switch (kind) {
    case Kind::kLocality:
      for (JobArrival& job : stream) {
        for (TaskSpec& task : job.tasks) {
          task.tprops = static_cast<uint32_t>(rng.NextBelow(num_nodes));
        }
      }
      return;
    case Kind::kPriority: {
      double total = 0.0;
      for (double w : mix) {
        total += w;
      }
      for (JobArrival& job : stream) {
        for (TaskSpec& task : job.tasks) {
          double u = rng.NextDouble() * total;
          uint32_t level = static_cast<uint32_t>(mix.size());
          for (size_t i = 0; i < mix.size(); ++i) {
            if (u < mix[i]) {
              level = static_cast<uint32_t>(i + 1);
              break;
            }
            u -= mix[i];
          }
          task.tprops = level;
        }
      }
      return;
    }
    case Kind::kDeadline:
      for (JobArrival& job : stream) {
        for (TaskSpec& task : job.tasks) {
          const double service_us = static_cast<double>(task.duration) / 1000.0;
          // TPROPS holds 32 bits: saturate before the cast, which a huge
          // slack from JSON would otherwise overflow.
          uint64_t deadline_us =
              static_cast<uint64_t>(std::min(service_us * slack, double{UINT32_MAX}));
          if (deadline_us < 1) {
            deadline_us = 1;
          }
          deadline_us += rng.NextBelow(static_cast<uint64_t>(jitter_us) + 1);
          task.tprops = static_cast<uint32_t>(std::min<uint64_t>(deadline_us, UINT32_MAX));
        }
      }
      return;
    case Kind::kTenant:
      for (JobArrival& job : stream) {
        const uint32_t tenant = static_cast<uint32_t>(rng.NextBelow(num_tenants));
        for (TaskSpec& task : job.tasks) {
          task.tprops = tenant;
        }
      }
      return;
  }
}

std::string TaggerStage::Validate() const {
  switch (kind) {
    case Kind::kLocality:
      if (num_nodes == 0) {
        return "locality tagger: num_nodes must be positive";
      }
      return "";
    case Kind::kPriority: {
      if (mix.empty()) {
        return "priority tagger: mix must be non-empty";
      }
      double total = 0.0;
      for (double m : mix) {
        if (m < 0.0) {
          return "priority tagger: mix fractions must be non-negative";
        }
        total += m;
      }
      if (total <= 0.0) {
        return "priority tagger: mix must sum to a positive value";
      }
      return "";
    }
    case Kind::kDeadline:
      if (!std::isfinite(slack) || slack <= 0.0) {
        return "deadline tagger: slack must be positive and finite";
      }
      return "";
    case Kind::kTenant:
      if (num_tenants == 0) {
        return "tenant tagger: num_tenants must be positive";
      }
      return "";
  }
  return "";
}

void TaggerStage::WriteJson(json::Writer& w) const {
  w.BeginObject();
  w.Key("stage").String(StageName(kind));
  switch (kind) {
    case Kind::kLocality:
      w.Key("num_nodes").UInt(num_nodes);
      break;
    case Kind::kPriority:
      w.Key("mix").BeginArray();
      for (double m : mix) {
        w.Double(m);
      }
      w.EndArray();
      break;
    case Kind::kDeadline:
      w.Key("slack").Double(slack);
      w.Key("jitter_us").UInt(jitter_us);
      break;
    case Kind::kTenant:
      w.Key("num_tenants").UInt(num_tenants);
      break;
  }
  w.Key("seed").UInt(seed);
  w.EndObject();
}

bool TaggerStage::FromJson(const json::Value& v, TaggerStage* out, std::string* error) {
  const auto fail = [error](std::string msg) { return json::Fail(error, std::move(msg)); };
  if (!v.is_object()) {
    return fail("tagger: expected an object");
  }
  const json::Value* stage = v.Find("stage");
  TaggerStage parsed;
  if (stage == nullptr || !stage->is_string() ||
      !StageFromName(stage->AsString(), &parsed.kind)) {
    return fail("tagger: missing or unknown 'stage'");
  }
  // Every integer member of a stage is required.
  const auto integer = [&v, &fail, error](const char* key, auto* field) {
    if (v.Find(key) == nullptr) {
      return fail(std::string("tagger: missing '") + key + "'");
    }
    return json::ReadInt(v, "tagger", key, field, error);
  };
  if (!integer("seed", &parsed.seed)) {
    return false;
  }
  switch (parsed.kind) {
    case Kind::kLocality:
      if (!integer("num_nodes", &parsed.num_nodes)) {
        return false;
      }
      break;
    case Kind::kPriority: {
      const json::Value* mix = v.Find("mix");
      if (mix == nullptr || !mix->is_array()) {
        return fail("priority tagger: missing 'mix'");
      }
      parsed.mix.clear();
      for (const json::Value& m : mix->AsArray()) {
        if (!m.is_number()) {
          return fail("priority tagger: 'mix' entries must be numbers");
        }
        parsed.mix.push_back(m.AsDouble());
      }
      break;
    }
    case Kind::kDeadline: {
      const json::Value* slack = v.Find("slack");
      if (slack == nullptr || !slack->is_number()) {
        return fail("deadline tagger: missing 'slack'");
      }
      parsed.slack = slack->AsDouble();
      if (!integer("jitter_us", &parsed.jitter_us)) {
        return false;
      }
      break;
    }
    case Kind::kTenant:
      if (!integer("num_tenants", &parsed.num_tenants)) {
        return false;
      }
      break;
  }
  const std::string invalid = parsed.Validate();
  if (!invalid.empty()) {
    return fail(invalid);
  }
  *out = std::move(parsed);
  return true;
}

// --- WorkloadSpec ------------------------------------------------------------

namespace {

// The arrival engines. Each draws from one Rng(spec.seed) in a fixed order:
// the stream digests in tests/workload_test.cc pin that order.

JobStream OpenLoopArrivals(const WorkloadSpec& spec) {
  Rng rng(spec.seed);
  JobStream stream;
  const double jobs_per_second =
      spec.tasks_per_second / static_cast<double>(spec.tasks_per_job);
  TimeNs at = rng.NextPoissonGap(jobs_per_second);
  while (at < spec.duration) {
    JobArrival job;
    job.at = at;
    job.tasks.reserve(spec.tasks_per_job);
    for (size_t i = 0; i < spec.tasks_per_job; ++i) {
      TaskSpec task;
      task.duration = spec.service.Sample(rng);
      job.tasks.push_back(task);
    }
    stream.push_back(std::move(job));
    at += rng.NextPoissonGap(jobs_per_second);
  }
  return stream;
}

JobStream PhasedArrivals(const WorkloadSpec& spec) {
  Rng rng(spec.seed);
  JobStream stream;
  const TimeNs total = 3 * spec.phase_duration;
  TimeNs at = rng.NextPoissonGap(spec.tasks_per_second);
  while (at < total) {
    const auto phase = static_cast<uint32_t>(at / spec.phase_duration);  // 0, 1, 2
    JobArrival job;
    job.at = at;
    TaskSpec task;
    task.duration = spec.service.Sample(rng);
    task.tprops = 1u << phase;  // A=1, B=2, C=4
    job.tasks.push_back(task);
    stream.push_back(std::move(job));
    at += rng.NextPoissonGap(spec.tasks_per_second);
  }
  return stream;
}

JobStream GoogleTraceArrivals(const WorkloadSpec& spec) {
  Rng rng(spec.seed);
  JobStream stream;
  TimeNs at = 0;
  while (at < spec.duration) {
    const auto burst = static_cast<size_t>(rng.NextBoundedPareto(
        1.0, static_cast<double>(spec.max_job_size) + 0.999, spec.burst_alpha));
    JobArrival job;
    job.at = at;
    job.tasks.reserve(burst);
    for (size_t i = 0; i < burst; ++i) {
      TaskSpec task;
      task.duration = static_cast<TimeNs>(rng.NextLognormalWithMean(
          static_cast<double>(spec.mean_task_duration), spec.duration_sigma));
      if (task.duration < 1) {
        task.duration = 1;
      }
      job.tasks.push_back(task);
    }
    stream.push_back(std::move(job));

    // Keep the long-run task rate at the target: the mean gap to the next
    // burst carries this burst's worth of tasks.
    const double gap_seconds =
        rng.NextExponential(static_cast<double>(burst) / spec.tasks_per_second);
    TimeNs gap = static_cast<TimeNs>(gap_seconds * kSecond);
    at += gap > 0 ? gap : 1;
  }
  if (spec.priority_levels > 0) {
    TaggerStage::Priority(PaperPriorityMix(), rng.NextU64()).Apply(stream);
  }
  return stream;
}

}  // namespace

JobStream WorkloadSpec::Generate() const {
  const std::string invalid = Validate();
  DRACONIS_CHECK_MSG(invalid.empty(), "invalid WorkloadSpec: " + invalid);
  JobStream stream;
  switch (arrival) {
    case ArrivalKind::kNone:
      return stream;
    case ArrivalKind::kOpenLoop:
      stream = OpenLoopArrivals(*this);
      break;
    case ArrivalKind::kPhased:
      stream = PhasedArrivals(*this);
      break;
    case ArrivalKind::kGoogleTrace:
      stream = GoogleTraceArrivals(*this);
      break;
  }
  for (const TaggerStage& stage : taggers) {
    stage.Apply(stream);
  }
  return stream;
}

TimeNs WorkloadSpec::ArrivalEnd() const {
  switch (arrival) {
    case ArrivalKind::kNone:
      return 0;
    case ArrivalKind::kOpenLoop:
    case ArrivalKind::kGoogleTrace:
      return duration;
    case ArrivalKind::kPhased:
      return 3 * phase_duration;
  }
  return 0;
}

std::string WorkloadSpec::Validate() const {
  if (arrival == ArrivalKind::kNone) {
    return "";
  }
  if (!std::isfinite(tasks_per_second) || tasks_per_second <= 0.0) {
    return "workload: tasks_per_second must be positive and finite";
  }
  if ((arrival == ArrivalKind::kOpenLoop || arrival == ArrivalKind::kGoogleTrace) &&
      duration <= 0) {
    return "workload: duration must be positive";
  }
  if (arrival == ArrivalKind::kOpenLoop && tasks_per_job == 0) {
    return "workload: tasks_per_job must be positive";
  }
  if (arrival == ArrivalKind::kPhased && phase_duration <= 0) {
    return "workload: phase_duration must be positive";
  }
  if (arrival == ArrivalKind::kGoogleTrace) {
    if (mean_task_duration <= 0) {
      return "workload: mean_task_duration must be positive";
    }
    if (!(duration_sigma > 0.0) || !(burst_alpha > 0.0)) {
      return "workload: duration_sigma and burst_alpha must be positive";
    }
    if (max_job_size == 0) {
      return "workload: max_job_size must be positive";
    }
    if (priority_levels != 0 && priority_levels != 4) {
      return "workload: priority_levels must be 0 (untagged) or 4 (paper mix)";
    }
  }
  for (const TaggerStage& stage : taggers) {
    const std::string invalid = stage.Validate();
    if (!invalid.empty()) {
      return "workload: " + invalid;
    }
  }
  return "";
}

std::string WorkloadSpec::label() const {
  std::string out = ArrivalKindName(arrival);
  if (arrival == ArrivalKind::kOpenLoop || arrival == ArrivalKind::kPhased) {
    out += " " + service.label();
  }
  return out;
}

void WorkloadSpec::WriteJson(json::Writer& w) const {
  w.BeginObject();
  w.Key("arrival").String(ArrivalKindName(arrival));
  w.Key("tasks_per_second").Double(tasks_per_second);
  switch (arrival) {
    case ArrivalKind::kNone:
      break;
    case ArrivalKind::kOpenLoop:
      w.Key("duration_ns").Int(duration);
      w.Key("tasks_per_job").UInt(tasks_per_job);
      w.Key("service").String(service.Name());
      break;
    case ArrivalKind::kPhased:
      w.Key("phase_duration_ns").Int(phase_duration);
      w.Key("service").String(service.Name());
      break;
    case ArrivalKind::kGoogleTrace:
      w.Key("duration_ns").Int(duration);
      w.Key("mean_task_duration_ns").Int(mean_task_duration);
      w.Key("duration_sigma").Double(duration_sigma);
      w.Key("burst_alpha").Double(burst_alpha);
      w.Key("max_job_size").UInt(max_job_size);
      w.Key("priority_levels").UInt(priority_levels);
      break;
  }
  w.Key("seed").UInt(seed);
  if (!taggers.empty()) {
    w.Key("taggers").BeginArray();
    for (const TaggerStage& stage : taggers) {
      stage.WriteJson(w);
    }
    w.EndArray();
  }
  w.EndObject();
}

std::string WorkloadSpec::ToJson() const {
  json::Writer w;
  WriteJson(w);
  return w.str();
}

bool WorkloadSpec::FromJson(const json::Value& v, WorkloadSpec* out, std::string* error) {
  const auto fail = [error](std::string msg) { return json::Fail(error, std::move(msg)); };
  if (!v.is_object()) {
    return fail("workload: expected an object");
  }
  WorkloadSpec parsed;
  const json::Value* arrival = v.Find("arrival");
  if (arrival == nullptr || !arrival->is_string()) {
    return fail("workload: missing 'arrival'");
  }
  if (arrival->AsString() != ArrivalKindName(ArrivalKind::kNone) &&
      !ArrivalKindFromName(arrival->AsString(), &parsed.arrival)) {
    return fail("workload: unknown arrival process '" + arrival->AsString() + "'");
  }
  const auto number = [&v](const char* key, double fallback) {
    const json::Value* member = v.Find(key);
    return member != nullptr && member->is_number() ? member->AsDouble() : fallback;
  };
  parsed.tasks_per_second = number("tasks_per_second", parsed.tasks_per_second);
  parsed.duration_sigma = number("duration_sigma", parsed.duration_sigma);
  parsed.burst_alpha = number("burst_alpha", parsed.burst_alpha);
  if (!json::ReadInt(v, "workload", "duration_ns", &parsed.duration, error) ||
      !json::ReadInt(v, "workload", "tasks_per_job", &parsed.tasks_per_job, error) ||
      !json::ReadInt(v, "workload", "phase_duration_ns", &parsed.phase_duration, error) ||
      !json::ReadInt(v, "workload", "mean_task_duration_ns", &parsed.mean_task_duration, error) ||
      !json::ReadInt(v, "workload", "max_job_size", &parsed.max_job_size, error) ||
      !json::ReadInt(v, "workload", "priority_levels", &parsed.priority_levels, error) ||
      !json::ReadInt(v, "workload", "seed", &parsed.seed, error)) {
    return false;
  }
  const json::Value* service = v.Find("service");
  if (service != nullptr) {
    if (!service->is_string() ||
        !ServiceTime::FromName(service->AsString(), &parsed.service, error)) {
      return error != nullptr && !error->empty() ? false
                                                 : fail("workload: bad 'service'");
    }
  }
  const json::Value* taggers = v.Find("taggers");
  if (taggers != nullptr) {
    if (!taggers->is_array()) {
      return fail("workload: 'taggers' must be an array");
    }
    for (const json::Value& t : taggers->AsArray()) {
      TaggerStage stage;
      if (!TaggerStage::FromJson(t, &stage, error)) {
        return false;
      }
      parsed.taggers.push_back(std::move(stage));
    }
  }
  const std::string invalid = parsed.Validate();
  if (!invalid.empty()) {
    return fail(invalid);
  }
  *out = std::move(parsed);
  return true;
}

}  // namespace draconis::workload
