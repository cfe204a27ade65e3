#include "dag/job_spec.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/rng.h"

namespace draconis::dag {

namespace {

// Independent per-job stream: a golden-ratio index spread over the spec
// seed, so job j's structure depends only on (seed, j) and shortening the
// arrival window never perturbs the jobs that remain.
inline uint64_t JobSeed(uint64_t seed, uint64_t job) {
  return seed * 24593 + 613 + job * 0x9E3779B97F4A7C15ULL;
}

}  // namespace

std::string JobSpec::Validate() const {
  if (tasks.empty()) {
    return "dag job: needs at least one task";
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    const TaskNode& node = tasks[i];
    if (node.duration < 0) {
      return "dag job: task " + std::to_string(i) + " has a negative duration";
    }
    std::vector<uint32_t> seen;
    for (uint32_t dep : node.deps) {
      if (dep >= i) {
        // Also rejects self-edges; index order is the topological order, so
        // any cycle would need at least one forward edge.
        return "dag job: task " + std::to_string(i) + " depends on task " +
               std::to_string(dep) + ", which is not an earlier task (cycle or forward edge)";
      }
      if (std::find(seen.begin(), seen.end(), dep) != seen.end()) {
        return "dag job: task " + std::to_string(i) + " lists dependency " +
               std::to_string(dep) + " twice";
      }
      seen.push_back(dep);
    }
  }
  return "";
}

TimeNs JobSpec::CriticalPathNs() const {
  std::vector<TimeNs> finish(tasks.size(), 0);
  TimeNs longest = 0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    TimeNs start = 0;
    for (uint32_t dep : tasks[i].deps) {
      start = std::max(start, finish[dep]);
    }
    finish[i] = start + tasks[i].duration;
    longest = std::max(longest, finish[i]);
  }
  return longest;
}

void JobSpec::WriteJson(json::Writer& w) const {
  w.BeginObject();
  w.Key("tasks").BeginArray();
  for (const TaskNode& node : tasks) {
    w.BeginObject();
    w.Key("duration_ns").Int(node.duration);
    w.Key("deps").BeginArray();
    for (uint32_t dep : node.deps) {
      w.UInt(dep);
    }
    w.EndArray();
    w.Key("stage").UInt(node.stage);
    w.Key("tprops").UInt(node.tprops);
    w.Key("fn_id").UInt(node.fn_id);
    w.Key("fn_par").UInt(node.fn_par);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

std::string JobSpec::ToJson() const {
  json::Writer w;
  WriteJson(w);
  return w.str();
}

bool JobSpec::FromJson(const json::Value& v, JobSpec* out, std::string* error) {
  const auto fail = [error](std::string msg) { return json::Fail(error, std::move(msg)); };
  if (!v.is_object()) {
    return fail("dag job: expected an object");
  }
  const json::Value* tasks = v.Find("tasks");
  if (tasks == nullptr || !tasks->is_array()) {
    return fail("dag job: missing 'tasks' array");
  }
  JobSpec parsed;
  for (const json::Value& t : tasks->AsArray()) {
    if (!t.is_object()) {
      return fail("dag job: 'tasks' entries must be objects");
    }
    TaskNode node;
    const std::string where = "dag job: task " + std::to_string(parsed.tasks.size());
    if (t.Find("duration_ns") == nullptr) {
      return fail(where + " is missing 'duration_ns'");
    }
    if (!json::ReadInt(t, where, "duration_ns", &node.duration, error) ||
        !json::ReadInt(t, where, "stage", &node.stage, error) ||
        !json::ReadInt(t, where, "tprops", &node.tprops, error) ||
        !json::ReadInt(t, where, "fn_id", &node.fn_id, error) ||
        !json::ReadInt(t, where, "fn_par", &node.fn_par, error)) {
      return false;
    }
    if (const json::Value* deps = t.Find("deps"); deps != nullptr) {
      if (!deps->is_array()) {
        return fail("dag job: 'deps' must be an array");
      }
      for (const json::Value& dep : deps->AsArray()) {
        const std::optional<uint32_t> index = dep.AsInt<uint32_t>();
        if (!index) {
          return fail("dag job: 'deps' entries must be non-negative task indices");
        }
        node.deps.push_back(*index);
      }
    }
    parsed.tasks.push_back(std::move(node));
  }
  const std::string invalid = parsed.Validate();
  if (!invalid.empty()) {
    return fail(invalid);
  }
  *out = std::move(parsed);
  return true;
}

const char* DagShapeName(DagShape shape) {
  switch (shape) {
    case DagShape::kChain:
      return "chain";
    case DagShape::kFanOutFanIn:
      return "fanout";
    case DagShape::kRandom:
      return "random";
  }
  return "unknown";
}

bool DagShapeFromName(const std::string& name, DagShape* out) {
  for (DagShape shape : {DagShape::kChain, DagShape::kFanOutFanIn, DagShape::kRandom}) {
    if (name == DagShapeName(shape)) {
      *out = shape;
      return true;
    }
  }
  return false;
}

const std::vector<std::string>& DagShapeNames() {
  static const std::vector<std::string> names = {
      DagShapeName(DagShape::kChain), DagShapeName(DagShape::kFanOutFanIn),
      DagShapeName(DagShape::kRandom)};
  return names;
}

const workload::ServiceTime& DagWorkloadSpec::StageService(uint32_t stage) const {
  return stage < stage_services.size() ? stage_services[stage] : service;
}

size_t DagWorkloadSpec::TasksPerJob() const {
  switch (shape) {
    case DagShape::kChain:
      return depth;
    case DagShape::kFanOutFanIn:
      return depth <= 2 ? depth : 2 + static_cast<size_t>(depth - 2) * width;
    case DagShape::kRandom:
      return static_cast<size_t>(depth) * width;
  }
  return 0;
}

TimeNs DagWorkloadSpec::MeanTaskService() const {
  // Stage-weighted by how many tasks each stage holds, so the utilization
  // estimate stays honest under per-stage overrides.
  TimeNs total = 0;
  size_t count = 0;
  const auto add = [&](uint32_t stage, size_t tasks) {
    total += StageService(stage).Mean() * static_cast<TimeNs>(tasks);
    count += tasks;
  };
  switch (shape) {
    case DagShape::kChain:
      for (uint32_t s = 0; s < depth; ++s) {
        add(s, 1);
      }
      break;
    case DagShape::kFanOutFanIn:
      add(0, 1);
      for (uint32_t s = 1; s + 1 < depth; ++s) {
        add(s, width);
      }
      if (depth >= 2) {
        add(depth - 1, 1);
      }
      break;
    case DagShape::kRandom:
      for (uint32_t s = 0; s < depth; ++s) {
        add(s, width);
      }
      break;
  }
  return count > 0 ? total / static_cast<TimeNs>(count) : 0;
}

std::vector<DagJobArrival> DagWorkloadSpec::Generate() const {
  std::vector<DagJobArrival> jobs;
  Rng arrivals(seed);
  TimeNs at = 0;
  for (uint64_t j = 0;; ++j) {
    at += arrivals.NextPoissonGap(jobs_per_second);
    if (at >= duration) {
      break;
    }
    Rng rng(JobSeed(seed, j));
    JobSpec spec;
    const auto emit = [&](uint32_t stage, std::vector<uint32_t> deps) {
      TaskNode node;
      node.stage = stage;
      node.duration = StageService(stage).Sample(rng);
      node.deps = std::move(deps);
      spec.tasks.push_back(std::move(node));
    };
    switch (shape) {
      case DagShape::kChain: {
        for (uint32_t s = 0; s < depth; ++s) {
          emit(s, s == 0 ? std::vector<uint32_t>{} : std::vector<uint32_t>{s - 1});
        }
        break;
      }
      case DagShape::kFanOutFanIn: {
        // Level boundaries double as frontier barriers: every task of a
        // level depends on the whole previous level.
        std::vector<uint32_t> previous = {0};
        emit(0, {});
        for (uint32_t s = 1; s + 1 < depth; ++s) {
          std::vector<uint32_t> current;
          for (uint32_t k = 0; k < width; ++k) {
            current.push_back(static_cast<uint32_t>(spec.tasks.size()));
            emit(s, previous);
          }
          previous = std::move(current);
        }
        if (depth >= 2) {
          emit(depth - 1, previous);
        }
        break;
      }
      case DagShape::kRandom: {
        const size_t total = TasksPerJob();
        for (size_t i = 0; i < total; ++i) {
          std::vector<uint32_t> deps;
          const size_t window_start = i > width ? i - width : 0;
          for (size_t c = window_start; c < i; ++c) {
            if (rng.NextBool(edge_prob)) {
              deps.push_back(static_cast<uint32_t>(c));
            }
          }
          if (deps.empty() && i > 0) {
            // Keep the job connected so its span is never just one task.
            deps.push_back(static_cast<uint32_t>(i - 1));
          }
          emit(static_cast<uint32_t>(i / width), std::move(deps));
        }
        break;
      }
    }
    jobs.push_back(DagJobArrival{at, std::move(spec)});
  }
  return jobs;
}

std::string DagWorkloadSpec::Validate() const {
  if (depth < 1) {
    return "dag workload: depth must be >= 1";
  }
  if (shape == DagShape::kFanOutFanIn && depth < 2) {
    return "dag workload: the fanout shape needs depth >= 2 (source and sink)";
  }
  if (shape != DagShape::kChain && width < 1) {
    return "dag workload: width must be >= 1";
  }
  if (edge_prob < 0.0 || edge_prob > 1.0) {
    return "dag workload: edge_prob must be in [0, 1]";
  }
  if (jobs_per_second <= 0.0) {
    return "dag workload: jobs_per_second must be > 0";
  }
  if (duration <= 0) {
    return "dag workload: duration must be > 0";
  }
  return "";
}

std::string DagWorkloadSpec::label() const {
  std::string out = DagShapeName(shape);
  out += " depth=" + std::to_string(depth);
  if (shape != DagShape::kChain) {
    out += " width=" + std::to_string(width);
  }
  out += " " + service.label();
  return out;
}

void DagWorkloadSpec::WriteJson(json::Writer& w) const {
  w.BeginObject();
  w.Key("shape").String(DagShapeName(shape));
  w.Key("depth").UInt(depth);
  w.Key("width").UInt(width);
  w.Key("edge_prob").Double(edge_prob);
  w.Key("jobs_per_second").Double(jobs_per_second);
  w.Key("duration_ns").Int(duration);
  w.Key("service").String(service.Name());
  if (!stage_services.empty()) {
    w.Key("stage_services").BeginArray();
    for (const workload::ServiceTime& s : stage_services) {
      w.String(s.Name());
    }
    w.EndArray();
  }
  w.Key("seed").UInt(seed);
  w.EndObject();
}

std::string DagWorkloadSpec::ToJson() const {
  json::Writer w;
  WriteJson(w);
  return w.str();
}

bool DagWorkloadSpec::FromJson(const json::Value& v, DagWorkloadSpec* out, std::string* error) {
  const auto fail = [error](std::string msg) { return json::Fail(error, std::move(msg)); };
  if (!v.is_object()) {
    return fail("dag workload: expected an object");
  }
  DagWorkloadSpec parsed;
  const json::Value* shape = v.Find("shape");
  if (shape == nullptr || !shape->is_string() ||
      !DagShapeFromName(shape->AsString(), &parsed.shape)) {
    return fail("dag workload: missing or unknown 'shape'");
  }
  const auto number = [&v](const char* key, double fallback) {
    const json::Value* member = v.Find(key);
    return member != nullptr && member->is_number() ? member->AsDouble() : fallback;
  };
  parsed.edge_prob = number("edge_prob", parsed.edge_prob);
  parsed.jobs_per_second = number("jobs_per_second", parsed.jobs_per_second);
  if (!json::ReadInt(v, "dag workload", "depth", &parsed.depth, error) ||
      !json::ReadInt(v, "dag workload", "width", &parsed.width, error) ||
      !json::ReadInt(v, "dag workload", "duration_ns", &parsed.duration, error) ||
      !json::ReadInt(v, "dag workload", "seed", &parsed.seed, error)) {
    return false;
  }
  if (const json::Value* service = v.Find("service"); service != nullptr) {
    if (!service->is_string()) {
      return fail("dag workload: 'service' must be a service-time name");
    }
    std::string service_error;
    if (!workload::ServiceTime::FromName(service->AsString(), &parsed.service,
                                         &service_error)) {
      return fail("dag workload: " + service_error);
    }
  }
  if (const json::Value* stages = v.Find("stage_services"); stages != nullptr) {
    if (!stages->is_array()) {
      return fail("dag workload: 'stage_services' must be an array of service-time names");
    }
    for (const json::Value& s : stages->AsArray()) {
      if (!s.is_string()) {
        return fail("dag workload: 'stage_services' entries must be strings");
      }
      workload::ServiceTime model = parsed.service;
      std::string service_error;
      if (!workload::ServiceTime::FromName(s.AsString(), &model, &service_error)) {
        return fail("dag workload: " + service_error);
      }
      parsed.stage_services.push_back(std::move(model));
    }
  }
  const std::string invalid = parsed.Validate();
  if (!invalid.empty()) {
    return fail(invalid);
  }
  *out = std::move(parsed);
  return true;
}

}  // namespace draconis::dag
