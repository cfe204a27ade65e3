#include "dag/job_spec.h"

#include <algorithm>
#include <numeric>
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
    for (size_t k = 0; k < node.deps.size(); ++k) {
      const uint32_t dep = node.deps[k];
      if (dep >= i) {
        // Also rejects self-edges; index order is the topological order, so
        // any cycle would need at least one forward edge.
        return "dag job: task " + std::to_string(i) + " depends on task " +
               std::to_string(dep) + ", which is not an earlier task (cycle or forward edge)";
      }
      // The first repeat of an edge, searched in place among the entries
      // before it.
      if (std::find(node.deps.begin(), node.deps.begin() + k, dep) != node.deps.begin() + k) {
        return "dag job: task " + std::to_string(i) + " lists dependency " +
               std::to_string(dep) + " twice";
      }
    }
  }
  return "";
}

TimeNs JobSpec::CriticalPathNs(std::vector<TimeNs>& finish) const {
  finish.assign(tasks.size(), 0);
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
    spec.tasks.reserve(TasksPerJob());
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
        // level depends on the whole previous level, the task indices
        // [previous, level).
        const auto previous_level = [&](uint32_t previous, uint32_t level) {
          std::vector<uint32_t> deps(level - previous);
          std::iota(deps.begin(), deps.end(), previous);
          return deps;
        };
        emit(0, {});
        uint32_t previous = 0;
        uint32_t level = 1;
        for (uint32_t s = 1; s + 1 < depth; ++s) {
          for (uint32_t k = 0; k < width; ++k) {
            emit(s, previous_level(previous, level));
          }
          previous = level;
          level = static_cast<uint32_t>(spec.tasks.size());
        }
        if (depth >= 2) {
          emit(depth - 1, previous_level(previous, level));
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

}  // namespace draconis::dag
