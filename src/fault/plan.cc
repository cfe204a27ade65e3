#include "fault/plan.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/json.h"

namespace draconis::fault {

namespace {

const char* RoleName(NodeRef::Role role) {
  switch (role) {
    case NodeRef::Role::kScheduler:
      return "scheduler";
    case NodeRef::Role::kStandby:
      return "standby";
    case NodeRef::Role::kExecutor:
      return "executor";
    case NodeRef::Role::kClient:
      return "client";
    case NodeRef::Role::kNode:
      return "node";
  }
  return "unknown";
}

bool RoleFromName(const std::string& name, NodeRef::Role* out) {
  for (NodeRef::Role role : {NodeRef::Role::kScheduler, NodeRef::Role::kStandby,
                             NodeRef::Role::kExecutor, NodeRef::Role::kClient,
                             NodeRef::Role::kNode}) {
    if (name == RoleName(role)) {
      *out = role;
      return true;
    }
  }
  return false;
}

bool KindFromName(const std::string& name, EventKind* out) {
  for (EventKind kind : {EventKind::kLossyLink, EventKind::kNodeCrash,
                         EventKind::kLatencyDegrade, EventKind::kSchedulerFailover}) {
    if (name == EventKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

// A duration member: integer nanoseconds or a unit string ("250us").
bool ReadDuration(const json::Value& v, TimeNs* out, std::string* error,
                  const std::string& what) {
  if (const std::optional<TimeNs> ns = v.AsInt<TimeNs>()) {
    *out = *ns;
    return true;
  }
  if (v.is_string() && ParseDuration(v.AsString(), out)) {
    return true;
  }
  *error = what + " must be integer nanoseconds or a duration string like \"250us\"";
  return false;
}

bool ReadNodeRef(const json::Value* v, NodeRef* out, std::string* error,
                 const std::string& what) {
  if (v == nullptr || !v->is_object()) {
    *error = what + " must be an object {\"role\": ..., \"index\": ...}";
    return false;
  }
  for (const std::string& key : v->Keys()) {
    if (key != "role" && key != "index") {
      *error = what + " has unknown key \"" + key + "\"";
      return false;
    }
  }
  const json::Value* role = v->Find("role");
  if (role == nullptr || !role->is_string() || !RoleFromName(role->AsString(), &out->role)) {
    *error = what + ".role must be one of scheduler|standby|executor|client|node";
    return false;
  }
  out->index = 0;
  if (const json::Value* index = v->Find("index"); index != nullptr) {
    const std::optional<int32_t> i = index->AsInt<int32_t>();
    if (!i) {
      *error = what + ".index must be an integer (-1 = all instances)";
      return false;
    }
    out->index = *i;
  }
  return true;
}

std::string ValidateEvent(const FaultEvent& e, size_t i) {
  const std::string where = "event " + std::to_string(i) + " (" + EventKindName(e.kind) + ")";
  if (e.start < 0) {
    return where + ": start must be >= 0";
  }
  if (e.end != FaultEvent::kNever && e.end <= e.start) {
    return where + ": end must be > start (or omitted to persist)";
  }
  switch (e.kind) {
    case EventKind::kLossyLink:
      if (e.probability < 0.0 || e.probability > 1.0) {
        return where + ": probability must be in [0, 1]";
      }
      break;
    case EventKind::kNodeCrash:
      break;
    case EventKind::kLatencyDegrade:
      if (e.extra_latency <= 0) {
        return where + ": extra_latency must be > 0";
      }
      break;
    case EventKind::kSchedulerFailover:
      break;
  }
  return "";
}

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kLossyLink:
      return "lossy_link";
    case EventKind::kNodeCrash:
      return "node_crash";
    case EventKind::kLatencyDegrade:
      return "latency_degrade";
    case EventKind::kSchedulerFailover:
      return "scheduler_failover";
  }
  return "unknown";
}

FaultPlan& FaultPlan::LossyLink(TimeNs start, TimeNs end, double probability, NodeRef src,
                                NodeRef dst) {
  FaultEvent e;
  e.kind = EventKind::kLossyLink;
  e.start = start;
  e.end = end;
  e.probability = probability;
  e.src = src;
  e.dst = dst;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::NodeCrash(TimeNs at, TimeNs recover_at, NodeRef target) {
  FaultEvent e;
  e.kind = EventKind::kNodeCrash;
  e.start = at;
  e.end = recover_at;
  e.target = target;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::LatencyDegrade(TimeNs start, TimeNs end, TimeNs extra_latency) {
  FaultEvent e;
  e.kind = EventKind::kLatencyDegrade;
  e.start = start;
  e.end = end;
  e.extra_latency = extra_latency;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::SchedulerFailover(TimeNs at, TimeNs settle) {
  FaultEvent e;
  e.kind = EventKind::kSchedulerFailover;
  e.start = at;
  e.end = settle;
  events_.push_back(e);
  return *this;
}

bool FaultPlan::has_scheduler_failover() const {
  return failover_at() != FaultEvent::kNever;
}

TimeNs FaultPlan::failover_at() const {
  for (const FaultEvent& e : events_) {
    if (e.kind == EventKind::kSchedulerFailover) {
      return e.start;
    }
  }
  return FaultEvent::kNever;
}

TimeNs FaultPlan::first_onset() const {
  TimeNs first = FaultEvent::kNever;
  for (const FaultEvent& e : events_) {
    if (first == FaultEvent::kNever || e.start < first) {
      first = e.start;
    }
  }
  return first;
}

TimeNs FaultPlan::last_clearance(TimeNs settle) const {
  TimeNs last = FaultEvent::kNever;
  for (const FaultEvent& e : events_) {
    last = std::max(last, e.end != FaultEvent::kNever ? e.end : e.start + settle);
  }
  return last;
}

std::string FaultPlan::Validate() const {
  size_t failovers = 0;
  for (size_t i = 0; i < events_.size(); ++i) {
    const std::string error = ValidateEvent(events_[i], i);
    if (!error.empty()) {
      return error;
    }
    failovers += events_[i].kind == EventKind::kSchedulerFailover ? 1 : 0;
  }
  if (failovers > 1) {
    return "at most one scheduler_failover per plan (a single standby is deployed)";
  }
  return "";
}

bool FaultPlan::FromJson(const std::string& text, FaultPlan* out, std::string* error) {
  DRACONIS_CHECK(out != nullptr && error != nullptr);
  json::Value doc;
  if (!json::Parse(text, &doc, error)) {
    return false;
  }
  if (!doc.is_object()) {
    *error = "fault plan must be a JSON object";
    return false;
  }
  for (const std::string& key : doc.Keys()) {
    if (key != "schema_version" && key != "name" && key != "events") {
      *error = "unknown top-level key \"" + key + "\"";
      return false;
    }
  }
  if (const json::Value* version = doc.Find("schema_version"); version != nullptr) {
    if (version->AsInt() != 1) {
      *error = "unsupported fault plan schema_version (expected 1)";
      return false;
    }
  }
  const json::Value* events = doc.Find("events");
  if (events == nullptr || !events->is_array()) {
    *error = "fault plan needs an \"events\" array";
    return false;
  }

  FaultPlan plan;
  for (size_t i = 0; i < events->AsArray().size(); ++i) {
    const json::Value& ev = events->AsArray()[i];
    const std::string where = "event " + std::to_string(i);
    if (!ev.is_object()) {
      *error = where + " must be an object";
      return false;
    }
    const json::Value* kind_v = ev.Find("kind");
    EventKind kind;
    if (kind_v == nullptr || !kind_v->is_string() || !KindFromName(kind_v->AsString(), &kind)) {
      *error = where +
               ".kind must be one of lossy_link|node_crash|latency_degrade|scheduler_failover";
      return false;
    }
    FaultEvent e;
    e.kind = kind;
    for (const std::string& key : ev.Keys()) {
      const bool common = key == "kind" || key == "start" || key == "end";
      const bool lossy = kind == EventKind::kLossyLink &&
                         (key == "probability" || key == "src" || key == "dst");
      const bool crash = kind == EventKind::kNodeCrash && key == "target";
      const bool degrade = kind == EventKind::kLatencyDegrade && key == "extra_latency";
      if (!common && !lossy && !crash && !degrade) {
        *error = where + " (" + EventKindName(kind) + ") has unknown key \"" + key + "\"";
        return false;
      }
    }
    const json::Value* start = ev.Find("start");
    if (start == nullptr || !ReadDuration(*start, &e.start, error, where + ".start")) {
      if (start == nullptr) {
        *error = where + " needs a start time";
      }
      return false;
    }
    if (const json::Value* end = ev.Find("end"); end != nullptr && !end->is_null()) {
      if (!ReadDuration(*end, &e.end, error, where + ".end")) {
        return false;
      }
    }
    switch (kind) {
      case EventKind::kLossyLink: {
        const json::Value* p = ev.Find("probability");
        if (p == nullptr || !p->is_number()) {
          *error = where + " needs a numeric probability";
          return false;
        }
        e.probability = p->AsDouble();
        if (!ReadNodeRef(ev.Find("src"), &e.src, error, where + ".src") ||
            !ReadNodeRef(ev.Find("dst"), &e.dst, error, where + ".dst")) {
          return false;
        }
        break;
      }
      case EventKind::kNodeCrash:
        if (!ReadNodeRef(ev.Find("target"), &e.target, error, where + ".target")) {
          return false;
        }
        break;
      case EventKind::kLatencyDegrade: {
        const json::Value* extra = ev.Find("extra_latency");
        if (extra == nullptr ||
            !ReadDuration(*extra, &e.extra_latency, error, where + ".extra_latency")) {
          if (extra == nullptr) {
            *error = where + " needs an extra_latency";
          }
          return false;
        }
        break;
      }
      case EventKind::kSchedulerFailover:
        break;
    }
    plan.events_.push_back(e);
  }

  const std::string invalid = plan.Validate();
  if (!invalid.empty()) {
    *error = invalid;
    return false;
  }
  *out = std::move(plan);
  return true;
}

bool FaultPlan::FromJsonFile(const std::string& path, FaultPlan* out, std::string* error) {
  DRACONIS_CHECK(out != nullptr && error != nullptr);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  if (!FromJson(text, out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

}  // namespace draconis::fault
