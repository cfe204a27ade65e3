// Wall-clock benchmark of the simulator's event core (events/sec).
//
// Every figure reproduction in bench/ funnels millions of events through
// `sim::Simulator`; this bench measures that substrate directly and emits
// `BENCH_sim_core.json` so the repo has a perf trajectory to track. To keep
// the comparison honest across machines and PRs, the *seed* engine (heap of
// full events, `std::function` + `shared_ptr<bool>` per cancellable event)
// is embedded below as `legacy::Simulator` and measured in the same
// process, interleaved with the current engine on both of its queue
// backends ("current" = ladder, the default; "heap" alongside).
//
// Workloads:
// Every workload event is a sink call on the current engine and a closure
// that makes the same call on the seed engine.
//
//   schedule_heavy  self-rescheduling chains, plain events only
//   cancel_heavy    watchdog pattern: arm a far-future cancellable event,
//                   cancel + re-arm on every firing
//   timer_loop      executor-pull shape: one periodic callback per actor,
//                   re-armed from inside the callback
//   mixed_fig05a    per-task shape of the fig05a runs: a chain of network
//                   hops plus client-timeout arm/cancel and a pull re-arm
//   near_future     per-task traffic of the dag-hedge-racksched benchmark:
//                   fan-out frontiers of typed hops, most of them landing
//                   in the ladder's sorted bottom, each task guarded by a
//                   cancellable typed timeout and hedge timer that are
//                   cancelled before they fire
//
// Environment:
//   DRACONIS_BENCH_QUICK=1    ~10x fewer events (CI smoke)
// Flags:
//   --json=path               where to write the JSON (default
//                             ./BENCH_sim_core.json)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/time.h"
#include "sim/simulator.h"

namespace legacy {

using draconis::TimeNs;

// The seed event engine, verbatim modulo namespace: one heap-allocated
// std::function per event moved through every heap sift, plus a
// shared_ptr<bool> per cancellable event.
class EventHandle {
 public:
  EventHandle() = default;
  explicit EventHandle(std::shared_ptr<bool> cancelled) : cancelled_(std::move(cancelled)) {}

  void Cancel() {
    if (cancelled_ != nullptr) {
      *cancelled_ = true;
    }
  }
  bool pending() const { return cancelled_ != nullptr && !*cancelled_; }

 private:
  std::shared_ptr<bool> cancelled_;
};

class Simulator {
 public:
  TimeNs Now() const { return now_; }

  void At(TimeNs at, std::function<void()> fn) { Push(at, std::move(fn), nullptr); }
  void After(TimeNs delay, std::function<void()> fn) {
    DRACONIS_CHECK(delay >= 0);
    Push(now_ + delay, std::move(fn), nullptr);
  }
  EventHandle CancellableAt(TimeNs at, std::function<void()> fn) {
    auto flag = std::make_shared<bool>(false);
    Push(at, std::move(fn), flag);
    return EventHandle(std::move(flag));
  }
  EventHandle CancellableAfter(TimeNs delay, std::function<void()> fn) {
    DRACONIS_CHECK(delay >= 0);
    return CancellableAt(now_ + delay, std::move(fn));
  }

  uint64_t RunUntil(TimeNs until) {
    uint64_t ran = 0;
    while (!queue_.empty() && queue_.top().at <= until) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (ev.cancelled != nullptr && *ev.cancelled) {
        continue;
      }
      if (ev.cancelled != nullptr) {
        *ev.cancelled = true;
      }
      now_ = ev.at;
      ev.fn();
      ++ran;
      ++executed_;
    }
    if (now_ < until) {
      now_ = until;
    }
    return ran;
  }

  uint64_t RunAll() {
    uint64_t ran = 0;
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (ev.cancelled != nullptr && *ev.cancelled) {
        continue;
      }
      if (ev.cancelled != nullptr) {
        *ev.cancelled = true;
      }
      now_ = ev.at;
      ev.fn();
      ++ran;
      ++executed_;
    }
    return ran;
  }

  uint64_t executed_events() const { return executed_; }

 private:
  struct Event {
    TimeNs at = 0;
    uint64_t seq = 0;
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;

    bool operator>(const Event& other) const {
      if (at != other.at) {
        return at > other.at;
      }
      return seq > other.seq;
    }
  };

  void Push(TimeNs at, std::function<void()> fn, std::shared_ptr<bool> cancelled) {
    DRACONIS_CHECK_MSG(at >= now_, "cannot schedule an event in the past");
    queue_.push(Event{at, next_seq_++, std::move(fn), std::move(cancelled)});
  }

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
};

// Timer emulation on the legacy engine: the cancel + fresh CancellableAfter
// dance the executor's pull watchdog used to do.
class RearmTimer {
 public:
  RearmTimer(Simulator* sim, std::function<void()> fn) : sim_(sim), fn_(std::move(fn)) {}
  void ScheduleAfter(TimeNs delay) {
    handle_.Cancel();
    handle_ = sim_->CancellableAfter(delay, fn_);  // copies fn_ into the event
  }
  void Cancel() { handle_.Cancel(); }

 private:
  Simulator* sim_;
  std::function<void()> fn_;
  EventHandle handle_;
};

}  // namespace legacy

namespace draconis::bench {
namespace {

// Adapter so the workloads below compile against either engine with the
// same scheduling and Timer spelling. Every workload event is a call
// sink->OnEvent(a, b): the current engine schedules it as such, and the
// seed engine, which had only closures, as a closure that makes the call.
struct CurrentEngine {
  using Sim = sim::Simulator;
  using Handle = sim::EventHandle;
  class RearmTimer {
   public:
    RearmTimer(Sim* s, sim::EventSink* sink, uint32_t a, uint32_t b) {
      timer_.Bind(s, sink, a, b);
    }
    void ScheduleAfter(TimeNs delay) { timer_.ScheduleAfter(delay); }
    void Cancel() { timer_.Cancel(); }

   private:
    sim::Timer timer_;
  };
  static void After(Sim& sim, TimeNs delay, sim::EventSink* sink, uint32_t a, uint32_t b) {
    sim.ScheduleAt(sim.Now() + delay, sink, a, b);
  }
  static Handle CancellableAfter(Sim& sim, TimeNs delay, sim::EventSink* sink, uint32_t a,
                                 uint32_t b) {
    return sim.ScheduleAt(sim.Now() + delay, sink, a, b, sim::kCancellable);
  }
};

struct LegacyEngine {
  using Sim = legacy::Simulator;
  using Handle = legacy::EventHandle;
  class RearmTimer : public legacy::RearmTimer {
   public:
    RearmTimer(Sim* s, sim::EventSink* sink, uint32_t a, uint32_t b)
        : legacy::RearmTimer(s, [sink, a, b] { sink->OnEvent(a, b); }) {}
  };
  static void After(Sim& sim, TimeNs delay, sim::EventSink* sink, uint32_t a, uint32_t b) {
    sim.After(delay, [sink, a, b] { sink->OnEvent(a, b); });
  }
  static Handle CancellableAfter(Sim& sim, TimeNs delay, sim::EventSink* sink, uint32_t a,
                                 uint32_t b) {
    return sim.CancellableAfter(delay, [sink, a, b] { sink->OnEvent(a, b); });
  }
};

// --- Workloads ---------------------------------------------------------------
// Each runs `budget` events through the engine and returns the executed
// count. Each workload's state is the sink of its events, and the handlers
// stay tiny so the measurement is the engine, not the payload.

// Self-rescheduling chains.
template <typename E>
struct ChainState final : sim::EventSink {
  ChainState(typename E::Sim* s, uint64_t b) : sim(s), budget(b) {}
  void OnEvent(uint32_t /*unused*/, uint32_t /*unused*/) override {
    if (budget > 0) {
      --budget;
      E::After(*sim, 1 + static_cast<TimeNs>(rng.NextU64() & 255), this, 0, 0);
    }
  }

  typename E::Sim* sim;
  Rng rng{7};
  uint64_t budget;
};

template <typename E>
uint64_t ScheduleHeavy(typename E::Sim& sim, uint64_t budget) {
  constexpr uint64_t kChains = 1024;  // steady-state heap size
  ChainState<E> st(&sim, budget);
  for (uint64_t k = 0; k < kChains && st.budget > 0; ++k) {
    --st.budget;
    E::After(sim, static_cast<TimeNs>(k + 1), &st, 0, 0);
  }
  sim.RunAll();
  return sim.executed_events();
}

// Watchdog pattern: every firing (k, 0) cancels actor k's previous
// far-future cancellable event (k, kWatchdog), arms a new one, and
// reschedules itself.
template <typename E>
struct WatchdogState final : sim::EventSink {
  static constexpr uint32_t kWatchdog = 1;
  WatchdogState(typename E::Sim* s, uint64_t b, uint32_t actors)
      : sim(s), budget(b), watchdogs(actors) {}
  void OnEvent(uint32_t k, uint32_t kind) override {
    if (kind == kWatchdog) {
      return;
    }
    watchdogs[k].Cancel();
    watchdogs[k] = E::CancellableAfter(*sim, FromMillis(1), this, k, kWatchdog);
    if (budget > 0) {
      --budget;
      E::After(*sim, 1 + static_cast<TimeNs>(rng.NextU64() & 255), this, k, 0);
    }
  }

  typename E::Sim* sim;
  Rng rng{11};
  uint64_t budget;
  std::vector<typename E::Handle> watchdogs;
};

template <typename E>
uint64_t CancelHeavy(typename E::Sim& sim, uint64_t budget) {
  constexpr uint32_t kActors = 256;
  WatchdogState<E> st(&sim, budget, kActors);
  for (uint32_t k = 0; k < kActors && st.budget > 0; ++k) {
    --st.budget;
    E::After(sim, static_cast<TimeNs>(k + 1), &st, k, 0);
  }
  sim.RunUntil(sim.Now() + FromSeconds(3600));
  return sim.executed_events();
}

// Executor-pull shape: a periodic timer per actor, re-armed from inside its
// handler (the engine's reusable-event path; the legacy engine pays a
// cancel + fresh cancellable event per period).
template <typename E>
struct TimerLoopState final : sim::EventSink {
  TimerLoopState(typename E::Sim* s, uint64_t b) : sim(s), budget(b) {}
  void OnEvent(uint32_t k, uint32_t /*unused*/) override {
    if (budget > 0) {
      --budget;
      timers[k]->ScheduleAfter(1 + static_cast<TimeNs>(rng.NextU64() & 255));
    }
  }

  typename E::Sim* sim;
  Rng rng{13};
  uint64_t budget;
  std::vector<std::unique_ptr<typename E::RearmTimer>> timers;
};

template <typename E>
uint64_t TimerLoop(typename E::Sim& sim, uint64_t budget) {
  constexpr uint32_t kActors = 256;
  TimerLoopState<E> st(&sim, budget);
  for (uint32_t k = 0; k < kActors; ++k) {
    st.timers.push_back(std::make_unique<typename E::RearmTimer>(&sim, &st, k, 0));
  }
  for (uint32_t k = 0; k < kActors && st.budget > 0; ++k) {
    --st.budget;
    st.timers[k]->ScheduleAfter(static_cast<TimeNs>(k + 1));
  }
  sim.RunAll();
  return sim.executed_events();
}

// The fig05a per-task shape: a client submit (k, kSubmit) fans into a fixed
// chain of network-hop events (k, hop), guarded by a client timeout
// (cancellable, cancelled at completion) and an executor pull re-arm per hop
// pair. Timeouts and pulls are (k, kIdle) and do nothing.
template <typename E>
struct MixedState final : sim::EventSink {
  static constexpr uint32_t kLastHop = 6;
  static constexpr uint32_t kSubmit = 7;
  static constexpr uint32_t kIdle = 8;
  MixedState(typename E::Sim* s, uint64_t b, uint32_t clients)
      : sim(s), budget(b), timeouts(clients) {}

  void OnEvent(uint32_t k, uint32_t step) override {
    if (step == kSubmit) {
      // Client-side timeout for the task (cancelled when it completes).
      timeouts[k].Cancel();
      timeouts[k] = E::CancellableAfter(*sim, FromMicros(2500), this, k, kIdle);
      Hop(k, 0);
    } else if (step <= kLastHop) {
      Hop(k, step);
    }
  }

  void Hop(uint32_t k, uint32_t hop) {
    if (hop < kLastHop) {
      // tx occupancy / propagation / rx occupancy / stack, twice (to the
      // switch and on to the executor).
      E::After(*sim, 100 + static_cast<TimeNs>(rng.NextU64() & 127), this, k, hop + 1);
      if (hop % 3 == 0) {
        pulls[k]->ScheduleAfter(FromMillis(1));  // watchdog re-arm per leg
      }
      return;
    }
    // Completion: cancel the timeout, re-arm the pull, next task.
    timeouts[k].Cancel();
    pulls[k]->ScheduleAfter(FromMillis(1));
    if (budget > 0) {
      --budget;
      E::After(*sim, 1 + static_cast<TimeNs>(rng.NextU64() & 255), this, k, kSubmit);
    }
  }

  typename E::Sim* sim;
  Rng rng{17};
  uint64_t budget;  // tasks
  std::vector<typename E::Handle> timeouts;
  std::vector<std::unique_ptr<typename E::RearmTimer>> pulls;
};

template <typename E>
uint64_t MixedFig05a(typename E::Sim& sim, uint64_t budget) {
  constexpr uint32_t kClients = 64;
  MixedState<E> st(&sim, budget, kClients);
  for (uint32_t k = 0; k < kClients; ++k) {
    st.pulls.push_back(
        std::make_unique<typename E::RearmTimer>(&sim, &st, k, MixedState<E>::kIdle));
  }
  for (uint32_t k = 0; k < kClients && st.budget > 0; ++k) {
    --st.budget;
    E::After(sim, static_cast<TimeNs>(k + 1), &st, k, MixedState<E>::kSubmit);
  }
  sim.RunUntil(sim.Now() + FromSeconds(3600));
  return sim.executed_events();
}

// The per-task traffic of the dag-hedge-racksched benchmark, set from the
// pushes of one of its simulation calls (pinned seed, each push's delay
// counted in a scratch build): 70% are hops due 150 ns, 450 ns or 1-3 us
// ahead, and 95% of those land in the ladder's sorted bottom; the rest are
// service completions and the client timeout and hedge timer of each task,
// 50 us to ms ahead. kJobs fan-out jobs run their 1 -> 8 -> 1 frontiers
// (the benchmark's DAG shape; about 20 of its jobs are in flight at once:
// 25.6 k jobs/s for a 0.78 ms makespan). A frontier leaves on one
// submission packet, so the first hops of its tasks fire at one instant:
// the same-instant ties of that path. This workload lands 64% of its
// pushes in the bottom and shifts 3.3 keys per such push; the benchmark
// call lands 67% and shifts 3.4.
//
// Event (task, 0) arms the task's two cancellable typed timers, which are
// cancelled before they fire, and starts its chain: three hops, the
// service, two hops back. The last event of a frontier's last task
// releases the job's next frontier.
template <typename E>
class NearFutureState final : public sim::EventSink {
 public:
  static constexpr uint32_t kJobs = 20;
  static constexpr uint32_t kFrontiers = 3;
  static constexpr uint32_t kWidths[kFrontiers] = {1, 8, 1};
  static constexpr uint32_t kMaxWidth = 8;
  static constexpr uint32_t kService = 3;  // the step that starts the service
  static constexpr uint32_t kLastStep = 6;
  static constexpr uint32_t kTimerWord = UINT32_MAX;

  NearFutureState(typename E::Sim* sim, uint64_t budget)
      : sim_(sim),
        budget_(budget),
        timeouts_(kJobs * kMaxWidth),
        hedges_(kJobs * kMaxWidth),
        open_(kJobs),
        frontier_(kJobs) {}

  void Start() {
    for (uint32_t job = 0; job < kJobs && budget_ > 0; ++job) {
      Release(job);
    }
  }

  void OnEvent(uint32_t task, uint32_t step) override {
    DRACONIS_CHECK_MSG(step != kTimerWord, "a task timer fired");
    if (step == 0) {
      timeouts_[task] = E::CancellableAfter(*sim_, FromMicros(2500), this, task, kTimerWord);
      hedges_[task] = E::CancellableAfter(
          *sim_, FromMicros(600) + static_cast<TimeNs>(rng_.NextU64() & 0x3FFFF), this, task,
          kTimerWord);
    }
    if (step == kService) {
      E::After(*sim_, FromMicros(58) + static_cast<TimeNs>(rng_.NextU64() & 0x3FFFF), this,
                    task, step + 1);
      return;
    }
    if (step < kLastStep) {
      E::After(*sim_, Hop(), this, task, step + 1);
      return;
    }
    timeouts_[task].Cancel();
    hedges_[task].Cancel();
    const uint32_t job = task / kMaxWidth;
    if (--open_[job] == 0 && budget_ > 0) {
      Release(job);
    }
  }

 private:
  // The measured hop delays: 150 ns and 450 ns exactly, and 1-3 us spread.
  TimeNs Hop() {
    static constexpr TimeNs kHops[16] = {150,  150,  150,  150,  150,  450,  450,  1100,
                                         1150, 1200, 1250, 1300, 1700, 2100, 2600, 2700};
    const uint64_t r = rng_.NextU64();
    const TimeNs hop = kHops[r & 15];
    return hop < 1000 ? hop : hop + static_cast<TimeNs>((r >> 4) & 127);
  }

  void Release(uint32_t job) {
    const uint32_t width =
        static_cast<uint32_t>(std::min<uint64_t>(kWidths[frontier_[job]], budget_));
    frontier_[job] = (frontier_[job] + 1) % kFrontiers;
    budget_ -= width;
    open_[job] = width;
    const TimeNs first_hop = Hop();
    for (uint32_t i = 0; i < width; ++i) {
      E::After(*sim_, first_hop, this, job * kMaxWidth + i, 0);
    }
  }

  typename E::Sim* sim_;
  Rng rng_{19};
  uint64_t budget_;  // tasks
  std::vector<typename E::Handle> timeouts_;
  std::vector<typename E::Handle> hedges_;
  std::vector<uint32_t> open_;      // per job: tasks of its frontier still running
  std::vector<uint32_t> frontier_;  // per job: the frontier it releases next
};

template <typename E>
uint64_t NearFuture(typename E::Sim& sim, uint64_t budget) {
  NearFutureState<E> st(&sim, budget);
  st.Start();
  sim.RunUntil(sim.Now() + FromSeconds(3600));
  return sim.executed_events();
}

// --- Harness -----------------------------------------------------------------

struct Result {
  std::string name;
  uint64_t events = 0;
  double current_eps = 0;  // events/sec, current engine, ladder backend
  double heap_eps = 0;     // events/sec, current engine, heap backend
  double legacy_eps = 0;   // events/sec, seed engine
  double speedup() const { return legacy_eps > 0 ? current_eps / legacy_eps : 0; }
};

template <typename Fn>
double TimeOnce(uint64_t* events_out, Fn&& run) {
  const auto start = std::chrono::steady_clock::now();
  *events_out = run();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(*events_out) / elapsed.count();
}

template <typename WorkloadFn>
Result Measure(const char* name, uint64_t budget, int reps, WorkloadFn&& workload) {
  Result result;
  result.name = name;
  // Strictly alternate the engines rep by rep so frequency scaling and
  // thermal drift hit all of them equally; keep each engine's best rep.
  for (int r = 0; r < reps; ++r) {
    {
      sim::Simulator sim(sim::QueueBackend::kLadder);
      const double eps =
          TimeOnce(&result.events, [&] { return workload(CurrentEngine{}, sim, budget); });
      result.current_eps = std::max(result.current_eps, eps);
    }
    {
      sim::Simulator sim(sim::QueueBackend::kHeap);
      const double eps =
          TimeOnce(&result.events, [&] { return workload(CurrentEngine{}, sim, budget); });
      result.heap_eps = std::max(result.heap_eps, eps);
    }
    {
      legacy::Simulator sim;
      const double eps =
          TimeOnce(&result.events, [&] { return workload(LegacyEngine{}, sim, budget); });
      result.legacy_eps = std::max(result.legacy_eps, eps);
    }
  }
  std::printf(
      "%-16s %11llu events   ladder %9.0f ev/s   heap %9.0f ev/s   seed %9.0f ev/s   %.2fx\n",
      name, static_cast<unsigned long long>(result.events), result.current_eps, result.heap_eps,
      result.legacy_eps, result.speedup());
  std::fflush(stdout);
  return result;
}

bool Quick() {
  const char* env = std::getenv("DRACONIS_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

bool WriteJson(const std::string& path, const std::vector<Result>& results, bool quick) {
  json::Writer w;
  w.BeginObject();
  w.Key("bench").String("sim_core");
  w.Key("unit").String("events_per_sec");
  w.Key("quick").Bool(quick);
  w.Key("workloads").BeginArray();
  for (const Result& r : results) {
    w.BeginObject();
    w.Key("name").String(r.name);
    w.Key("events").UInt(r.events);
    w.Key("current").Double(r.current_eps);
    w.Key("heap").Double(r.heap_eps);
    w.Key("seed_engine").Double(r.legacy_eps);
    w.Key("speedup").Double(r.speedup());
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  const std::string doc = w.str() + "\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_sim_core.json";
  flags::Parser parser("micro_sim — wall-clock benchmark of the simulator event core");
  parser.AddString("json", &json_path, "where to write the benchmark JSON");
  std::string error;
  if (!parser.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "%s\n\n%s", error.c_str(), parser.Usage().c_str());
    return 2;
  }
  if (parser.help_requested()) {
    std::fputs(parser.Usage().c_str(), stdout);
    return 0;
  }

  const bool quick = Quick();
  // Quick mode keeps best-of-3 and a meaty budget: a single cold 100k-event
  // rep measures allocator warm-up and an un-ramped clock more than the
  // engine, and CI gates on these ratios.
  const uint64_t budget = quick ? 250'000 : 2'000'000;
  const int reps = 3;
  std::printf("sim event-core benchmark — %llu events/workload, best of %d\n",
              static_cast<unsigned long long>(budget), reps);

  std::vector<Result> results;
  results.push_back(Measure("schedule_heavy", budget, reps, [](auto e, auto& sim, uint64_t b) {
    return ScheduleHeavy<decltype(e)>(sim, b);
  }));
  results.push_back(Measure("cancel_heavy", budget, reps, [](auto e, auto& sim, uint64_t b) {
    return CancelHeavy<decltype(e)>(sim, b);
  }));
  results.push_back(Measure("timer_loop", budget, reps, [](auto e, auto& sim, uint64_t b) {
    return TimerLoop<decltype(e)>(sim, b);
  }));
  results.push_back(Measure("mixed_fig05a", budget / 8, reps, [](auto e, auto& sim, uint64_t b) {
    return MixedFig05a<decltype(e)>(sim, b);
  }));
  results.push_back(Measure("near_future", budget / 7, reps, [](auto e, auto& sim, uint64_t b) {
    return NearFuture<decltype(e)>(sim, b);
  }));
  return WriteJson(json_path, results, quick) ? 0 : 1;
}

}  // namespace
}  // namespace draconis::bench

int main(int argc, char** argv) { return draconis::bench::Main(argc, argv); }
