#include "dag/experiment.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace draconis::dag {

namespace {

// Deals DAG jobs round-robin over one FrontierDriver per client (mirroring
// the flat path's client rotation) and reports the job-level DagRunStats.
class DagSource : public cluster::JobSource {
 public:
  DagSource(const DagWorkloadSpec& workload, const HedgePolicy& hedge)
      : workload_(workload), hedge_(hedge), arrivals_(workload.Generate()) {
    // Offered load: every task of every generated job, whether or not its
    // frontier is ever reached before the horizon.
    for (const DagJobArrival& arrival : arrivals_) {
      offered_tasks_ += arrival.spec.tasks.size();
      for (const TaskNode& node : arrival.spec.tasks) {
        offered_work_ += node.duration;
      }
    }
  }

  TimeNs last_arrival() const override { return arrivals_.empty() ? 0 : arrivals_.back().at; }
  size_t offered_tasks() const override { return offered_tasks_; }
  TimeNs offered_work() const override { return offered_work_; }

  void Start(cluster::Testbed* testbed, const std::vector<cluster::Client*>& clients) override {
    for (cluster::Client* client : clients) {
      drivers_.push_back(std::make_unique<FrontierDriver>(testbed, client, workload_, hedge_));
    }
    for (size_t j = 0; j < arrivals_.size(); ++j) {
      drivers_[j % drivers_.size()]->EnqueueJob(arrivals_[j].at, std::move(arrivals_[j].spec));
    }
    for (const auto& driver : drivers_) {
      driver->Start();
    }
  }

  bool done() const override {
    for (const auto& driver : drivers_) {
      if (!driver->done()) {
        return false;
      }
    }
    return true;
  }

  void Harvest(const cluster::MetricsHub& metrics,
               cluster::ExperimentResult* result) const override {
    cluster::DagRunStats& dag = result->dag;
    dag.active = true;
    for (const auto& driver : drivers_) {
      driver->Harvest(&dag);
    }
    dag.hedges_launched = metrics.hedges_launched();
    dag.hedge_wins = metrics.hedge_wins();
    dag.replicas_cancelled = metrics.cancellations();
    dag.wasted_work = metrics.wasted_busy();
    if (metrics.total_busy() > 0) {
      dag.wasted_work_fraction = static_cast<double>(metrics.wasted_busy()) /
                                 static_cast<double>(metrics.total_busy());
    }
  }

 private:
  const DagWorkloadSpec& workload_;
  const HedgePolicy& hedge_;
  std::vector<DagJobArrival> arrivals_;  // specs move into the drivers on Start
  size_t offered_tasks_ = 0;
  TimeNs offered_work_ = 0;
  std::vector<std::unique_ptr<FrontierDriver>> drivers_;
};

}  // namespace

cluster::ExperimentResult RunDagExperiment(const cluster::ExperimentConfig& config,
                                           const DagWorkloadSpec& workload,
                                           const HedgePolicy& hedge) {
  // The DAG spec *is* the workload; the flat-stream channels must be empty.
  DRACONIS_CHECK_MSG(!config.workload.enabled(),
                     "RunDagExperiment: config.workload must be empty (pass a DagWorkloadSpec)");
  DRACONIS_CHECK_MSG(config.stream.empty(),
                     "RunDagExperiment: config.stream must be empty (pass a DagWorkloadSpec)");
  DRACONIS_CHECK_MSG(!config.noop_executors,
                     "RunDagExperiment: noop_executors makes clients fire-and-forget, so no "
                     "completion ever reaches the frontier driver to unlock a successor");
  const std::string workload_error = workload.Validate();
  DRACONIS_CHECK_MSG(workload_error.empty(), "invalid DagWorkloadSpec: " + workload_error);
  const std::string hedge_error = hedge.Validate();
  DRACONIS_CHECK_MSG(hedge_error.empty(), "invalid HedgePolicy: " + hedge_error);

  DagSource source(workload, hedge);
  return cluster::RunExperiment(config, source);
}

}  // namespace draconis::dag
