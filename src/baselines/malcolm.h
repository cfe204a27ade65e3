// Malcolm-style latency-distribution-aware load balancing (PAPERS.md:
// *Malcolm*), rebuilt as an in-switch baseline: instead of steering by queue
// depth (RackSched's power-of-two over length estimates), the switch keeps a
// per-worker-node completion-time histogram fed by measured sojourns that
// completion credits piggyback, and pushes each task to the node with the
// lowest *expected latency* — (outstanding + 1) x mean observed sojourn.
//
// A node that is merely long-queued but fast (short tasks) can therefore
// beat a short-queued node stuck behind a heavy-tailed straggler, which is
// exactly the regime fig_tail_latency probes. Before any sojourn has been
// observed the mean defaults to 1 ns, so the rule degenerates to
// least-outstanding; ties break on a rotating offset, so steering is fully
// deterministic (no RNG draws). The rule runs on the shared push program
// (push_program.h).

#ifndef DRACONIS_BASELINES_MALCOLM_H_
#define DRACONIS_BASELINES_MALCOLM_H_

#include <cstdint>
#include <vector>

#include "baselines/push_program.h"
#include "net/packet.h"
#include "p4/pipeline.h"

namespace draconis::baselines {

// Log2-bucketed completion-time histogram, the switch-friendly stand-in for
// Malcolm's per-server latency distributions: 1 ns..~1 s in 30 power-of-two
// buckets, O(1) insert, expected value from bucket midpoints.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 30;

  void Record(uint64_t sojourn_ns);
  uint64_t count() const { return count_; }
  // Mean observed sojourn from the bucket midpoints; 0 when empty.
  double ExpectedNs() const;

 private:
  uint64_t count_ = 0;
  double sum_mid_ = 0.0;  // running sum of bucket midpoints
};

// The steering rule, over one target per worker node: argmin of
// (outstanding + 1) * mean observed sojourn.
class MalcolmProgram : public PushProgram {
 public:
  explicit MalcolmProgram(size_t num_nodes);

  // Feeds each credit's piggybacked sojourn into its node's histogram, then
  // runs the shared protocol.
  void OnPass(p4::PassContext& ctx, net::Packet&& pkt) override;

  const LatencyHistogram& cp_histogram(size_t node) const { return histograms_[node]; }

 private:
  size_t Select(TimeNs now) override;

  std::vector<LatencyHistogram> histograms_;
  size_t rotate_ = 0;  // deterministic tie-break offset
};

}  // namespace draconis::baselines

#endif  // DRACONIS_BASELINES_MALCOLM_H_
