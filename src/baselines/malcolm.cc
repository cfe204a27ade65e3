#include "baselines/malcolm.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace draconis::baselines {

void LatencyHistogram::Record(uint64_t sojourn_ns) {
  size_t bucket = 0;
  uint64_t v = sojourn_ns;
  while (v > 1 && bucket + 1 < kBuckets) {
    v >>= 1;
    ++bucket;
  }
  ++count_;
  // Midpoint of [2^b, 2^(b+1)): 1.5 * 2^b (bucket 0 holds 0..1 ns -> 1 ns).
  sum_mid_ += bucket == 0 ? 1.0 : 1.5 * static_cast<double>(uint64_t{1} << bucket);
}

double LatencyHistogram::ExpectedNs() const {
  return count_ == 0 ? 0.0 : sum_mid_ / static_cast<double>(count_);
}

MalcolmProgram::MalcolmProgram(size_t num_nodes)
    : PushProgram(num_nodes), histograms_(num_nodes) {}

void MalcolmProgram::OnPass(p4::PassContext& ctx, net::Packet&& pkt) {
  if (pkt.op == net::OpCode::kCredit) {
    // The worker piggybacks the task's measured sojourn in summary_depth.
    DRACONIS_CHECK(pkt.exec_props < histograms_.size());
    histograms_[pkt.exec_props].Record(pkt.summary_depth);
  }
  PushProgram::OnPass(ctx, std::move(pkt));
}

size_t MalcolmProgram::Select(TimeNs /*now*/) {
  const std::vector<uint32_t>& outstanding = this->outstanding();
  const size_t n = outstanding.size();
  size_t best = rotate_ % n;
  double best_score = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t node = (rotate_ + i) % n;
    // Expected wait for a new arrival: the work ahead of it (outstanding
    // tasks plus itself) times the node's mean observed completion time.
    // Unobserved nodes score by outstanding alone (mean floored at 1 ns).
    const double mean = std::max(histograms_[node].ExpectedNs(), 1.0);
    const double score = static_cast<double>(outstanding[node] + 1) * mean;
    if (i == 0 || score < best_score) {
      best = node;
      best_score = score;
    }
  }
  ++rotate_;  // rotate the scan start so exact ties spread across nodes
  return best;
}

}  // namespace draconis::baselines
