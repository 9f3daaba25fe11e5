#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace servebench {

using namespace selnet;

bool Checker::Check(uint64_t seq, size_t qi, const std::vector<float>& ts,
                    const serve::EstimateResponse& resp) {
  const std::vector<float>& est = resp.estimates;
  if (est.size() != ts.size()) {
    wrong_count_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    ++responses_;
    return false;
  }
  bool ok = true;
  for (float e : est) {
    if (!std::isfinite(e) || e < 0.0f) {
      bad_value_.fetch_add(1, std::memory_order_relaxed);
      ok = false;
      break;
    }
  }
  for (size_t i = 1; i < est.size(); ++i) {
    if (est[i] < est[i - 1]) {
      nonmonotone_.fetch_add(1, std::memory_order_relaxed);
      ok = false;
      break;
    }
  }
  double ape = 0.0;
  for (size_t i = 0; i < est.size(); ++i) {
    double y = setup_.ExactSelectivity(qi, ts[i]);
    ape += std::fabs(double(est[i]) - y) / std::max(y, 1.0);
  }
  bool retain = resp.cache_hits == 0 && seq % sample_every_ == 0;
  std::lock_guard<std::mutex> lock(mu_);
  ++responses_;
  ape_sum_ += ape;
  ape_count_ += est.size();
  if (retain) retained_.push_back({qi, ts, est});
  return ok;
}

uint64_t Checker::VerifySamples(core::SelNetCt& ref) {
  std::vector<Retained> sample;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sample.swap(retained_);
  }
  uint64_t bad = 0;
  for (const Retained& r : sample) {
    std::vector<float> want;
    if (r.ts.size() == 1) {
      tensor::Matrix x(1, kDim);
      std::copy(setup_.query(r.qi), setup_.query(r.qi) + kDim, x.row(0));
      tensor::Matrix t(1, 1, r.ts[0]);
      want.push_back(ref.Predict(x, t)(0, 0));
    } else {
      want = ref.SweepEstimate(setup_.query(r.qi), r.ts.data(), r.ts.size());
    }
    if (want.size() != r.estimates.size() ||
        std::memcmp(want.data(), r.estimates.data(),
                    want.size() * sizeof(float)) != 0) {
      ++bad;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  mismatches_ += bad;
  sampled_ += sample.size();
  return bad;
}

CheckTotals Checker::totals() const {
  CheckTotals t;
  t.wrong_count = wrong_count_.load();
  t.bad_value = bad_value_.load();
  t.nonmonotone = nonmonotone_.load();
  std::lock_guard<std::mutex> lock(mu_);
  t.responses = responses_;
  t.mismatches = mismatches_;
  t.sampled = sampled_;
  t.ape_sum = ape_sum_;
  t.ape_count = ape_count_;
  return t;
}

}  // namespace servebench
